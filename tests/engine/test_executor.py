"""The SQL-TS executor end to end: projection, clustering, reports."""

import datetime as dt
import gc

import pytest

from repro.data.quotes import quote_table
from repro.data.workloads import EXAMPLE_2
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor, execute
from repro.engine.session import Session
from repro.engine.table import Table
from repro.errors import ExecutionError
from repro.match.base import Instrumentation
from repro.pattern.predicates import AttributeDomains

DOMAINS = AttributeDomains.prices()


def quote_catalog(rows):
    table = Table("quote", [("name", "str"), ("date", "date"), ("price", "float")])
    table.insert_many(rows)
    return Catalog([table])


def d(day, month=1):
    return dt.date(1999, month, day)


SPIKE_ROWS = [
    # IBM: spike day 26 (+20%), crash day 27 (-25%)
    {"name": "IBM", "date": d(25), "price": 100.0},
    {"name": "IBM", "date": d(26), "price": 120.0},
    {"name": "IBM", "date": d(27), "price": 90.0},
    # INTC: no spike
    {"name": "INTC", "date": d(25), "price": 60.0},
    {"name": "INTC", "date": d(26), "price": 61.0},
    {"name": "INTC", "date": d(27), "price": 62.0},
]

EXAMPLE1 = """
SELECT X.name
FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price
"""


class TestBasicExecution:
    def test_example1_finds_the_spike(self):
        catalog = quote_catalog(SPIKE_ROWS)
        result = execute(EXAMPLE1, catalog, domains=DOMAINS)
        assert result.columns == ("X.name",)
        assert result.rows == (("IBM",),)

    def test_rows_arrive_unsorted(self):
        catalog = quote_catalog(list(reversed(SPIKE_ROWS)))
        result = execute(EXAMPLE1, catalog, domains=DOMAINS)
        assert result.rows == (("IBM",),)

    def test_aliases_name_output_columns(self):
        catalog = quote_catalog(SPIKE_ROWS)
        result = execute(
            """
            SELECT X.date AS spike_eve, Y.price AS peak
            FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
            WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price
            """,
            catalog,
            domains=DOMAINS,
        )
        assert result.columns == ("spike_eve", "peak")
        assert result.rows == ((d(25), 120.0),)

    def test_navigation_in_select(self):
        catalog = quote_catalog(SPIKE_ROWS)
        result = execute(
            """
            SELECT Y.previous.price, Y.NEXT.price
            FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
            WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price
            """,
            catalog,
            domains=DOMAINS,
        )
        assert result.rows == ((100.0, 90.0),)

    def test_navigation_off_cluster_is_null(self):
        catalog = quote_catalog(SPIKE_ROWS)
        result = execute(
            """
            SELECT X.previous.price
            FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
            WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price
            """,
            catalog,
            domains=DOMAINS,
        )
        assert result.rows == ((None,),)

    def test_unknown_table(self):
        with pytest.raises(ExecutionError):
            execute(EXAMPLE1, Catalog([]), domains=DOMAINS)

    def test_unknown_matcher_name(self):
        with pytest.raises(ExecutionError):
            Executor(quote_catalog(SPIKE_ROWS), matcher="quantum")


class TestClusterFilter:
    ROWS = SPIKE_ROWS + [
        {"name": "GE", "date": d(25), "price": 100.0},
        {"name": "GE", "date": d(26), "price": 120.0},
        {"name": "GE", "date": d(27), "price": 90.0},
    ]

    def test_hoisted_filter_restricts_clusters(self):
        catalog = quote_catalog(self.ROWS)
        result, report = Executor(catalog, domains=DOMAINS).execute_with_report(
            """
            SELECT X.name
            FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
            WHERE X.name = 'IBM'
              AND Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price
            """
        )
        assert result.rows == (("IBM",),)
        assert report.clusters == 3
        assert report.clusters_searched == 1

    def test_filter_saves_predicate_tests(self):
        catalog = quote_catalog(self.ROWS)
        inst = Instrumentation()
        Executor(catalog, domains=DOMAINS).execute(
            """
            SELECT X.name
            FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
            WHERE X.name = 'NONESUCH'
              AND Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price
            """,
            inst,
        )
        assert inst.tests == 0


class TestStarQueriesEndToEnd:
    FALLING = [
        {"name": "IBM", "date": d(25), "price": 100.0},
        {"name": "IBM", "date": d(26), "price": 80.0},
        {"name": "IBM", "date": d(27), "price": 60.0},
        {"name": "IBM", "date": d(28), "price": 40.0},
        {"name": "IBM", "date": d(29), "price": 45.0},
    ]

    def test_example2_maximal_falling_period(self):
        catalog = quote_catalog(self.FALLING)
        result = execute(
            """
            SELECT X.name, X.date AS start_date, Z.previous.date AS end_date
            FROM quote CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z)
            WHERE Y.price < Y.previous.price
              AND Z.previous.price < 0.5 * X.price
            """,
            catalog,
            domains=DOMAINS,
        )
        assert result.rows == ((("IBM"), d(25), d(28)),)

    def test_first_last_in_select(self):
        catalog = quote_catalog(self.FALLING)
        result = execute(
            """
            SELECT FIRST(Y).price, LAST(Y).price
            FROM quote CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z)
            WHERE Y.price < Y.previous.price
              AND Z.previous.price < 0.5 * X.price
            """,
            catalog,
            domains=DOMAINS,
        )
        assert result.rows == ((80.0, 40.0),)


class TestReport:
    def test_report_fields(self):
        catalog = quote_catalog(SPIKE_ROWS)
        result, report = Executor(catalog, domains=DOMAINS).execute_with_report(
            EXAMPLE1
        )
        assert report.matcher == "ops"
        assert report.clusters == 2
        assert report.rows_scanned == 6
        assert report.matches == len(result) == 1
        assert report.predicate_tests > 0
        assert report.pattern.m == 3

    def test_matcher_instance_accepted(self):
        from repro.match.naive import NaiveMatcher

        catalog = quote_catalog(SPIKE_ROWS)
        executor = Executor(catalog, domains=DOMAINS, matcher=NaiveMatcher())
        result = executor.execute(EXAMPLE1)
        assert result.rows == (("IBM",),)

    def test_naive_and_ops_agree_through_executor(self):
        catalog = quote_catalog(SPIKE_ROWS)
        ops = Executor(catalog, domains=DOMAINS, matcher="ops").execute(EXAMPLE1)
        naive = Executor(catalog, domains=DOMAINS, matcher="naive").execute(EXAMPLE1)
        assert ops == naive

    def test_prepare_without_execution(self):
        catalog = quote_catalog(SPIKE_ROWS)
        analyzed, compiled = Executor(catalog, domains=DOMAINS).prepare(EXAMPLE1)
        assert analyzed.table == "quote"
        assert compiled.m == 3


class TestWorkerCount:
    @pytest.mark.parametrize(
        "call",
        [
            lambda catalog: Executor(catalog, workers=True),
            lambda catalog: Executor(catalog).execute(EXAMPLE1, workers=True),
            lambda catalog: Session(catalog, workers=True),
        ],
        ids=["Executor", "execute", "Session"],
    )
    def test_a_bool_is_refused(self, call):
        # True is an int to Python, but no worker count a caller means.
        with pytest.raises(ExecutionError, match="positive int"):
            call(quote_catalog(SPIKE_ROWS))


class TestNoReferenceCycles:
    """A scan's matches and bindings must be freed by reference counting
    alone: a cycle would keep every match of a scan alive until a full
    collection."""

    PANEL_QUERY = (
        "SELECT X.name, X.date, S.date FROM quote CLUSTER BY name "
        "SEQUENCE BY date AS (X, *Y, S) "
        "WHERE Y.price < 0.995 * Y.previous.price "
        "AND S.price > 1.01 * X.price"
    )

    def test_residual_queries_leave_nothing_for_the_collector(self):
        executor = Executor(Catalog([quote_table(days=120)]), domains=DOMAINS)
        queries = (EXAMPLE_2, self.PANEL_QUERY)
        for query in queries:
            executor.prepare(query)
        gc.collect()
        gc.disable()
        try:
            results = [executor.execute(query) for query in queries]
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert results[1].rows  # the panel query's residual does match

    @pytest.mark.parametrize("policy", ["raise", "skip"])
    def test_a_queried_table_is_freed_by_reference_counting(self, policy):
        # The table keeps its partition: grouped and sorted clusters,
        # replayable audit records and kernel columns.  None of them may
        # point back at what holds them, or every table would outlive
        # its last query until a full collection.
        gc.collect()
        gc.disable()
        try:
            table = quote_table(days=120)
            executor = Executor(Catalog([table]), domains=DOMAINS, policy=policy)
            for query in (EXAMPLE1, EXAMPLE_2, self.PANEL_QUERY):
                executor.execute(query)
                executor.execute(query)
            assert table.partitions
            del table, executor
            assert gc.collect() == 0
        finally:
            gc.enable()
