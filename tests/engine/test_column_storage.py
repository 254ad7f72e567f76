"""Column-major tables: what a query builds, and what a mutation drops.

A table stores one list per column and builds row dicts only for a
reader that needs mappings.  These tests pin that a cold CSV load plus a
query whose every element lowers and whose every SELECT item is a
column reference builds none, and still returns what the per-row loader
and the interpreted oracle return; that each mutation drops the row
dicts, the float columns and the partitions derived from the old rows;
and that threads racing to build them on one fresh table, in memory or
mmapped, each get the serial answer.
"""

from __future__ import annotations

import csv
import sys
import threading

import pytest

from repro.data.random_walk import geometric_walk
from repro.engine import csv_io
from repro.engine.catalog import Catalog
from repro.engine.columnar import load_columnar, load_table, write_columnar
from repro.engine.executor import Executor
from repro.engine.table import BaseTable, Schema, Table
from repro.errors import SchemaError
from repro.obs import Trace
from repro.pattern.predicates import AttributeDomains
from repro.resilience import ErrorPolicy

DOMAINS = AttributeDomains.prices()
SCHEMA = Schema([("name", "str"), ("date", "int"), ("price", "float")])

#: ``panel_cold``'s query: every element lowers (two truth arrays and an
#: anchored comparison), and every SELECT item is a column reference.
PANEL_QUERY = (
    "SELECT X.name, X.date, S.date FROM quote CLUSTER BY name "
    "SEQUENCE BY date AS (X, *Y, S) "
    "WHERE Y.price < 0.995 * Y.previous.price "
    "AND S.price > 1.01 * X.price"
)


def write_panel(path, tickers=8, days=300):
    """A panel CSV as ``panel_cold`` writes it, day-major so that every
    cluster's rows arrive interleaved."""
    walks = [
        geometric_walk(days, seed=900 + ticker, shock_probability=0.03)
        for ticker in range(tickers)
    ]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SCHEMA.names)
        for day in range(days):
            for ticker, walk in enumerate(walks):
                writer.writerow([f"T{ticker:02d}", day, round(walk[day], 4)])
    return str(path)


@pytest.fixture
def row_dicts(monkeypatch):
    """Counts of every path that builds or checks a row dict."""
    calls = {"rows": 0, "validate_row": 0, "convert_record": 0}
    rows, validate, convert = BaseTable.rows, Schema.validate_row, csv_io._convert_record

    def counting_rows(self):
        calls["rows"] += 1
        return rows.fget(self)

    def counting_validate(self, row):
        calls["validate_row"] += 1
        return validate(self, row)

    def counting_convert(*args, **kwargs):
        calls["convert_record"] += 1
        return convert(*args, **kwargs)

    monkeypatch.setattr(BaseTable, "rows", property(counting_rows))
    monkeypatch.setattr(Schema, "validate_row", counting_validate)
    monkeypatch.setattr(csv_io, "_convert_record", counting_convert)
    return calls


def test_a_cold_panel_load_and_query_build_no_row_dict(tmp_path, row_dicts):
    path = write_panel(tmp_path / "panel.csv")
    table = load_table(path, "quote", SCHEMA)
    trace = Trace()
    executor = Executor(Catalog([table]), domains=DOMAINS)
    result = executor.execute(PANEL_QUERY, trace=trace)
    assert row_dicts == {"rows": 0, "validate_row": 0, "convert_record": 0}
    analyzed, compiled = executor.prepare(PANEL_QUERY)
    assert None not in analyzed.projection.gathers
    kernels = trace.root.find_all("kernels")
    assert len(kernels) == 8
    assert all(span.attrs["lowered"] == compiled.m for span in kernels)

    reference = csv_io._load_csv_rows(
        path, "quote", SCHEMA, policy=ErrorPolicy.RAISE, diagnostics=None
    )
    oracle = Executor(
        Catalog([reference]), domains=DOMAINS, codegen=False, evaluator="row",
        matcher="naive",
    ).execute(PANEL_QUERY)
    assert result.rows and result.rows == oracle.rows


def test_a_query_that_needs_mappings_builds_them_once(tmp_path, row_dicts):
    """A SELECT item that is not a column reference reads the cluster's
    rows, which the partition keeps: a warm query builds nothing."""
    table = load_table(write_panel(tmp_path / "panel.csv"), "quote", SCHEMA)
    executor = Executor(Catalog([table]), domains=DOMAINS)
    query = PANEL_QUERY.replace("S.date FROM", "S.price - X.price FROM")
    cold = executor.execute(query)
    assert row_dicts["rows"] == 8  # one per cluster, the table's built once
    warm = executor.execute(query)
    assert row_dicts["rows"] == 8
    assert warm.rows == cold.rows


class TestMutations:
    QUERY = (
        "SELECT X.date FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) "
        "WHERE Y.price > X.price"
    )

    def fresh(self):
        table = Table("quote", SCHEMA)
        table.insert_many(
            {"name": name, "date": day, "price": float(10 + day % 3)}
            for day in range(6)
            for name in ("A", "B")
        )
        return table

    def derive(self, table):
        """Everything a table keeps: its rows, a float column, a partition."""
        import numpy

        rows = table.rows
        floats = table.float_column("price", numpy)
        Executor(Catalog([table]), domains=DOMAINS).execute(self.QUERY)
        assert table.partitions and floats is not None
        return rows

    MUTATIONS = {
        "insert": lambda table: table.insert({"name": "A", "date": 9, "price": 7}),
        "insert_many": lambda table: table.insert_many(
            [{"name": "C", "date": 1, "price": 7.0}, {"name": "A", "date": 9, "price": 7}]
        ),
        "extend_columns": lambda table: table.extend_columns([["A"], [9], [7]]),
    }

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_each_mutation_drops_the_rows_the_floats_and_the_partitions(self, mutation):
        import numpy

        table = self.fresh()
        rows = self.derive(table)
        self.MUTATIONS[mutation](table)
        assert table.partitions == {}
        assert table.rows is not rows
        assert table.rows[: len(rows)] == rows
        assert table.rows[-1] == {"name": "A", "date": 9, "price": 7}
        # The new int price makes the column decline: decided afresh.
        assert table.float_column("price", numpy) is None
        result = Executor(Catalog([table]), domains=DOMAINS).execute(self.QUERY)
        assert table.partitions
        assert result.rows == Executor(
            Catalog([table]), domains=DOMAINS, evaluator="row"
        ).execute(self.QUERY).rows

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda table: table.insert({"name": "A", "date": 9, "price": "x"}),
            lambda table: table.insert_many(
                [{"name": "A", "date": 9, "price": 7.0}, {"name": "A", "date": 10}]
            ),
            lambda table: table.extend_columns([["A", "B"], [9, 10], [7.0, "x"]]),
        ],
        ids=["insert", "insert_many", "extend_columns"],
    )
    def test_a_rejected_mutation_changes_and_drops_nothing(self, mutation):
        table = self.fresh()
        rows = self.derive(table)
        partitions = table.partitions
        with pytest.raises(SchemaError):
            mutation(table)
        assert len(table) == len(rows)
        assert table.rows is rows
        assert table.partitions is partitions


#: Each reads the table its own way: kernels and gathers only, the
#: cluster's rows for a computed SELECT item, the row evaluators, and
#: the interpreted oracle, which reads the table's rows.
THREAD_PLANS = [
    (PANEL_QUERY, {}),
    (PANEL_QUERY.replace("S.date FROM", "S.price * 2 FROM"), {}),
    (PANEL_QUERY, {"evaluator": "row"}),
    (PANEL_QUERY, {"codegen": False, "evaluator": "row", "matcher": "naive"}),
]


@pytest.mark.parametrize("mmapped", [False, True], ids=["table", "rcol"])
def test_eight_threads_building_one_fresh_table_get_the_serial_answer(
    mmapped, tmp_path
):
    path = write_panel(tmp_path / "panel.csv", tickers=6, days=200)

    def fresh(name):
        table = load_table(path, "quote", SCHEMA)
        if not mmapped:
            return table
        rcol = str(tmp_path / f"{name}.rcol")
        write_columnar(table, rcol)
        return load_columnar(rcol)

    serial_table, shared = fresh("serial"), fresh("shared")
    try:
        serial = [
            Executor(Catalog([serial_table]), domains=DOMAINS, **options)
            .execute(query)
            .rows
            for query, options in THREAD_PLANS
        ]
        executors = [
            Executor(Catalog([shared]), domains=DOMAINS, **options)
            for _, options in THREAD_PLANS
        ]
        for executor, (query, _) in zip(executors, THREAD_PLANS):
            executor.prepare(query)  # so the threads meet in the scan
        barrier = threading.Barrier(8, timeout=60)
        results = [None] * 8

        def run(index):
            plan = index % len(THREAD_PLANS)
            barrier.wait()
            results[index] = executors[plan].execute(THREAD_PLANS[plan][0]).rows

        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-build
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(serial)
        assert serial[0] == serial[2] == serial[3]
        for index, rows in enumerate(results):
            assert rows == serial[index % len(THREAD_PLANS)], index
    finally:
        if mmapped:
            serial_table.close()
            shared.close()
