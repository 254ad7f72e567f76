"""CLUSTER BY / SEQUENCE BY: the paper's Figure 1 behaviour.

The partitioning groups and sorts row positions over the table's
columns and is kept on the table; a Hypothesis property pins every scan
of it (cold, warm, and after each mutation) to the per-row reference it
replaced (keys, row positions and objects, order, and lenient-policy
diagnostics).  The laziness tests count the cells each step reads
through a :class:`CountingTable`.
"""

import datetime as dt
import os
import random
import sys
import tempfile
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.quotes import QUOTE_SCHEMA, synthetic_quotes
from repro.engine.catalog import Catalog
from repro.engine import table as table_module
from repro.engine.cluster import clusters_of, sequenced_source
from repro.engine.columnar import load_columnar, write_columnar
from repro.engine.executor import Executor
from repro.engine.table import Table
from repro.errors import ExecutionError
from repro.resilience import Diagnostics, ErrorPolicy


QUOTE_COLUMNS = [("name", "str"), ("date", "date"), ("price", "float")]


def quote_table(rows):
    table = Table("quote", QUOTE_COLUMNS)
    table.insert_many(rows)
    return table


def counting_quote_table(rows):
    table = CountingTable("quote", QUOTE_COLUMNS)
    table.insert_many(rows)
    return table


def d(day):
    return dt.date(1999, 1, day)


ROWS = [
    {"name": "INTC", "date": d(26), "price": 63.5},
    {"name": "IBM", "date": d(25), "price": 81.0},
    {"name": "INTC", "date": d(25), "price": 60.0},
    {"name": "IBM", "date": d(27), "price": 84.0},
    {"name": "IBM", "date": d(26), "price": 80.5},
    {"name": "INTC", "date": d(27), "price": 62.0},
]


class TestClustering:
    def test_groups_by_key_sorted_by_sequence(self):
        table = quote_table(ROWS)
        clusters = dict(clusters_of(table, ["name"], ["date"]))
        assert set(clusters) == {("INTC",), ("IBM",)}
        intc = clusters[("INTC",)]
        assert [row["price"] for row in intc] == [60.0, 63.5, 62.0]
        ibm = clusters[("IBM",)]
        assert [row["price"] for row in ibm] == [81.0, 80.5, 84.0]

    def test_cluster_order_is_first_appearance(self):
        table = quote_table(ROWS)
        keys = [key for key, _ in clusters_of(table, ["name"], ["date"])]
        assert keys == [("INTC",), ("IBM",)]

    def test_no_cluster_by_single_group(self):
        table = quote_table(ROWS)
        ((key, rows),) = list(clusters_of(table, [], ["date"]))
        assert key == ()
        assert len(rows) == 6
        assert [r["date"] for r in rows] == sorted(r["date"] for r in rows)

    def test_no_sequence_by_preserves_insert_order(self):
        table = quote_table(ROWS)
        clusters = dict(clusters_of(table, ["name"], []))
        assert [row["date"].day for row in clusters[("INTC",)]] == [26, 25, 27]

    def test_multi_attribute_cluster_key(self):
        table = Table("t", [("a", "str"), ("b", "int"), ("v", "float")])
        table.insert_many(
            [
                {"a": "x", "b": 1, "v": 1.0},
                {"a": "x", "b": 2, "v": 2.0},
                {"a": "x", "b": 1, "v": 3.0},
            ]
        )
        clusters = dict(clusters_of(table, ["a", "b"], []))
        assert set(clusters) == {("x", 1), ("x", 2)}
        assert len(clusters[("x", 1)]) == 2

    def test_unknown_column_rejected(self):
        table = quote_table(ROWS)
        with pytest.raises(ExecutionError):
            list(clusters_of(table, ["ticker"], ["date"]))
        with pytest.raises(ExecutionError):
            list(clusters_of(table, ["name"], ["when"]))

    def test_empty_table(self):
        table = quote_table([])
        assert list(clusters_of(table, ["name"], ["date"])) == []

    def test_clusters_are_sorted_only_when_reached(self):
        # A scan that stops early (deadline, row budget) must not pay
        # for sorting the clusters it never reaches.
        table = counting_quote_table(ROWS)
        clusters = clusters_of(table, ["name"], ["date"])
        key, first = next(clusters)
        assert key == ("INTC",)
        dates = table.reads["date"]
        assert [dates[position] for position in first.index] == [1, 1, 1]
        assert [dates[position] for position in positions_of("IBM")] == [0, 0, 0]

    def test_rejected_cluster_is_never_sorted(self):
        table = counting_quote_table(ROWS)
        clusters = list(
            clusters_of(
                table, ["name"], ["date"], keep=lambda rows: rows[0]["name"] == "IBM"
            )
        )
        assert [(key, cluster is None) for key, cluster in clusters] == [
            (("INTC",), True),
            (("IBM",), False),
        ]
        dates = table.reads["date"]
        assert [dates[position] for position in positions_of("INTC")] == [0, 0, 0]
        assert [r["date"].day for r in clusters[1][1]] == [25, 26, 27]


class TestHoistedClusterFilter:
    """The query's hoisted ``X.name = ...`` filter runs before the sort."""

    QUERY = (
        "SELECT X.date FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) "
        "WHERE X.name = 'IBM' AND Y.price > X.price"
    )

    def run(self, policy):
        table = counting_quote_table(ROWS)
        executor = Executor(Catalog([table]), policy=policy)
        result, report = executor.execute_with_report(self.QUERY)
        dates = table.reads["date"]
        return result, report, [dates[position] for position in positions_of("INTC")]

    def test_rejected_cluster_is_never_sorted(self):
        result, report, intc_reads = self.run("raise")
        assert intc_reads == [0, 0, 0]
        assert list(result.rows) == [(d(26),)]
        assert (report.clusters, report.clusters_searched) == (2, 1)

    def test_lenient_policy_still_audits_every_cluster(self):
        result, report, intc_reads = self.run("collect")
        assert all(reads > 0 for reads in intc_reads)
        assert report.diagnostics.warnings  # INTC arrived out of order
        assert list(result.rows) == [(d(26),)]
        assert (report.clusters, report.clusters_searched) == (2, 1)


def reads_of(table, name):
    return sum(table.reads[name].values())


class TestPartitionMemo:
    """The table keeps its partition: a warm query reads no key cell."""

    QUERY = (
        "SELECT X.price FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) "
        "WHERE Y.price > X.price"
    )

    @pytest.mark.parametrize("policy", ["raise", "collect", "skip"])
    def test_a_warm_scan_reads_no_cell(self, policy):
        table = counting_quote_table(ROWS)
        cold_diagnostics, warm_diagnostics = Diagnostics(), Diagnostics()
        cold = [
            (key, cluster.index)
            for key, cluster in clusters_of(
                table, ["name"], ["date"], policy=policy, diagnostics=cold_diagnostics
            )
        ]
        assert reads_of(table, "name") == len(ROWS)
        table.clear_reads()
        warm = [
            (key, cluster.index)
            for key, cluster in clusters_of(
                table, ["name"], ["date"], policy=policy, diagnostics=warm_diagnostics
            )
        ]
        assert not any(table.reads.values())
        assert warm == cold
        assert warm_diagnostics.warnings == cold_diagnostics.warnings
        # Under a lenient policy INTC's out-of-order warning is replayed.
        assert bool(warm_diagnostics.warnings) == (policy != "raise")
        assert repr(warm_diagnostics.quarantined) == repr(
            cold_diagnostics.quarantined
        )

    def test_a_warm_query_reads_no_cluster_or_sequence_cell(self):
        table = counting_quote_table(ROWS)
        executor = Executor(Catalog([table]))
        cold = executor.execute(self.QUERY)
        assert reads_of(table, "date") >= len(ROWS)
        table.clear_reads()
        warm = executor.execute(self.QUERY)
        assert warm.rows == cold.rows == ((60.0,), (80.5,))
        assert reads_of(table, "name") == reads_of(table, "date") == 0
        # The kernels read the kept price columns: only the SELECT reads
        # a price cell, one per match.
        assert reads_of(table, "price") == len(warm.rows)

    def test_a_warm_query_builds_no_column(self, monkeypatch):
        """A warm query's kernels read the columns the partition keeps;
        a cold one decides the table's ``price`` column once and takes
        each cluster's from it."""
        decided, taken = [], []
        decide, take = table_module.float_array, Table.float_column

        def counting_decide(values, np):
            decided.append(len(values))
            return decide(values, np)

        def counting_take(self, name, np):
            taken.append(name)
            return take(self, name, np)

        monkeypatch.setattr(table_module, "float_array", counting_decide)
        monkeypatch.setattr(Table, "float_column", counting_take)
        executor = Executor(Catalog([quote_table(ROWS)]))
        cold = executor.execute(self.QUERY)
        assert decided == [len(ROWS)] and taken == ["price", "price"]
        decided.clear()
        taken.clear()
        warm = executor.execute(self.QUERY)
        assert warm.rows == cold.rows == ((60.0,), (80.5,))
        assert decided == taken == []


def shuffled_quotes():
    """Quotes out of SEQUENCE BY order, with two duplicate keys."""
    rows = synthetic_quotes(days=200)
    random.Random(5).shuffle(rows)
    return rows + [dict(rows[3], price=1.0), dict(rows[40], price=2.0)]


THREADED_QUERY = (
    "SELECT X.name, X.date, Z.date FROM quote CLUSTER BY name "
    "SEQUENCE BY date AS (X, *Y, Z) "
    "WHERE Y.price < Y.previous.price AND Z.price > 1.01 * Z.previous.price"
)


@pytest.mark.parametrize("policy", ["raise", "collect"])
@pytest.mark.parametrize("from_file", [False, True], ids=["table", "rcol"])
def test_threads_sharing_a_fresh_table_get_the_serial_answer(
    policy, from_file, tmp_path
):
    rows = shuffled_quotes()

    def fresh(name):
        table = Table("quote", QUOTE_SCHEMA)
        table.insert_many(rows)
        if not from_file:
            return table
        path = str(tmp_path / f"{name}.rcol")
        write_columnar(table, path)
        return load_columnar(path)

    serial_table, shared = fresh("serial"), fresh("shared")
    serial = Executor(Catalog([serial_table]), policy=policy).execute(THREADED_QUERY)
    executor = Executor(Catalog([shared]), policy=policy)
    executor.prepare(THREADED_QUERY)  # so the threads meet in the scan
    barrier = threading.Barrier(8, timeout=60)
    results = [None] * 8

    def run(index):
        barrier.wait()
        results[index] = executor.execute(THREADED_QUERY)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-group and mid-sort
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert serial.rows
    if policy == "collect":
        assert serial.diagnostics.warnings
    for result in results:
        assert result.rows == serial.rows
        assert result.diagnostics.warnings == serial.diagnostics.warnings
        assert repr(result.diagnostics.quarantined) == repr(
            serial.diagnostics.quarantined
        )


def positions_of(name):
    """The table positions of ``name``'s rows in ``ROWS``."""
    return [position for position, row in enumerate(ROWS) if row["name"] == name]


class CountingColumn:
    """A table column that counts the reads of each of its cells."""

    def __init__(self, values, reads):
        self._values = values
        self._reads = reads

    def __len__(self):
        return len(self._values)

    def __getitem__(self, position):
        self._reads[position] += 1
        return self._values[position]

    def __iter__(self):
        for position, value in enumerate(self._values):
            self._reads[position] += 1
            yield value


class CountingTable(Table):
    """A table whose every cell read, through ``column``, is counted in
    ``reads[name][position]``: grouping, sorting, kernel columns,
    gathers and row dicts all read the table that way."""

    def __init__(self, name, schema):
        super().__init__(name, schema)
        self.reads = {column: Counter() for column in self.schema.names}

    def column(self, name):
        return CountingColumn(super().column(name), self.reads[name])

    def clear_reads(self):
        for counter in self.reads.values():
            counter.clear()


class TestSequenced:
    """:func:`sequenced_source`: the rows of the table's single cluster,
    addressed by offset."""

    def test_stable_sequence_order(self):
        table = quote_table(ROWS)
        pairs = list(sequenced_source(table, ["date"])(0))
        assert [offset for offset, _ in pairs] == list(range(len(ROWS)))
        rows = [row for _, row in pairs]
        assert [(r["date"].day, r["name"]) for r in rows] == [
            (25, "IBM"), (25, "INTC"), (26, "INTC"),
            (26, "IBM"), (27, "IBM"), (27, "INTC"),
        ]
        ((_, single),) = clusters_of(table, [], ["date"])
        assert rows == single.rows
        assert all(a is b for a, b in zip(rows, single.rows))

    def test_no_sequence_by_is_a_copy_in_insert_order(self):
        table = quote_table(ROWS)
        source = sequenced_source(table, [])
        assert [row for _, row in source(0)] == table.rows
        table.insert(dict(ROWS[0], date=d(28)))
        # The source keeps the rows it started on.
        assert len(list(source(0))) == len(ROWS)

    def test_a_resume_starts_at_its_offset(self):
        source = sequenced_source(quote_table(ROWS), ["date"])
        pairs = list(source(0))
        for start in range(len(ROWS) + 2):
            assert list(source(start)) == pairs[start:]
        with pytest.raises(ValueError, match="non-negative"):
            source(-1)

    def test_an_empty_table_yields_nothing(self):
        assert list(sequenced_source(quote_table([]), ["date"])(0)) == []

    def test_unknown_column_rejected(self):
        with pytest.raises(ExecutionError, match="no column 'when'"):
            sequenced_source(quote_table(ROWS), ["when"])


# -- reference: the per-row partitioning the itemgetter path replaced ------


def reference_clusters_of(
    table, cluster_by, sequence_by, *, policy=ErrorPolicy.RAISE, diagnostics=None
):
    policy = ErrorPolicy.coerce(policy)
    for name in (*cluster_by, *sequence_by):
        if name not in table.schema:
            raise ExecutionError(
                f"table {table.name!r} has no column {name!r} "
                "(referenced by CLUSTER BY / SEQUENCE BY)"
            )
    groups = {}
    for position, row in enumerate(table):
        key = tuple(row[name] for name in cluster_by)
        groups.setdefault(key, []).append(Positioned(position, row))
    for key, rows in groups.items():
        if sequence_by:
            if policy.lenient:
                rows = _reference_audit(
                    table.name, key, rows, sequence_by, policy, diagnostics
                )
            else:
                rows = sorted(rows, key=lambda row: _reference_key(row, sequence_by))
        yield key, rows


class Positioned(dict):
    """A reference row: the table's row, and where the table holds it."""

    def __init__(self, position, row):
        super().__init__(row)
        self.position = position
        self.row = row


def _reference_audit(table_name, key, rows, sequence_by, policy, diagnostics):
    keys = [_reference_key(row, sequence_by) for row in rows]
    out_of_order = any(a > b for a, b in zip(keys, keys[1:]))
    ordered = sorted(zip(keys, rows), key=lambda pair: pair[0])
    label = f"cluster {key!r}" if key else "the single cluster"
    if out_of_order and diagnostics is not None:
        diagnostics.warn(
            f"table {table_name!r}, {label}: SEQUENCE BY "
            f"{tuple(sequence_by)} keys arrived out of order; "
            "stably re-sorted"
        )
    duplicates = sum(a == b for (a, _), (b, _) in zip(ordered, ordered[1:]))
    if duplicates:
        if policy is ErrorPolicy.SKIP:
            deduped = []
            last_key = object()
            for sort_key, row in ordered:
                if sort_key == last_key:
                    if diagnostics is not None:
                        diagnostics.quarantine(
                            f"table {table_name!r}",
                            0,
                            f"{label}: duplicate SEQUENCE BY key {sort_key!r}",
                            tuple(row.values()),
                        )
                    continue
                last_key = sort_key
                deduped.append(row)
            return deduped
        if diagnostics is not None:
            diagnostics.warn(
                f"table {table_name!r}, {label}: {duplicates} duplicate "
                f"SEQUENCE BY key(s); match results depend on their "
                "relative order"
            )
    return [row for _, row in ordered]


def _reference_key(row, sequence_by):
    return tuple(row[name] for name in sequence_by)


PROPERTY_SCHEMA = [("g", "str"), ("x", "float"), ("s", "int"), ("t", "float")]
NAN = float("nan")

#: Mixed int/float, 0.0 with -0.0, a shared NaN object and fresh NaN
#: objects (equal only to themselves, so each one is its own key).
numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1, 1.0, 2, 2.5, -1.0, NAN]),
    st.builds(float, st.just("nan")),
)
property_rows = st.lists(
    st.fixed_dictionaries(
        {
            "g": st.sampled_from(["a", "b", "c"]),
            "x": numbers,
            "s": st.integers(-2, 3),
            "t": numbers,
        }
    ),
    max_size=24,
)
key_columns = st.lists(st.sampled_from(["g", "x", "s", "t"]), max_size=2, unique=True)


def _shape(key):
    """A key's element types and reprs: NaN-safe, and tells 0.0 from -0.0."""
    return tuple((type(value), repr(value)) for value in key)


def assert_matches_reference(table, cluster_by, sequence_by, policy):
    """One ``clusters_of`` scan against the reference on the table as it
    is now: keys, row positions, row objects, order and diagnostics."""
    got_diagnostics, want_diagnostics = Diagnostics(), Diagnostics()
    got = list(
        clusters_of(
            table, cluster_by, sequence_by,
            policy=policy, diagnostics=got_diagnostics,
        )
    )
    want = list(
        reference_clusters_of(
            table, cluster_by, sequence_by,
            policy=policy, diagnostics=want_diagnostics,
        )
    )
    assert all(type(key) is tuple for key, _ in got)
    assert [_shape(key) for key, _ in got] == [_shape(key) for key, _ in want]
    assert [cluster.index for _, cluster in got] == [
        [row.position for row in cluster] for _, cluster in want
    ]
    assert [[id(row) for row in cluster] for _, cluster in got] == [
        [id(row.row) for row in cluster] for _, cluster in want
    ]
    assert got_diagnostics.warnings == want_diagnostics.warnings
    assert repr(got_diagnostics.quarantined) == repr(want_diagnostics.quarantined)


@settings(max_examples=150, deadline=None)
@given(
    rows=property_rows,
    extra=property_rows,
    cluster_by=key_columns,
    sequence_by=key_columns,
    policy=st.sampled_from(list(ErrorPolicy)),
    from_file=st.booleans(),
)
def test_partitioning_matches_per_row_reference(
    rows, extra, cluster_by, sequence_by, policy, from_file
):
    # Cold (the scan that groups), then warm (the kept partition and its
    # replayed audit), then after each kind of mutation a Table allows.
    table = Table("t", PROPERTY_SCHEMA)
    table.insert_many(rows)
    if from_file:
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "t.rcol")
            write_columnar(table, path)
            table = load_columnar(path)
    assert_matches_reference(table, cluster_by, sequence_by, policy)
    assert_matches_reference(table, cluster_by, sequence_by, policy)
    for row in extra[:2]:
        table.insert(row)
        assert_matches_reference(table, cluster_by, sequence_by, policy)
    table.insert_many(extra[2:5])
    assert_matches_reference(table, cluster_by, sequence_by, policy)
    added = extra[5:]
    table.extend_columns(
        [[row[name] for row in added] for name, _ in PROPERTY_SCHEMA]
    )
    assert_matches_reference(table, cluster_by, sequence_by, policy)
