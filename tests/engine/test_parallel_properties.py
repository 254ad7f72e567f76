"""Property-based tests for the partition splitter and ordered merger.

The invariants that make parallel execution safe regardless of data
shape: :func:`split_partitions` never loses, duplicates, or reorders a
partition for any cluster-key distribution (empty, singleton, heavily
skewed), and :func:`ordered_partition_outcomes` restores global
partition order from any unit completion order — rejecting duplicated
or out-of-order partition indices instead of silently reordering rows.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.parallel import (
    Partition,
    index_outcomes,
    ordered_partition_outcomes,
    split_partitions,
    usable_cpus,
)
from repro.engine.table import Schema, Table
from repro.errors import ExecutionError
from repro.obs import Trace
from repro.pattern.predicates import AttributeDomains
from tests.conftest import parallel_path


class TestSplitter:
    @given(
        total=st.integers(min_value=0, max_value=500),
        workers=st.integers(min_value=1, max_value=16),
    )
    def test_split_covers_everything_exactly_once_in_order(self, total, workers):
        items = list(range(total))
        units = split_partitions(items, workers)
        rebuilt = [p for unit in units for p in unit.partitions]
        assert rebuilt == items
        assert all(unit.partitions for unit in units)
        assert [unit.index for unit in units] == list(range(len(units)))

    @given(workers=st.integers(min_value=1, max_value=16))
    def test_empty_input_yields_no_units(self, workers):
        assert split_partitions([], workers) == []

    def test_singleton(self):
        units = split_partitions(["only"], 8)
        assert len(units) == 1 and units[0].partitions == ("only",)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ExecutionError):
            split_partitions([1, 2], 0)


def fake_outcomes(partition_indices, unit_size=3):
    """Unit outcomes covering ``partition_indices`` in consecutive chunks."""
    outcomes = []
    for start in range(0, len(partition_indices), unit_size):
        chunk = partition_indices[start : start + unit_size]
        outcomes.append(
            {
                "unit": len(outcomes),
                "partitions": [{"partition": index} for index in chunk],
            }
        )
    return outcomes


class TestMerger:
    @given(
        total=st.integers(min_value=0, max_value=200),
        unit_size=st.integers(min_value=1, max_value=17),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_any_completion_order_merges_back_in_order(
        self, total, unit_size, seed
    ):
        outcomes = fake_outcomes(list(range(total)), unit_size)
        random.Random(seed).shuffle(outcomes)
        merged = [
            outcome["partition"]
            for outcome in ordered_partition_outcomes(index_outcomes(outcomes))
        ]
        assert merged == list(range(total))

    def test_duplicate_unit_index_rejected(self):
        outcomes = fake_outcomes(list(range(6)))
        outcomes[1]["unit"] = outcomes[0]["unit"]
        with pytest.raises(ExecutionError, match="duplicate outcome"):
            index_outcomes(outcomes)

    def test_duplicate_partition_index_rejected(self):
        outcomes = fake_outcomes([0, 1, 1, 2])
        with pytest.raises(ExecutionError, match="out of order"):
            list(ordered_partition_outcomes(index_outcomes(outcomes)))

    def test_unsorted_partition_indices_rejected(self):
        outcomes = fake_outcomes([0, 2, 1, 3])
        with pytest.raises(ExecutionError, match="out of order"):
            list(ordered_partition_outcomes(index_outcomes(outcomes)))

    def test_empty_units_are_transparent(self):
        outcomes = fake_outcomes(list(range(4)), unit_size=2)
        outcomes.append({"unit": len(outcomes), "partitions": []})
        merged = [
            outcome["partition"]
            for outcome in ordered_partition_outcomes(index_outcomes(outcomes))
        ]
        assert merged == [0, 1, 2, 3]


QUERY = (
    "SELECT X.name, Y.date FROM quote CLUSTER BY name SEQUENCE BY date "
    "AS (X, Y) WHERE Y.price > 1.01 * X.price"
)

# Cluster-key distributions hypothesis explores: empty tables, one
# giant partition, many singletons, arbitrary skew.
rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),  # cluster key (skewable)
        st.floats(min_value=1.0, max_value=200.0, allow_nan=False, width=32),
    ),
    min_size=0,
    max_size=60,
)


class TestEndToEndProperty:
    @settings(max_examples=25, deadline=None)
    @given(rows=rows_strategy, workers=st.sampled_from([2, 3, 4]))
    def test_parallel_equals_serial_for_any_distribution(self, rows, workers):
        table = Table(
            "quote",
            Schema([("name", "str"), ("date", "int"), ("price", "float")]),
        )
        next_date: dict[int, int] = {}
        for key, price in rows:
            date = next_date.get(key, 0)
            next_date[key] = date + 1
            table.insert(
                {"name": f"K{key}", "date": date, "price": float(price)}
            )
        catalog = Catalog([table])

        def run(workers):
            executor = Executor(
                catalog, domains=AttributeDomains.prices(), workers=workers
            )
            with parallel_path("inline"):
                return executor.execute_with_report(QUERY)

        r0, rep0 = run(1)
        r1, rep1 = run(workers)
        assert r0.rows == r1.rows
        assert rep0.predicate_tests == rep1.predicate_tests
        assert rep0.clusters == rep1.clusters
        assert rep0.matches == rep1.matches
        assert r0.diagnostics.to_dict() == r1.diagnostics.to_dict()

    def test_admitted_partitions_carry_their_merge_index(self):
        partitions = [
            Partition(index=i, key=(f"K{i}",), rows=[]) for i in range(10)
        ]
        units = split_partitions(partitions, 3)
        seen = [p.index for unit in units for p in unit.partitions]
        assert seen == list(range(10))


def pin_to_one_cpu(monkeypatch):
    """What ``taskset -c 0`` does to a process on an eight-CPU host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)


class TestUsableCpus:
    def test_affinity_set_is_counted(self, monkeypatch):
        pin_to_one_cpu(monkeypatch)
        assert usable_cpus() == 1

    def test_cpu_count_where_affinity_is_missing(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3

    def test_one_usable_cpu_runs_the_units_inline(self, monkeypatch):
        pin_to_one_cpu(monkeypatch)
        table = Table(
            "quote",
            Schema([("name", "str"), ("date", "int"), ("price", "float")]),
        )
        for key in range(6):
            for date in range(20):
                table.insert(
                    {"name": f"K{key}", "date": date, "price": 100.0 + date % 7}
                )
        executor = Executor(
            Catalog([table]), domains=AttributeDomains.prices(), workers=2
        )
        trace = Trace()
        executor.execute(QUERY, trace=trace)
        pool = trace.find("parallel")
        assert pool.attrs["mode"] == "inline" and pool.attrs["units"] > 1

    def test_the_parallel_gate_skips_scaling_with_one_usable_cpu(
        self, monkeypatch, capsys
    ):
        from repro.bench import gates

        pin_to_one_cpu(monkeypatch)
        monkeypatch.setitem(gates.REPETITIONS, "smoke", 1)
        run = gates.Run("smoke")
        gates.measure_parallel(run)
        assert run.mismatches == []
        assert run.results[gates.PANEL]["usable_cpus"] == 1
        assert gates.check_scaling(run.results, {}) == []
        assert "SCALING FLOOR SKIPPED" in capsys.readouterr().out
