"""Differential suite: parallel execution must be bit-identical to serial.

Every test runs the same query twice — once on the serial path, once
through :mod:`repro.engine.parallel` — and asserts the strongest
equality the contract promises: identical rows in identical order,
identical report accounting (clusters, rows scanned, predicate tests,
matches, matcher name), and identical diagnostics, across all registry
matchers × both evaluators × error policies, with the units run in-line
and on a process pool (chosen by faking the usable-CPU count, so both
paths run on any host).
"""

from __future__ import annotations

import random

import pytest

from repro.data.quotes import quote_table
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.table import Schema, Table
from repro.match.base import Instrumentation
from repro.match.ops_star import OpsStarMatcher
from repro.obs import Trace
from repro.pattern.predicates import AttributeDomains
from repro.resilience import ResourceLimits
from tests.conftest import parallel_path

MATCHER_NAMES = ["ops", "ops-nonstar", "naive", "backtracking"]

STAR_QUERY = (
    "SELECT X.name, X.date, Z.date FROM quote CLUSTER BY name "
    "SEQUENCE BY date AS (X, *Y, Z) "
    "WHERE Y.price < Y.previous.price AND Z.price > 1.03 * X.price"
)
FLAT_QUERY = (
    "SELECT X.name, Y.date FROM quote CLUSTER BY name SEQUENCE BY date "
    "AS (X, Y, Z) WHERE Y.price > 1.02 * X.price "
    "AND Z.price < 0.99 * Y.price"
)
QUERIES = [STAR_QUERY, FLAT_QUERY]


def make_catalog(seed: int, partitions: int = 8, rows: int = 80) -> Catalog:
    """A multi-partition random-walk quote table."""
    rng = random.Random(seed)
    table = Table(
        "quote", Schema([("name", "str"), ("date", "int"), ("price", "float")])
    )
    for p in range(partitions):
        price = 100.0
        for day in range(rows):
            price = max(1.0, price + rng.uniform(-4.0, 4.0))
            table.insert(
                {"name": f"S{p:02d}", "date": day, "price": round(price, 2)}
            )
    return Catalog([table])


def run(catalog, query, *, workers=1, path="inline", trace=False, **kw):
    executor = Executor(
        catalog,
        domains=AttributeDomains.prices(),
        workers=workers,
        **kw,
    )
    instrumentation = Instrumentation(record_trace=trace)
    with parallel_path(path):
        result, report = executor.execute_with_report(query, instrumentation)
    return result, report, instrumentation


REPORT_FIELDS = (
    "matcher",
    "clusters",
    "clusters_searched",
    "rows_scanned",
    "predicate_tests",
    "matches",
)


def assert_equivalent(catalog, query, *, workers, path, trace=False, **kw):
    r0, rep0, inst0 = run(catalog, query, trace=trace, **kw)
    r1, rep1, inst1 = run(
        catalog, query, workers=workers, path=path, trace=trace, **kw
    )
    assert r0.columns == r1.columns
    assert r0.rows == r1.rows
    for field in REPORT_FIELDS:
        assert getattr(rep0, field) == getattr(rep1, field), field
    assert r0.diagnostics.to_dict() == r1.diagnostics.to_dict()
    assert inst0.tests == inst1.tests
    if trace:
        assert inst0.trace == inst1.trace
    return r0, rep0


class TestDifferential:
    @pytest.mark.parametrize("matcher", MATCHER_NAMES)
    @pytest.mark.parametrize("codegen", [True, False])
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("query", QUERIES)
    def test_all_matchers_and_evaluators(self, matcher, codegen, workers, query):
        catalog = make_catalog(seed=3)
        kw = {"matcher": matcher, "codegen": codegen}
        if matcher == "ops-nonstar" and query is STAR_QUERY:
            # The non-star matcher needs the lenient downgrade to run
            # star patterns; equivalence must hold through the fallback.
            kw["policy"] = "skip"
        assert_equivalent(catalog, query, workers=workers, path="inline", **kw)

    @pytest.mark.parametrize("matcher", ["ops", "naive"])
    def test_process_pool_mode(self, matcher):
        catalog = make_catalog(seed=5)
        r, rep = assert_equivalent(
            catalog, STAR_QUERY, workers=2, path="process", matcher=matcher
        )
        assert rep.clusters_searched == 8

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_randomized_data(self, seed):
        rng = random.Random(1000 + seed)
        catalog = make_catalog(
            seed=seed,
            partitions=rng.randint(1, 12),
            rows=rng.randint(5, 120),
        )
        query = rng.choice(QUERIES)
        workers = rng.choice([2, 4])
        assert_equivalent(catalog, query, workers=workers, path="inline")

    def test_trace_merge_preserves_order(self):
        catalog = make_catalog(seed=3, partitions=5, rows=40)
        assert_equivalent(
            catalog, FLAT_QUERY, workers=3, path="inline", trace=True
        )

    def test_workers_one_is_the_serial_path(self):
        catalog = make_catalog(seed=3)
        r0, rep0, _ = run(catalog, STAR_QUERY)
        r1, rep1, _ = run(catalog, STAR_QUERY, workers=1, path="inline")
        assert r0.rows == r1.rows
        assert rep0.predicate_tests == rep1.predicate_tests

    def test_per_call_workers_override(self):
        catalog = make_catalog(seed=3)
        executor = Executor(catalog, domains=AttributeDomains.prices())
        serial = executor.execute(STAR_QUERY)
        parallel = executor.execute(STAR_QUERY, workers=3)
        assert serial.rows == parallel.rows

    def test_single_partition_runs_inline(self):
        catalog = make_catalog(seed=3, partitions=1)
        assert_equivalent(catalog, STAR_QUERY, workers=4, path="inline")

    def test_empty_table(self):
        catalog = make_catalog(seed=3, partitions=0)
        r, rep = assert_equivalent(
            catalog, STAR_QUERY, workers=2, path="inline"
        )
        assert r.rows == () and rep.clusters == 0


class TestErrorPolicies:
    def corrupt(self, catalog, name="S03", date=10):
        # Mutate after insert: schema validation passes, matchers then
        # hit the bad value mid-search in whichever path runs them.
        for row in catalog.table("quote"):
            if row["name"] == name and row["date"] == date:
                row["price"] = "bogus"

    @pytest.mark.parametrize("path", ["inline", "process"])
    def test_raise_policy_same_error(self, path):
        catalog = make_catalog(seed=7)
        self.corrupt(catalog)
        errors = []
        for workers in (1, 3):
            with pytest.raises(TypeError) as excinfo:
                run(
                    catalog,
                    STAR_QUERY,
                    workers=workers,
                    path=path,
                    matcher="naive",
                )
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    def test_earliest_partition_error_wins(self):
        # Corrupt two partitions; the parallel path must surface the
        # error of the earliest one, exactly as the serial scan would.
        catalog = make_catalog(seed=7)
        self.corrupt(catalog, name="S06")
        self.corrupt(catalog, name="S01")
        with pytest.raises(TypeError) as serial_err:
            run(catalog, STAR_QUERY, matcher="naive")
        with pytest.raises(TypeError) as parallel_err:
            run(catalog, STAR_QUERY, workers=4, path="inline", matcher="naive")
        assert str(serial_err.value) == str(parallel_err.value)

    @pytest.mark.parametrize("policy", ["skip", "collect"])
    def test_lenient_policies_with_partition_faults(self, policy):
        # Duplicate SEQUENCE BY keys in two partitions: the lenient
        # sequence audit quarantines/warns identically in both paths.
        catalog = make_catalog(seed=9, partitions=6, rows=30)
        table = catalog.table("quote")
        for name in ("S01", "S04"):
            table.insert({"name": name, "date": 5, "price": 55.0})
        assert_equivalent(
            catalog, FLAT_QUERY, workers=3, path="inline", policy=policy
        )

    @pytest.mark.parametrize("path", ["inline", "process"])
    def test_degraded_fallback_equivalence(self, path):
        # ops-nonstar cannot run a star pattern; under a lenient policy
        # both paths downgrade to naive and record one identical
        # downgrade diagnostic.
        catalog = make_catalog(seed=11, partitions=5, rows=40)
        r, rep = assert_equivalent(
            catalog,
            STAR_QUERY,
            workers=3,
            path=path,
            matcher="ops-nonstar",
            policy="skip",
        )
        assert rep.matcher == "naive"
        assert len(r.diagnostics.downgrades) == 1

    def test_strict_policy_unplannable_raises_both(self):
        catalog = make_catalog(seed=11, partitions=3, rows=20)
        from repro.errors import PlanningError

        for workers in (1, 3):
            with pytest.raises(PlanningError):
                run(
                    catalog,
                    STAR_QUERY,
                    workers=workers,
                    path="inline",
                    matcher="ops-nonstar",
                )


class TestLimits:
    def test_max_matches_identical_kept_rows(self):
        catalog = make_catalog(seed=13)
        limits = ResourceLimits(max_matches=5)
        r0, rep0, _ = run(catalog, STAR_QUERY, limits=limits)
        r1, rep1, _ = run(
            catalog, STAR_QUERY, workers=4, path="inline", limits=limits
        )
        assert r0.rows == r1.rows
        assert rep0.matches == rep1.matches == 5
        assert r0.diagnostics.limits_hit == r1.diagnostics.limits_hit

    def test_max_matches_zero(self):
        catalog = make_catalog(seed=13)
        limits = ResourceLimits(max_matches=0)
        r0, rep0, _ = run(catalog, STAR_QUERY, limits=limits)
        r1, rep1, _ = run(
            catalog, STAR_QUERY, workers=2, path="inline", limits=limits
        )
        assert r0.rows == r1.rows == ()
        assert rep0.clusters == rep1.clusters

    def test_max_rows_scanned_admits_serial_prefix(self):
        # Admission runs in the parent with serial check-then-charge
        # semantics, so the scanned-row accounting is byte-identical —
        # the budget can never over-admit because work was split.
        catalog = make_catalog(seed=13)
        limits = ResourceLimits(max_rows_scanned=300)
        r0, rep0, _ = run(catalog, STAR_QUERY, limits=limits)
        r1, rep1, _ = run(
            catalog, STAR_QUERY, workers=4, path="inline", limits=limits
        )
        assert r0.rows == r1.rows
        assert rep0.rows_scanned == rep1.rows_scanned <= 300
        assert rep0.clusters_searched == rep1.clusters_searched
        assert rep0.predicate_tests == rep1.predicate_tests
        assert r0.diagnostics.limits_hit == r1.diagnostics.limits_hit

    def test_max_matches_in_a_pool_names_only_the_cap(self):
        catalog = make_catalog(seed=13)
        limits = ResourceLimits(max_matches=5)
        r0, _, _ = run(catalog, STAR_QUERY, limits=limits)
        r1, rep1, _ = run(
            catalog, STAR_QUERY, workers=4, path="process", limits=limits
        )
        assert r0.rows == r1.rows and rep1.matches == 5
        assert r1.diagnostics.limits_hit == r0.diagnostics.limits_hit
        assert r1.diagnostics.limits_hit == ["max_matches (5) reached"]

    def test_limits_unhit_stay_fully_identical(self):
        catalog = make_catalog(seed=13, partitions=4, rows=30)
        limits = ResourceLimits(max_matches=10_000, max_rows_scanned=10**9)
        assert_equivalent(
            catalog, FLAT_QUERY, workers=2, path="inline", limits=limits
        )


class SubclassedOps(OpsStarMatcher):
    """A matcher outside the registry: workers cannot construct it."""


class TestCustomMatcherFallback:
    """A custom matcher runs serially, with the caller's settings."""

    def executor(self, workers):
        return Executor(
            Catalog([quote_table()]),
            domains=AttributeDomains.prices(),
            matcher=SubclassedOps(),
            workers=workers,
        )

    def test_limits_are_kept(self):
        limits = ResourceLimits(wall_clock_deadline=0.0)
        serial = self.executor(1).execute(STAR_QUERY, limits=limits)
        parallel = self.executor(2).execute(STAR_QUERY, limits=limits)
        assert serial.rows == parallel.rows == ()
        assert serial.diagnostics.limits_hit
        assert parallel.diagnostics.limits_hit == serial.diagnostics.limits_hit
        assert any("ran serially" in w for w in parallel.diagnostics.warnings)

    def test_cancel_hook_and_trace_are_kept(self):
        calls = []

        def cancel():
            calls.append(1)

        trace = Trace()
        result = self.executor(2).execute(STAR_QUERY, cancel=cancel, trace=trace)
        assert calls
        assert trace.root.attrs["mode"] == "serial"
        assert trace.find("scan") is not None
        assert result.profile is not None
        assert result.rows == self.executor(1).execute(STAR_QUERY).rows


class TestPlanCacheInterplay:
    def test_parallel_hits_the_same_plan_cache(self):
        catalog = make_catalog(seed=3)
        executor = Executor(catalog, domains=AttributeDomains.prices())
        serial = executor.execute(STAR_QUERY)
        hits, misses = executor.plan_cache_hits, executor.plan_cache_misses
        result = executor.execute(STAR_QUERY, workers=3)
        assert executor.plan_cache_hits == hits + 1
        assert executor.plan_cache_misses == misses
        assert result.rows == serial.rows and len(serial.rows) > 0

    def test_interleaved_serial_and_parallel_calls(self):
        catalog = make_catalog(seed=3, partitions=6, rows=40)
        executor = Executor(catalog, domains=AttributeDomains.prices())
        serial = executor.execute(STAR_QUERY)
        for _ in range(3):
            assert executor.execute(STAR_QUERY, workers=2).rows == serial.rows
            assert executor.execute(STAR_QUERY).rows == serial.rows
