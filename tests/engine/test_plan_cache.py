"""The executor's LRU plan cache: hits, eviction, degraded plans, bypass."""

import pytest

from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.table import Schema, Table
from repro.errors import ExecutionError, PlanningError
from repro.pattern.predicates import AttributeDomains
from repro.sqlts.parser import parse_query


def quote_catalog():
    table = Table(
        "quote", Schema([("name", "str"), ("day", "int"), ("price", "float")])
    )
    prices = [10, 12, 11, 10, 9, 13, 12, 10, 14, 13, 15]
    table.insert_many(
        {"name": "IBM", "day": day, "price": float(p)}
        for day, p in enumerate(prices)
    )
    return Catalog([table])


def query(bound):
    return (
        "SELECT X.day FROM quote CLUSTER BY name SEQUENCE BY day "
        f"AS (X, Y) WHERE X.price > {bound} AND Y.price < X.price"
    )


RISE_FALL = query(0)


class TestPlanCacheHits:
    def test_repeat_execution_hits(self):
        executor = Executor(quote_catalog())
        first = executor.execute(RISE_FALL)
        second = executor.execute(RISE_FALL)
        assert first.rows == second.rows
        assert executor.plan_cache_misses == 1
        assert executor.plan_cache_hits == 1

    def test_hit_skips_reparsing(self, monkeypatch):
        import repro.engine.executor as executor_module

        calls = []
        real_parse = executor_module.parse_query

        def counting_parse(text):
            calls.append(text)
            return real_parse(text)

        monkeypatch.setattr(executor_module, "parse_query", counting_parse)
        executor = Executor(quote_catalog())
        for _ in range(3):
            executor.execute(RISE_FALL)
        assert len(calls) == 1

    def test_prepare_and_execute_share_the_cache(self):
        executor = Executor(quote_catalog())
        _, compiled = executor.prepare(RISE_FALL)
        _, report = executor.execute_with_report(RISE_FALL)
        assert report.pattern is compiled
        assert executor.plan_cache_hits == 1

    def test_distinct_queries_miss(self):
        executor = Executor(quote_catalog())
        executor.execute(query(0))
        executor.execute(query(1))
        assert executor.plan_cache_misses == 2
        assert executor.plan_cache_hits == 0


class TestPlanCacheEviction:
    def test_lru_eviction_order(self):
        executor = Executor(quote_catalog(), plan_cache_size=2)
        executor.execute(query(0))  # cache: [q0]
        executor.execute(query(1))  # cache: [q0, q1]
        executor.execute(query(0))  # hit; q0 becomes most recent
        executor.execute(query(2))  # evicts q1, the least recent
        hits = executor.plan_cache_hits
        executor.execute(query(0))  # still cached
        assert executor.plan_cache_hits == hits + 1
        misses = executor.plan_cache_misses
        executor.execute(query(1))  # was evicted -> miss
        assert executor.plan_cache_misses == misses + 1

    def test_size_zero_disables_caching(self):
        executor = Executor(quote_catalog(), plan_cache_size=0)
        executor.execute(RISE_FALL)
        executor.execute(RISE_FALL)
        assert executor.plan_cache_hits == 0
        assert executor.plan_cache_misses == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ExecutionError, match="plan_cache_size"):
            Executor(quote_catalog(), plan_cache_size=-1)

    @pytest.mark.parametrize("size", [True, 2.5, float("nan"), "8"])
    def test_a_size_that_is_not_an_int_is_rejected(self, size):
        # NaN used to turn the cache off (nan > 0 is False) and True to
        # hold one entry.
        with pytest.raises(ExecutionError, match="non-negative int"):
            Executor(quote_catalog(), plan_cache_size=size)


class TestPlanCacheKeying:
    def test_ast_queries_bypass_the_cache(self):
        executor = Executor(quote_catalog())
        parsed = parse_query(RISE_FALL)
        executor.execute(parsed)
        executor.execute(parsed)
        assert executor.plan_cache_hits == 0
        assert executor.plan_cache_misses == 0

    def test_domains_fingerprint(self):
        assert AttributeDomains.prices().fingerprint() == ("price",)
        assert AttributeDomains.none().fingerprint() == ()
        assert (
            AttributeDomains({"b", "a"}).fingerprint()
            == AttributeDomains({"a", "b"}).fingerprint()
        )


STAR_QUERY = (
    "SELECT X.day FROM quote CLUSTER BY name SEQUENCE BY day "
    "AS (X, *Y, Z) "
    "WHERE Y.price < Y.previous.price AND Z.price > Z.previous.price"
)


class TestDegradedPlanCaching:
    def broken_compile(self, monkeypatch):
        def broken(spec, use_equivalence=True, codegen=True):
            raise PlanningError("synthetic compile failure")

        monkeypatch.setattr("repro.engine.executor.compile_pattern", broken)

    def test_downgrade_re_recorded_on_cache_hit(self, monkeypatch):
        self.broken_compile(monkeypatch)
        executor = Executor(quote_catalog(), policy="skip")
        _, first = executor.execute_with_report(STAR_QUERY)
        _, second = executor.execute_with_report(STAR_QUERY)
        assert first.degraded and second.degraded
        assert first.matcher == "naive" and second.matcher == "naive"
        assert executor.plan_cache_hits == 1  # the failure was cached

    def test_cached_failure_still_raises_under_strict(self, monkeypatch):
        self.broken_compile(monkeypatch)
        executor = Executor(quote_catalog())
        for _ in range(2):
            with pytest.raises(PlanningError, match="synthetic"):
                executor.execute(STAR_QUERY)

    def test_prepare_raises_cached_planning_error(self, monkeypatch):
        self.broken_compile(monkeypatch)
        executor = Executor(quote_catalog(), policy="skip")
        executor.execute(STAR_QUERY)  # caches the degraded entry
        with pytest.raises(PlanningError, match="synthetic"):
            executor.prepare(STAR_QUERY)
