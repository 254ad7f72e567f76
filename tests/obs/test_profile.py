"""EXPLAIN ANALYZE profiles: traced runs change nothing but gain a tree."""

import pytest

from repro.data.djia import djia_table
from repro.data.quotes import quote_table
from repro.data.workloads import EXAMPLE_8, EXAMPLE_10
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.obs import MetricsRegistry, Trace
from repro.pattern.predicates import AttributeDomains
from tests.conftest import parallel_path

CLUSTER_QUERY = (
    "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z) "
    "WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price"
)


def _executor(**kwargs) -> Executor:
    return Executor(
        Catalog([djia_table(), quote_table()]),
        domains=AttributeDomains.prices(),
        **kwargs,
    )


class TestTracedIdentity:
    def test_serial_traced_rows_byte_identical(self):
        executor = _executor()
        untraced = executor.execute(EXAMPLE_10)
        traced = executor.execute(EXAMPLE_10, trace=Trace())
        assert traced.rows == untraced.rows
        assert traced.columns == untraced.columns
        assert untraced.profile is None
        assert traced.profile is not None

    def test_parallel_traced_rows_byte_identical(self):
        executor = _executor(workers=2)
        with parallel_path("inline"):
            untraced = executor.execute(CLUSTER_QUERY)
            traced = executor.execute(CLUSTER_QUERY, trace=Trace())
        assert traced.rows == untraced.rows
        assert untraced.profile is None
        assert traced.profile is not None

    def test_profile_counters_agree_with_report(self):
        executor = _executor()
        trace = Trace()
        result, report = executor.execute_with_report(EXAMPLE_10, trace=trace)
        profile = result.profile
        assert profile.matches == report.matches
        assert profile.matcher == report.matcher
        assert profile.rows_scanned == report.rows_scanned
        assert profile.predicate_tests == report.predicate_tests
        assert profile.wall_s is not None and profile.wall_s > 0


class TestSerialSpanTree:
    def test_operator_tree_shape(self):
        executor = _executor()
        trace = Trace()
        result = executor.execute(EXAMPLE_10, trace=trace)
        root = trace.root
        assert root.name == "execute"
        assert root.attrs["mode"] == "serial"
        assert [child.name for child in root.children] == ["plan", "scan"]
        scan = trace.find("scan")
        assert scan.attrs["rows_scanned"] == result.profile.rows_scanned
        assert scan.attrs["skips"] > 0  # Example 10 applies shift/next
        clusters = trace.find_all("cluster")
        assert len(clusters) == 1
        assert clusters[0].attrs["partition"] == "(all)"
        assert clusters[0].attrs["matches"] == result.profile.matches

    def test_plan_span_records_cache_hit_and_miss(self):
        executor = _executor()
        miss_trace = Trace()
        executor.execute(EXAMPLE_10, trace=miss_trace)
        hit_trace = Trace()
        executor.execute(EXAMPLE_10, trace=hit_trace)
        assert miss_trace.find("plan").attrs["cache"] == "miss"
        assert hit_trace.find("plan").attrs["cache"] == "hit"

    def test_cluster_spans_carry_partition_labels(self):
        executor = _executor()
        trace = Trace()
        executor.execute(CLUSTER_QUERY, trace=trace)
        partitions = {
            span.attrs["partition"] for span in trace.find_all("cluster")
        }
        assert "IBM" in partitions


class TestParallelSpanTree:
    def test_worker_unit_spans_are_grafted(self):
        executor = _executor(workers=2)
        trace = Trace()
        with parallel_path("inline"):
            executor.execute(CLUSTER_QUERY, trace=trace)
        root = trace.root
        assert root.attrs["mode"] == "parallel"
        pool = trace.find("parallel")
        assert pool is not None
        assert pool.attrs["workers"] == 2
        units = trace.find_all("unit")
        assert units, "worker spans must be serialized back and attached"
        clusters = trace.find_all("cluster")
        assert all(span.duration_s is not None for span in clusters)

    def test_parallel_profile_matches_serial_counters(self):
        serial = _executor()
        parallel = _executor(workers=2)
        serial_trace, parallel_trace = Trace(), Trace()
        serial_result = serial.execute(CLUSTER_QUERY, trace=serial_trace)
        with parallel_path("inline"):
            parallel_result = parallel.execute(
                CLUSTER_QUERY, trace=parallel_trace
            )
        assert parallel_result.rows == serial_result.rows
        assert (
            parallel_result.profile.matches == serial_result.profile.matches
        )
        assert (
            parallel_result.profile.predicate_tests
            == serial_result.profile.predicate_tests
        )


def assert_project_children(trace: Trace) -> None:
    """Every cluster span ends in a ``project`` child, after ``kernels``,
    that projected the cluster's matches."""
    clusters = trace.find_all("cluster")
    assert clusters
    for cluster in clusters:
        names = [child.name for child in cluster.children]
        assert names == ["kernels", "project"]
        project = cluster.children[-1]
        assert project.attrs["matches"] == cluster.attrs["matches"]
        assert project.attrs["columns"] == 3
        assert project.duration_s is not None
    assert sum(cluster.attrs["matches"] for cluster in clusters) > 0


class TestProjectSpan:
    def test_serial_cluster_spans_have_a_project_child(self):
        trace = Trace()
        result = _executor().execute(EXAMPLE_8, trace=trace)
        assert_project_children(trace)
        assert sum(
            span.attrs["matches"] for span in trace.find_all("project")
        ) == len(result.rows)

    def test_pool_unit_cluster_spans_have_a_project_child(self):
        trace = Trace()
        with parallel_path("inline"):
            _executor(workers=2).execute(EXAMPLE_8, trace=trace)
        assert trace.find_all("unit")
        assert_project_children(trace)


class TestRender:
    def test_render_has_header_and_connectors(self):
        executor = _executor()
        trace = Trace()
        result = executor.execute(EXAMPLE_10, trace=trace)
        rendered = result.profile.render()
        assert rendered.startswith("Query Profile")
        assert "matcher=ops" in rendered
        assert "execute" in rendered and "scan" in rendered
        assert "└─" in rendered or "├─" in rendered
        assert "cache=miss" in rendered

    def test_to_dict_is_json_shaped(self):
        import json

        executor = _executor()
        trace = Trace()
        result = executor.execute(EXAMPLE_10, trace=trace)
        payload = json.loads(json.dumps(result.profile.to_dict()))
        assert payload["matches"] == result.profile.matches
        assert payload["trace"]["spans"][0]["name"] == "execute"


class TestPlanCacheCounters:
    def test_executor_counters_back_onto_registry(self):
        registry = MetricsRegistry()
        executor = _executor(metrics=registry)
        executor.execute(EXAMPLE_10)
        executor.execute(EXAMPLE_10)
        assert executor.plan_cache_misses == 1
        assert executor.plan_cache_hits == 1
        assert (
            registry.get("repro_plan_cache_hits_total").value == 1
        )
        assert registry.get("repro_queries_total").value == 2
        assert registry.get("repro_query_seconds").count == 2

    def test_diagnostics_surface_plan_cache(self):
        executor = _executor()
        first = executor.execute(EXAMPLE_10)
        second = executor.execute(EXAMPLE_10)
        assert first.diagnostics.plan_cache_misses == 1
        assert first.diagnostics.plan_cache_hits == 0
        assert second.diagnostics.plan_cache_hits == 1
        counters = second.diagnostics.to_dict()["counters"]
        assert counters["plan_cache_hits"] == 1
        assert counters["plan_cache_misses"] == 0
