"""The paper's headline counts, and the CI gates' checks on planted results.

``BENCH.json`` records every exact count the gates compare; a count
that drifts fails here, not only in a CI bench job.  Each gate's check
is a pure function of a run's results and the recorded entries, so each
bound is tested on planted numbers.
"""

import json

import pytest

from repro.bench import gates
from repro.data.djia import djia_table
from repro.data.workloads import EXAMPLE_10
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.match.base import Instrumentation
from repro.pattern.predicates import AttributeDomains

RECORDED = json.loads(gates.BENCH_JSON.read_text())
DJIA, PANEL, SERVED = gates.DJIA, gates.PANEL, gates.SERVED


@pytest.mark.parametrize(
    "settings",
    [{"evaluator": "columnar"}, {"evaluator": "row"}, {"codegen": False}],
    ids=["columnar", "row", "interpreted"],
)
def test_example_10_finds_11_matches_with_8143_ops_and_15404_naive_tests(settings):
    catalog = Catalog([djia_table()])
    for matcher, tests in (("ops", 8143), ("naive", 15404)):
        executor = Executor(
            catalog, domains=AttributeDomains.prices(), matcher=matcher, **settings
        )
        _, report = executor.execute_with_report(EXAMPLE_10, Instrumentation())
        assert (report.matches, report.predicate_tests) == (11, tests)


@pytest.mark.parametrize("workload", sorted(set(RECORDED) - {"meta"}))
def test_recorded_counts_equal_a_fresh_instrumented_run(workload):
    measured = gates.Run("smoke").counts(workload)
    recorded = {field: RECORDED[workload].get(field) for field in measured}
    assert measured == recorded


def test_every_workload_is_recorded():
    assert set(RECORDED) == {"meta", *gates.SERIES, PANEL, SERVED}
    for workload in gates.SERIES:
        assert set(RECORDED[workload]["tests_per_s"]) == set(gates.MATCHERS)


def test_a_count_off_by_one_fails():
    results = {DJIA: {"matches": 11, "tests": {"naive": 15404, "ops": 8144}}}
    recorded = {DJIA: {"matches": 11, "tests": {"naive": 15404, "ops": 8143}}}
    assert len(gates.check_counts(results, recorded)) == 1
    results[DJIA]["tests"]["ops"] = 8143
    assert gates.check_counts(results, recorded) == []
    results[SERVED] = {"result_rows": {"rising_pair_djia": 2286}}
    recorded[SERVED] = {"result_rows": {"rising_pair_djia": 2285}}
    assert len(gates.check_counts(results, recorded)) == 1


RATE = {DJIA: {"tests_per_s": {"naive": 1000.0, "ops": 1000.0}}}


def measured(ops, naive=(1000.0, 1000.0)):
    return {DJIA: {"measured_tests_per_s": {"naive": naive, "ops": ops}}}


def test_throughput_21_percent_below_the_recorded_rate_fails():
    assert gates.check_throughput(measured([790.0, 785.0]), RATE)
    assert gates.check_throughput(measured([1000.0, 1000.0], naive=[790.0, 780.0]), RATE)
    assert gates.check_throughput(measured([810.0, 805.0]), RATE) == []


def test_tracing_3_percent_below_fails_unless_the_measurements_disagree(capsys):
    assert gates.check_tracing(measured([970.0, 965.0]), RATE)
    assert gates.check_tracing(measured([985.0, 950.0]), RATE) == []
    assert "SKIPPED" not in capsys.readouterr().out
    # 970 and 920 disagree by 5.4%: a printed skip, not a pass.
    assert gates.check_tracing(measured([970.0, 920.0]), RATE) == []
    assert "TRACING FLOOR SKIPPED" in capsys.readouterr().out


def test_a_columnar_ratio_of_4_9_fails():
    results = {DJIA: {"columnar_speedup": {"naive": 1.5, "ops": 4.9}}}
    assert gates.check_columnar(results, {})
    results[DJIA]["columnar_speedup"]["ops"] = 5.0
    assert gates.check_columnar(results, {}) == []


SERVED_OK = {
    "requests": 160,
    "completed": 160,
    "rejected": 7,
    "missing_retry_after": 0,
    "unstructured_errors": 0,
    "distinct_queries": 3,
    "plan_cache_misses": 12,
}


@pytest.mark.parametrize(
    "planted",
    [
        {"missing_retry_after": 1},
        {"plan_cache_misses": 13},
        {"rejected": 0},
        {"completed": 159},
        {"unstructured_errors": 1},
    ],
    ids=["no-retry-after", "misses", "never-rejected", "incomplete", "unstructured"],
)
def test_serve_checks_fail_on_planted_results(planted):
    assert gates.check_serve({SERVED: SERVED_OK}, {}) == []
    assert len(gates.check_serve({SERVED: {**SERVED_OK, **planted}}, {})) == 1


def test_recording_keeps_the_median_of_the_first_five_runs():
    bench = {}
    for rate in (5.0, 1.0, 4.0, 2.0, 3.0, 100.0):
        results = {DJIA: {"matches": 11, "measured_tests_per_s": {"ops": [rate, rate / 2]}}}
        gates.record(bench, results, {"scale_factor": 0.5})
    assert bench[DJIA]["tests_per_s"] == {"ops": 3.0}
    assert [run["ops"] for run in bench[DJIA]["runs"]] == [5.0, 1.0, 4.0, 2.0, 3.0]
    assert bench[DJIA]["matches"] == 11 and bench["meta"] == {"scale_factor": 0.5}


def test_unknown_gates_and_smoke_recordings_are_refused(capsys):
    for gate in ("speed", "parallel"):
        with pytest.raises(SystemExit):
            gates.main(["--check", gate])
    with pytest.raises(SystemExit):
        gates.main(["--profile", "smoke", "serve"])
    assert "record with the full profile" in capsys.readouterr().err
