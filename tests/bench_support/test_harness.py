"""The benchmark harness itself: comparison plumbing and reporting."""

import pytest

from repro.bench.harness import MatcherRun, compare_matchers, compare_on_rows
from repro.bench.report import format_table
from repro.bench.workloads import (
    constant_pattern_spec,
    staircase_rows,
    staircase_spec,
)
from repro.errors import ExecutionError
from repro.pattern.compiler import compile_pattern


class TestCompareOnRows:
    def test_counts_and_agreement(self):
        cp = compile_pattern(staircase_spec(4))
        rows = staircase_rows(800, seed=3)
        runs = compare_on_rows(rows, cp, ("naive", "ops"))
        assert set(runs) == {"naive", "ops"}
        assert runs["naive"].matches == runs["ops"].matches
        assert runs["ops"].predicate_tests < runs["naive"].predicate_tests

    def test_speedup_over(self):
        fast = MatcherRun("ops", predicate_tests=100, matches=1)
        slow = MatcherRun("naive", predicate_tests=400, matches=1)
        assert fast.speedup_over(slow) == pytest.approx(4.0)
        zero = MatcherRun("ops", predicate_tests=0, matches=0)
        assert zero.speedup_over(slow) == float("inf")

    def test_unknown_matcher(self):
        cp = compile_pattern(staircase_spec(2))
        with pytest.raises(ExecutionError):
            compare_on_rows([], cp, ("warp",))

    def test_instances_report_registry_keys(self):
        from repro.match.backtracking import BacktrackingMatcher
        from repro.match.ops_star import OpsStarMatcher

        cp = compile_pattern(staircase_spec(2))
        runs = compare_on_rows([], cp, (OpsStarMatcher(), BacktrackingMatcher()))
        assert list(runs) == ["ops", "backtracking"]

    def test_a_name_listed_twice_is_rejected(self):
        # Runs are keyed by name: a second "naive" would overwrite the first.
        from repro.match.naive import NaiveMatcher

        cp = compile_pattern(staircase_spec(2))
        with pytest.raises(ExecutionError, match="listed twice"):
            compare_on_rows(
                [], cp, ("naive", NaiveMatcher(overlapping=True)),
                require_identical=False,
            )

    def test_disagreement_detected(self):
        """A matcher with different semantics must trip the identity check."""
        from repro.match.naive import NaiveMatcher
        from repro.pattern.spec import PatternElement, PatternSpec
        from tests.conftest import PREV, PRICE, price_predicate
        from repro.pattern.predicates import comparison

        rise = price_predicate(comparison(PRICE, ">", PREV))
        cp = compile_pattern(
            PatternSpec([PatternElement("A", rise), PatternElement("B", rise)])
        )
        rows = [{"price": float(p)} for p in (1, 2, 3, 4, 5)]
        with pytest.raises(AssertionError):
            compare_on_rows(rows, cp, ("naive", NaiveMatcher(overlapping=True)))


class TestCompareMatchers:
    def test_sql_level(self, paper_catalog):
        from repro.data.workloads import EXAMPLE_8
        from repro.pattern.predicates import AttributeDomains

        runs = compare_matchers(
            paper_catalog,
            EXAMPLE_8,
            matchers=("naive", "ops"),
            domains=AttributeDomains.prices(),
        )
        assert runs["naive"].result == runs["ops"].result
        assert runs["ops"].result is not None


class TestWorkloads:
    def test_staircase_spec_shape(self):
        spec = staircase_spec(5, final_bound=3.0)
        assert len(spec) == 6
        assert [e.star for e in spec] == [True] * 5 + [False]

    def test_staircase_spec_validation(self):
        with pytest.raises(ValueError):
            staircase_spec(0)

    def test_staircase_rows_never_trigger_final(self):
        rows = staircase_rows(500, floor=8.0)
        assert all(row["price"] >= 8.0 for row in rows)

    def test_constant_pattern_spec(self):
        spec = constant_pattern_spec([10, 11, 15])
        assert len(spec) == 3
        assert not spec.has_star

    def test_staircase_quadratic_gap(self):
        """The complex-pattern sweep mechanism: naive superlinear, OPS
        linear — the speedup must grow with the alternation count."""
        rows = staircase_rows(1500, seed=5)
        speedups = []
        for k in (2, 6):
            runs = compare_on_rows(rows, compile_pattern(staircase_spec(k)), ("naive", "ops"))
            speedups.append(runs["ops"].speedup_over(runs["naive"]))
        assert speedups[1] > speedups[0] > 1.0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            ["matcher", "tests"],
            [("naive", 123456), ("ops", 789)],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "matcher" in lines[1]
        assert "123,456" in text and "789" in text

    def test_floats_formatted(self):
        text = format_table(["x"], [(1.23456,)])
        assert "1.23" in text


class TestRunAll:
    def test_quick_run_produces_all_sections(self):
        import io

        from repro.bench.run_all import main

        out = io.StringIO()
        assert main(["--quick"], out=out) == 0
        text = out.getvalue()
        for marker in (
            "E1 / Figure 5",
            "E4 / Section 7",
            "E5 / Section 7",
            "structure-blind",
            "E9 / Section 8",
            "example_10",
        ):
            assert marker in text, marker
