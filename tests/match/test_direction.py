"""Forward/reverse search and the Section 8 direction heuristic."""

import pytest

from repro.data.djia import djia_table
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.errors import PlanningError
from repro.match.base import Instrumentation, Span
from repro.match.direction import (
    DirectionScore,
    ReverseMatcher,
    choose_direction,
    direction_scores,
    reverse_pattern,
)
from repro.match.naive import NaiveMatcher
from repro.match.ops_star import OpsStarMatcher
from repro.pattern.compiler import compile_pattern
from repro.pattern.predicates import ResidualCondition, ElementPredicate, comparison
from repro.pattern.spec import PatternElement, PatternSpec
from repro.resilience import ResourceLimits
from tests.conftest import DOMAINS, PREV, PRICE, price_predicate, price_rows


def compiled(*defs):
    return compile_pattern(
        PatternSpec([PatternElement(n, p, star=s) for n, p, s in defs])
    )


RISE = price_predicate(comparison(PRICE, ">", PREV))
FALL = price_predicate(comparison(PRICE, "<", PREV))
LOW = price_predicate(comparison(PRICE, "<", 10))


class TestReversePattern:
    def test_order_reversed_offsets_negated(self):
        spec = PatternSpec(
            [PatternElement("A", RISE), PatternElement("B", LOW)]
        )
        reversed_spec = reverse_pattern(spec)
        assert reversed_spec.names == ("B", "A")
        # A's "price > price.previous" becomes "price > price.next".
        condition = reversed_spec.elements[1].predicate.conditions[0]
        offsets = {
            term.attr.offset
            for term in (condition.left, condition.right)
            if term.attr is not None
        }
        assert offsets == {0, 1}

    def test_star_flags_preserved(self):
        spec = PatternSpec(
            [PatternElement("A", RISE, star=True), PatternElement("B", LOW)]
        )
        assert [e.star for e in reverse_pattern(spec)] == [False, True]

    def test_double_reverse_is_identity_semantically(self):
        spec = PatternSpec([PatternElement("A", RISE), PatternElement("B", FALL)])
        twice = reverse_pattern(reverse_pattern(spec))
        assert twice.names == spec.names
        cp1, cp2 = compile_pattern(spec), compile_pattern(twice)
        rows = price_rows(10, 12, 9, 13, 8)
        assert OpsStarMatcher().find_matches(rows, cp1) == OpsStarMatcher().find_matches(
            rows, cp2
        )

    def test_residual_condition_refuses_reversal(self):
        spec = PatternSpec(
            [
                PatternElement(
                    "A", ElementPredicate([ResidualCondition(lambda _: True)])
                )
            ]
        )
        with pytest.raises(PlanningError):
            reverse_pattern(spec)


class TestReverseMatcher:
    def test_matches_mapped_back_to_forward_coordinates(self):
        cp = compiled(("A", RISE, False), ("B", FALL, False))
        rows = price_rows(10, 12, 9, 11, 8)
        forward = NaiveMatcher().find_matches(rows, cp)
        backward = ReverseMatcher().find_matches(rows, cp)
        assert [(m.start, m.end) for m in backward] == [
            (m.start, m.end) for m in forward
        ]
        assert backward[0].span_of("A") == forward[0].span_of("A")

    def test_star_spans_mapped(self):
        cp = compiled(("A", RISE, True), ("B", FALL, False))
        rows = price_rows(10, 11, 12, 9)
        (backward,) = ReverseMatcher().find_matches(rows, cp)
        assert backward.span_of("A") == Span(1, 2)
        assert backward.span_of("B") == Span(3, 3)

    def test_names_order_restored(self):
        cp = compiled(("A", RISE, False), ("B", FALL, False))
        rows = price_rows(10, 12, 9)
        (match,) = ReverseMatcher().find_matches(rows, cp)
        assert match.names == ("A", "B")


RISING_PAIR = (
    "SELECT X.date, Y.price FROM djia SEQUENCE BY date AS (X, Y) "
    "WHERE Y.price > X.price"
)


class TestReverseMatcherInExecutor:
    """The executor hands its matcher a budget and the forward rows' truth
    arrays: the reversed scan honours the one and ignores the other."""

    def executor(self, **kwargs):
        return Executor(
            Catalog([djia_table()]),
            domains=DOMAINS,
            matcher=ReverseMatcher(),
            **kwargs,
        )

    def test_executor_rows_equal_the_direct_scan_projected(self):
        executor = self.executor()
        result = executor.execute(RISING_PAIR)
        _, compiled = executor.prepare(RISING_PAIR)
        rows = sorted(djia_table().rows, key=lambda row: row["date"])
        direct = ReverseMatcher().find_matches(rows, compiled)
        assert direct
        assert list(result.rows) == [
            (rows[match.start]["date"], rows[match.end]["price"])
            for match in direct
        ]

    def test_max_matches_is_named_in_limits_hit(self):
        executor = self.executor(limits=ResourceLimits(max_matches=3))
        result = executor.execute(RISING_PAIR)
        assert len(result.rows) == 3
        assert any(
            "max_matches" in reason for reason in result.diagnostics.limits_hit
        )


class TestHeuristic:
    def test_score_weighs_shift_over_next(self):
        assert DirectionScore(3.0, 1.0).value > DirectionScore(1.0, 3.0).value

    def test_scores_computed_for_both_directions(self):
        spec = PatternSpec([PatternElement("A", RISE), PatternElement("B", LOW)])
        forward = compile_pattern(spec)
        backward = compile_pattern(reverse_pattern(spec))
        fwd, bwd = direction_scores(forward, backward)
        assert fwd.mean_shift >= 1.0 and bwd.mean_shift >= 1.0

    def test_choose_direction_returns_plan(self):
        spec = PatternSpec([PatternElement("A", RISE), PatternElement("B", FALL)])
        direction, plan = choose_direction(spec)
        assert direction in ("forward", "backward")
        assert plan.m == 2

    def test_asymmetric_pattern_prefers_selective_end_first(self):
        """A rare final element makes the reverse direction anchor on it;
        the heuristic should at least evaluate both without error and the
        reverse scan should do no more tests than forward on data where
        the rare element never occurs early."""
        spec = PatternSpec(
            [
                PatternElement("A", RISE, star=True),
                PatternElement("B", FALL, star=True),
                PatternElement("S", LOW),
            ]
        )
        direction, plan = choose_direction(spec)
        assert direction in ("forward", "backward")

    def test_residual_pattern_falls_back_to_forward(self):
        spec = PatternSpec(
            [
                PatternElement(
                    "A", ElementPredicate([ResidualCondition(lambda _: True)])
                ),
                PatternElement("B", LOW),
            ]
        )
        direction, plan = choose_direction(spec)
        assert direction == "forward"
