"""Streaming OPS: incremental emission, window trimming, batch agreement."""

import random

import pytest

from repro.errors import StreamStateError
from repro.match.naive import NaiveMatcher
from repro.match.ops_star import OpsStarMatcher
from repro.match.streaming import OpsStreamMatcher, pattern_offsets, _Window
from repro.pattern.compiler import compile_pattern
from repro.pattern.predicates import (
    ElementPredicate,
    OrCondition,
    ResidualCondition,
    comparison,
)
from repro.pattern.spec import PatternElement, PatternSpec
from tests.conftest import PREV, PRICE, price_predicate, price_rows


def compiled(*defs):
    return compile_pattern(
        PatternSpec([PatternElement(n, p, star=s) for n, p, s in defs])
    )


RISE = price_predicate(comparison(PRICE, ">", PREV))
FALL = price_predicate(comparison(PRICE, "<", PREV))
LOW = price_predicate(comparison(PRICE, "<", 10))


class TestPatternOffsets:
    def test_previous_reference(self):
        spec = PatternSpec([PatternElement("A", RISE)])
        assert pattern_offsets(spec) == (-1, 0, False)

    def test_next_reference(self):
        peek = price_predicate(comparison(PRICE, "<", PRICE.next))
        spec = PatternSpec([PatternElement("A", peek)])
        assert pattern_offsets(spec) == (0, 1, False)

    def test_deep_previous(self):
        deep = price_predicate(comparison(PRICE, "<", PREV.previous))
        spec = PatternSpec([PatternElement("A", deep)])
        assert pattern_offsets(spec)[0] == -2

    def test_or_condition_scanned(self):
        condition = OrCondition(
            [[comparison(PRICE, "<", PREV)], [comparison(PRICE, ">", 90)]]
        )
        spec = PatternSpec([PatternElement("A", ElementPredicate([condition]))])
        assert pattern_offsets(spec) == (-1, 0, False)

    def test_residual_marks_opaque(self):
        pred = ElementPredicate([ResidualCondition(lambda _: True)])
        spec = PatternSpec([PatternElement("A", pred)])
        assert pattern_offsets(spec)[2] is True


class TestWindow:
    def test_absolute_indexing_after_trim(self):
        window = _Window()
        for value in range(10):
            window.append({"v": value})
        window.trim_before(4)
        assert len(window) == 10
        assert window[4]["v"] == 4
        assert window.buffered == 6

    def test_trimmed_read_is_loud(self):
        window = _Window()
        window.append({"v": 0})
        window.append({"v": 1})
        window.trim_before(1)
        with pytest.raises(RuntimeError):
            window[0]

    def test_trim_is_monotone(self):
        window = _Window()
        for value in range(5):
            window.append({"v": value})
        window.trim_before(3)
        window.trim_before(1)  # no-op, never un-trims
        assert window.buffered == 2


class TestStreamingAgreement:
    def _stream(self, rows, plan, trim=True):
        matcher = OpsStreamMatcher(plan, trim=trim)
        collected = []
        for row in rows:
            collected.extend(matcher.push(row))
        collected.extend(matcher.finish())
        return collected, matcher

    def test_simple_pattern(self):
        plan = compiled(("A", RISE, False), ("B", FALL, False))
        rows = price_rows(10, 12, 9, 11, 8, 13, 7)
        streamed, _ = self._stream(rows, plan)
        assert streamed == OpsStarMatcher().find_matches(rows, plan)

    def test_star_pattern(self):
        plan = compiled(("A", RISE, True), ("B", FALL, True), ("S", LOW, False))
        rows = price_rows(50, 51, 52, 49, 48, 47, 5, 60, 61, 58, 4)
        streamed, _ = self._stream(rows, plan)
        assert streamed == OpsStarMatcher().find_matches(rows, plan)
        assert streamed == NaiveMatcher().find_matches(rows, plan)

    def test_random_differential(self):
        rng = random.Random(19)
        predicates = [RISE, FALL, LOW, price_predicate(comparison(PRICE, ">", 60))]
        for _ in range(200):
            plan = compile_pattern(
                PatternSpec(
                    [
                        PatternElement(
                            f"V{k}", rng.choice(predicates), star=rng.random() < 0.5
                        )
                        for k in range(rng.randrange(1, 5))
                    ]
                )
            )
            rows = []
            value = 40.0
            for _ in range(rng.randrange(0, 60)):
                value = max(2.0, min(95.0, value + rng.choice([-30, -6, -1, 1, 6, 30])))
                rows.append({"price": value})
            streamed, _ = self._stream(rows, plan)
            assert streamed == OpsStarMatcher().find_matches(rows, plan)

    def test_example4_short_stream(self, example4_compiled):
        """One Example 4 match, pushed row by row, equals the batch result."""
        rows = price_rows(55, 50, 45, 49, 51, 60)
        streamed, _ = self._stream(rows, example4_compiled)
        assert streamed
        assert streamed == OpsStarMatcher().find_matches(rows, example4_compiled)

    def test_example4_pattern(self, example4_compiled):
        """The paper's Example 4 (range predicates) streams what batch finds."""
        rows = price_rows(55, 50, 45, 49, 51, 60, 55, 48, 44, 49, 50)
        streamed, _ = self._stream(rows, example4_compiled)
        assert streamed
        assert streamed == OpsStarMatcher().find_matches(rows, example4_compiled)

    def test_lookahead_pattern(self):
        """Predicates peeking at .next must defer until the row arrives."""
        peek = price_predicate(
            comparison(PRICE, "<", PREV), comparison(PRICE, "<", PRICE.next)
        )
        plan = compiled(("A", peek, False))
        rows = price_rows(10, 8, 12, 11, 7, 9)
        streamed, _ = self._stream(rows, plan)
        assert streamed == OpsStarMatcher().find_matches(rows, plan)


class TestIncrementalBehaviour:
    def test_match_emitted_at_completion(self):
        plan = compiled(("A", RISE, False), ("B", FALL, False))
        matcher = OpsStreamMatcher(plan)
        assert matcher.push({"price": 10.0}) == []
        assert matcher.push({"price": 12.0}) == []
        (match,) = matcher.push({"price": 9.0})
        assert (match.start, match.end) == (1, 2)
        assert matcher.finish() == []

    def test_trailing_star_needs_finish(self):
        plan = compiled(("A", FALL, False), ("B", RISE, True))
        matcher = OpsStreamMatcher(plan)
        for price in (10.0, 9.0, 11.0, 12.0):
            assert matcher.push({"price": price}) == []
        (match,) = matcher.finish()
        assert match.span_of("B").end == 3

    def test_push_after_finish_rejected(self):
        plan = compiled(("A", LOW, False))
        matcher = OpsStreamMatcher(plan)
        matcher.finish()
        with pytest.raises(RuntimeError):
            matcher.push({"price": 1.0})

    def test_push_after_finish_is_contextual_repro_error(self):
        plan = compiled(("A", LOW, False))
        matcher = OpsStreamMatcher(plan)
        matcher.push({"price": 5.0})
        matcher.finish()
        with pytest.raises(StreamStateError) as excinfo:
            matcher.push({"price": 1.0})
        message = str(excinfo.value)
        assert "push() after finish()" in message
        assert "1 row(s)" in message
        assert "1 match(es)" in message

    def test_finish_idempotent(self):
        plan = compiled(("A", LOW, False))
        matcher = OpsStreamMatcher(plan)
        emitted = matcher.push({"price": 5.0})
        assert len(emitted) == 1  # single-element match completes on push
        assert matcher.finish() == []
        assert matcher.finish() == []
        assert len(matcher.matches) == 1


class TestTrimming:
    def test_window_stays_bounded_on_nonmatching_stream(self):
        """The whole point: O(attempt) memory, not O(stream)."""
        plan = compiled(("A", RISE, False), ("B", FALL, False), ("S", LOW, False))
        matcher = OpsStreamMatcher(plan)
        value = 50.0
        rng = random.Random(23)
        peak = 0
        for _ in range(5000):
            value = max(20.0, min(90.0, value + rng.choice([-2.0, -1.0, 1.0, 2.0])))
            matcher.push({"price": value})
            peak = max(peak, matcher.buffered_rows)
        assert peak <= 10  # attempts are at most m deep plus lookback

    def test_example4_window_stays_bounded(self, example4_compiled):
        matcher = OpsStreamMatcher(example4_compiled)
        rng = random.Random(31)
        value = 46.0
        peak = 0
        for _ in range(2000):
            value = max(35.0, min(60.0, value + rng.choice([-3.0, -1.0, 1.0, 3.0])))
            matcher.push({"price": value})
            peak = max(peak, matcher.buffered_rows)
        assert peak <= 10

    def test_star_window_bounded_by_attempt_length(self):
        plan = compiled(("A", RISE, True), ("B", FALL, True), ("S", LOW, False))
        matcher = OpsStreamMatcher(plan)
        rng = random.Random(29)
        value = 50.0
        peak = 0
        run = 0
        direction = 1
        for _ in range(4000):
            if run <= 0:
                direction = -direction
                run = rng.randrange(5, 15)
            value = max(20.0, value + direction * rng.uniform(0.5, 1.0))
            run -= 1
            matcher.push({"price": value})
            peak = max(peak, matcher.buffered_rows)
        # Window tracks the live attempt (a few runs), far below the stream.
        assert peak < 200

    def test_trim_disabled_keeps_history(self):
        plan = compiled(("A", RISE, False), ("B", FALL, False))
        matcher = OpsStreamMatcher(plan, trim=False)
        for price in range(100):
            matcher.push({"price": float(price)})
        assert matcher.buffered_rows == 100

    def test_opaque_pattern_disables_trimming_automatically(self):
        pred = ElementPredicate(
            [comparison(PRICE, "<", 10), ResidualCondition(lambda _: True)]
        )
        plan = compile_pattern(PatternSpec([PatternElement("A", pred)]))
        matcher = OpsStreamMatcher(plan)
        for price in range(50):
            matcher.push({"price": float(price + 20)})
        assert matcher.buffered_rows == 50
