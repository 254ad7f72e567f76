"""Backoff *timing* tests for the retry machinery.

The crash-recovery suite proves retries eventually succeed; these tests
pin down *when* they happen.  The runner takes injectable ``clock`` and
``sleep`` callables, so the doubling schedule, the reset-on-success
rule, and the retries-exhausted path are asserted against the exact
sleep sequence — no wall-clock time is spent and no flakiness is
possible.
"""

from __future__ import annotations

import pytest

from repro.errors import TransientSourceError
from repro.pattern.compiler import compile_pattern
from repro.pattern.predicates import comparison
from repro.pattern.spec import PatternElement, PatternSpec
from repro.recovery import CheckpointPolicy, RecoveringStreamRunner, RetryPolicy
from repro.resilience import Diagnostics
from tests.conftest import PREV, PRICE, price_predicate

RISE = price_predicate(comparison(PRICE, ">", PREV), label="rise")

#: A single-element pattern: every rising row is a match, so emission
#: order directly mirrors source order.
PATTERN = compile_pattern(
    PatternSpec([PatternElement("X", RISE, star=False)])
)


class FakeTime:
    """A clock and a sleep that share one timeline and record calls."""

    def __init__(self):
        self.now = 0.0
        self.sleeps: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class FlakySource:
    """An offset-addressable source that fails at planted offsets.

    ``failures[offset]`` is how many times reading that offset fails
    before it succeeds; each failure consumes one entry.
    """

    def __init__(self, rows: int, failures: dict[int, int]):
        self.rows = [
            {"day": day, "price": 100.0 + day} for day in range(rows)
        ]
        self.failures = dict(failures)
        self.opens = 0

    def factory(self, start: int):
        self.opens += 1

        def generate():
            for offset in range(start, len(self.rows)):
                if self.failures.get(offset, 0) > 0:
                    self.failures[offset] -= 1
                    raise TransientSourceError(
                        f"flaky read at offset {offset}"
                    )
                yield offset, self.rows[offset]

        return generate()


def run_stream(source: FlakySource, retry: RetryPolicy, fake: FakeTime):
    diagnostics = Diagnostics()
    runner = RecoveringStreamRunner(
        PATTERN,
        source.factory,
        retry=retry,
        diagnostics=diagnostics,
        clock=fake.clock,
        sleep=fake.sleep,
    )
    emitted = list(runner.run())
    return emitted, diagnostics


class TestBackoffSchedule:
    def test_delay_doubles_per_consecutive_failure(self):
        policy = RetryPolicy(max_retries=5, backoff=0.1)
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.8),
        ]

    def test_delay_caps_at_max_backoff(self):
        policy = RetryPolicy(max_retries=20, backoff=1.0, max_backoff=5.0)
        assert policy.delay(10) == 5.0

    def test_custom_factor(self):
        policy = RetryPolicy(max_retries=3, backoff=0.5, backoff_factor=3.0)
        assert [policy.delay(n) for n in (1, 2, 3)] == [
            pytest.approx(0.5),
            pytest.approx(1.5),
            pytest.approx(4.5),
        ]

    def test_runner_sleeps_the_doubling_schedule(self):
        fake = FakeTime()
        source = FlakySource(6, failures={3: 3})  # offset 3 fails 3x
        emitted, diagnostics = run_stream(
            source, RetryPolicy(max_retries=3, backoff=0.1), fake
        )
        assert fake.sleeps == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
        ]
        assert diagnostics.retries == 3
        # The stream still emitted every match despite the stutter.
        assert len(emitted) == 5  # 5 rising pairs in 6 ramp rows

    def test_no_sleep_when_nothing_fails(self):
        fake = FakeTime()
        source = FlakySource(5, failures={})
        emitted, diagnostics = run_stream(
            source, RetryPolicy(max_retries=3, backoff=0.1), fake
        )
        assert fake.sleeps == []
        assert diagnostics.retries == 0
        assert source.opens == 1  # never reopened


class TestJitter:
    """Full-jitter backoff: delays are randomized *within* the geometric
    envelope so simultaneous failures don't retry in lockstep."""

    def test_default_jitter_is_zero_and_schedule_exact(self):
        policy = RetryPolicy(max_retries=3, backoff=0.1)
        assert policy.jitter == 0.0
        # Even with an rng supplied, jitter=0 ignores it entirely.
        assert policy.delay(2, rng=lambda: 0.987) == pytest.approx(0.2)

    def test_full_jitter_spans_zero_to_base(self):
        policy = RetryPolicy(max_retries=3, backoff=0.1, jitter=1.0)
        assert policy.delay(2, rng=lambda: 0.0) == pytest.approx(0.0)
        assert policy.delay(2, rng=lambda: 0.5) == pytest.approx(0.1)
        assert policy.delay(2, rng=lambda: 0.999) == pytest.approx(0.1998)

    def test_partial_jitter_bounds(self):
        # jitter=0.5 keeps at least half the base delay.
        policy = RetryPolicy(max_retries=3, backoff=0.4, jitter=0.5)
        low = policy.delay(1, rng=lambda: 0.0)
        high = policy.delay(1, rng=lambda: 0.999)
        assert low == pytest.approx(0.2)
        assert high < 0.4
        for sample in (0.1, 0.3, 0.7, 0.9):
            delay = policy.delay(1, rng=lambda: sample)
            assert 0.2 <= delay < 0.4

    def test_jitter_respects_max_backoff_cap(self):
        policy = RetryPolicy(
            max_retries=20, backoff=1.0, max_backoff=5.0, jitter=1.0
        )
        assert policy.delay(10, rng=lambda: 0.999) < 5.0

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_runner_threads_its_rng_into_the_delay(self):
        fake = FakeTime()
        source = FlakySource(6, failures={3: 2})
        diagnostics = Diagnostics()
        runner = RecoveringStreamRunner(
            PATTERN,
            source.factory,
            retry=RetryPolicy(max_retries=3, backoff=0.1, jitter=1.0),
            diagnostics=diagnostics,
            clock=fake.clock,
            sleep=fake.sleep,
            rng=lambda: 0.5,
        )
        list(runner.run())
        # Full jitter with rng pinned at 0.5 halves the geometric delays.
        assert fake.sleeps == [pytest.approx(0.05), pytest.approx(0.1)]


class TestResetOnSuccess:
    def test_successful_row_resets_the_failure_count(self):
        fake = FakeTime()
        # Two separated flaky offsets: each burst must restart the
        # schedule at the base backoff, not continue doubling.
        source = FlakySource(8, failures={2: 2, 5: 2})
        emitted, diagnostics = run_stream(
            source, RetryPolicy(max_retries=2, backoff=0.1), fake
        )
        assert fake.sleeps == [
            pytest.approx(0.1),
            pytest.approx(0.2),  # burst at offset 2
            pytest.approx(0.1),
            pytest.approx(0.2),  # burst at offset 5: reset, not 0.4
        ]
        assert len(emitted) == 7

    def test_reset_allows_unbounded_total_retries(self):
        # max_retries bounds CONSECUTIVE failures; 4 separated single
        # failures pass under max_retries=1.
        fake = FakeTime()
        source = FlakySource(10, failures={1: 1, 3: 1, 5: 1, 7: 1})
        emitted, diagnostics = run_stream(
            source, RetryPolicy(max_retries=1, backoff=0.05), fake
        )
        assert diagnostics.retries == 4
        assert fake.sleeps == [pytest.approx(0.05)] * 4
        assert len(emitted) == 9


class TestRetriesExhausted:
    def test_exceeding_max_retries_raises_after_final_sleep(self):
        fake = FakeTime()
        source = FlakySource(6, failures={3: 10})  # more than the budget
        with pytest.raises(TransientSourceError, match="offset 3"):
            run_stream(source, RetryPolicy(max_retries=2, backoff=0.1), fake)
        # Exactly max_retries sleeps happened before giving up.
        assert fake.sleeps == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_zero_retries_fails_fast_without_sleeping(self):
        fake = FakeTime()
        source = FlakySource(6, failures={0: 1})
        with pytest.raises(TransientSourceError):
            run_stream(source, RetryPolicy(max_retries=0), fake)
        assert fake.sleeps == []

    def test_non_retryable_errors_propagate_immediately(self):
        fake = FakeTime()

        class Poisoned(FlakySource):
            def factory(self, start):
                def generate():
                    yield 0, self.rows[0]
                    raise KeyError("not a transient failure")

                return generate()

        with pytest.raises(KeyError):
            run_stream(
                Poisoned(3, failures={}),
                RetryPolicy(max_retries=5, backoff=0.1),
                fake,
            )
        assert fake.sleeps == []


class TestPolicyValidation:
    """A value that would break a policy later is refused when it is
    built: a NaN delay makes ``time.sleep`` raise mid-stream, a NaN cap
    caps nothing, a NaN interval never elapses, and a bool or a fraction
    is no count."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_retries", True),
            ("max_retries", 2.5),
            ("max_retries", -1),
            ("backoff", float("nan")),
            ("backoff", -0.1),
            ("backoff_factor", float("nan")),
            ("backoff_factor", 0.5),
            ("max_backoff", float("nan")),
            ("max_backoff", -1.0),
            ("jitter", float("nan")),
        ],
    )
    def test_retry_policy_refuses(self, field, value):
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("every_rows", True),
            ("every_rows", 2.5),
            ("every_rows", 0),
            ("every_seconds", float("nan")),
            ("every_seconds", 0.0),
            ("every_seconds", -1.0),
        ],
    )
    def test_checkpoint_policy_refuses(self, field, value):
        with pytest.raises(ValueError, match=field):
            CheckpointPolicy(**{field: value})
