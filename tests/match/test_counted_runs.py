"""Counted truth-array runs in the OPS scan: exact counts, few calls.

With truth arrays, a finished ``OpsStarMatcher`` scan advances two kinds
of run with one ``bytes.find`` and charges the tests each run settles as
one sum: a star run (every following one byte of a starred element) and
a mismatch self-loop (every following zero byte of an element whose
mismatch lands on the same element one row on).  The clusters below are
built so that runs settle most tests, and end runs at the last row; on
each, ``evaluator="columnar"`` must reproduce the row path's matches,
test counts, skips, per-element counts, path trace and budget spend.
"""

from __future__ import annotations

import pytest

from repro.engine.columnar import materialize_kernels
from repro.match.base import Instrumentation
from repro.match.naive import NaiveMatcher
from repro.match.ops_star import OpsStarMatcher
from repro.pattern.compiler import compile_pattern
from repro.pattern.predicates import comparison
from repro.pattern.spec import PatternElement, PatternSpec
from repro.resilience import Budget, ResourceLimits
from tests.conftest import PREV, PRICE, price_predicate

RISE = price_predicate(comparison(PRICE, ">", PREV))
FALL = price_predicate(comparison(PRICE, "<", PREV))
NO_RISE = price_predicate(comparison(PRICE, "<=", PREV))
DROP = price_predicate(comparison(PRICE, "<", 0.98 * PREV))
NO_DROP = price_predicate(comparison(PRICE, ">=", 0.98 * PREV))

UP = 1.001
DOWN = 0.95


def _series(*segments):
    """Rows from ``(steps, ratio)`` segments; each step scales the price."""
    price = 100.0
    rows = []
    for steps, ratio in segments:
        for _ in range(steps):
            price *= ratio
            rows.append({"price": price})
    return rows


def _plan(*elements):
    return compile_pattern(
        PatternSpec(
            [
                PatternElement(f"V{k}", predicate, star=star)
                for k, (predicate, star) in enumerate(elements)
            ]
        )
    )


#: (pattern, cluster, self-loop element or None).  Every cluster ends in
#: a long run, so the last run stops at the last row.
CASES = {
    # Long star runs, the last one a trailing star up to the last row.
    "star_runs": (
        _plan((RISE, True), (FALL, False)),
        _series(*[(300, UP), (2, DOWN)] * 4, (300, UP)),
        None,
    ),
    "star_run_to_end": (
        _plan((FALL, False), (RISE, True)),
        _series(*[(2, DOWN), (300, UP)] * 4),
        None,
    ),
    # Element 1 fails for long stretches (a fresh attempt at j = 1).
    "element_one_fails": (
        _plan((FALL, False), (RISE, False)),
        _series(*[(300, UP), (1, DOWN), (1, UP)] * 3, (300, UP)),
        1,
    ),
    # shift(2) = 1, next(2) = 2: the paper's double-bottom prefix.
    "self_loop_j2": (
        _plan((NO_DROP, False), (DROP, True)),
        _series(*[(300, UP), (1, DOWN)] * 3, (300, UP)),
        2,
    ),
    # shift(3) = 1, next(3) = 3 behind a star-free prefix.
    "self_loop_j3": (
        _plan((RISE, False), (RISE, False), (NO_RISE, False)),
        _series(*[(300, UP), (1, DOWN)] * 3, (300, UP)),
        3,
    ),
}


def _case(name):
    plan, rows, loop = CASES[name]
    kernels = materialize_kernels(plan, rows)
    assert kernels is not None and None not in kernels.truth
    return plan, rows, loop, kernels


def _scan(rows, plan, kernels, budget=None):
    instrumentation = Instrumentation(record_trace=True)
    instrumentation.enable_detail()
    matches = OpsStarMatcher().find_matches(
        rows, plan, instrumentation, budget, kernels=kernels
    )
    return (
        matches,
        instrumentation.tests,
        instrumentation.skips,
        instrumentation.skip_distance,
        instrumentation.tests_by_element,
        instrumentation.trace,
    )


class _CountingInstrumentation(Instrumentation):
    """Counts the per-test ``record`` calls the scan makes."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = 0

    def record(self, input_index, pattern_position):
        self.calls += 1
        super().record(input_index, pattern_position)


@pytest.mark.parametrize("name", sorted(CASES))
def test_columnar_counts_equal_row(name):
    plan, rows, loop, kernels = _case(name)
    row = _scan(rows, plan, None)
    columnar = _scan(rows, plan, kernels)
    assert columnar == row
    assert row[0] == NaiveMatcher().find_matches(rows, plan)
    assert row[0], "every cluster holds matches"
    if loop is not None:
        assert plan.shift(loop) == 1 and plan.next(loop) in (0, loop)


@pytest.mark.parametrize("name", sorted(CASES))
def test_runs_settle_most_tests(name):
    plan, rows, _, kernels = _case(name)
    counted = _CountingInstrumentation()
    OpsStarMatcher().find_matches(rows, plan, counted, kernels=kernels)
    stepwise = _CountingInstrumentation()
    OpsStarMatcher().find_matches(rows, plan, stepwise)
    assert counted.tests == stepwise.tests == stepwise.calls
    assert counted.calls * 10 < counted.tests


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize(
    "limits, cancel",
    [(ResourceLimits(max_matches=2), None), (ResourceLimits(), lambda: None)],
    ids=["max_matches", "idle_hook"],
)
def test_budget_spend_equals_row(name, limits, cancel):
    plan, rows, _, kernels = _case(name)
    outcomes = []
    for truth in (None, kernels):
        budget = Budget(limits, cancel=cancel, check_every=16)
        outcomes.append(
            (_scan(rows, plan, truth, budget), budget.matches, budget.tripped)
        )
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("check_every", [1, 16, 256])
def test_firing_hook_returns_prefix(name, check_every):
    plan, rows, _, kernels = _case(name)
    full = OpsStarMatcher().find_matches(rows, plan)
    budget = Budget(
        ResourceLimits(), cancel=lambda: "cancelled", check_every=check_every
    )
    got = OpsStarMatcher().find_matches(
        rows, plan, Instrumentation(), budget, kernels=kernels
    )
    assert budget.tripped == "cancelled"
    assert got == full[: len(got)]
