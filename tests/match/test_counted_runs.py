"""Counted truth-array runs in the OPS scan: exact counts, few calls.

With truth arrays, a finished ``OpsStarMatcher`` scan advances two kinds
of run with one ``bytes.find`` and charges the tests each run settles as
one sum: a star run (every following one byte of a starred element) and
a mismatch self-loop (every following zero byte of an element whose
mismatch lands on the same element one row on).  The clusters below are
built so that runs settle most tests, and end runs at the last row; on
each, ``evaluator="columnar"`` must reproduce the row path's matches,
test counts, skips, per-element counts, path trace and budget spend.

The second half holds the two fast paths for residuals to the same
contract: anchored comparisons, tested with list lookups instead of the
interpreted residual, and the replay walk, which settles the attempts that
re-walk one star run (see ``ANCHORED``).
"""

from __future__ import annotations

import pytest

from repro.engine.catalog import Catalog
from repro.engine.columnar import materialize_kernels
from repro.engine.executor import Executor
from repro.engine.table import Table
from repro.errors import ExecutionError
from repro.match.base import Instrumentation
from repro.match.naive import NaiveMatcher
from repro.match.ops_star import OpsStarMatcher
from repro.pattern.compiler import compile_pattern
from repro.pattern.predicates import comparison
from repro.pattern.spec import PatternElement, PatternSpec
from repro.resilience import Budget, ResourceLimits
from tests.conftest import DOMAINS, KernelColumns, PREV, PRICE, price_predicate

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
    kernels = materialize_kernels(plan, KernelColumns(rows))
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


# ----------------------------------------------------------------------
# Anchored comparisons and replay walks
# ----------------------------------------------------------------------
#
# A residual that compares the row under test with an earlier element's
# boundary row (its anchor) is an anchored comparison: no truth array,
# two list lookups per test.  After a failure at element j that restarts
# one row into a leading ``(plain, *star)`` prefix, the replay walk
# settles the attempts that re-walk the same star run and charges their
# tests, skips and budget steps as sums.  Each case below must give the
# row path's matches and counts exactly, and ``replays`` says whether the
# walk ran.

SERIES = Catalog([Table("series", [("day", "int"), ("price", "float"), ("vol", "float")])])
FALLING = "Y.price < Y.previous.price"


def _sql_plan(pattern, where):
    _, compiled = Executor(SERIES, domains=DOMAINS).prepare(
        f"SELECT X.day FROM series SEQUENCE BY day AS ({pattern}) WHERE {where}"
    )
    return compiled


def _rows(*segments):
    """Rows from ``(steps, ratio)`` segments, ``vol`` rising with ``day``."""
    return [
        {"day": day, "price": row["price"], "vol": float(day)}
        for day, row in enumerate(_series(*segments))
    ]


#: A slide, a jump and a creep, repeated: each slide is a star run that
#: the anchored element fails behind, and a walk replays.
SLIDES = [(8, 0.99), (1, 1.05), (3, 1.001)] * 12

#: (pattern, where, rows, the walk runs).
ANCHORED = {
    # The paper's Example 2: the anchor is element 1's row.
    "example_2": (
        "X, *Y, Z",
        f"{FALLING} AND Z.previous.price < 0.5 * X.price",
        _rows(*[(6, 0.97), (1, 1.2), (2, 1.01)] * 12),
        True,
    ),
    # The panel query: element j holds in the middle of a walk, once the
    # slide has taken X's price low enough.
    "panel": (
        "X, *Y, S",
        "Y.price < 0.995 * Y.previous.price AND S.price > 1.01 * X.price",
        _rows(*SLIDES),
        True,
    ),
    # FIRST(Y) is element 2's start, one row past each replay's start.
    "first_anchor": (
        "X, *Y, Z",
        f"{FALLING} AND Z.price > 1.01 * FIRST(Y).price",
        _rows(*SLIDES),
        True,
    ),
    # LAST(Y) is the run's end, the same row in every replay.
    "last_anchor": (
        "X, *Y, Z",
        f"{FALLING} AND Z.price > 1.1 * LAST(Y).price",
        _rows(*SLIDES),
        True,
    ),
    # The first attempt's anchor navigates to row -2, the first replay's
    # to row -1: both False, under != too; the second replay holds.
    "anchor_off_start": (
        "X, *Y, Z",
        f"{FALLING} AND Z.price != X.previous.previous.price",
        _rows((30, 0.99), (1, 1.02), (5, 1.0), *SLIDES),
        True,
    ),
    # Element 1 fails part-way through each slide's replays.
    "element_one_fails": (
        "X, *Y, Z",
        f"X.price > 90 AND {FALLING} AND Z.previous.price < 0.5 * X.price",
        _rows(*[(20, 0.99), (1, 1.25)] * 10),
        True,
    ),
    # The star run reaches the last row: no anchored test, no walk.
    "run_to_last_row": (
        "X, *Y, Z",
        f"{FALLING} AND Z.previous.price < 0.5 * X.price",
        _rows((300, 0.99)),
        False,
    ),
    # j = 4 behind a plain element 3 on a truth array.
    "j4_plain_middle": (
        "X, *Y, W, Z",
        f"{FALLING} AND W.price > 0.9 * W.previous.price "
        "AND Z.price > 1.01 * X.price",
        _rows(*SLIDES),
        True,
    ),
    # Not an anchored shape: element j keeps its evaluator, the
    # interpreted residual, which each replay calls with its own bindings.
    "closure_verdict": (
        "X, *Y, Z",
        "Y.price < 0.995 * Y.previous.price AND Z.price - X.price > 0.5",
        _rows(*SLIDES),
        True,
    ),
}


def _anchored_case(name):
    pattern, where, rows, walks = ANCHORED[name]
    plan = _sql_plan(pattern, where)
    kernels = materialize_kernels(plan, KernelColumns(rows))
    assert kernels is not None
    return plan, rows, walks, kernels


@pytest.mark.parametrize("name", sorted(ANCHORED))
def test_anchored_counts_equal_row(name):
    plan, rows, walks, kernels = _anchored_case(name)
    row = _scan(rows, plan, None)
    columnar = _scan(rows, plan, kernels)
    assert columnar == row
    assert row[0] == NaiveMatcher().find_matches(rows, plan)
    counted = Instrumentation()
    assert OpsStarMatcher().find_matches(rows, plan, counted, kernels=kernels) == row[0]
    assert (counted.tests, counted.skips, counted.skip_distance) == row[1:4]
    assert (counted.replays > 0) == walks
    if name != "closure_verdict":
        assert kernels.anchored[plan.m - 1] is not None


@pytest.mark.parametrize("name", sorted(ANCHORED))
@pytest.mark.parametrize(
    "limits, cancel",
    [(ResourceLimits(max_matches=2), None), (ResourceLimits(), lambda: None)],
    ids=["max_matches", "idle_hook"],
)
def test_anchored_budget_spend_equals_row(name, limits, cancel):
    plan, rows, _, kernels = _anchored_case(name)
    outcomes = []
    for truth in (None, kernels):
        budget = Budget(limits, cancel=cancel, check_every=16)
        outcomes.append(
            (_scan(rows, plan, truth, budget), budget.matches, budget.tripped)
        )
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", sorted(ANCHORED))
@pytest.mark.parametrize("check_every", [1, 16, 256])
def test_anchored_firing_hook_returns_prefix(name, check_every):
    plan, rows, _, kernels = _anchored_case(name)
    full = OpsStarMatcher().find_matches(rows, plan)
    budget = Budget(
        ResourceLimits(), cancel=lambda: "cancelled", check_every=check_every
    )
    got = OpsStarMatcher().find_matches(
        rows, plan, Instrumentation(), budget, kernels=kernels
    )
    assert budget.tripped == "cancelled"
    assert got == full[: len(got)]


def test_replays_settle_most_attempts():
    """On Example 2's shape the walk, not the loop, settles most of the
    attempts that replay a slide."""
    plan, rows, _, kernels = _anchored_case("example_2")
    counted = Instrumentation()
    OpsStarMatcher().find_matches(rows, plan, counted, kernels=kernels)
    assert counted.replays * 2 > counted.skips


def test_closure_raising_in_a_walk_matches_row():
    """A residual evaluator that raises on a replay's bindings raises the
    row path's error, after the same tests."""
    plan = _sql_plan("X, *Y, Z", "Y.vol > Y.previous.vol AND Z.price - X.price > 0")
    rows = [{"day": day, "price": 50.0 - day, "vol": float(day)} for day in range(8)]
    rows.append({"day": 8, "price": 60.0, "vol": 0.0})
    rows[1]["price"] = "bad"
    rows[0]["price"] = 100.0
    kernels = materialize_kernels(plan, KernelColumns(rows))
    assert kernels.truth[1] is not None and kernels.anchored[2] is None
    outcomes = []
    for truth in (None, kernels):
        instrumentation = Instrumentation(record_trace=True)
        instrumentation.enable_detail()
        with pytest.raises(ExecutionError) as raised:
            OpsStarMatcher().find_matches(rows, plan, instrumentation, kernels=truth)
        outcomes.append(
            (
                str(raised.value),
                instrumentation.tests,
                instrumentation.skips,
                instrumentation.tests_by_element,
                instrumentation.trace,
            )
        )
    assert outcomes[0] == outcomes[1]
    assert "non-numeric" in outcomes[0][0]
