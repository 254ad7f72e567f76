"""The paper-literal OPS loop for star-free patterns (Section 4.2.1).

This matcher transcribes the paper's pseudo-code as directly as Python
allows::

    j = 1;  i = 1;
    while j <= m  and  i <= n:
        while j > 0 and not p_j(t_i):
            i = i - j + shift(j) + next(j)
            j = next(j)
        i = i + 1;  j = j + 1

extended in the obvious way to report *all* non-overlapping matches
(after a success the pattern cursor resets to 1 and scanning continues at
the current input position).  It exists alongside the unified
:class:`~repro.match.ops_star.OpsStarMatcher` for two reasons: the Figure 5
reproduction wants the exact control flow of the paper, and the test
suite cross-checks both implementations against each other.

Raises :class:`~repro.errors.PlanningError` when handed a star pattern —
use :class:`OpsStarMatcher` for those.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.errors import PlanningError
from repro.match.base import Instrumentation, Match
from repro.pattern.compiler import CompiledPattern
from repro.resilience import Budget


class OpsMatcher:
    """Optimized Pattern Search, star-free form (paper Section 4.2.1)."""

    def find_matches(
        self,
        rows: Sequence[Mapping[str, object]],
        pattern: CompiledPattern,
        instrumentation: Optional[Instrumentation] = None,
        budget: Optional[Budget] = None,
        kernels=None,
    ) -> list[Match]:
        if pattern.has_star:
            raise PlanningError("OpsMatcher handles star-free patterns only")
        evaluators = pattern.evaluators
        names = pattern.spec.names
        shift = pattern.shift_next.shift
        next_ = pattern.shift_next.next_
        m = pattern.m
        n = len(rows)
        matches: list[Match] = []

        # The paper indexes from 1; we keep j 1-based and translate i to
        # 0-based at the single point of evaluation.
        record = instrumentation.record if instrumentation is not None else None
        record_skip = (
            instrumentation.record_skip if instrumentation is not None else None
        )
        truths = kernels.truth if kernels is not None else None
        i = 1
        j = 1
        while j <= m and i <= n:
            if budget is not None and budget.step():
                break
            while j > 0:
                # Inlined test_element: record, then the truth byte or the
                # evaluator.  The truth byte equals the evaluator's verdict
                # at (i-1, j), so the shift/next control flow is untouched
                # (and the per-test bindings dict is never needed on that
                # path).
                if record is not None:
                    record(i - 1, j)
                truth = truths[j - 1] if truths is not None else None
                if truth is not None:
                    satisfied = truth[i - 1]
                else:
                    satisfied = evaluators[j - 1](
                        rows, i - 1, _bindings(names, i, j)
                    )
                if satisfied:
                    break
                if record_skip is not None:
                    # The attempt origin advances by exactly shift(j)
                    # input positions — the work a restart matcher would
                    # redo (mismatch path only, never per test).
                    record_skip(shift[j])
                i = i - j + shift[j] + next_[j]
                j = next_[j]
                if i > n:
                    break
                if budget is not None and budget.step():
                    return matches
            if i > n:
                break
            i += 1
            j += 1
            if j > m:
                start = i - m - 1  # 0-based: the match covers t_{i-m} .. t_{i-1}
                matches.append(
                    Match.from_bounds(tuple(range(start, start + m + 1)), names)
                )
                j = 1  # resume scanning right after the match (non-overlapping)
                if budget is not None and budget.add_match():
                    break
        return matches


def _bindings(names: tuple[str, ...], i: int, j: int) -> dict[str, tuple[int, int]]:
    """Spans of the elements already matched in the current attempt.

    For a star-free pattern element t (< j) is bound to the single input
    position (i - j + t), 1-based; converted here to 0-based.
    """
    return {
        names[t - 1]: (i - j + t - 1, i - j + t - 1)
        for t in range(1, j)
    }
