"""The naive restart-on-mismatch matcher — the paper's baseline.

For every candidate start position the naive matcher attempts a full
greedy match; on any failure it abandons the attempt and restarts one
position to the right.  Star elements consume a *maximal* run of one or
more satisfying tuples (SQL-TS semantics: the tuple that ends a star run
is then tested against the next pattern element, without re-consuming
input).  Matches are left-maximal and, by default, non-overlapping: after
a success the scan resumes just past the match.

This is deliberately the same match semantics as the OPS runtimes — the
whole point of the reproduction is that OPS returns *identical matches
with far fewer predicate tests* — and the differential test-suite holds
the matchers to byte-identical outputs.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.match.base import Instrumentation, Match
from repro.pattern.compiler import CompiledPattern
from repro.resilience import Budget


class NaiveMatcher:
    """Baseline matcher: restart at start+1 after every failed attempt.

    ``overlapping=True`` restarts at start+1 even after a *successful*
    match, yielding all (possibly overlapping) occurrences; the default
    reproduces the paper's left-maximal non-overlapping semantics.
    """

    def __init__(self, overlapping: bool = False):
        self._overlapping = overlapping

    def find_matches(
        self,
        rows: Sequence[Mapping[str, object]],
        pattern: CompiledPattern,
        instrumentation: Optional[Instrumentation] = None,
        budget: Optional[Budget] = None,
        kernels=None,
    ) -> list[Match]:
        matches: list[Match] = []
        n = len(rows)
        truths = kernels.truth if kernels is not None else None
        start = 0
        while start < n:
            if budget is not None and budget.step():
                break
            match = self._attempt(
                rows, pattern, start, instrumentation, budget, truths
            )
            if match is None:
                start += 1
            else:
                matches.append(match)
                start = start + 1 if self._overlapping else match.end + 1
                if budget is not None and budget.add_match():
                    break
        return matches

    def _attempt(
        self,
        rows: Sequence[Mapping[str, object]],
        pattern: CompiledPattern,
        start: int,
        instrumentation: Optional[Instrumentation],
        budget: Optional[Budget] = None,
        truths=None,
    ) -> Optional[Match]:
        n = len(rows)
        i = start
        bounds = [start]
        bindings: dict[str, tuple[int, int]] = {}
        evaluators = pattern.evaluators
        record = instrumentation.record if instrumentation is not None else None
        for j, element in enumerate(pattern.spec, start=1):
            evaluator = evaluators[j - 1]
            truth = truths[j - 1] if truths is not None else None
            if i >= n:
                return None
            # Inlined test_element: record, then the truth byte or the
            # evaluator.  The truth byte equals what the evaluator would
            # return at this position, so control flow is unchanged.
            if record is not None:
                record(i, j)
            if not (truth[i] if truth is not None else evaluator(rows, i, bindings)):
                return None
            first = i
            i += 1
            if element.star:
                # Greedy: extend the run while tuples keep satisfying the
                # predicate.  The failing test is charged here; the tuple
                # that ends the run is re-tested by the next element.
                while i < n:
                    if record is not None:
                        record(i, j)
                    if not (
                        truth[i] if truth is not None
                        else evaluator(rows, i, bindings)
                    ):
                        break
                    i += 1
                    if budget is not None and budget.step():
                        return None
            bounds.append(i)
            bindings[element.name] = (first, i - 1)
        return Match.from_bounds(tuple(bounds), pattern.spec.names)
