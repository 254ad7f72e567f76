"""Backtracking evaluation of the declarative star semantics.

The paper formalizes star semantics "using recursive Datalog programs"
[11]: a starred element matches *some* run of one or more satisfying
tuples.  A naive evaluator of that declarative reading must *search* over
run boundaries — this matcher does so depth-first, trying the maximal run
first (so its answers coincide with the greedy matchers whenever the
greedy commit succeeds) and re-testing everything downstream of each
alternative boundary.

Two uses:

- it is the fairest stand-in for the paper's "naive execution" on star
  queries: the greedy :class:`~repro.match.naive.NaiveMatcher` already
  embeds the maximal-run *commit* (a star's failing tuple moves the
  pattern forward, never back), which is itself an optimization the
  declarative semantics does not grant for free;
- on patterns whose adjacent predicates are not mutually exclusive, it
  finds matches the greedy commit abandons, making the semantic gap
  between "maximal-run" and "some-run" star interpretations observable
  (tests pin both behaviours down).

Cost: where a greedy attempt is linear in the run lengths, a failed
backtracking attempt multiplies each star run length by the cost of
everything after it — the super-linear blow-up the OPS speedups in
Section 7 are measured against.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.match.base import Instrumentation, Match, Span, test_element
from repro.pattern.compiler import CompiledPattern
from repro.resilience import Budget


class BacktrackingMatcher:
    """Depth-first search over star-run boundaries, maximal-first."""

    #: Accepts per-cluster truth arrays (see :mod:`repro.engine.columnar`).
    supports_kernels = True

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
        # Elements with a truth array swap in a positional lookup for
        # their evaluator; every test still flows through test_element,
        # so instrumentation and budget accounting are untouched.
        evaluators = pattern.evaluators
        if kernels is not None:
            evaluators = tuple(
                _truth_evaluator(truth) if truth is not None else evaluator
                for truth, evaluator in zip(kernels.truth, evaluators)
            )
        start = 0
        while start < n:
            if budget is not None and budget.step():
                break
            spans = self._search(
                rows, pattern, evaluators, 1, start, {}, instrumentation, budget
            )
            if spans is None:
                start += 1
            else:
                match = Match(start, spans[-1].end, tuple(spans), pattern.spec.names)
                matches.append(match)
                start = match.end + 1
                if budget is not None and budget.add_match():
                    break
        return matches

    def _search(
        self,
        rows: Sequence[Mapping[str, object]],
        pattern: CompiledPattern,
        evaluators,
        j: int,
        i: int,
        bindings: dict[str, tuple[int, int]],
        instrumentation: Optional[Instrumentation],
        budget: Optional[Budget] = None,
    ) -> Optional[list[Span]]:
        """Match elements j..m starting at input i; None on failure."""
        if budget is not None and budget.step():
            # Abandoning the search mid-attempt is safe: the caller
            # returns whatever complete matches were already recorded.
            return None
        if j > pattern.m:
            return []
        element = pattern.spec.elements[j - 1]
        evaluator = evaluators[j - 1]
        n = len(rows)
        if i >= n:
            return None
        if not test_element(rows, i, bindings, j, instrumentation, evaluator):
            return None
        if not element.star:
            extended = dict(bindings)
            extended[element.name] = (i, i)
            rest = self._search(
                rows, pattern, evaluators, j + 1, i + 1, extended,
                instrumentation, budget
            )
            return None if rest is None else [Span(i, i), *rest]
        # Starred: discover the maximal satisfying run, then try every
        # boundary from longest to shortest, re-searching downstream.
        end = i
        while end + 1 < n and test_element(
            rows, end + 1, bindings, j, instrumentation, evaluator
        ):
            end += 1
        for last in range(end, i - 1, -1):
            extended = dict(bindings)
            extended[element.name] = (i, last)
            rest = self._search(
                rows, pattern, evaluators, j + 1, last + 1, extended,
                instrumentation, budget
            )
            if rest is not None:
                return [Span(i, last), *rest]
            if budget is not None and budget.tripped is not None:
                return None
        return None


def _truth_evaluator(truth: bytes):
    """An evaluator-shaped view of one element's truth array."""

    def evaluate(rows, index, bindings):
        return bool(truth[index])

    return evaluate
