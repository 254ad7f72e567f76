"""Forward/reverse search and the direction heuristic (paper Section 8).

"Clearly, it is possible to search the input stream in either the forward
or the reverse direction.  Therefore, we can optimize searches in both
directions, and then select the better. ... a large average value for
shift and next is a good indication of effective optimization.  Specially
a larger value of shift has more effect on the speedup."

This module implements that machinery:

- :func:`reverse_pattern` — the pattern read right-to-left: element order
  reversed and every fixed sequence offset negated (``previous`` and
  ``next`` swap roles);
- :class:`ReverseMatcher` — runs any matcher over the reversed input with
  the reversed pattern and maps spans back to forward coordinates;
- :func:`direction_scores` / :func:`choose_direction` — the paper's
  average-shift/next heuristic, with shift weighted above next.

Semantics note: reverse scanning resolves *overlapping* candidate matches
right-to-left, so on inputs with overlapping occurrences the reverse
match set may legitimately differ from the forward (left-maximal) one.
The heuristic is therefore a *cost* tool; an engine that must preserve
left-maximality can still use the reverse direction to locate match
regions and re-anchor, or restrict the choice to patterns whose matches
provably cannot overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.errors import PlanningError
from repro.match.base import Instrumentation, Match, Matcher
from repro.match.ops_star import OpsStarMatcher
from repro.pattern.compiler import CompiledPattern, compile_pattern
from repro.pattern.predicates import (
    Attr,
    ComparisonCondition,
    Condition,
    ElementPredicate,
    LinearTerm,
    StringEqualityCondition,
)
from repro.pattern.spec import PatternElement, PatternSpec
from repro.resilience import Budget


def _reverse_attr(attr: Attr | None) -> Attr | None:
    return None if attr is None else Attr(attr.name, -attr.offset)


def _reverse_term(term: LinearTerm) -> LinearTerm:
    return LinearTerm(term.coefficient, _reverse_attr(term.attr), term.constant)


def _reverse_condition(condition: Condition) -> Condition:
    if isinstance(condition, ComparisonCondition):
        return ComparisonCondition(
            _reverse_term(condition.left), condition.op, _reverse_term(condition.right)
        )
    if isinstance(condition, StringEqualityCondition):
        reversed_attr = _reverse_attr(condition.attr)
        assert reversed_attr is not None
        return StringEqualityCondition(reversed_attr, condition.op, condition.value)
    raise PlanningError(
        "reverse optimization requires offset-expressible conditions; "
        f"cannot reverse {condition!r}"
    )


def reverse_pattern(spec: PatternSpec) -> PatternSpec:
    """The pattern as seen when scanning the input right-to-left."""
    reversed_elements = []
    for element in reversed(spec.elements):
        conditions = tuple(
            _reverse_condition(condition)
            for condition in element.predicate.conditions
        )
        predicate = ElementPredicate(
            conditions, label=element.predicate.label + "_rev"
        )
        reversed_elements.append(
            PatternElement(element.name, predicate, star=element.star)
        )
    return PatternSpec(reversed_elements)


@dataclass(frozen=True)
class DirectionScore:
    """The Section 8 heuristic score for one scan direction."""

    mean_shift: float
    mean_next: float

    @property
    def value(self) -> float:
        # Shift dominates ("a larger value of shift has more effect").
        return self.mean_shift + 0.5 * self.mean_next


def direction_scores(
    forward: CompiledPattern, backward: CompiledPattern
) -> tuple[DirectionScore, DirectionScore]:
    return _score(forward), _score(backward)


def _score(pattern: CompiledPattern) -> DirectionScore:
    m = pattern.m
    shifts = [pattern.shift(j) for j in range(1, m + 1)]
    nexts = [pattern.next(j) for j in range(1, m + 1)]
    return DirectionScore(sum(shifts) / m, sum(nexts) / m)


def choose_direction(spec: PatternSpec) -> tuple[str, CompiledPattern]:
    """Compile both directions and pick the better-scoring one.

    Returns ``("forward", plan)`` or ``("backward", plan)``; ties go to
    forward (left-maximal semantics preserved for free).
    """
    forward = compile_pattern(spec)
    try:
        backward = compile_pattern(reverse_pattern(spec))
    except PlanningError:
        return "forward", forward
    fwd, bwd = direction_scores(forward, backward)
    if bwd.value > fwd.value:
        return "backward", backward
    return "forward", forward


class ReverseMatcher:
    """Scan right-to-left with a reversed pattern; report forward spans.

    ``budget`` reaches the inner scan.  ``kernels`` are the truth arrays of
    the forward rows, so the reversed scan ignores them and evaluates its
    reversed predicates row by row.
    """

    def __init__(self, inner: Optional[Matcher] = None):
        self._inner = inner if inner is not None else OpsStarMatcher()

    def find_matches(
        self,
        rows: Sequence[Mapping[str, object]],
        pattern: CompiledPattern,
        instrumentation: Optional[Instrumentation] = None,
        budget: Optional[Budget] = None,
        kernels=None,
    ) -> list[Match]:
        reversed_plan = compile_pattern(reverse_pattern(pattern.spec))
        reversed_rows = list(reversed(rows))
        raw = self._inner.find_matches(
            reversed_rows, reversed_plan, instrumentation, budget
        )
        # Reversed element t spans b[t-1] .. b[t]-1 counted from the end,
        # so the forward boundaries are n - b, read right to left.
        n = len(rows)
        names = pattern.spec.names
        converted = [
            Match.from_bounds(tuple([n - b for b in reversed(match.bounds)]), names)
            for match in raw
        ]
        converted.sort(key=lambda match: match.start)
        return converted
