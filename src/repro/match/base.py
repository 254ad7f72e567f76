"""Shared matcher types: spans, matches, instrumentation, the interface.

The paper measures performance as "the number of times that an element of
input is tested against a pattern element" (Section 7);
:class:`Instrumentation` counts exactly those events, and can additionally
record the ``(i, j)`` coordinates of every test to reproduce the path
curves of Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Protocol, Sequence

from repro.pattern.compiler import CompiledPattern
from repro.resilience import Budget


@dataclass(frozen=True)
class Span:
    """An inclusive range of input positions (0-based) bound to one element."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"empty span {self.start}..{self.end}")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


class Match:
    """One pattern occurrence, stored as its element boundaries.

    ``bounds`` holds m + 1 absolute input positions: element t (1-based)
    spans ``bounds[t - 1] .. bounds[t] - 1``.  ``start``, ``end``,
    ``spans``, ``bindings()`` and ``span_of()`` are derived from it, so a
    :class:`Span` is built only when one of them is read.  Matchers build
    a match with :meth:`from_bounds`; ``Match(start, end, spans, names)``
    checks that the spans tile ``start .. end`` without gaps.
    """

    __slots__ = ("_bounds", "_names")

    def __init__(
        self, start: int, end: int, spans: Sequence[Span], names: Sequence[str]
    ):
        spans = tuple(spans)
        names = tuple(names)
        if not spans:
            raise ValueError("a match needs at least one span")
        if len(spans) != len(names):
            raise ValueError(
                f"{len(spans)} span(s) for {len(names)} pattern variable(s)"
            )
        bounds = [start]
        for span in spans:
            if span.start != bounds[-1]:
                raise ValueError(
                    f"span {span.start}..{span.end} does not start at "
                    f"{bounds[-1]}: spans must be contiguous from {start}"
                )
            bounds.append(span.end + 1)
        if bounds[-1] != end + 1:
            raise ValueError(
                f"spans end at {bounds[-1] - 1}, not at the match end {end}"
            )
        self._bounds = tuple(bounds)
        self._names = names

    @classmethod
    def from_bounds(cls, bounds: tuple[int, ...], names: tuple[str, ...]) -> "Match":
        """The match whose element t spans ``bounds[t - 1] .. bounds[t] - 1``."""
        match = object.__new__(cls)
        match._bounds = bounds
        match._names = names
        return match

    @property
    def bounds(self) -> tuple[int, ...]:
        return self._bounds

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def start(self) -> int:
        return self._bounds[0]

    @property
    def end(self) -> int:
        return self._bounds[-1] - 1

    @property
    def spans(self) -> tuple[Span, ...]:
        bounds = self._bounds
        return tuple(
            Span(bounds[t], bounds[t + 1] - 1) for t in range(len(bounds) - 1)
        )

    def bindings(self) -> dict[str, Span]:
        """Pattern-variable name -> matched span."""
        return dict(zip(self._names, self.spans))

    def span_of(self, name: str) -> Span:
        try:
            t = self._names.index(name)
        except ValueError:
            raise KeyError(f"no pattern variable named {name!r}") from None
        return Span(self._bounds[t], self._bounds[t + 1] - 1)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._bounds == other._bounds and self._names == other._names

    def __hash__(self) -> int:
        return hash((self._bounds, self._names))

    def __reduce__(self):
        return (self.from_bounds, (self._bounds, self._names))

    def __repr__(self) -> str:
        return (
            f"Match(start={self.start!r}, end={self.end!r}, "
            f"spans={self.spans!r}, names={self._names!r})"
        )


class Instrumentation:
    """Counts predicate tests; optionally records the (i, j) path curve.

    ``trace`` entries are 1-based ``(i, j)`` pairs to match the paper's
    Figure 5 axes.

    ``skips``/``skip_distance`` measure the paper's optimization itself:
    every time a matcher applies its shift/next tables after a mismatch,
    it records how many input positions the attempt origin advanced —
    the work the naive restart strategy would have redone.  These are
    plain int adds on the (cold) mismatch path, so they are always on.

    ``tests_by_element`` is the opt-in detail mode the flight recorder
    uses (:meth:`enable_detail`): per pattern position j, how many tests
    it absorbed — which is what lets a query profile attribute predicate
    work to individual pattern elements (and to the band-fused ones).
    It costs one dict update per test, so it stays off outside traced
    runs; the aggregate ``tests`` counter is untouched either way.

    ``replays`` counts the attempts the OPS scan's replay walk settled
    without stepping through them (see :mod:`repro.match.ops_star`);
    their tests and skips are in the other counters all the same.
    """

    __slots__ = (
        "tests", "trace", "skips", "skip_distance", "replays", "tests_by_element"
    )

    def __init__(self, record_trace: bool = False):
        self.tests = 0
        self.trace: Optional[list[tuple[int, int]]] = [] if record_trace else None
        self.skips = 0
        self.skip_distance = 0
        self.replays = 0
        self.tests_by_element: Optional[dict[int, int]] = None

    def enable_detail(self) -> None:
        """Start attributing tests to pattern positions (profile mode)."""
        if self.tests_by_element is None:
            self.tests_by_element = {}

    def record(self, input_index: int, pattern_position: int) -> None:
        """Note one test of input position (0-based) against element j (1-based)."""
        self.tests += 1
        if self.trace is not None:
            self.trace.append((input_index + 1, pattern_position))
        if self.tests_by_element is not None:
            self.tests_by_element[pattern_position] = (
                self.tests_by_element.get(pattern_position, 0) + 1
            )

    def record_run(self, start: int, stop: int, pattern_position: int) -> None:
        """Note the tests of input positions ``start .. stop - 1`` against
        element j in one call: the same counts and trace entries as
        ``record`` per position, charged as one sum."""
        count = stop - start
        self.tests += count
        if self.trace is not None:
            self.trace.extend(
                (index + 1, pattern_position) for index in range(start, stop)
            )
        if self.tests_by_element is not None:
            self.tests_by_element[pattern_position] = (
                self.tests_by_element.get(pattern_position, 0) + count
            )

    def record_skip(self, distance: int, times: int = 1) -> None:
        """Note ``times`` shift/next applications, each advancing the
        attempt origin by ``distance`` input positions (0 = re-anchor in
        place)."""
        self.skips += times
        self.skip_distance += distance * times

    def merge(self, other: "Instrumentation") -> None:
        """Add another run's counts to this one's; ``other``'s path curve
        follows this one's, so merge runs in input order."""
        self.tests += other.tests
        self.skips += other.skips
        self.skip_distance += other.skip_distance
        self.replays += other.replays
        if self.trace is not None and other.trace:
            self.trace.extend(other.trace)
        if self.tests_by_element is not None and other.tests_by_element:
            for position, count in other.tests_by_element.items():
                self.tests_by_element[position] = (
                    self.tests_by_element.get(position, 0) + count
                )

    def __repr__(self) -> str:
        traced = f", trace[{len(self.trace)}]" if self.trace is not None else ""
        skipped = f", skips={self.skips}" if self.skips else ""
        return f"Instrumentation(tests={self.tests}{skipped}{traced})"


class Matcher(Protocol):
    """The common matcher interface.

    ``budget`` is optional resource-limit tracking
    (:class:`~repro.resilience.Budget`): implementations consult it
    periodically inside their scan loops and, once it trips, stop and
    return the matches found so far (partial results — the trip reason is
    recorded on the budget's diagnostics, never raised from here).

    ``kernels`` is the cluster's columnar truth arrays
    (:mod:`repro.engine.columnar`) when the executor materialized them,
    else None; a matcher may use them in place of its per-row
    evaluators, or ignore them.
    """

    def find_matches(
        self,
        rows: Sequence[Mapping[str, object]],
        pattern: CompiledPattern,
        instrumentation: Optional[Instrumentation] = None,
        budget: Optional[Budget] = None,
        kernels=None,
    ) -> list[Match]:
        """All left-maximal, non-overlapping matches, in input order."""
        ...


def test_element(
    rows: Sequence[Mapping[str, object]],
    index: int,
    bindings: Mapping[str, tuple[int, int]],
    pattern_position: int,
    instrumentation: Optional[Instrumentation],
    evaluator: Callable,
) -> bool:
    """Evaluate one element predicate on one input tuple, instrumented.

    ``evaluator`` is the element's entry of
    :attr:`~repro.pattern.compiler.CompiledPattern.evaluators`.  The
    instrumentation count is recorded before the call, so the paper's
    metric does not depend on how the test is implemented.
    """
    if instrumentation is not None:
        instrumentation.record(index, pattern_position)
    return evaluator(rows, index, bindings)
