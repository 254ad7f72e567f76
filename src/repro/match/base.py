"""Shared matcher types: spans, matches, instrumentation, the interface.

The paper measures performance as "the number of times that an element of
input is tested against a pattern element" (Section 7);
:class:`Instrumentation` counts exactly those events, and can additionally
record the ``(i, j)`` coordinates of every test to reproduce the path
curves of Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Match:
    """One pattern occurrence: overall extent plus per-element spans."""

    start: int
    end: int
    spans: tuple[Span, ...]
    names: tuple[str, ...]

    def bindings(self) -> dict[str, Span]:
        """Pattern-variable name -> matched span."""
        return dict(zip(self.names, self.spans))

    def span_of(self, name: str) -> Span:
        try:
            return self.spans[self.names.index(name)]
        except ValueError:
            raise KeyError(f"no pattern variable named {name!r}") from None


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
    """

    __slots__ = ("tests", "trace", "skips", "skip_distance", "tests_by_element")

    def __init__(self, record_trace: bool = False):
        self.tests = 0
        self.trace: Optional[list[tuple[int, int]]] = [] if record_trace else None
        self.skips = 0
        self.skip_distance = 0
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
