"""The unified OPS runtime with star support (paper Section 5).

The runtime keeps, per match attempt, the cumulative count array of the
paper: ``counts[t]`` is the number of input tuples consumed by pattern
elements 1..t of the current attempt (``counts[0] = 0``).  For star-free
patterns ``counts[t] = t`` and every formula below collapses to the
Section 4 arithmetic, so this matcher subsumes
:class:`~repro.match.ops.OpsMatcher` (the test suite checks they agree).

Transition rules (Section 5, "our search algorithm is generalized"):

- input satisfies the element: consume it; a plain element then advances
  the pattern cursor, a star element stays (greedy);
- input fails a star element that has already consumed at least one tuple
  in this attempt: the star run ends; advance the pattern cursor and
  re-test the *same* input against the next element;
- input fails otherwise: a genuine mismatch at position ``j`` — apply the
  compiled ``shift``/``next``:

    * ``next(j) = 0`` (i.e. ``shift(j) = j``): no shorter shift can work
      and ``phi[j,1] = 0`` proves the failed tuple cannot start a match
      either; restart the attempt at the following input position;
    * otherwise the attempt restarts ``shift(j)`` *elements* later, i.e.
      ``counts[shift(j)]`` input positions later, elements
      ``1 .. next(j)-1`` of the new attempt are inherited as verified
      (their consumption rebased from the old alignment), and checking
      resumes at element ``next(j)`` with the input cursor at
      ``attempt_start + counts[shift(j) + next(j) - 1]`` — the paper's
      ``i - count(j-1) + count(shift(j)+next(j)-1)`` expressed from the
      attempt origin.  The star-free special case ``next = j - shift + 1``
      additionally counts the failed tuple itself as verified
      (``phi = 1`` proved it satisfies element ``j - shift``), which is
      what makes the formula land on ``i + 1``.

After a success the attempt restarts fresh immediately after the match
(left-maximal, non-overlapping semantics, identical to the naive
baseline's).

With truth arrays (:mod:`repro.engine.columnar`) a finished scan takes
whole runs of rows per step, each found with one ``bytes.find``: a star
run (the following one bytes of a satisfied starred element) and a
mismatch self-loop (the following zero bytes of an element whose
mismatch lands on the same element one row on).  Their tests, skips and
budget steps are charged as sums, equal to the stepwise loop's.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.match.base import Instrumentation, Match, Span
from repro.pattern.compiler import CompiledPattern
from repro.resilience import Budget


class OpsStarMatcher:
    """Optimized Pattern Search with the Section 5 count bookkeeping."""

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
        runtime = _Run(rows, pattern, instrumentation, budget, kernels=kernels)
        return runtime.scan()


class _Run:
    """Mutable state of one left-to-right scan."""

    def __init__(
        self,
        rows: Sequence[Mapping[str, object]],
        pattern: CompiledPattern,
        instrumentation: Optional[Instrumentation],
        budget: Optional[Budget] = None,
        kernels=None,
    ):
        self.rows = rows
        self.pattern = pattern
        self.instrumentation = instrumentation
        # Hot-path accessors hoisted once per scan: the bound record
        # method (or None) and the per-element evaluators.
        self.record = instrumentation.record if instrumentation is not None else None
        self.budget = budget
        self.elements = pattern.spec.elements
        self.evaluators = pattern.evaluators
        # Per-element truth arrays from the columnar backend; entry
        # ``j - 1`` replaces the evaluator call when present (see
        # :mod:`repro.engine.columnar`).
        self.truths = kernels.truth if kernels is not None else None
        self.names = pattern.spec.names
        self.shift = pattern.shift_next.shift
        self.next_ = pattern.shift_next.next_
        self.m = pattern.m
        # Residual (non-symbolic) conditions may reference the *binding*
        # of another element; an opaque predicate without the flag is
        # treated as residual — the conservative direction.  Indexed by
        # j: ``residual_tested[j]`` — one of elements 2..j has a
        # residual; ``residual_star_before[j]`` — a starred one of
        # elements 1..j-1 has.
        self.leading_star = bool(self.elements) and self.elements[0].star
        residuals = [
            getattr(element.predicate, "has_residual", True)
            for element in self.elements
        ]
        residual_stars = [
            element.star and residual
            for element, residual in zip(self.elements, residuals)
        ]
        self.residual_tested = tuple(
            any(residuals[1:j]) for j in range(self.m + 1)
        )
        self.residual_star_before = (False,) + tuple(
            any(residual_stars[: j - 1]) for j in range(1, self.m + 1)
        )
        # ``self_loops[j]``: a mismatch at (i, j) always lands on (i + 1, j)
        # with the same count array — a fresh attempt at j = 1, or a
        # star-free prefix with shift(j) = 1 and next(j) = j.  Each further
        # failing row then repeats that one transition.
        self.self_loops = tuple(
            (j == 1 and self.next_[1] == 0)
            or (
                j >= 2
                and self.shift[j] == 1
                and self.next_[j] == j
                and not any(e.star for e in self.elements[: j - 1])
            )
            for j in range(self.m + 1)
        )
        self.matches: list[Match] = []
        self._reset_attempt(0)

    def capture_state(self) -> dict[str, object]:
        """The in-flight attempt as plain data (streaming snapshots).

        Covers everything :meth:`process` mutates except ``matches``,
        which the snapshotting layer owns (it knows which matches were
        already emitted downstream).  The result contains only built-in
        types, so it serializes with any codec.
        """
        return {
            "attempt_start": self.attempt_start,
            "i": self.i,
            "j": self.j,
            "current_consumed": self.current_consumed,
            "counts": list(self.counts),
            "spans": [(span.start, span.end) for span in self.spans],
            "bindings": {name: tuple(span) for name, span in self.bindings.items()},
        }

    def restore_state(self, state: dict) -> None:
        """Rehydrate :meth:`capture_state` output into this run."""
        self.attempt_start = int(state["attempt_start"])
        self.i = int(state["i"])
        self.j = int(state["j"])
        self.current_consumed = int(state["current_consumed"])
        self.counts = [int(count) for count in state["counts"]]
        self.spans = [Span(start, end) for start, end in state["spans"]]
        self.bindings = {
            name: (int(span[0]), int(span[1]))
            for name, span in dict(state["bindings"]).items()
        }

    def _reset_attempt(self, start: int) -> None:
        self.attempt_start = start
        self.i = start
        self.j = 1
        self.current_consumed = 0
        self.counts = [0] * (self.m + 1)
        self.spans: list[Span] = []
        self.bindings: dict[str, tuple[int, int]] = {}

    # ------------------------------------------------------------------

    def scan(self) -> list[Match]:
        self.process(finished=True)
        return self.matches

    def process(self, finished: bool, lookahead: int = 0) -> None:
        """Advance the scan as far as the available input allows.

        ``finished=False`` (the streaming case) suspends instead of
        concluding end-of-input: a predicate may peek ``lookahead`` rows
        ahead (``.next`` navigation), so the current tuple is only tested
        once ``i + lookahead`` rows exist — or the stream has finished,
        at which point off-end navigation legitimately evaluates False.
        """
        # Scan-invariant state hoisted into locals: every name below is a
        # plain fast-local inside the loop instead of a ``self`` attribute
        # read per iteration.  ``i``/``j``/``bindings`` mutate through the
        # helper methods, so they are re-read after every helper call.
        rows = self.rows
        elements = self.elements
        evaluators = self.evaluators
        record = self.record
        budget = self.budget
        truths = self.truths
        # Truth-array runs (star runs and mismatch self-loops, below)
        # advance with one C-level find and charge their tests as one sum;
        # they need a finished scan, since a streaming one must suspend
        # tuple-by-tuple at the window edge.
        m = self.m
        available = len(rows)
        while True:
            if budget is not None and budget.step():
                return
            j = self.j
            if j > m:
                self._record_match()
                continue
            element = elements[j - 1]
            i = self.i
            if i >= available or (not finished and i + lookahead >= available):
                if finished and i >= available:
                    # End of input: only a pending final star run can
                    # still complete the pattern.
                    if (
                        element.star
                        and self.current_consumed > 0
                        and j == m
                    ):
                        self._complete_element()
                        self._record_match()
                    elif self.residual_tested[j]:
                        # A residual reads an earlier element's binding,
                        # so a later start may re-bind it and finish
                        # inside the input.
                        self._restart_one_in()
                        continue
                return
            # Inlined test_element: record, then the truth byte
            # (columnar) or the evaluator.
            if record is not None:
                record(i, j)
            truth = truths[j - 1] if truths is not None else None
            if truth is not None:
                satisfied = truth[i]
            else:
                satisfied = evaluators[j - 1](rows, i, self.bindings)
            if satisfied:
                self.i = i + 1
                self.current_consumed += 1
                if not element.star:
                    self._complete_element()
                elif finished and truth is not None:
                    # Star run: each following one byte is a satisfied
                    # test of the same element, up to the first zero byte.
                    stop = truth.find(0, i + 1)
                    if stop < 0:
                        stop = available
                    if stop > i + 1:
                        if self._charge_run(i + 1, stop, j):
                            return
                        self.i = stop
                        self.current_consumed += stop - i - 1
            elif element.star and self.current_consumed > 0:
                # The star run ends here; the same input tuple is re-tested
                # against the next element on the following iteration.
                self._complete_element()
            else:
                self._mismatch()
                if finished and truth is not None and self.self_loops[j]:
                    # Mismatch self-loop: each following zero byte costs
                    # one test and one skip of distance 1, and moves the
                    # attempt one row on, up to the first one byte.
                    stop = truth.find(1, i + 1)
                    if stop < 0:
                        stop = available
                    if stop > i + 1:
                        if self._charge_run(i + 1, stop, j):
                            return
                        if self.instrumentation is not None:
                            self.instrumentation.record_skip(1, stop - i - 1)
                        self._advance_attempt(stop - i - 1)

    # ------------------------------------------------------------------

    def _charge_run(self, start: int, stop: int, j: int) -> bool:
        """Charge the tests of rows ``start .. stop - 1`` against element
        ``j`` as one sum; True when the budget stops the scan first.

        The stepwise loop spends one budget step per test, so the run
        spends them in one ``step``; a trip leaves the scan where the
        stepwise loop would stop at the run's first test.
        """
        if self.budget is not None and self.budget.step(stop - start):
            return True
        if self.instrumentation is not None:
            self.instrumentation.record_run(start, stop, j)
        return False

    def _advance_attempt(self, rows: int) -> None:
        """Move the in-flight attempt ``rows`` positions on, unchanged."""
        self.attempt_start += rows
        self.i += rows
        if self.spans:
            self.spans = [
                Span(span.start + rows, span.end + rows) for span in self.spans
            ]
            self.bindings = {
                name: (span.start, span.end)
                for name, span in zip(self.names, self.spans)
            }

    def _complete_element(self) -> None:
        j = self.j
        self.counts[j] = self.counts[j - 1] + self.current_consumed
        span = Span(
            self.attempt_start + self.counts[j - 1],
            self.attempt_start + self.counts[j] - 1,
        )
        self.spans.append(span)
        self.bindings[self.names[j - 1]] = (span.start, span.end)
        self.j += 1
        self.current_consumed = 0

    def _record_match(self) -> None:
        end = self.attempt_start + self.counts[self.m] - 1
        self.matches.append(
            Match(self.attempt_start, end, tuple(self.spans), self.names)
        )
        self._reset_attempt(end + 1)
        if self.budget is not None:
            self.budget.add_match()

    def _restart_one_in(self) -> None:
        """The naive matcher's restart: a fresh attempt one row in."""
        if self.instrumentation is not None:
            self.instrumentation.record_skip(1)
        self._reset_attempt(self.attempt_start + 1)

    def _mismatch(self) -> None:
        """Apply the compiled shift/next after a genuine failure at j."""
        j = self.j
        # The shift/next tables reason element-to-element, so they can
        # clear *alignments*, never the input positions interior to a
        # star run.  For runs of elements >= 2 that is still sound: the
        # failure graph's start nodes quantify over every tuple the old
        # element consumed, and residual-bearing predicates keep those
        # nodes U-valued (un-skippable).  The one hole is the *leading*
        # star's run: no graph node represents restarting inside it —
        # skipping its interior is justified only because such a restart
        # replays the exact same alignment, and that argument breaks
        # when any element tested after the star has a residual
        # condition (it may reference the star's binding, which a
        # shorter run re-binds, and so take a different alignment).
        # Likewise the graph assumes a starred element consumes the same
        # run in the shifted alignment; a starred element with a residual
        # may stop earlier there, once its condition reads other
        # bindings.  In both cases fall back to the naive restart one
        # position in.
        if self.residual_star_before[j] or (
            self.leading_star
            and self.residual_tested[j]
            and self.counts[1] >= 2
        ):
            self._restart_one_in()
            return
        nx = self.next_[j]
        if nx == 0:
            # shift(j) = j: the failed tuple provably cannot start a match.
            if self.instrumentation is not None:
                self.instrumentation.record_skip(
                    self.i + 1 - self.attempt_start
                )
            self._reset_attempt(self.i + 1)
            return
        sh = self.shift[j]
        consumed_by_shift = self.counts[sh]
        if self.instrumentation is not None:
            self.instrumentation.record_skip(consumed_by_shift)
        new_start = self.attempt_start + consumed_by_shift
        new_counts = [0] * (self.m + 1)
        new_spans: list[Span] = []
        new_bindings: dict[str, tuple[int, int]] = {}
        for t in range(1, nx):
            boundary = sh + t
            if boundary <= j - 1:
                new_counts[t] = self.counts[boundary] - consumed_by_shift
            else:
                # boundary == j (star-free next = j - shift + 1 case):
                # phi = 1 verified the failed tuple against element j-shift,
                # so it counts as consumed by the new attempt.
                new_counts[t] = self.counts[j - 1] - consumed_by_shift + 1
            if (
                new_counts[t] - new_counts[t - 1] > 1
                and not self.elements[t - 1].star
            ):
                # A plain element consumes exactly one row, so it cannot
                # inherit a starred element's multi-row run: restart
                # fresh at the shifted origin instead.
                self._reset_attempt(new_start)
                return
            span = Span(
                new_start + new_counts[t - 1],
                new_start + new_counts[t] - 1,
            )
            new_spans.append(span)
            new_bindings[self.names[t - 1]] = (span.start, span.end)
        self.attempt_start = new_start
        self.i = new_start + new_counts[nx - 1]
        self.j = nx
        self.current_consumed = 0
        self.counts = new_counts
        self.spans = new_spans
        self.bindings = new_bindings
