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
mismatch lands on the same element one row on).  A third shortcut, the
replay walk (:meth:`_Run._replay`), settles the attempts that re-walk
the same star run after a restart one row into a leading
``(plain, *star)`` prefix, where only the anchor of a residual moves.
Their tests, skips and budget steps are charged as sums, equal to the
stepwise loop's.  An element with anchored comparisons is tested with
two list lookups per comparison (``lhs[i]`` against ``rhs[anchor]``),
with no bindings dict.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.match.base import Instrumentation, Match
from repro.pattern.compiler import CompiledPattern
from repro.resilience import Budget

#: What an evaluator that reads no bindings is handed.
_UNBOUND: dict = {}


class OpsStarMatcher:
    """Optimized Pattern Search with the Section 5 count bookkeeping."""

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
        # With a path trace or per-element counts on, or a subclass that
        # overrides ``record``, every test goes through ``record``;
        # otherwise ``process`` counts tests in a local and adds them to
        # ``instrumentation.tests`` on exit.
        detail = instrumentation is not None and (
            instrumentation.trace is not None
            or instrumentation.tests_by_element is not None
            or type(instrumentation).record is not Instrumentation.record
        )
        self.record = instrumentation.record if detail else None
        self.budget = budget
        self.elements = pattern.spec.elements
        self.names = pattern.spec.names
        self.shift = pattern.shift_next.shift
        self.next_ = pattern.shift_next.next_
        self.m = pattern.m
        # Per-element tables, indexed by j (entry 0 is padding).  The
        # truth arrays and anchored comparisons come from the columnar
        # backend; either replaces the evaluator call where present (see
        # :mod:`repro.engine.columnar`).
        self.stars = (False,) + tuple(element.star for element in self.elements)
        self.evaluators = (None,) + tuple(pattern.evaluators)
        self.truths = (None,) + kernels.truth if kernels is not None else None
        self.anchors = (
            (None,) + kernels.anchored
            if kernels is not None and any(kernels.anchored)
            else None
        )
        # Residual (non-symbolic) conditions may reference the *binding*
        # of another element; an opaque predicate without the flag is
        # treated as residual — the conservative direction.  Indexed by
        # j: ``residual_tested[j]`` — one of elements 2..j has a
        # residual; ``residual_star_before[j]`` — a starred one of
        # elements 1..j-1 has.
        self.leading_star = self.stars[1] if self.m else False
        residuals = [
            getattr(element.predicate, "has_residual", True)
            for element in self.elements
        ]
        # ``reads_bindings[j]``: element j's evaluator reads the spans of
        # earlier elements (see ``_bindings``).
        self.reads_bindings = (False,) + tuple(residuals)
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
        self.replays = self._replay_table()
        self.matches: list[Match] = []
        self._reset_attempt(0)

    def _replay_table(self) -> Optional[tuple[bool, ...]]:
        """``replays[j]``: a mismatch at element j may start a replay walk
        (see :meth:`_replay`); None when no j qualifies.

        Element 1 must be plain and element 2 starred, both on truth
        arrays, and a mismatch at element 1 must restart one row on.  A
        mismatch at j must restart fresh one row in: through the
        residual guard of :meth:`_mismatch`, or with shift(j) = 1 and
        next(j) = 1.  Elements 3 .. j-1 must give every replay the same
        outcome: each is a truth array, or anchored comparisons whose
        anchors lie past the start of element 2.
        """
        truths = self.truths
        stars = self.stars
        m = self.m
        if (
            truths is None
            or m < 3
            or stars[1]
            or not stars[2]
            or truths[1] is None
            or truths[2] is None
            or self.next_[1] != 0
        ):
            return None
        anchors = self.anchors
        table = [False] * (m + 1)
        for j in range(3, m + 1):
            table[j] = self.residual_star_before[j] or (
                self.shift[j] == 1 and self.next_[j] == 1
            )
            anchor = anchors[j] if anchors is not None else None
            if truths[j] is None and (
                anchor is None or any(edge < 2 for *_, edge, _ in anchor[1])
            ):
                # Element j's outcome may differ between replays, so no
                # later element may sit behind it in a walk.
                break
        return tuple(table) if any(table) else None

    def capture_state(self) -> dict[str, object]:
        """The in-flight attempt as plain data (streaming snapshots).

        Covers everything :meth:`process` mutates except ``matches``,
        which the snapshotting layer owns (it knows which matches were
        already emitted downstream).  The result contains only built-in
        types, so it serializes with any codec.  ``spans`` and
        ``bindings`` are derived from ``attempt_start`` and ``counts``;
        they stay in the snapshot, as separate tuples, so its pickled
        bytes do not change.
        """
        start = self.attempt_start
        counts = self.counts
        spans = [
            (start + counts[t - 1], start + counts[t] - 1) for t in range(1, self.j)
        ]
        return {
            "attempt_start": start,
            "i": self.i,
            "j": self.j,
            "current_consumed": self.current_consumed,
            "counts": list(counts),
            "spans": spans,
            "bindings": {name: (s, e) for name, (s, e) in zip(self.names, spans)},
        }

    def restore_state(self, state: dict) -> None:
        """Rehydrate :meth:`capture_state` output into this run.

        The snapshot does not say how many elements the attempt
        inherited, so the restored one counts as inheriting all of them,
        which rules out a replay walk from it.
        """
        self.attempt_start = int(state["attempt_start"])
        self.i = int(state["i"])
        self.j = int(state["j"])
        self.current_consumed = int(state["current_consumed"])
        self.counts = [int(count) for count in state["counts"]]
        self.bound = None
        self.inherited = self.m

    def _reset_attempt(self, start: int) -> None:
        self.attempt_start = start
        self.i = start
        self.j = 1
        self.current_consumed = 0
        self.counts = [0] * (self.m + 1)
        self.bound = None
        # How many leading elements the attempt took over from the last
        # one through shift/next, untested; a fresh attempt tests all.
        self.inherited = 0

    def _bindings(self) -> dict[str, tuple[int, int]]:
        """Name -> ``(start, end)`` of elements 1..j-1, for residual
        evaluators; built once per attempt state and cached on ``bound``
        until the next transition clears it.  A name not bound yet is a
        KeyError, which the evaluators report as an unbound variable."""
        bound = self.bound
        if bound is None:
            start = self.attempt_start
            counts = self.counts
            names = self.names
            bound = self.bound = {
                names[t - 1]: (start + counts[t - 1], start + counts[t] - 1)
                for t in range(1, self.j)
            }
        return bound

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
        # read per iteration.  ``i``/``j`` mutate through the helper
        # methods, so they are re-read after every helper call.
        rows = self.rows
        stars = self.stars
        evaluators = self.evaluators
        reads_bindings = self.reads_bindings
        record = self.record
        budget = self.budget
        truths = self.truths
        anchors = self.anchors
        # Truth-array runs (star runs and mismatch self-loops, below) and
        # replay walks advance many tests per step and charge them as one
        # sum; they need a finished scan, since a streaming one must
        # suspend tuple-by-tuple at the window edge.
        m = self.m
        available = len(rows)
        tests = 0
        try:
            while True:
                if budget is not None and budget.step():
                    return
                j = self.j
                if j > m:
                    # A match: ``_record_match`` in line, the hot path.
                    start = self.attempt_start
                    bounds = tuple([start + count for count in self.counts])
                    match = Match.__new__(Match)
                    match._bounds = bounds
                    match._names = self.names
                    self.matches.append(match)
                    self.attempt_start = self.i = bounds[-1]
                    self.j = 1
                    self.current_consumed = 0
                    self.counts = [0] * (m + 1)
                    self.bound = None
                    self.inherited = 0
                    if budget is not None:
                        budget.add_match()
                    continue
                i = self.i
                if i >= available or (not finished and i + lookahead >= available):
                    if finished and i >= available:
                        # End of input: only a pending final star run can
                        # still complete the pattern.
                        if stars[j] and self.current_consumed > 0 and j == m:
                            self._complete_element()
                            self._record_match()
                        elif self.residual_tested[j]:
                            # A residual reads an earlier element's binding,
                            # so a later start may re-bind it and finish
                            # inside the input.
                            self._restart_one_in()
                            continue
                    return
                # Inlined test_element: count, then the truth byte or the
                # anchored comparisons (columnar), or the evaluator.
                if record is not None:
                    record(i, j)
                else:
                    tests += 1
                truth = truths[j] if truths is not None else None
                if truth is not None:
                    satisfied = truth[i]
                elif anchors is not None and anchors[j] is not None:
                    gate, comparisons = anchors[j]
                    satisfied = gate is None or gate[i]
                    if satisfied:
                        start = self.attempt_start
                        counts = self.counts
                        for lhs, holds, rhs, edge, delta in comparisons:
                            left = lhs[i]
                            right = rhs[start + counts[edge] + delta]
                            if left is None or right is None or not holds(left, right):
                                satisfied = False
                                break
                elif reads_bindings[j]:
                    satisfied = evaluators[j](rows, i, self._bindings())
                else:
                    satisfied = evaluators[j](rows, i, _UNBOUND)
                if satisfied:
                    self.i = i + 1
                    if not stars[j]:
                        # A plain element consumes just this row:
                        # ``_complete_element`` in line.
                        counts = self.counts
                        counts[j] = counts[j - 1] + 1
                        self.j = j + 1
                        self.bound = None
                        continue
                    self.current_consumed += 1
                    if finished and truth is not None:
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
                elif stars[j] and self.current_consumed > 0:
                    # The star run ends here; the same input tuple is re-tested
                    # against the next element on the following iteration.
                    self._complete_element()
                else:
                    start = self.attempt_start
                    counts = self.counts
                    inherited = self.inherited
                    self._mismatch()
                    if not finished:
                        continue
                    if truth is not None and self.self_loops[j]:
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
                    elif (
                        self.replays is not None
                        and self.replays[j]
                        and inherited <= 1
                        and counts[2] >= 3
                    ):
                        # Element 2's run is at least two rows long, so
                        # the next attempts replay it: see ``_replay``.
                        if self._replay(start, i, j, counts):
                            return
        finally:
            if tests and self.instrumentation is not None:
                self.instrumentation.tests += tests

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
        self.bound = None

    def _complete_element(self) -> None:
        j = self.j
        self.counts[j] = self.counts[j - 1] + self.current_consumed
        self.j = j + 1
        self.current_consumed = 0
        self.bound = None

    def _record_match(self) -> None:
        start = self.attempt_start
        bounds = tuple([start + count for count in self.counts])
        self.matches.append(Match.from_bounds(bounds, self.names))
        self._reset_attempt(bounds[-1])
        if self.budget is not None:
            self.budget.add_match()

    def _replay(self, start: int, i: int, j: int, counts: list[int]) -> bool:
        """Settle the attempts that replay a failed one; True when the
        budget stops the scan.

        The attempt at ``start`` bound element 1 (plain) to ``start`` and
        element 2 (starred, on a truth array) to ``start + 1 .. last``,
        ``last - start >= 2``, tested elements 2 .. j-1 itself, then
        failed at element j on row ``i``; the scan now stands at the
        fresh attempt at ``start + 1`` (``replays[j]``).  An attempt at
        ``a`` in ``start + 1 .. last - 1`` whose element 1 holds binds
        element 2 to ``a + 1 .. last``: the same run, ending at the same
        zero byte.  Elements 3 .. j-1 then test the same rows with the
        same outcomes, and element j is tested on row ``i`` again, where
        only a verdict that reads an anchor moving with the attempt can
        change (see :meth:`_replay_verdict`).

        The walk charges each such attempt what the stepwise loop would:
        one test and one skip of distance 1 where element 1 fails, else
        the tests of elements 1 .. j and one skip of distance 1.  Each
        attempt's budget steps are one ``step`` before it is applied, so
        a trip leaves the scan at that attempt's start.  The first
        attempt whose element j holds is handed to the loop just before
        that test; without one, the loop gets the fresh attempt at
        ``last``.
        """
        first = self.truths[1]
        stars = self.stars
        end = start + counts[2]
        last = end - 1
        # The tests of elements 3 .. j-1, the same in every replay.
        middle = [
            counts[k] - counts[k - 1] + 1 if stars[k] else 1 for k in range(3, j)
        ]
        middle_tests = sum(middle)
        verdict = self._replay_verdict(start, i, j, counts)
        budget = self.budget
        instrumentation = self.instrumentation
        trace = instrumentation.trace if instrumentation is not None else None
        if trace is not None:
            # The rows elements 3 .. j-1 test, in the stepwise order.
            middle_trace = []
            for k in range(3, j):
                low = start + counts[k - 1]
                high = start + counts[k] if stars[k] else low
                middle_trace.extend((row + 1, k) for row in range(low, high + 1))
        held = False
        processed = passed = run_tests = unsettled = 0
        a = start + 1
        try:
            while a < last:
                if not first[a]:
                    if budget is not None and budget.step():
                        self._reset_attempt(a)
                        return True
                    processed += 1
                    if trace is not None:
                        trace.append((a + 1, 1))
                    a += 1
                    continue
                tests = end - a + middle_tests + 2
                if verdict is not None:
                    try:
                        held = verdict(a)
                    except BaseException:
                        # The stepwise loop counts the test before the
                        # evaluator raises.
                        processed += 1
                        passed += 1
                        unsettled = 1
                        run_tests += end - a
                        if trace is not None:
                            self._trace_replay(trace, a, end, middle_trace, i, j)
                        raise
                if budget is not None and budget.step(tests - held):
                    self._reset_attempt(a)
                    return True
                processed += 1
                passed += 1
                run_tests += end - a
                if trace is not None:
                    self._trace_replay(trace, a, end, middle_trace, i, j, held)
                if held:
                    unsettled = 1
                    self.attempt_start = a
                    self.i = i
                    self.j = j
                    self.current_consumed = 0
                    self.counts = self._replayed_counts(counts, a - start, j)
                    self.bound = None
                    self.inherited = 0
                    return False
                a += 1
            self._reset_attempt(last)
            return False
        finally:
            if instrumentation is not None:
                settled = processed - unsettled
                instrumentation.tests += (
                    processed + run_tests + passed * middle_tests + passed - held
                )
                instrumentation.skips += settled
                instrumentation.skip_distance += settled
                instrumentation.replays += settled
                by_element = instrumentation.tests_by_element
                if by_element is not None and processed:
                    for k, count in (
                        (1, processed),
                        (2, run_tests),
                        *((k, passed * count) for k, count in enumerate(middle, 3)),
                        (j, passed - held),
                    ):
                        if count:
                            by_element[k] = by_element.get(k, 0) + count

    @staticmethod
    def _trace_replay(trace, a, end, middle_trace, i, j, held=False) -> None:
        """Append a replayed attempt's path: element 1 on ``a``, element 2
        on ``a + 1 .. end``, elements 3 .. j-1, then element j on ``i``
        unless the loop is to test it."""
        trace.append((a + 1, 1))
        trace.extend((row + 1, 2) for row in range(a + 1, end + 1))
        trace.extend(middle_trace)
        if not held:
            trace.append((i + 1, j))

    def _replay_verdict(self, start: int, i: int, j: int, counts: list[int]):
        """How a replay of the attempt at ``start`` decides element j on
        row ``i``: a function of the replay's start ``a``, or None where
        every replay fails as that attempt did.

        A truth byte, and an anchored comparison whose anchor lies past
        the start of element 2, read the same rows in every replay.  An
        anchor on element 1 or on the start of element 2 sits ``0`` or
        ``1`` rows past ``a``.  A residual closure gets each replay's
        bindings.
        """
        if self.truths[j] is not None:
            return None
        anchor = self.anchors[j] if self.anchors is not None else None
        if anchor is not None:
            gate, comparisons = anchor
            if gate is not None and not gate[i]:
                return None
            moving = []
            for lhs, holds, rhs, edge, delta in comparisons:
                left = lhs[i]
                if left is None:
                    return None
                if edge < 2:
                    moving.append((left, holds, rhs, edge + delta))
                    continue
                right = rhs[start + counts[edge] + delta]
                if right is None or not holds(left, right):
                    return None
            if not moving:
                return None

            def anchored(a: int) -> bool:
                for left, holds, rhs, offset in moving:
                    right = rhs[a + offset]
                    if right is None or not holds(left, right):
                        return False
                return True

            return anchored
        if not self.reads_bindings[j]:
            return None
        evaluator = self.evaluators[j]
        rows = self.rows

        def closure(a: int) -> bool:
            self.attempt_start = a
            self.j = j
            self.counts = self._replayed_counts(counts, a - start, j)
            self.bound = None
            return evaluator(rows, i, self._bindings())

        return closure

    def _replayed_counts(self, counts: list[int], shift: int, j: int) -> list[int]:
        """The count array, up to element j-1, of the replay ``shift``
        rows on from the attempt with ``counts``: element 1 one row,
        element 2 the rest of the same run, elements 3 .. j-1 the same
        rows."""
        return [0, 1] + [counts[t] - shift for t in range(2, j)] + [0] * (self.m + 1 - j)

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
        self.attempt_start = new_start
        self.i = new_start + new_counts[nx - 1]
        self.j = nx
        self.current_consumed = 0
        self.counts = new_counts
        self.bound = None
        self.inherited = nx - 1
