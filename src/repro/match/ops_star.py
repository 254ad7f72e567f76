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

Like the shift/next tables themselves, everything the scan decides per
element is decided once per plan: a :class:`ScanProgram` holds each
element's mismatch transition as one tuple (with a ready count array
where the elements before it are all plain), and whether a mismatch
there may take one of the shortcuts below.  A plan builds it on its
first scan and keeps it (``CompiledPattern.scan_programs``), one per set
of elements the cluster's kernels lowered.  :meth:`_Run.process` then
keeps the cursor, the attempt and the test and skip counters in locals,
written back to the run only where the scan suspends, stops or raises.
It keeps an attempt as its element boundaries so far, ``attempt_start +
counts[t]``, so a match is recorded as a copy of them, m + 1 integers;
a :class:`~repro.match.base.Match` is built only where a caller reads
one.

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

#: How a cluster's kernels hold element j: the kinds a program is keyed by.
_EVALUATOR, _TRUTH, _ANCHORED = 0, 1, 2

#: How a replay decides element j on the failed row (see ``ScanProgram``).
_FAILS, _MOVING, _EVALUATE = 0, 1, 2


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
        runtime.process(finished=True)
        return Match.from_all_bounds(runtime.matches, runtime.names)


def scan_program(pattern: CompiledPattern, kernels) -> "ScanProgram":
    """The plan's program for a cluster whose kernels are ``kernels``.

    Built on first use and kept on the plan, keyed by how each element
    is held: a truth array, anchored comparisons, or its evaluator.
    """
    if kernels is None:
        kinds = (_EVALUATOR,) * pattern.m
    else:
        kinds = tuple(
            [
                _TRUTH if truth is not None
                else _ANCHORED if anchored is not None
                else _EVALUATOR
                for truth, anchored in zip(kernels.truth, kernels.anchored)
            ]
        )
    programs = pattern.scan_programs
    program = programs.get(kinds)
    if program is None:
        program = programs.setdefault(kinds, ScanProgram(pattern, kinds, kernels))
    return program


class ScanProgram:
    """The scan's per-element decisions, indexed by j (entry 0 is padding).

    - ``stars[j]``: element j is starred;
    - ``reads_bindings[j]``: element j's evaluator reads the spans of
      earlier elements (a residual condition; an opaque predicate
      without the flag counts as residual, the conservative direction);
    - ``residual_tested[j]``: one of elements 2..j has a residual, so at
      the end of input a later start may still re-bind it and finish;
    - ``moves[j]``: the mismatch transition at j, or None where it is a
      self-loop, which lands on (i + 1, j) with every boundary one row
      on (a fresh attempt at j = 1, or a star-free prefix with
      shift(j) = 1 and next(j) = j).  A move is ``(guard, next, shift,
      stop, tail, checks)``: ``guard`` 1 restarts one row in, and 2 does
      when element 1's run is longer than one row (see below);
      otherwise the new attempt keeps the old boundaries ``shift ..
      stop - 1``, then ``tail`` boundaries one row past the failed one,
      unless a boundary ``b`` in ``checks`` is more than one row past
      boundary ``b - 1``, which restarts fresh at boundary ``shift``;
    - ``runs[j]``: a mismatch at j is a self-loop on a truth array, so
      a finished scan takes the following zero bytes as one run;
    - ``replays[j]``: None, or how a replay walk after a mismatch at j
      decides element j on the failed row: ``(verdict, fixed, moving,
      plain_middle, star_middle)``.  ``verdict`` is ``_FAILS`` (every
      replay fails as the walked attempt did), ``_MOVING`` (anchored
      comparisons, ``fixed`` as ``(index, edge, delta)`` and ``moving``
      as ``(index, offset)`` from the replay's start) or ``_EVALUATE``
      (the residual's evaluator, on each replay's bindings); elements
      3..j-1 are ``plain_middle`` plain ones and the starred
      ``star_middle``.
    """

    __slots__ = ("stars", "reads_bindings", "residual_tested", "moves", "runs", "replays")

    def __init__(self, pattern: CompiledPattern, kinds: tuple, kernels=None):
        shift = pattern.shift_next.shift
        next_ = pattern.shift_next.next_
        m = pattern.m
        stars = [False]
        residuals = [False]
        for element in pattern.spec.elements:
            stars.append(element.star)
            residuals.append(getattr(element.predicate, "has_residual", True))
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
        # bindings.  In both cases (guards 2 and 1) fall back to the
        # naive restart one position in.
        residual_tested = [False] * (m + 1)
        residual_star_before = [False] * (m + 1)
        moves: list = [None]
        runs = [False]
        plain_prefix = True
        for j in range(1, m + 1):
            if j >= 2:
                residual_tested[j] = residual_tested[j - 1] or residuals[j]
                residual_star_before[j] = residual_star_before[j - 1] or (
                    stars[j - 1] and residuals[j - 1]
                )
                plain_prefix = plain_prefix and not stars[j - 1]
            sh, nx = shift[j], next_[j]
            if nx == 0 if j == 1 else (sh == 1 and nx == j and plain_prefix):
                moves.append(None)
                runs.append(kinds[j - 1] == _TRUTH)
                continue
            runs.append(False)
            if residual_star_before[j]:
                guard = 1
            elif stars[1] and residual_tested[j]:
                guard = 2
            else:
                guard = 0
            moves.append(_move(guard, sh, nx, j, stars))
        self.stars = tuple(stars)
        self.reads_bindings = tuple(residuals)
        self.residual_tested = tuple(residual_tested)
        self.moves = tuple(moves)
        self.runs = tuple(runs)
        self.replays = (
            self._replays(pattern, (None, *kinds), kernels, residual_star_before)
            if m >= 3 and stars[2] and not stars[1]
            else None
        )

    def _replays(self, pattern, kinds, kernels, residual_star_before):
        """``replays`` (see the class docstring); None when no j qualifies.

        Element 1 must be plain and element 2 starred, both on truth
        arrays, and a mismatch at element 1 must restart one row on.  A
        mismatch at j must restart fresh one row in: through the
        residual guard, or with shift(j) = 1 and next(j) = 1.  Elements
        3 .. j-1 must give every replay the same outcome: each is a
        truth array, or anchored comparisons whose anchors lie past the
        start of element 2.
        """
        shift = pattern.shift_next.shift
        next_ = pattern.shift_next.next_
        if kinds[1] != _TRUTH or kinds[2] != _TRUTH or next_[1] != 0:
            return None
        table: list = [None] * len(kinds)
        for j in range(3, len(kinds)):
            edges = (
                [(edge, delta) for *_, edge, delta in kernels.anchored[j - 1][1]]
                if kinds[j] == _ANCHORED
                else None
            )
            if residual_star_before[j] or (shift[j] == 1 and next_[j] == 1):
                table[j] = self._replay(j, kinds[j], edges)
            if kinds[j] != _TRUTH and (
                edges is None or any(edge < 2 for edge, _ in edges)
            ):
                # Element j's outcome may differ between replays, so no
                # later element may sit behind it in a walk.
                break
        return tuple(table) if any(table) else None

    def _replay(self, j, kind, edges) -> tuple:
        """How a replay decides element j on the failed row.

        A truth byte, and an anchored comparison whose anchor lies past
        the start of element 2, read the same rows in every replay.  An
        anchor on element 1 or on the start of element 2 sits ``0`` or
        ``1`` rows past the replay's start.  A residual's evaluator gets
        each replay's bindings.
        """
        middle = range(3, j)
        plain_middle = sum(1 for k in middle if not self.stars[k])
        star_middle = tuple(k for k in middle if self.stars[k])
        if kind == _ANCHORED:
            fixed = tuple(
                (index, edge, delta)
                for index, (edge, delta) in enumerate(edges)
                if edge >= 2
            )
            moving = tuple(
                (index, edge + delta)
                for index, (edge, delta) in enumerate(edges)
                if edge < 2
            )
            if moving:
                return (_MOVING, fixed, moving, plain_middle, star_middle)
        elif kind == _EVALUATOR and self.reads_bindings[j]:
            return (_EVALUATE, (), (), plain_middle, star_middle)
        return (_FAILS, (), (), plain_middle, star_middle)


def _move(guard, sh, nx, j, stars) -> tuple:
    """One mismatch transition (see :class:`ScanProgram`).

    Element t of the new attempt takes over old element shift + t, up to
    element j - 1; where next(j) = j - shift + 1 (star-free), the last
    one takes the failed row, which phi = 1 verified against element j -
    shift.  A plain element consumes exactly one row, so it cannot
    inherit a starred element's multi-row run: only those boundaries are
    checked.
    """
    if nx == 0:
        return (guard, 0, sh, 0, 0, ())
    stop = min(sh + nx, j)
    checks = tuple([b for b in range(sh + 1, stop) if stars[b] and not stars[b - sh]])
    return (guard, nx, sh, stop, sh + nx - stop, checks)


class _Run:
    """Mutable state of one left-to-right scan.

    The attempt in flight is its boundaries so far: ``bounds[0]`` is
    where it starts and ``bounds[t]`` where element t + 1 starts, so
    element t spans ``bounds[t - 1] .. bounds[t] - 1`` and the pattern
    position ``j`` is ``len(bounds)``.  The paper's count array is
    ``counts[t] = bounds[t] - bounds[0]``; a starred element under test
    has consumed ``i - bounds[j - 1]`` rows.  A match is ``tuple(bounds)``.
    """

    def __init__(
        self,
        rows: Sequence[Mapping[str, object]],
        pattern: CompiledPattern,
        instrumentation: Optional[Instrumentation],
        budget: Optional[Budget] = None,
        kernels=None,
    ):
        self.rows = rows
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
        self.names = pattern.spec.names
        self.m = pattern.m
        self.program = scan_program(pattern, kernels)
        # Per-element tables, indexed by j (entry 0 is padding).  The
        # truth arrays and anchored comparisons come from the columnar
        # kernels; either replaces the evaluator call where present (see
        # :mod:`repro.engine.columnar`).
        self.evaluators = (None,) + tuple(pattern.evaluators)
        if kernels is None:
            self.truths = self.anchors = (None,) * (self.m + 1)
        else:
            self.truths = (None,) + kernels.truth
            self.anchors = (None,) + kernels.anchored
        #: Each match found so far, as its m + 1 element boundaries.
        self.matches: list[tuple[int, ...]] = []
        self._reset_attempt(0)

    @property
    def attempt_start(self) -> int:
        return self.bounds[0]

    def capture_state(self) -> dict[str, object]:
        """The in-flight attempt as plain data (streaming snapshots).

        Covers everything :meth:`process` mutates except ``matches``,
        which the snapshotting layer owns (it knows which matches were
        already emitted downstream).  The result contains only built-in
        types, so it serializes with any codec.  ``counts``,
        ``current_consumed``, ``spans`` and ``bindings`` are derived from
        the boundaries; they stay in the snapshot, in the count form the
        paper uses, so its pickled bytes do not change.
        """
        bounds = self.bounds
        start = bounds[0]
        spans = [(bounds[t - 1], bounds[t] - 1) for t in range(1, self.j)]
        return {
            "attempt_start": start,
            "i": self.i,
            "j": self.j,
            "current_consumed": self.i - bounds[-1],
            "counts": [b - start for b in bounds] + [0] * (self.m + 1 - len(bounds)),
            "spans": spans,
            "bindings": {name: (s, e) for name, (s, e) in zip(self.names, spans)},
        }

    def restore_state(self, state: dict) -> None:
        """Rehydrate :meth:`capture_state` output into this run.

        The snapshot does not say how many elements the attempt
        inherited, so the restored one counts as inheriting all of them,
        which rules out a replay walk from it.
        """
        start = int(state["attempt_start"])
        self.i = int(state["i"])
        self.j = int(state["j"])
        self.bounds = [start + int(count) for count in state["counts"][: self.j]]
        self.inherited = self.m

    def _reset_attempt(self, start: int) -> None:
        self.bounds = [start]
        self.i = start
        self.j = 1
        # How many leading elements the attempt took over from the last
        # one through shift/next, untested; a fresh attempt tests all.
        self.inherited = 0

    # ------------------------------------------------------------------

    def process(self, finished: bool, lookahead: int = 0) -> None:
        """Advance the scan as far as the available input allows.

        ``finished=False`` (the streaming case) suspends instead of
        concluding end-of-input: a predicate may peek ``lookahead`` rows
        ahead (``.next`` navigation), so the current tuple is only tested
        once ``i + lookahead`` rows exist — or the stream has finished,
        at which point off-end navigation legitimately evaluates False.

        The cursor ``i``, the pattern position ``j``, the attempt's
        ``bounds`` and how many elements it ``inherited``, and the test
        and skip counters are locals; the ``finally`` writes them back.
        Each loop iteration spends one budget step, as each stepwise
        test does; a counted run or a replay walk spends its tests'
        steps in one ``step`` before it is applied, so a trip leaves the
        scan where the stepwise loop would stop at the run's first test.
        """
        program = self.program
        stars = program.stars
        moves = program.moves
        runs = program.runs
        replays = program.replays
        reads_bindings = program.reads_bindings
        residual_tested = program.residual_tested
        rows = self.rows
        names = self.names
        evaluators = self.evaluators
        truths = self.truths
        anchors = self.anchors
        record = self.record
        budget = self.budget
        instrumentation = self.instrumentation
        matches = self.matches
        m = self.m
        # Truth-array runs (star runs and mismatch self-loops, below) and
        # replay walks advance many tests per step and charge them as one
        # sum; they need a finished scan, since a streaming one must
        # suspend tuple-by-tuple at the window edge.
        available = len(rows)
        bounds = self.bounds
        i = self.i
        j = self.j
        inherited = self.inherited
        tests = skips = distance = 0
        # The residual evaluators' bindings, kept while the attempt and
        # the pattern position stay put.
        bound = bound_start = bound_j = None
        try:
            while True:
                if budget is not None and budget.step():
                    return
                if j > m:
                    # A match, then a fresh attempt where it ends.
                    matches.append(tuple(bounds))
                    bounds = [i]
                    j = 1
                    inherited = 0
                    if budget is not None:
                        budget.add_match()
                    continue
                if i >= available or (not finished and i + lookahead >= available):
                    if finished and i >= available:
                        # End of input: only a pending final star run can
                        # still complete the pattern.
                        if stars[j] and i > bounds[-1] and j == m:
                            bounds.append(i)
                            matches.append(tuple(bounds))
                            bounds = [i]
                            j = 1
                            inherited = 0
                            if budget is not None:
                                budget.add_match()
                        elif residual_tested[j]:
                            # A residual reads an earlier element's binding,
                            # so a later start may re-bind it and finish
                            # inside the input: the naive restart.
                            skips += 1
                            distance += 1
                            i = bounds[0] + 1
                            bounds = [i]
                            j = 1
                            inherited = 0
                            continue
                    return
                # One test: count it, then read the truth byte or the
                # anchored comparisons (columnar), or call the evaluator.
                if record is not None:
                    record(i, j)
                else:
                    tests += 1
                truth = truths[j]
                if truth is not None:
                    satisfied = truth[i]
                elif anchors[j] is not None:
                    gate, comparisons = anchors[j]
                    satisfied = gate is None or gate[i]
                    if satisfied:
                        for lhs, holds, rhs, edge, delta in comparisons:
                            left = lhs[i]
                            right = rhs[bounds[edge] + delta]
                            if left is None or right is None or not holds(left, right):
                                satisfied = False
                                break
                elif reads_bindings[j]:
                    if bound_start != bounds[0] or bound_j != j:
                        bound = {
                            names[t]: (bounds[t], bounds[t + 1] - 1)
                            for t in range(j - 1)
                        }
                        bound_start = bounds[0]
                        bound_j = j
                    satisfied = evaluators[j](rows, i, bound)
                else:
                    satisfied = evaluators[j](rows, i, _UNBOUND)
                if satisfied:
                    i += 1
                    if not stars[j]:
                        # A plain element consumes just this row.
                        bounds.append(i)
                        j += 1
                        continue
                    if finished and truth is not None:
                        # Star run: each following one byte is a satisfied
                        # test of the same element, up to the first zero byte.
                        stop = truth.find(0, i)
                        if stop < 0:
                            stop = available
                        if stop > i:
                            if budget is not None and budget.step(stop - i):
                                return
                            if record is not None:
                                instrumentation.record_run(i, stop, j)
                            else:
                                tests += stop - i
                            i = stop
                    continue
                if stars[j] and i > bounds[-1]:
                    # The star run ends here; the same input tuple is re-tested
                    # against the next element on the following iteration.
                    bounds.append(i)
                    j += 1
                    continue
                # A genuine mismatch at (i, j): one shift/next transition.
                move = moves[j]
                skips += 1
                if move is None:
                    # A self-loop: the same attempt, one row on.
                    distance += 1
                    i += 1
                    bounds.append(i)
                    del bounds[0]
                    inherited = j - 1
                    if finished and runs[j]:
                        # Mismatch self-loop run: each following zero byte
                        # costs one test and one skip of distance 1, and
                        # moves the attempt one row on, up to the first
                        # one byte.
                        stop = truth.find(1, i)
                        if stop < 0:
                            stop = available
                        if stop > i:
                            if budget is not None and budget.step(stop - i):
                                return
                            if record is not None:
                                instrumentation.record_run(i, stop, j)
                            else:
                                tests += stop - i
                            skips += stop - i
                            distance += stop - i
                            i = stop
                            bounds = list(range(i - j + 1, i + 1))
                    continue
                walked, walked_inherited, failed, failed_j = bounds, inherited, i, j
                guard, nx, sh, stop, tail, checks = move
                start = bounds[0]
                if guard and (guard == 1 or bounds[1] - start >= 2):
                    # The naive restart one position in.
                    distance += 1
                    i = start + 1
                    nx = 0
                elif nx == 0:
                    # shift(j) = j: the failed tuple provably cannot
                    # start a match.
                    distance += i + 1 - start
                    i += 1
                else:
                    distance += bounds[sh] - start
                    for b in checks:
                        if bounds[b] - bounds[b - 1] > 1:
                            # A plain element cannot inherit a starred
                            # element's multi-row run: restart fresh at
                            # the shifted origin instead.
                            i = bounds[sh]
                            nx = 0
                            break
                    else:
                        bounds = bounds[sh:stop]
                        if tail:
                            bounds += [i + 1] * tail
                        i = bounds[-1]
                        j = nx
                        inherited = nx - 1
                if not nx:
                    bounds = [i]
                    j = 1
                    inherited = 0
                if (
                    replays is not None
                    and finished
                    and replays[failed_j] is not None
                    and walked_inherited <= 1
                    and walked[2] - walked[0] >= 3
                ):
                    # Element 2's run is at least two rows long, so the
                    # next attempts replay it: see ``_replay``.
                    stopped, replayed = self._replay(
                        replays[failed_j], walked, failed, failed_j
                    )
                    i = replayed[0] if len(replayed) == 1 else failed
                    bounds = replayed
                    j = len(replayed)
                    if stopped:
                        return
        finally:
            self.bounds = bounds
            self.i = i
            self.j = j
            self.inherited = inherited
            if instrumentation is not None:
                instrumentation.tests += tests
                instrumentation.skips += skips
                instrumentation.skip_distance += distance

    # ------------------------------------------------------------------

    def _replay(self, replay: tuple, walked: list[int], i: int, j: int):
        """Settle the attempts that replay a failed one.

        The attempt at ``start`` (``walked`` holds its boundaries) bound
        element 1 (plain) to ``start`` and element 2 (starred, on a
        truth array) to ``start + 1 .. last``, ``last - start >= 2``,
        tested elements 2 .. j-1 itself, then failed at element j on row
        ``i``; the scan now stands at the fresh attempt at ``start + 1``
        (``replays[j]``).  An attempt at ``a`` in ``start + 1 .. last -
        1`` whose element 1 holds binds element 2 to ``a + 1 .. last``:
        the same run, ending at the same zero byte.  Elements 3 .. j-1
        then test the same rows with the same outcomes, and element j is
        tested on row ``i`` again, where only a verdict that reads an
        anchor moving with the attempt can change (``replay``, see
        :class:`ScanProgram`).

        The walk charges each such attempt what the stepwise loop would:
        one test and one skip of distance 1 where element 1 fails, else
        the tests of elements 1 .. j and one skip of distance 1.  Each
        attempt's budget steps are one ``step`` before it is applied, so
        a trip leaves the scan at that attempt's start.  Returns
        ``(stopped, bounds)``: the attempt the scan goes on from (or
        stops at, when the budget tripped).  That is the first attempt
        whose element j holds, handed to the loop just before that test,
        or else a fresh one: at the trip, or at ``last``.
        """
        verdict, fixed, moving, plain_middle, star_middle = replay
        first = self.truths[1]
        start = walked[0]
        end = walked[2]
        last = end - 1
        # The tests of elements 3 .. j-1, the same in every replay.
        middle_tests = plain_middle
        for k in star_middle:
            middle_tests += walked[k] - walked[k - 1] + 1
        if verdict == _MOVING:
            movers = self._movers(fixed, moving, walked, i, j)
            if movers is None:
                verdict = _FAILS
        budget = self.budget
        instrumentation = self.instrumentation
        trace = instrumentation.trace if instrumentation is not None else None
        if trace is not None:
            # The rows elements 3 .. j-1 test, in the stepwise order.
            middle_trace = []
            for k in range(3, j):
                low = walked[k - 1]
                high = walked[k] if k in star_middle else low
                middle_trace.extend((row + 1, k) for row in range(low, high + 1))
        held = False
        processed = passed = run_tests = unsettled = 0
        a = start + 1
        try:
            while a < last:
                if not first[a]:
                    if budget is not None and budget.step():
                        return True, [a]
                    processed += 1
                    if trace is not None:
                        trace.append((a + 1, 1))
                    a += 1
                    continue
                if verdict == _MOVING:
                    held = True
                    for left, holds, rhs, offset in movers:
                        right = rhs[a + offset]
                        if right is None or not holds(left, right):
                            held = False
                            break
                elif verdict == _EVALUATE:
                    try:
                        held = self._replay_evaluator(walked, i, j, a)
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
                if budget is not None and budget.step(end - a + middle_tests + 2 - held):
                    held = False
                    return True, [a]
                processed += 1
                passed += 1
                run_tests += end - a
                if trace is not None:
                    self._trace_replay(trace, a, end, middle_trace, i, j, held)
                if held:
                    unsettled = 1
                    return False, [a, a + 1, *walked[2:j]]
                a += 1
            return False, [last]
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
                    middle = [
                        walked[k] - walked[k - 1] + 1 if k in star_middle else 1
                        for k in range(3, j)
                    ]
                    for k, count in (
                        (1, processed),
                        (2, run_tests),
                        *((k, passed * count) for k, count in enumerate(middle, 3)),
                        (j, passed - held),
                    ):
                        if count:
                            by_element[k] = by_element.get(k, 0) + count

    def _movers(self, fixed, moving, walked, i, j) -> Optional[list]:
        """Element j's anchored comparisons on row ``i`` as ``(left,
        holds, rhs, offset)``, each holding in the replay at ``a`` when
        ``holds(left, rhs[a + offset])``; None where every replay fails:
        the gate or a comparison with a fixed anchor fails, or a left
        side is off the cluster."""
        gate, comparisons = self.anchors[j]
        if gate is not None and not gate[i]:
            return None
        for index, edge, delta in fixed:
            lhs, holds, rhs = comparisons[index][:3]
            left = lhs[i]
            right = rhs[walked[edge] + delta]
            if left is None or right is None or not holds(left, right):
                return None
        movers = []
        for index, offset in moving:
            lhs, holds, rhs = comparisons[index][:3]
            if lhs[i] is None:
                return None
            movers.append((lhs[i], holds, rhs, offset))
        return movers

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

    def _replay_evaluator(self, walked, i, j, a):
        """Element j's evaluator on row ``i``, with the bindings of
        the replay at ``a``: element 1 on ``a``, element 2 on ``a + 1 ..
        walked[2] - 1``, elements 3 .. j-1 as walked."""
        bounds = [a, a + 1, *walked[2:j]]
        bindings = {
            name: (bounds[t], bounds[t + 1] - 1)
            for t, name in enumerate(self.names[: j - 1])
        }
        return self.evaluators[j](self.rows, i, bindings)
