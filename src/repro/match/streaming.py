"""Push-based streaming OPS with a bounded look-back window.

The paper deploys SQL-TS "via user-defined aggregates ... on input
streams"; a real stream cannot be buffered whole.  OPS makes bounded
buffering possible: after a mismatch the scan never revisits anything
before the current attempt's origin, so rows older than

    attempt_start + (most negative navigation offset in the pattern)

can be discarded.  :class:`OpsStreamMatcher` exposes that as a push API:

    matcher = OpsStreamMatcher(compiled_pattern)
    for row in stream:
        for match in matcher.push(row):
            ...            # emitted as soon as they complete
    trailing = matcher.finish()

Matches carry absolute input positions, identical to the batch
:class:`~repro.match.ops_star.OpsStarMatcher` (differential-tested).

Trimming requires navigation offsets to be statically bounded; patterns
with residual (opaque) conditions keep the full history instead, since a
residual may navigate arbitrarily through its bindings.  For those
opaque patterns the buffer would grow without bound on a long stream, so
:class:`OpsStreamMatcher` accepts
:class:`~repro.resilience.ResourceLimits` with a hard
``max_stream_buffer`` cap and an explicit overflow behavior: ``"raise"``
(default — a :class:`~repro.errors.LimitExceeded` escapes to the caller)
or ``"restart"`` (abandon the in-flight attempt, drop the oldest rows,
and keep matching; matches spanning the dropped region are lost, which
is recorded in :class:`~repro.resilience.Diagnostics`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, Optional

from repro.errors import LimitExceeded, StreamStateError
from repro.match.base import Instrumentation, Match
from repro.match.ops_star import _Run

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.recovery import MatcherSnapshot
from repro.pattern.compiler import CompiledPattern
from repro.resilience import Budget, Diagnostics, ResourceLimits
from repro.pattern.predicates import (
    ComparisonCondition,
    Condition,
    OrCondition,
    StringEqualityCondition,
)
from repro.pattern.spec import PatternSpec


def pattern_offsets(spec: PatternSpec) -> tuple[int, int, bool]:
    """(most negative offset, most positive offset, has_opaque_conditions).

    Offsets come from the fixed-offset conditions; any condition whose
    navigation cannot be bounded statically sets the opaque flag.
    """
    low = 0
    high = 0
    opaque = False

    def visit(condition: Condition) -> None:
        nonlocal low, high, opaque
        if isinstance(condition, ComparisonCondition):
            for term in (condition.left, condition.right):
                if term.attr is not None:
                    low = min(low, term.attr.offset)
                    high = max(high, term.attr.offset)
        elif isinstance(condition, StringEqualityCondition):
            low = min(low, condition.attr.offset)
            high = max(high, condition.attr.offset)
        elif isinstance(condition, OrCondition):
            for branch in condition.branches:
                for leaf in branch:
                    visit(leaf)
        else:
            opaque = True

    for element in spec:
        for condition in element.predicate.conditions:
            visit(condition)
    return low, high, opaque


class _Window:
    """A list with absolute indexing whose head can be trimmed away.

    Reading a trimmed position is a bug in the trimming logic, so it
    raises ``RuntimeError`` (deliberately not ``LookupError``, which the
    condition evaluators treat as benign off-end navigation).
    """

    __slots__ = ("_rows", "_base")

    def __init__(self) -> None:
        self._rows: list[Mapping[str, object]] = []
        self._base = 0

    def append(self, row: Mapping[str, object]) -> None:
        self._rows.append(row)

    def __len__(self) -> int:
        return self._base + len(self._rows)

    def __getitem__(self, index: int) -> Mapping[str, object]:
        relative = index - self._base
        if relative < 0:
            raise RuntimeError(
                f"streaming window read at trimmed position {index} "
                f"(window starts at {self._base})"
            )
        return self._rows[relative]

    def __iter__(self) -> Iterator[Mapping[str, object]]:
        return iter(self._rows)

    def trim_before(self, index: int) -> None:
        """Forget rows strictly before ``index``."""
        drop = index - self._base
        if drop > 0:
            del self._rows[:drop]
            self._base = index

    @property
    def buffered(self) -> int:
        return len(self._rows)

    @property
    def base(self) -> int:
        """Absolute index of the oldest retained row."""
        return self._base


class OpsStreamMatcher:
    """Incremental OPS: push tuples, collect matches as they complete."""

    def __init__(
        self,
        pattern: CompiledPattern,
        instrumentation: Optional[Instrumentation] = None,
        trim: bool = True,
        limits: Optional[ResourceLimits] = None,
        diagnostics: Optional[Diagnostics] = None,
        overflow: str = "raise",
        extra_lookback: int = 0,
    ):
        if overflow not in ("raise", "restart"):
            raise ValueError(
                f"overflow must be 'raise' or 'restart', got {overflow!r}"
            )
        if extra_lookback < 0:
            raise ValueError(
                f"extra_lookback must be non-negative, got {extra_lookback}"
            )
        self._pattern = pattern
        self._window = _Window()
        self.diagnostics = diagnostics if diagnostics is not None else Diagnostics()
        self._limits = limits if limits is not None else ResourceLimits()
        self._budget = (
            Budget(self._limits, self.diagnostics)
            if self._limits.bounded
            else None
        )
        self._overflow = overflow
        self._overflowed = False
        self._run = _Run(self._window, pattern, instrumentation, self._budget)
        low, high, opaque = pattern_offsets(pattern.spec)
        self._lookback = -low
        self._lookahead = high
        self._extra_lookback = extra_lookback
        self._trim = trim and not opaque
        self._emitted = 0
        self._high_water = -1
        self._finished = False
        self._fingerprint: Optional[str] = None

    def push(self, row: Mapping[str, object]) -> list[Match]:
        """Feed one tuple; return matches completed by it.

        Once a budget limit trips (deadline, match cap) the matcher goes
        quiescent: rows are still accepted but no further matching work
        is done, so the producing loop can drain cheaply.  Check
        :attr:`tripped` to stop early.

        Rows belonging to the matches *returned by this call* are
        retained in the window until the next ``push()``, so a caller may
        evaluate SELECT expressions (navigating up to ``extra_lookback``
        rows before each match) against :attr:`window` before feeding the
        next tuple.
        """
        if self._finished:
            raise StreamStateError(
                f"push() after finish(): the stream was already concluded "
                f"after {len(self._window)} row(s) with "
                f"{self._emitted} match(es) emitted"
            )
        if self._budget is not None and self._budget.tripped is not None:
            return []
        self._window.append(row)
        self._run.process(finished=False, lookahead=self._lookahead)
        retain = self._lookback + self._extra_lookback
        live = self._run.attempt_start - self._lookback
        if self._trim:
            # Keep the rows of matches completed by this push alive until
            # the caller has seen them (they are trimmed next push).
            keep = self._run.attempt_start - retain
            if len(self._run.matches) > self._emitted:
                keep = min(keep, self._run.matches[self._emitted][0] - retain)
            self._window.trim_before(keep)
        cap = self._limits.max_stream_buffer
        if cap is not None:
            # The cap bounds the *live* look-back the matcher itself still
            # needs; rows retained only for caller-side projection of
            # just-completed matches do not count against it.
            buffered = (
                len(self._window) - live if self._trim else self._window.buffered
            )
            if buffered > cap:
                self._handle_overflow(cap)
        return self._drain()

    def _handle_overflow(self, cap: int) -> None:
        """The look-back window outgrew ``max_stream_buffer``.

        ``"raise"``: record the limit and raise :class:`LimitExceeded` —
        the caller decides whether to abandon or restart the stream.
        ``"restart"``: abandon the current attempt, forget everything
        before the newest ``cap`` rows, and restart matching at the
        oldest retained row; any match that would have spanned the
        dropped region is lost (recorded once in diagnostics).
        """
        reason = (
            f"max_stream_buffer ({cap}) exceeded: "
            f"{self._window.buffered} rows buffered"
        )
        if self._overflow == "raise":
            self.diagnostics.record_limit(reason)
            raise LimitExceeded(reason, reason="max_stream_buffer")
        keep_from = len(self._window) - cap
        self._run._reset_attempt(keep_from)
        self._window.trim_before(keep_from)
        self.diagnostics.record_dropped_region()
        if not self._overflowed:
            self._overflowed = True
            self.diagnostics.record_limit(reason)
            self.diagnostics.warn(
                "stream buffer overflowed; the in-flight attempt was "
                "abandoned and matches spanning the dropped rows are lost"
            )

    def finish(self) -> list[Match]:
        """Signal end of stream; return any trailing matches."""
        if not self._finished:
            self._finished = True
            self._run.process(finished=True)
        return self._drain()

    def _drain(self) -> list[Match]:
        found = self._run.matches
        if len(found) == self._emitted:
            return []
        fresh = Match.from_all_bounds(found[self._emitted :], self._run.names)
        self._emitted = len(found)
        self._high_water = max(self._high_water, fresh[-1].end)
        return fresh

    @property
    def matches(self) -> list[Match]:
        """All matches emitted so far."""
        return Match.from_all_bounds(self._run.matches, self._run.names)

    @property
    def buffered_rows(self) -> int:
        """Current look-back window size (for tests and monitoring)."""
        return self._window.buffered

    @property
    def tripped(self) -> Optional[str]:
        """The budget trip reason, or None while within limits."""
        return self._budget.tripped if self._budget is not None else None

    @property
    def window(self) -> _Window:
        """The live look-back window (absolute indexing)."""
        return self._window

    @property
    def emitted_high_water(self) -> int:
        """End position of the latest emitted match, or -1 if none."""
        return self._high_water

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has concluded this stream."""
        return self._finished

    @property
    def fingerprint(self) -> str:
        """Stable hash of the compiled pattern + matcher configuration.

        Snapshots are keyed by this value so state can never be restored
        against a different query or an incompatible matcher setup.
        """
        if self._fingerprint is None:
            from repro.recovery import pattern_fingerprint

            self._fingerprint = pattern_fingerprint(
                self._pattern,
                trim=self._trim,
                overflow=self._overflow,
                max_stream_buffer=self._limits.max_stream_buffer,
                extra_lookback=self._extra_lookback,
            )
        return self._fingerprint

    def snapshot(self) -> "MatcherSnapshot":
        """Capture the full matcher state as a serializable snapshot."""
        from repro.recovery import snapshot_matcher

        return snapshot_matcher(self)

    @classmethod
    def restore(
        cls,
        snapshot: "MatcherSnapshot",
        pattern: CompiledPattern,
        *,
        instrumentation: Optional[Instrumentation] = None,
        trim: bool = True,
        limits: Optional[ResourceLimits] = None,
        diagnostics: Optional[Diagnostics] = None,
        overflow: str = "raise",
        extra_lookback: int = 0,
    ) -> "OpsStreamMatcher":
        """Rebuild a matcher from :meth:`snapshot` output.

        The live ``pattern`` and configuration must reproduce the
        snapshot's fingerprint; otherwise
        :class:`~repro.errors.RecoveryError` is raised.
        """
        from repro.recovery import restore_matcher

        return restore_matcher(
            snapshot,
            pattern,
            instrumentation=instrumentation,
            trim=trim,
            limits=limits,
            diagnostics=diagnostics,
            overflow=overflow,
            extra_lookback=extra_lookback,
        )
