"""Error policies, resource limits, and execution diagnostics.

A production sequence engine cannot afford the seed's fail-fast posture:
one malformed CSV row or one adversarial pattern would abort a query that
is otherwise streaming millions of useful tuples.  This module is the
shared vocabulary of the resilience layer threaded through ingestion
(:mod:`repro.engine.csv_io`, :class:`repro.engine.session.Session`),
planning (:mod:`repro.engine.executor`), and matching
(:mod:`repro.match`):

- :class:`ErrorPolicy` — what to do when a recoverable fault is found
  (``RAISE`` keeps the seed's strict behavior and is the default
  everywhere, so existing callers observe no change);
- :class:`ResourceLimits` — declarative bounds on a query's footprint
  (match count, rows scanned, wall-clock time, stream buffer size);
- :class:`Budget` — the runtime enforcement of those limits, consulted
  cheaply (an int decrement on the hot path) by every matcher loop;
- :class:`Diagnostics` — the faithful record of everything that was
  skipped, quarantined, downgraded, or cut short, attached to
  :class:`~repro.engine.result.Result` and
  :class:`~repro.engine.executor.ExecutionReport`.

See ``docs/resilience.md`` for the full contract.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union


class ErrorPolicy(enum.Enum):
    """How recoverable faults (dirty rows, unplannable patterns) are handled.

    - ``RAISE``: fail fast with the strict seed behavior (default);
    - ``SKIP``: drop the offending unit (row, statement), record it in
      :class:`Diagnostics`, and keep going;
    - ``COLLECT``: like ``SKIP``, but additionally retain the full error
      objects for post-mortem inspection.
    """

    RAISE = "raise"
    SKIP = "skip"
    COLLECT = "collect"

    @classmethod
    def coerce(cls, value: Union["ErrorPolicy", str]) -> "ErrorPolicy":
        """Accept an enum member or its string value (CLI-friendly)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except (ValueError, AttributeError):
            choices = sorted(p.value for p in cls)
            raise ValueError(
                f"unknown error policy {value!r} (choose from {choices})"
            ) from None

    @property
    def lenient(self) -> bool:
        """True for the policies that recover instead of raising."""
        return self is not ErrorPolicy.RAISE


@dataclass(frozen=True)
class ResourceLimits:
    """Declarative bounds on one query execution.  ``None`` = unlimited.

    - ``max_matches``: stop after this many matches (they are kept);
    - ``max_rows_scanned``: stop admitting clusters once this many input
      rows have been handed to the matcher;
    - ``wall_clock_deadline``: seconds from execution start after which
      matcher loops stop and return partial results;
    - ``max_stream_buffer``: hard cap on the
      :class:`~repro.match.streaming.OpsStreamMatcher` look-back window.
    """

    max_matches: Optional[int] = None
    max_rows_scanned: Optional[int] = None
    wall_clock_deadline: Optional[float] = None
    max_stream_buffer: Optional[int] = None

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value is None:
                continue
            # A bool is an int to Python but no limit a caller means, and
            # 2.5 matches or 1e3 rows is no count.
            count = name != "wall_clock_deadline"
            if isinstance(value, bool) or not isinstance(
                value, int if count else (int, float)
            ):
                kind = "an integer" if count else "a number"
                raise ValueError(f"{name} must be {kind}, got {value!r}")
            # ``not value >= 0`` also rejects NaN, which no clock exceeds.
            if not value >= 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    @property
    def bounded(self) -> bool:
        """True when at least one limit is set."""
        return any(value is not None for value in vars(self).values())

    @classmethod
    def unlimited(cls) -> "ResourceLimits":
        return cls()


@dataclass(frozen=True)
class QuarantinedRow:
    """One input row set aside instead of aborting the load.

    ``source`` is the CSV path or the statement kind (e.g. ``INSERT``);
    ``line`` is 1-based — the physical file line for CSVs, the row index
    within the statement for INSERTs.
    """

    source: str
    line: int
    reason: str
    values: tuple = ()

    def __str__(self) -> str:
        return f"{self.source}:{self.line}: {self.reason}"


@dataclass(frozen=True)
class StatementFailure:
    """A failed script statement retained under ``COLLECT``/``continue_on_error``."""

    index: int
    snippet: str
    error: Exception

    def __str__(self) -> str:
        return f"statement #{self.index} ({self.snippet!r}): {self.error}"


class Diagnostics:
    """Everything an execution skipped, quarantined, downgraded, or cut short.

    A clean run leaves every list empty (``ok`` is True); callers that
    never look at diagnostics observe today's behavior untouched.

    Mutation is internally locked: streaming runners may report from a
    different thread than the reader, so every recording method (and
    :meth:`merge`) is atomic.  Reads are lock-free — Python list
    append/extend are atomic enough for the monitoring views here.
    """

    __slots__ = (
        "warnings",
        "quarantined",
        "limits_hit",
        "errors",
        "downgrades",
        "retries",
        "checkpoints_written",
        "checkpoints_restored",
        "duplicates_suppressed",
        "dropped_regions",
        "replicas_repaired",
        "replica_write_failures",
        "plan_cache_hits",
        "plan_cache_misses",
        "_lock",
    )

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.warnings: list[str] = []
        self.quarantined: list[QuarantinedRow] = []
        self.limits_hit: list[str] = []
        self.errors: list[StatementFailure] = []
        self.downgrades: list[str] = []
        # Recovery counters (see repro.recovery / docs/resilience.md).
        # Pure counts: normal checkpoint traffic must not flip ``ok``.
        self.retries = 0
        self.checkpoints_written = 0
        self.checkpoints_restored = 0
        self.duplicates_suppressed = 0
        self.dropped_regions = 0
        # Checkpoint-replica divergence (see recovery.CheckpointStore):
        # repairs happen on load, write failures on save.  Both also emit
        # a warning, so a diverged fleet is never a silently-ok run.
        self.replicas_repaired = 0
        self.replica_write_failures = 0
        # Plan-cache traffic for this execution (0 or 1 of each per query;
        # both stay 0 on cache-bypass paths).  Counts, not failures.
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    # -- recording ------------------------------------------------------

    def warn(self, message: str) -> None:
        with self._lock:
            self.warnings.append(message)

    def quarantine(
        self, source: str, line: int, reason: str, values: tuple = ()
    ) -> None:
        with self._lock:
            self.quarantined.append(QuarantinedRow(source, line, reason, values))

    def record_limit(self, reason: str) -> None:
        with self._lock:
            self.limits_hit.append(reason)

    def record_downgrade(self, message: str) -> None:
        with self._lock:
            self.downgrades.append(message)

    def record_error(self, index: int, snippet: str, error: Exception) -> None:
        with self._lock:
            self.errors.append(StatementFailure(index, snippet, error))

    def record_retry(self, reason: str) -> None:
        """One source retry: counted, and surfaced as a warning (a stream
        that needed retries was not a clean run)."""
        with self._lock:
            self.retries += 1
            self.warnings.append(f"retry: {reason}")

    def record_checkpoint_written(self) -> None:
        with self._lock:
            self.checkpoints_written += 1

    def record_checkpoint_restored(self) -> None:
        with self._lock:
            self.checkpoints_restored += 1

    def record_duplicates_suppressed(self, count: int) -> None:
        """Replayed matches withheld to preserve exactly-once emission."""
        with self._lock:
            self.duplicates_suppressed += count

    def record_dropped_region(self) -> None:
        """One stream-buffer overflow restart dropped a region of rows."""
        with self._lock:
            self.dropped_regions += 1

    def record_replica_repaired(self) -> None:
        """One stale/corrupt/missing checkpoint replica rewritten on load."""
        with self._lock:
            self.replicas_repaired += 1

    def record_replica_write_failure(self, path: str, reason: str) -> None:
        """One replica rejected a checkpoint write (counted + warned)."""
        with self._lock:
            self.replica_write_failures += 1
            self.warnings.append(
                f"checkpoint replica write failed: {path}: {reason}"
            )

    def record_plan_cache(self, hit: bool) -> None:
        """One keyed plan-cache lookup (bypass paths record nothing)."""
        with self._lock:
            if hit:
                self.plan_cache_hits += 1
            else:
                self.plan_cache_misses += 1

    def merge(self, other: "Diagnostics") -> None:
        """Fold another diagnostics record into this one (atomically)."""
        with self._lock:
            self.warnings.extend(other.warnings)
            self.quarantined.extend(other.quarantined)
            self.limits_hit.extend(other.limits_hit)
            self.errors.extend(other.errors)
            self.downgrades.extend(other.downgrades)
            self.retries += other.retries
            self.checkpoints_written += other.checkpoints_written
            self.checkpoints_restored += other.checkpoints_restored
            self.duplicates_suppressed += other.duplicates_suppressed
            self.dropped_regions += other.dropped_regions
            self.replicas_repaired += other.replicas_repaired
            self.replica_write_failures += other.replica_write_failures
            self.plan_cache_hits += other.plan_cache_hits
            self.plan_cache_misses += other.plan_cache_misses

    # -- inspection -----------------------------------------------------

    @property
    def ok(self) -> bool:
        return not (
            self.warnings
            or self.quarantined
            or self.limits_hit
            or self.errors
            or self.downgrades
        )

    @property
    def limit_hit(self) -> bool:
        return bool(self.limits_hit)

    @property
    def degraded(self) -> bool:
        return bool(self.downgrades)

    def to_dict(self) -> dict:
        """A JSON-serializable view: counters first, then the detail lists.

        This is the payload of the CLI's ``--diagnostics-json`` flag and
        the form in which diagnostics travel inside matcher snapshots, so
        it must stay free of live objects — quarantined values and
        statement errors are rendered to strings.
        """
        return {
            "ok": self.ok,
            "counters": {
                "warnings": len(self.warnings),
                "quarantined_rows": len(self.quarantined),
                "limits_hit": len(self.limits_hit),
                "statement_errors": len(self.errors),
                "downgrades": len(self.downgrades),
                "retries": self.retries,
                "checkpoints_written": self.checkpoints_written,
                "checkpoints_restored": self.checkpoints_restored,
                "duplicates_suppressed": self.duplicates_suppressed,
                "dropped_regions": self.dropped_regions,
                "replicas_repaired": self.replicas_repaired,
                "replica_write_failures": self.replica_write_failures,
                "plan_cache_hits": self.plan_cache_hits,
                "plan_cache_misses": self.plan_cache_misses,
            },
            "warnings": list(self.warnings),
            "quarantined": [
                {
                    "source": row.source,
                    "line": row.line,
                    "reason": row.reason,
                    "values": [str(value) for value in row.values],
                }
                for row in self.quarantined
            ],
            "limits_hit": list(self.limits_hit),
            "downgrades": list(self.downgrades),
            "errors": [
                {
                    "index": failure.index,
                    "snippet": failure.snippet,
                    "error": str(failure.error),
                }
                for failure in self.errors
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Diagnostics":
        """Rehydrate a :meth:`to_dict` payload (snapshot restore path).

        Statement errors come back as generic exceptions carrying the
        original message — the live exception object does not survive the
        round trip, which is fine for the post-mortem use the collected
        list serves.
        """
        diagnostics = cls()
        diagnostics.warnings = [str(w) for w in payload.get("warnings", [])]
        for row in payload.get("quarantined", []):
            diagnostics.quarantine(
                row["source"], row["line"], row["reason"], tuple(row.get("values", ()))
            )
        diagnostics.limits_hit = [str(r) for r in payload.get("limits_hit", [])]
        diagnostics.downgrades = [str(d) for d in payload.get("downgrades", [])]
        for failure in payload.get("errors", []):
            diagnostics.record_error(
                failure["index"], failure["snippet"], Exception(failure["error"])
            )
        counters = payload.get("counters", {})
        diagnostics.retries = int(counters.get("retries", 0))
        diagnostics.checkpoints_written = int(counters.get("checkpoints_written", 0))
        diagnostics.checkpoints_restored = int(counters.get("checkpoints_restored", 0))
        diagnostics.duplicates_suppressed = int(
            counters.get("duplicates_suppressed", 0)
        )
        diagnostics.dropped_regions = int(counters.get("dropped_regions", 0))
        diagnostics.replicas_repaired = int(counters.get("replicas_repaired", 0))
        diagnostics.replica_write_failures = int(
            counters.get("replica_write_failures", 0)
        )
        diagnostics.plan_cache_hits = int(counters.get("plan_cache_hits", 0))
        diagnostics.plan_cache_misses = int(counters.get("plan_cache_misses", 0))
        return diagnostics

    def summary(self) -> str:
        """A human-readable multi-line report (CLI stderr output)."""
        lines: list[str] = []
        if self.quarantined:
            lines.append(f"quarantined {len(self.quarantined)} row(s):")
            lines.extend(f"  {row}" for row in self.quarantined[:20])
            hidden = len(self.quarantined) - 20
            if hidden > 0:
                lines.append(f"  ... ({hidden} more)")
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        for downgrade in self.downgrades:
            lines.append(f"downgrade: {downgrade}")
        for reason in self.limits_hit:
            lines.append(f"limit exceeded: {reason}")
        if self.errors:
            lines.append(f"collected {len(self.errors)} statement error(s):")
            lines.extend(f"  {failure}" for failure in self.errors)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Diagnostics(warnings={len(self.warnings)}, "
            f"quarantined={len(self.quarantined)}, "
            f"limits_hit={len(self.limits_hit)}, "
            f"errors={len(self.errors)}, downgrades={len(self.downgrades)})"
        )


class CancelToken:
    """A thread-safe cooperative cancellation flag with a reason.

    Built for the serving and CLI layers: a signal handler, a drain
    sequence, or a disconnected client calls :meth:`cancel` from any
    thread, and every :class:`Budget` holding the token trips on its
    next periodic check — the query unwinds exactly like a deadline
    expiry, returning partial results with a limit diagnostic.  Calling
    the token returns the reason string when cancelled and ``None``
    otherwise, which is the ``cancel`` hook contract :class:`Budget`
    and :class:`~repro.recovery.RecoveringStreamRunner` accept.
    """

    __slots__ = ("_event", "_reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation (idempotent; the first reason wins)."""
        if not self._event.is_set():
            self._reason = reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __call__(self) -> Optional[str]:
        return self._reason if self._event.is_set() else None

    def __repr__(self) -> str:
        state = f"cancelled={self._reason!r}" if self._event.is_set() else "live"
        return f"CancelToken({state})"


class Budget:
    """Runtime limit tracking, cheap enough for the innermost matcher loops.

    ``step()`` is the hot-path call: one int decrement most of the time,
    with the wall clock consulted every ``check_every`` steps.  The
    coarser events (``add_rows`` per cluster, ``add_match`` per match)
    check their limits exactly.  Once any limit trips, the budget stays
    tripped: every subsequent check returns True immediately, so nested
    loops unwind without extra bookkeeping, each matcher returning the
    matches it has accumulated so far.

    Charging (``add_rows``, ``add_match``, ``trip``) is internally
    locked so a budget shared across threads cannot check-then-charge
    past its limits; ``step()`` stays lock-free — its
    countdown is a heuristic for when to consult the clock, and a rare
    lost decrement only shifts a deadline check by a few iterations.
    """

    __slots__ = (
        "limits",
        "diagnostics",
        "rows_scanned",
        "matches",
        "tripped",
        "_clock",
        "_deadline",
        "_stride",
        "_countdown",
        "_cancel",
        "_lock",
    )

    def __init__(
        self,
        limits: ResourceLimits,
        diagnostics: Optional[Diagnostics] = None,
        clock: Callable[[], float] = time.monotonic,
        check_every: int = 256,
        cancel: Optional[Callable[[], Optional[str]]] = None,
    ):
        if check_every < 1:
            raise ValueError(f"check_every must be positive, got {check_every}")
        self._lock = threading.RLock()
        self.limits = limits
        self.diagnostics = diagnostics
        self.rows_scanned = 0
        self.matches = 0
        self.tripped: Optional[str] = None
        self._clock = clock
        self._stride = check_every
        self._countdown = check_every
        self._cancel = cancel
        self._deadline = (
            clock() + limits.wall_clock_deadline
            if limits.wall_clock_deadline is not None
            else None
        )
        # add_match() keeps the match that reaches the cap, so a cap of
        # zero must refuse work up front rather than after one match.
        if limits.max_matches == 0:
            self.trip("max_matches (0) reached")

    def trip(self, reason: str) -> bool:
        """Mark the budget exceeded (idempotent); always returns True."""
        with self._lock:
            if self.tripped is None:
                self.tripped = reason
                if self.diagnostics is not None:
                    self.diagnostics.record_limit(reason)
        return True

    def step(self, steps: int = 1) -> bool:
        """One unit of matcher work; True when the loop must stop."""
        if self.tripped is not None:
            return True
        self._countdown -= steps
        if self._countdown > 0:
            return False
        self._countdown = self._stride
        return self.check_deadline()

    def check_deadline(self) -> bool:
        """Consult the wall clock (and cancel hook) now; True to stop."""
        if self.tripped is not None:
            return True
        if self._cancel is not None:
            reason = self._cancel()
            if reason:
                return self.trip(
                    reason if isinstance(reason, str) else "cancelled by caller"
                )
        if self._deadline is not None and self._clock() > self._deadline:
            return self.expire()
        return False

    def expire(self) -> bool:
        """Trip on the wall-clock deadline, naming the configured limit."""
        return self.trip(
            f"wall_clock_deadline ({self.limits.wall_clock_deadline}s) exceeded"
        )

    def add_rows(self, count: int) -> bool:
        """Account for rows about to be handed to the matcher.

        Check-then-charge: a batch that would push the total past the
        limit trips the budget and is *not* charged, because the caller
        skips it — so ``rows_scanned`` always equals the rows actually
        scanned and agrees with the executor's report accounting.  The
        check and the charge happen under one lock, so concurrent
        callers splitting a shared budget can never jointly over-admit.
        """
        with self._lock:
            if self.tripped is not None:
                return True
            maximum = self.limits.max_rows_scanned
            if maximum is not None and self.rows_scanned + count > maximum:
                return self.trip(f"max_rows_scanned ({maximum}) exceeded")
            self.rows_scanned += count
            return False

    def add_match(self) -> bool:
        """Account for one recorded match; True when the cap is reached.

        The match that reaches the cap is *kept* — ``max_matches=N``
        yields exactly N matches, then stops.
        """
        with self._lock:
            if self.tripped is not None:
                return True
            self.matches += 1
            maximum = self.limits.max_matches
            if maximum is not None and self.matches >= maximum:
                return self.trip(f"max_matches ({maximum}) reached")
            return False

    def __repr__(self) -> str:
        state = f"tripped={self.tripped!r}" if self.tripped else "ok"
        return (
            f"Budget({state}, rows_scanned={self.rows_scanned}, "
            f"matches={self.matches})"
        )
