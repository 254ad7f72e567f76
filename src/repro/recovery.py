"""Crash recovery for streaming pattern search.

The paper deploys SQL-TS "via user-defined aggregates ... on input
streams"; a stream query that runs for days must survive a process crash
without replaying the whole stream or re-emitting matches it already
delivered.  OPS makes that cheap: the matcher's complete state is the
bounded look-back window plus the in-flight attempt bookkeeping, both of
which are small and serializable.  This module layers three pieces on
top of :class:`~repro.match.streaming.OpsStreamMatcher`:

1. **Snapshots** (:func:`snapshot_matcher` / :func:`restore_matcher`) —
   the matcher state as plain data, keyed by a :func:`pattern_fingerprint`
   so a snapshot can never be restored against a different query or an
   incompatible matcher configuration.
2. **Durable checkpoints** (:class:`CheckpointStore`) — versioned,
   checksummed checkpoint files written atomically
   (write-temp → fsync → rename), with corruption detection that falls
   back to the previous good checkpoint instead of crashing, and
   optional replicas with quorum writes and repair on load.
3. **A recovering runner** (:class:`RecoveringStreamRunner`) — wraps any
   offset-addressable row source with retry/backoff on transient errors,
   periodic checkpointing, resume-from-offset, and exactly-once match
   emission across restarts (a checkpoint is written *before* each batch
   of matches is yielded, and on resume any match ending at or before
   the checkpointed high-water mark is suppressed).

See ``docs/resilience.md`` ("Crash recovery & checkpointing") for the
full contract, including where exactly-once weakens to at-least-once
(restore from the ``.prev`` fallback) or at-most-once (crash between the
checkpoint write and the consumer durably handling the batch).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import struct
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Mapping, Optional, Tuple

from repro import failpoints
from repro.errors import (
    CheckpointCorrupt,
    RecoveryError,
    TransientSourceError,
)
from repro.match.base import Instrumentation, Match
from repro.match.streaming import OpsStreamMatcher
from repro.pattern.compiler import CompiledPattern
from repro.resilience import Diagnostics, ResourceLimits

#: Version of the matcher-snapshot schema (bump on incompatible change).
SNAPSHOT_VERSION = 1

#: Version of the checkpoint file frame (bump on incompatible change).
CHECKPOINT_VERSION = 1

_MAGIC = b"RPCK"
_HEADER = struct.Struct(">4sHI")  # magic, version, payload length
_DIGEST_SIZE = hashlib.sha256().digest_size


def pattern_fingerprint(
    pattern: CompiledPattern,
    *,
    trim: bool,
    overflow: str,
    max_stream_buffer: Optional[int],
    extra_lookback: int,
) -> str:
    """A stable hash identifying a compiled pattern + matcher config.

    Built from the pattern's observable matching semantics: the spec,
    each element's predicate repr, the shift/next tables, and the
    degraded flag — plus the matcher configuration that changes which
    matches a stream produces (trimming, overflow behavior, buffer cap,
    extra look-back).  ``use_codegen`` is deliberately excluded: the
    evaluator mode does not affect match semantics, so a stream
    checkpointed under the compiled evaluator may resume under the
    interpreted one and vice versa.
    """
    parts = [
        repr(pattern.spec),
        ";".join(
            f"{element}:{element.predicate!r}" for element in pattern.spec
        ),
        repr(tuple(pattern.shift_next.shift)),
        repr(tuple(pattern.shift_next.next_)),
        f"degraded={pattern.degraded}",
        f"trim={trim}",
        f"overflow={overflow}",
        f"max_stream_buffer={max_stream_buffer}",
        f"extra_lookback={extra_lookback}",
    ]
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class MatcherSnapshot:
    """The complete state of an :class:`OpsStreamMatcher` as plain data.

    Only built-in types inside (the compiled pattern itself is *not*
    stored — its evaluators are closures and cannot be pickled; restore
    takes the live pattern and verifies ``fingerprint`` instead).
    ``pending_matches`` holds matches recorded but not yet drained by the
    caller; already-drained matches are summarized by ``high_water``.
    """

    fingerprint: str
    version: int
    stream_offset: int
    window_base: int
    window_rows: Tuple[Mapping[str, object], ...]
    run: Mapping[str, object]
    pending_matches: Tuple[Tuple[int, int, Tuple[Tuple[int, int], ...]], ...]
    high_water: int
    finished: bool
    overflowed: bool
    budget: Optional[Mapping[str, int]]
    diagnostics: Mapping[str, object]


def snapshot_matcher(matcher: OpsStreamMatcher) -> MatcherSnapshot:
    """Capture a matcher's full state (see :class:`MatcherSnapshot`)."""
    window = matcher.window
    pending = matcher._run.matches[matcher._emitted :]
    budget = matcher._budget
    return MatcherSnapshot(
        fingerprint=matcher.fingerprint,
        version=SNAPSHOT_VERSION,
        stream_offset=len(window),
        window_base=window.base,
        window_rows=tuple(dict(row) for row in window),
        run=matcher._run.capture_state(),
        pending_matches=tuple(
            (
                match.start,
                match.end,
                tuple(zip(match.bounds, [bound - 1 for bound in match.bounds[1:]])),
            )
            for match in pending
        ),
        high_water=matcher.emitted_high_water,
        finished=matcher.finished,
        overflowed=matcher._overflowed,
        budget=(
            {"rows_scanned": budget.rows_scanned, "matches": budget.matches}
            if budget is not None
            else None
        ),
        diagnostics=matcher.diagnostics.to_dict(),
    )


def restore_matcher(
    snapshot: MatcherSnapshot,
    pattern: CompiledPattern,
    *,
    instrumentation: Optional[Instrumentation] = None,
    trim: bool = True,
    limits: Optional[ResourceLimits] = None,
    diagnostics: Optional[Diagnostics] = None,
    overflow: str = "raise",
    extra_lookback: int = 0,
) -> OpsStreamMatcher:
    """Rebuild a matcher from a snapshot, verifying the fingerprint.

    The live ``pattern`` and configuration must hash to the snapshot's
    fingerprint; otherwise the snapshot belongs to a different query (or
    an incompatible matcher setup) and restoring it would silently
    corrupt results — :class:`~repro.errors.RecoveryError` is raised
    instead.  Instrumentation is *not* checkpointed; a restored matcher
    starts with fresh (empty) instrumentation.
    """
    if snapshot.version != SNAPSHOT_VERSION:
        raise RecoveryError(
            f"snapshot version {snapshot.version} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    matcher = OpsStreamMatcher(
        pattern,
        instrumentation=instrumentation,
        trim=trim,
        limits=limits,
        diagnostics=diagnostics,
        overflow=overflow,
        extra_lookback=extra_lookback,
    )
    if matcher.fingerprint != snapshot.fingerprint:
        raise RecoveryError(
            f"snapshot fingerprint {snapshot.fingerprint[:12]}... does not "
            f"match the live pattern/configuration "
            f"{matcher.fingerprint[:12]}...: the checkpoint belongs to a "
            f"different pattern or matcher configuration"
        )
    window = matcher._window
    window._rows = [dict(row) for row in snapshot.window_rows]
    window._base = snapshot.window_base
    matcher._run.restore_state(dict(snapshot.run))
    names = pattern.spec.names
    matcher._run.matches = [
        Match.from_bounds((start, *(span_end + 1 for _, span_end in spans)), names)
        for start, _, spans in snapshot.pending_matches
    ]
    matcher._emitted = 0
    matcher._high_water = snapshot.high_water
    matcher._finished = snapshot.finished
    matcher._overflowed = snapshot.overflowed
    budget = matcher._budget
    if budget is not None and snapshot.budget is not None:
        budget.rows_scanned = int(snapshot.budget["rows_scanned"])
        budget.matches = int(snapshot.budget["matches"])
        maximum = budget.limits.max_matches
        if maximum is not None and budget.matches >= maximum:
            budget.trip(f"max_matches ({maximum}) reached")
    matcher.diagnostics.merge(Diagnostics.from_dict(dict(snapshot.diagnostics)))
    return matcher


@dataclass(frozen=True)
class _Generational:
    """What every frame carries: the state plus a write generation that
    rises with each save, so a read can tell which surviving replica is
    newest without trusting mtimes."""

    generation: int
    state: object


class CheckpointStore:
    """Durable checkpoints: checksummed frames, ``.prev`` fallback, and
    replicas with majority-quorum writes and repair on load.

    Frame layout (one frame per file)::

        magic "RPCK" | version (u16) | payload length (u32)
        sha256(payload) — 32 bytes
        payload — pickled ``_Generational(generation, state)``

    ``path`` is the primary replica; each of ``replicas`` is another full
    copy, ideally in another directory on another volume, so losing one
    failure domain loses one replica, not the stream's durability.  One
    replica is the default.

    ``save()`` stamps the state with the next generation and writes it to
    every replica: a temp file in the replica's directory is written and
    fsynced, the current file rotates to ``<replica>.prev``, the temp
    file is renamed into place, and the directory is fsynced (best
    effort), so a crash at any point leaves a readable frame behind.  A
    replica whose directory was wiped is recreated.  The save succeeds
    when a majority of replicas land; each failed replica is counted in
    ``write_failures`` and recorded in ``diagnostics``.

    ``load()`` reads every replica — a corrupt or truncated file falls
    back to its ``.prev`` with a warning — and returns the newest valid
    generation.  Replicas that are missing, corrupt or stale are then
    rewritten with it (best effort), counted in ``repairs``, in
    ``repair_counter`` and in the caller's diagnostics, so one surviving
    replica is enough to restore.  A frame whose payload is a bare state,
    as written before saves were generation-stamped, loads as
    generation 0.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *replicas: str | os.PathLike,
        repair_counter=None,
        diagnostics: Optional[Diagnostics] = None,
    ):
        paths = tuple(os.fspath(each) for each in (path, *replicas))
        if len(set(paths)) != len(paths):
            raise ValueError(f"replica paths must be distinct, got {list(paths)}")
        self.path = paths[0]
        self.replica_paths = paths
        self.quorum = len(paths) // 2 + 1
        # Generation is discovered lazily: a fresh process opening existing
        # replicas must continue *above* the highest generation on disk,
        # never restart at 1 (which would make every subsequent read treat
        # the new writes as stale).
        self._generation: Optional[int] = None
        self.repairs = 0
        self.write_failures = 0
        self._repair_counter = repair_counter
        # save() takes no diagnostics argument, so write failures are
        # recorded through this bound one.
        self._diagnostics = diagnostics

    @property
    def previous_path(self) -> str:
        return self.path + ".prev"

    @property
    def generation(self) -> Optional[int]:
        return self._generation

    def exists(self) -> bool:
        return any(
            os.path.exists(path) or os.path.exists(path + ".prev")
            for path in self.replica_paths
        )

    def save(self, state: object) -> None:
        """Stamp ``state`` with the next generation and write every replica.

        The failpoint sites here model the crash-consistency hazards this
        protocol defends against, and each is hit once per replica, in
        replica order: ``checkpoint.replica_write`` fails the whole
        replica write, ``checkpoint.write`` can tear the frame (partial
        temp-file write), ``checkpoint.fsync`` can be skipped or fail
        (lost page cache), and ``checkpoint.rename`` fires between the
        ``.prev`` rotation and the final rename — the window where a crash
        leaves only the fallback on disk.  All are no-ops unless a test
        arms them (see :mod:`repro.failpoints`).

        When no replica lands, the write's own error escapes; when some
        land but fewer than a majority,
        :class:`~repro.errors.RecoveryError` does.  The generation is not
        rolled back either way: the replicas that did land are valid and
        newest, and the next load repairs the rest.
        """
        if self._generation is None:
            self._generation = self._scan_generation()
        self._generation += 1
        frame = _frame(_Generational(self._generation, state))
        failures: List[Tuple[str, Exception]] = []
        for path in self.replica_paths:
            try:
                failpoints.maybe_fail("checkpoint.replica_write")
                _write_frame(path, frame)
            except Exception as error:
                failures.append((path, error))
                if self._diagnostics is not None:
                    self._diagnostics.record_replica_write_failure(path, str(error))
        self.write_failures += len(failures)
        written = len(self.replica_paths) - len(failures)
        if written >= self.quorum:
            return
        if not written:
            raise failures[-1][1]
        detail = "; ".join(f"{path}: {error}" for path, error in failures[:3])
        raise RecoveryError(
            f"checkpoint write quorum failed: {written}/"
            f"{len(self.replica_paths)} replicas written "
            f"(need {self.quorum}): {detail}"
        ) from failures[-1][1]

    def load(self, *, diagnostics: Optional[Diagnostics] = None) -> object:
        """Return the newest valid state across replicas, repairing others.

        Raises :class:`RecoveryError` when no replica has a checkpoint
        file, and the last :class:`CheckpointCorrupt` when none of the
        files that exist reads clean.
        """
        best: Optional[_Generational] = None
        outcomes: List[Tuple[str, str, Optional[int]]] = []
        last_error: Optional[Exception] = None
        for path in self.replica_paths:
            try:
                stamped = _read_replica(path, diagnostics)
            except CheckpointCorrupt as error:
                last_error = error
                outcomes.append((path, "corrupt", None))
                continue
            if stamped is None:
                outcomes.append((path, "missing", None))
                continue
            outcomes.append((path, "ok", stamped.generation))
            if best is None or stamped.generation > best.generation:
                best = stamped
        if best is None:
            if last_error is not None:
                raise last_error
            raise RecoveryError(
                f"no checkpoint at {', '.join(self.replica_paths)}"
            )
        for path, outcome, generation in outcomes:
            if generation == best.generation:
                continue
            reason = (
                outcome
                if generation is None
                else f"stale (generation {generation} < {best.generation})"
            )
            try:
                _write_frame(path, _frame(best))
            except Exception as error:  # repair is best effort
                if diagnostics is not None:
                    diagnostics.warn(
                        f"checkpoint replica {path} is {reason} and "
                        f"could not be repaired ({error})"
                    )
                continue
            self.repairs += 1
            if self._repair_counter is not None:
                self._repair_counter.inc()
            if diagnostics is not None:
                diagnostics.record_replica_repaired()
                diagnostics.warn(
                    f"checkpoint replica {path} was {reason}; "
                    f"repaired to generation {best.generation}"
                )
        self._generation = best.generation
        return best.state

    def _scan_generation(self) -> int:
        """Highest generation readable from any replica (0 when none)."""
        best = 0
        for path in self.replica_paths:
            try:
                stamped = _read_replica(path, None)
            except CheckpointCorrupt:
                continue
            if stamped is not None:
                best = max(best, stamped.generation)
        return best


def _frame(stamped: _Generational) -> bytes:
    payload = pickle.dumps(stamped, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        _HEADER.pack(_MAGIC, CHECKPOINT_VERSION, len(payload))
        + hashlib.sha256(payload).digest()
        + payload
    )


def _write_frame(path: str, frame: bytes) -> None:
    """Atomically replace ``path`` with ``frame``, keeping the old file
    as ``path.prev`` (see :meth:`CheckpointStore.save`)."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        os.makedirs(directory, exist_ok=True)
    frame = failpoints.mangle("checkpoint.write", frame)
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(frame)
        handle.flush()
        if not failpoints.maybe_fail("checkpoint.fsync"):
            os.fsync(handle.fileno())
    if os.path.exists(path):
        os.replace(path, path + ".prev")
    failpoints.maybe_fail("checkpoint.rename")
    os.replace(tmp_path, path)
    try:  # pragma: no cover - platform dependent
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass


def _read_replica(
    path: str, diagnostics: Optional[Diagnostics]
) -> Optional[_Generational]:
    """One replica's newest readable frame: ``path``, else ``path.prev``.

    None when neither file exists; the last :class:`CheckpointCorrupt`
    when neither reads clean.  Fallbacks and corruption are recorded as
    warnings in ``diagnostics``.
    """
    candidates = (path, path + ".prev")
    last_error: Optional[CheckpointCorrupt] = None
    for index, candidate in enumerate(candidates):
        if not os.path.exists(candidate):
            continue
        try:
            state = _read_frame(candidate)
        except CheckpointCorrupt as error:
            last_error = error
            if diagnostics is not None:
                diagnostics.warn(
                    f"checkpoint {candidate} is corrupt ({error}); "
                    + (
                        "falling back to the previous checkpoint"
                        if index + 1 < len(candidates)
                        else "no fallback remains"
                    )
                )
            continue
        if index > 0 and diagnostics is not None:
            diagnostics.warn(
                f"restored from fallback checkpoint {candidate}; "
                f"matches emitted after it may be re-emitted "
                f"(at-least-once)"
            )
        if isinstance(state, _Generational):
            return state
        return _Generational(0, state)
    if last_error is not None:
        raise last_error
    return None


def _read_frame(path: str) -> object:
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < _HEADER.size + _DIGEST_SIZE:
        raise CheckpointCorrupt(f"{path}: truncated header ({len(data)} bytes)")
    magic, version, length = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise CheckpointCorrupt(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointCorrupt(
            f"{path}: unsupported checkpoint version {version} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    start = _HEADER.size + _DIGEST_SIZE
    payload = data[start : start + length]
    if len(payload) != length:
        raise CheckpointCorrupt(
            f"{path}: truncated payload ({len(payload)} of {length} bytes)"
        )
    digest = data[_HEADER.size : start]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointCorrupt(f"{path}: checksum mismatch")
    try:
        return pickle.loads(payload)
    except Exception as error:
        raise CheckpointCorrupt(
            f"{path}: payload decoding failed ({error})"
        ) from error


def _require_count(name: str, value, minimum: int) -> None:
    """Refuse anything but an int of at least ``minimum``; a bool is an
    int to Python but no count a caller means."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff configuration for transient source failures.

    ``max_retries`` bounds *consecutive* failed attempts; any successful
    row resets the count.  Delays grow geometrically from ``backoff`` by
    ``backoff_factor`` up to ``max_backoff``.  Only ``retryable``
    exception types are retried — anything else propagates immediately.

    ``jitter`` spreads the delay: with jitter ``j`` the sleep before
    attempt ``n`` is drawn uniformly from
    ``[base*(1-j), base)`` where ``base`` is the deterministic geometric
    delay.  The default of 0 keeps the exact legacy schedule (so timing
    tests stay byte-for-byte deterministic); reconnect storms — many
    clients losing the same server at the same instant — should use full
    jitter (``jitter=1.0``) so their retries decorrelate instead of
    hammering the server in lockstep.
    """

    max_retries: int = 0
    backoff: float = 0.1
    backoff_factor: float = 2.0
    max_backoff: float = 30.0
    retryable: tuple = (TransientSourceError, OSError)
    jitter: float = 0.0

    def __post_init__(self) -> None:
        _require_count("max_retries", self.max_retries, 0)
        # ``not x >= 0`` also rejects NaN: a NaN delay makes ``time.sleep``
        # raise mid-stream, and ``min(x, nan)`` is ``x``, so a NaN cap is
        # no cap at all.
        for name in ("backoff", "max_backoff"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if not self.backoff_factor >= 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(
        self, attempt: int, rng: Optional[Callable[[], float]] = None
    ) -> float:
        """Sleep before retry number ``attempt`` (1-based).

        ``rng`` is a 0-argument callable returning a float in ``[0, 1)``
        (default :func:`random.random`); inject a deterministic one in
        tests.  It is only consulted when ``jitter > 0``.
        """
        base = min(
            self.backoff * self.backoff_factor ** max(attempt - 1, 0),
            self.max_backoff,
        )
        if self.jitter <= 0.0:
            return base
        sample = (rng if rng is not None else random.random)()
        return base * (1.0 - self.jitter) + base * self.jitter * sample


@dataclass(frozen=True)
class CheckpointPolicy:
    """When the recovering runner writes periodic checkpoints.

    ``on_emit`` additionally checkpoints *before* every yielded batch of
    matches — that write is what upgrades recovery from at-least-once to
    exactly-once, so disable it only when duplicate emission after a
    crash is acceptable.
    """

    every_rows: Optional[int] = 1000
    every_seconds: Optional[float] = None
    on_emit: bool = True

    def __post_init__(self) -> None:
        if self.every_rows is not None:
            _require_count("every_rows", self.every_rows, 1)
        # A NaN interval never elapses: reject it with the non-positive ones.
        if self.every_seconds is not None and not self.every_seconds > 0:
            raise ValueError(
                f"every_seconds must be positive, got {self.every_seconds}"
            )


@dataclass(frozen=True)
class RunnerCheckpoint:
    """What :class:`RecoveringStreamRunner` persists: the source offset
    to resume reading from, plus the full matcher snapshot."""

    source_offset: int
    matcher: MatcherSnapshot


class RecoveringStreamRunner:
    """Drive a stream query with retries, checkpoints, and resume.

    ``source_factory(start_offset)`` must return an iterator of
    ``(offset, row)`` pairs with offsets ``>= start_offset`` strictly
    increasing — re-invoking it is how both retry (reopen at the current
    position) and resume (reopen at the checkpointed position) work.
    Sources that cannot seek may simply re-yield from offset 0; rows
    before ``start_offset`` are skipped without being re-pushed.

    ``run()`` yields ``(offset, match)`` pairs as matches complete.  With
    ``CheckpointPolicy.on_emit`` (the default) a checkpoint is written
    before each batch is yielded, and on resume matches ending at or
    before the restored high-water mark are suppressed, so each match is
    delivered exactly once across any number of crash/resume cycles.
    """

    def __init__(
        self,
        pattern: CompiledPattern,
        source_factory: Callable[[int], Iterator[Tuple[int, Mapping[str, object]]]],
        *,
        store: Optional[CheckpointStore] = None,
        checkpoints: Optional[CheckpointPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        limits: Optional[ResourceLimits] = None,
        overflow: str = "raise",
        trim: bool = True,
        extra_lookback: int = 0,
        instrumentation: Optional[Instrumentation] = None,
        diagnostics: Optional[Diagnostics] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[Callable[[], float]] = None,
        stop: Optional[Callable[[], Optional[str]]] = None,
        trace=None,
    ):
        self._pattern = pattern
        self._source_factory = source_factory
        self._store = store
        self._checkpoints = (
            checkpoints if checkpoints is not None else CheckpointPolicy()
        )
        self._retry = retry if retry is not None else RetryPolicy()
        self._limits = limits
        self._overflow = overflow
        self._trim = trim
        self._extra_lookback = extra_lookback
        self._instrumentation = instrumentation
        self.diagnostics = diagnostics if diagnostics is not None else Diagnostics()
        self._clock = clock
        self._sleep = sleep
        self._rng = rng
        self._stop = stop
        # Optional flight-recorder trace (repro.obs.Trace): checkpoint
        # writes and restores get spans; None costs nothing.
        self._trace = trace
        self.matcher: Optional[OpsStreamMatcher] = None
        self.source_offset = 0

    # ------------------------------------------------------------------

    def _fresh_matcher(self) -> OpsStreamMatcher:
        return OpsStreamMatcher(
            self._pattern,
            instrumentation=self._instrumentation,
            trim=self._trim,
            limits=self._limits,
            diagnostics=self.diagnostics,
            overflow=self._overflow,
            extra_lookback=self._extra_lookback,
        )

    def _restore(self) -> Tuple[OpsStreamMatcher, int]:
        if self._trace is not None:
            with self._trace.span("checkpoint.restore") as span:
                matcher, offset = self._restore_inner()
            span.annotate(offset=offset)
            return matcher, offset
        return self._restore_inner()

    def _restore_inner(self) -> Tuple[OpsStreamMatcher, int]:
        assert self._store is not None
        failpoints.maybe_fail("recovery.restore")
        state = self._store.load(diagnostics=self.diagnostics)
        if not isinstance(state, RunnerCheckpoint):
            raise RecoveryError(
                f"checkpoint at {self._store.path} does not contain runner "
                f"state (found {type(state).__name__})"
            )
        matcher = restore_matcher(
            state.matcher,
            self._pattern,
            instrumentation=self._instrumentation,
            trim=self._trim,
            limits=self._limits,
            diagnostics=self.diagnostics,
            overflow=self._overflow,
            extra_lookback=self._extra_lookback,
        )
        self.diagnostics.record_checkpoint_restored()
        return matcher, state.source_offset

    def _checkpoint(self) -> None:
        if self._store is None:
            return
        assert self.matcher is not None
        if self._trace is not None:
            with self._trace.span(
                "checkpoint.write", offset=self.source_offset
            ):
                self._checkpoint_inner()
            return
        self._checkpoint_inner()

    def _checkpoint_inner(self) -> None:
        self._store.save(
            RunnerCheckpoint(
                source_offset=self.source_offset,
                matcher=snapshot_matcher(self.matcher),
            )
        )
        self.diagnostics.record_checkpoint_written()

    def _due(self, rows_since: int, last_time: float) -> bool:
        policy = self._checkpoints
        if policy.every_rows is not None and rows_since >= policy.every_rows:
            return True
        if (
            policy.every_seconds is not None
            and self._clock() - last_time >= policy.every_seconds
        ):
            return True
        return False

    # ------------------------------------------------------------------

    def run(
        self, *, resume: bool = False
    ) -> Iterator[Tuple[int, Match]]:
        """Consume the source to exhaustion, yielding ``(offset, match)``.

        ``resume=True`` restores matcher state and source position from
        the checkpoint store (a missing checkpoint starts fresh with a
        warning); ``resume=False`` always starts from offset 0, but still
        writes checkpoints if a store is configured.
        """
        restored_hwm = -1
        if resume and self._store is not None and self._store.exists():
            self.matcher, self.source_offset = self._restore()
            restored_hwm = self.matcher.emitted_high_water
        else:
            if resume:
                self.diagnostics.warn(
                    "resume requested but no checkpoint exists; "
                    "starting from the beginning of the stream"
                )
            self.matcher = self._fresh_matcher()
            self.source_offset = 0
        matcher = self.matcher

        if matcher.finished:
            # The previous run checkpointed after finish(); nothing left.
            return

        source = self._open_source(self.source_offset)
        failures = 0
        rows_since_checkpoint = 0
        last_checkpoint_time = self._clock()
        while True:
            if self._stop is not None:
                reason = self._stop()
                if reason:
                    # Graceful interrupt (signal, drain): persist the full
                    # matcher state *without* finishing the stream, so a
                    # later --resume continues exactly here with the
                    # exactly-once high-water mark intact.
                    self._checkpoint()
                    self.diagnostics.record_limit(
                        f"{reason}; stream stopped at offset "
                        f"{self.source_offset}"
                        + (
                            " (checkpoint written)"
                            if self._store is not None
                            else ""
                        )
                    )
                    return
            try:
                item = next(source, None)
            except self._retry.retryable as error:
                failures += 1
                if failures > self._retry.max_retries:
                    raise
                delay = self._retry.delay(failures, rng=self._rng)
                self.diagnostics.record_retry(
                    f"source failed at offset {self.source_offset} "
                    f"({error}); reopening in {delay:g}s "
                    f"(attempt {failures}/{self._retry.max_retries})"
                )
                self._sleep(delay)
                source = self._open_source(self.source_offset)
                continue
            if item is None:
                break
            failures = 0
            offset, row = item
            if offset < self.source_offset:
                continue  # replayed prefix from a non-seekable source
            fresh = matcher.push(row)
            self.source_offset = offset + 1
            rows_since_checkpoint += 1
            emitted = self._deliverable(fresh, restored_hwm)
            if emitted:
                if self._checkpoints.on_emit:
                    self._checkpoint()
                    rows_since_checkpoint = 0
                    last_checkpoint_time = self._clock()
                for match in emitted:
                    yield self.source_offset - 1, match
            if matcher.tripped is not None:
                break
            if self._due(rows_since_checkpoint, last_checkpoint_time):
                self._checkpoint()
                rows_since_checkpoint = 0
                last_checkpoint_time = self._clock()

        trailing = self._deliverable(matcher.finish(), restored_hwm)
        self._checkpoint()
        for match in trailing:
            yield self.source_offset - 1, match

    def _deliverable(self, fresh: list, restored_hwm: int) -> list:
        """Filter out matches the previous incarnation already delivered."""
        if restored_hwm < 0 or not fresh:
            return fresh
        deliverable = [match for match in fresh if match.end > restored_hwm]
        suppressed = len(fresh) - len(deliverable)
        if suppressed:
            self.diagnostics.record_duplicates_suppressed(suppressed)
        return deliverable

    def _open_source(
        self, start_offset: int
    ) -> Iterator[Tuple[int, Mapping[str, object]]]:
        return iter(self._source_factory(start_offset))
