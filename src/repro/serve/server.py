"""The always-on query server.

One :class:`QueryServer` wraps one :class:`~repro.engine.executor.Executor`
over a catalog of named registered tables and serves it to any number of
concurrent connections over the newline-delimited JSON protocol
(:mod:`repro.serve.protocol`).  The composition rules:

- **Shared plan cache.**  Every connection executes through the same
  executor, so a query planned for one tenant is a cache hit for the
  next — the ``stats`` op exposes the hit/miss counters.
- **Admission before execution.**  Each request passes the
  :class:`~repro.serve.tenants.AdmissionController` first; rejected
  requests cost the server one JSON frame, never a planner invocation.
- **Bounded queues everywhere.**  Queries run on a fixed thread pool;
  at most ``max_pending`` requests may be dispatched-but-unfinished
  server-wide (beyond that: ``backpressure`` rejections), and each
  tenant's queue is bounded by its quota.  Subscription delivery flows
  through a bounded per-subscriber queue, so a slow consumer throttles
  its own matcher instead of buffering the server into the ground.
- **Deadlines and cancellation.**  Per-request timeouts tighten the
  tenant's :class:`~repro.resilience.ResourceLimits`; every running
  query holds a :class:`~repro.resilience.CancelToken` that the drain
  sequence (and a subscriber disconnect) trips, unwinding the matcher
  loops through the ordinary budget machinery.
- **Graceful drain.**  :meth:`QueryServer.drain` refuses new work,
  lets in-flight queries finish within a grace period, then cancels
  stragglers (streams write a final checkpoint on the way out), and
  closes every connection.
- **Exactly-once subscriptions.**  Streaming subscriptions run on the
  PR3 :class:`~repro.recovery.RecoveringStreamRunner` with a per-
  subscription checkpoint file; checkpoints are written *behind* the
  delivery point (``on_emit=False``), so after a crash the server
  re-emits a suffix and the subscriber's ``after_seq`` high-water mark
  filters it — each match reaches the client exactly once across any
  number of reconnects and server restarts (see ``docs/serving.md``).

``fault_injector`` is the chaos-harness hook: a callable invoked inside
the worker thread before each query/subscription body; raising from it
simulates a worker dying mid-request and must surface as a structured
``internal`` error response while every other tenant's results stay
byte-identical (``tests/integration/test_serve_chaos.py``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import math
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Mapping, Optional

from repro import failpoints
from repro.engine.catalog import Catalog
from repro.engine.cluster import sequenced_source
from repro.engine.executor import Executor
from repro.errors import ExecutionError, ReproError
from repro.obs import MetricsRegistry, SlowQueryLog
from repro.pattern.predicates import AttributeDomains
from repro.recovery import CheckpointPolicy, CheckpointStore, RunnerCheckpoint
from repro.resilience import CancelToken, Diagnostics
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_for_exception,
    error_payload,
)
from repro.serve.tenants import (
    BACKPRESSURE_RETRY_AFTER,
    AdmissionController,
    Rejection,
    RequestLedger,
    TenantQuota,
)
from repro.sqlts.parser import parse_query

#: Bounded per-subscriber delivery queue (frames), the backpressure
#: coupling between a slow consumer and its matcher thread.
SUBSCRIPTION_QUEUE_DEPTH = 64

#: How long a queued request waits for a concurrency slot before it is
#: bounced with ``backpressure`` (seconds).
QUEUE_WAIT_TIMEOUT = 30.0

_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]")


def _safe_filename(text: str) -> str:
    return _SAFE_NAME.sub("_", text)


def _checkpoint_high_water(store: CheckpointStore) -> float:
    """The highest ``seq`` the checkpoint believes was delivered.

    An unreadable or foreign checkpoint returns ``inf`` so the caller
    falls back to a from-scratch replay (which also rewrites the bad
    checkpoint) instead of a resume that would immediately fail.
    """
    try:
        state = store.load()
    except Exception:  # noqa: BLE001 - any corruption means "do not resume"
        return float("inf")
    if not isinstance(state, RunnerCheckpoint):
        return float("inf")
    return state.matcher.high_water


class QueryServer:
    """Serve SQL-TS queries and subscriptions to concurrent tenants.

    Construct with a catalog of registered tables, then ``await
    start()`` inside a running event loop (or use :class:`ServerThread`
    from synchronous code).  ``port=0`` binds an ephemeral port exposed
    via :attr:`address` after start.
    """

    def __init__(
        self,
        catalog: Catalog,
        *,
        domains: Optional[AttributeDomains] = None,
        matcher: str = "ops",
        policy: str = "raise",
        quotas: Optional[Mapping[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        pool_workers: int = 4,
        max_pending: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_replicas: int = 1,
        subscription_checkpoint_every: int = 256,
        drain_grace: float = 5.0,
        host: str = "127.0.0.1",
        port: int = 0,
        allow_remote_shutdown: bool = False,
        fault_injector: Optional[Callable[[str, str, str], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
        slow_query_threshold: float = 1.0,
        slow_query_log: Optional[object] = None,
        slow_query_log_max_bytes: Optional[int] = None,
        request_ledger_size: int = 256,
    ):
        if pool_workers < 1:
            raise ExecutionError(
                f"pool_workers must be positive, got {pool_workers}"
            )
        if checkpoint_replicas < 1:
            raise ExecutionError(
                f"checkpoint_replicas must be positive, got {checkpoint_replicas}"
            )
        self._catalog = catalog
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._executor = Executor(
            catalog,
            domains=domains,
            matcher=matcher,
            policy=policy,
            metrics=self.metrics,
        )
        self._admission = AdmissionController(
            default_quota=default_quota, quotas=quotas
        )
        self._pool = ThreadPoolExecutor(
            max_workers=pool_workers, thread_name_prefix="repro-serve"
        )
        self._max_pending = (
            max_pending if max_pending is not None else pool_workers * 4
        )
        self._checkpoint_dir = checkpoint_dir
        self._checkpoint_replicas = checkpoint_replicas
        self._subscription_checkpoint_every = subscription_checkpoint_every
        self._drain_grace = drain_grace
        self._host = host
        self._port = port
        self._allow_remote_shutdown = allow_remote_shutdown
        self._fault_injector = fault_injector
        self._ledger = RequestLedger(request_ledger_size)
        self._slow_log = (
            SlowQueryLog(
                slow_query_log,
                threshold_s=slow_query_threshold,
                max_bytes=slow_query_log_max_bytes,
            )
            if slow_query_log is not None
            else None
        )
        self._requests_counter = self.metrics.counter(
            "repro_serve_requests_total",
            "Requests dispatched, by protocol op.",
            labelnames=("op",),
        )
        self._rejections_counter = self.metrics.counter(
            "repro_serve_rejections_total",
            "Structured admission refusals, by tenant and error code.",
            labelnames=("tenant", "code"),
        )
        self._slow_queries_counter = self.metrics.counter(
            "repro_serve_slow_queries_total",
            "Queries whose wall time crossed the slow-query threshold.",
        )
        self._dedup_counter = self.metrics.counter(
            "repro_serve_request_dedup_total",
            "Retried requests replayed from the ledger instead of re-run.",
            labelnames=("tenant",),
        )
        self._replica_repair_counter = self.metrics.counter(
            "repro_checkpoint_replica_repairs_total",
            "Stale/corrupt/missing checkpoint replicas rewritten on load.",
        )
        # When a chaos harness armed failpoints before constructing this
        # server, surface their hit/fire counters through its registry so
        # the metrics op shows exactly which faults actually fired.
        if failpoints.armed():
            failpoints.set_metrics(self.metrics)

        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._slot_cond = asyncio.Condition()
        self._inflight = 0
        self._active_tokens: set[CancelToken] = set()
        self._active_subscriptions: set[tuple[str, str]] = set()
        self._subscription_state: dict[tuple[str, str], dict] = {}
        self._connections: set[asyncio.StreamWriter] = set()
        self._drain_started = False
        self.started_at = time.time()
        # Uptime is measured on the monotonic clock — wall-clock time is
        # for display only and jumps under NTP steps.
        self._started_monotonic = time.monotonic()

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        if self._checkpoint_dir:
            os.makedirs(self._checkpoint_dir, exist_ok=True)
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=MAX_FRAME_BYTES + 2,
        )
        self._port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return self._host, self._port

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def draining(self) -> bool:
        return self._drain_started

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started_monotonic

    def _note_rejection(
        self, tenant: str, code: str, *, counted: bool = False
    ) -> None:
        """Record a structured refusal in both the per-tenant admission
        stats and the metrics registry.

        ``counted=True`` means the :class:`AdmissionController` already
        incremented the tenant's rejection counter on the reserve path;
        only the registry counter is missing then.
        """
        if not counted:
            self._admission.note_rejection(tenant, code)
        self._rejections_counter.labels(tenant=tenant, code=code).inc()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def drain(self, grace: Optional[float] = None) -> None:
        """Graceful shutdown: refuse new work, finish or cancel old work.

        New requests (and queued waiters) get structured ``draining``
        errors immediately.  In-flight queries get ``grace`` seconds to
        finish; whatever remains is cooperatively cancelled — budgets
        trip, matchers return partial results, streaming subscriptions
        write a final checkpoint — before every connection is closed.
        """
        if self._drain_started:
            return
        self._drain_started = True
        grace = self._drain_grace if grace is None else grace
        self._admission.drain()
        if self._server is not None:
            self._server.close()
        await self._notify_slots()  # bounce queued waiters with "draining"
        await self._await_inflight(grace)
        if self._inflight > 0:
            for token in list(self._active_tokens):
                token.cancel("server draining: grace period expired")
            await self._await_inflight(2.0)
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        self._pool.shutdown(wait=False, cancel_futures=True)

    async def force_stop(self) -> None:
        """Abrupt shutdown (the chaos harness's "forced restart"): cancel
        everything now, abort connections, skip the grace period.
        Durable state (subscription checkpoints) is what makes this
        survivable."""
        self._drain_started = True
        self._admission.drain()
        if self._server is not None:
            self._server.close()
        for token in list(self._active_tokens):
            token.cancel("server restarting")
        await self._notify_slots()
        await self._await_inflight(1.0)
        for writer in list(self._connections):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._server is not None:
            await self._server.wait_closed()
        self._pool.shutdown(wait=False, cancel_futures=True)

    async def _await_inflight(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while self._inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)

    async def _notify_slots(self) -> None:
        async with self._slot_cond:
            self._slot_cond.notify_all()

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # An overlong line is unanswerable in-stream: drain
                    # the rest of it (closing with unread bytes would
                    # RST the socket and destroy the error frame), then
                    # answer once and drop the connection.
                    await self._drain_oversize_line(reader)
                    await self._send(
                        writer,
                        error_payload(
                            "corrupt_frame",
                            f"frame exceeds {MAX_FRAME_BYTES} bytes",
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_frame(line)
                except ProtocolError as error:
                    # The line framing held (we read a full line), so a
                    # bad frame is answerable without killing the
                    # connection.
                    await self._send(writer, error_for_exception(error))
                    continue
                await self._dispatch(request, writer)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            OSError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _drain_oversize_line(reader: asyncio.StreamReader) -> None:
        """Discard the remainder of an overlong line (bounded)."""
        discarded = 0
        while discarded < 16 * MAX_FRAME_BYTES:
            chunk = await reader.read(65536)
            if not chunk or b"\n" in chunk:
                return
            discarded += len(chunk)

    async def _send(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        # serve.send_frame raising an OSError here is indistinguishable,
        # from the connection's point of view, from the peer vanishing:
        # the handler unwinds and closes the socket, which is exactly how
        # the chaos matrix simulates a dropped connection at a chosen
        # frame (see repro.failpoints).
        failpoints.maybe_fail("serve.send_frame")
        writer.write(encode_frame(payload))
        await writer.drain()

    async def _dispatch(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        rid = request.get("id")
        op = request.get("op")
        tenant = request.get("tenant", "default")
        if not isinstance(op, str):
            await self._send(
                writer,
                error_payload(
                    "bad_request", "request needs a string 'op'", request_id=rid
                ),
            )
            return
        if not isinstance(tenant, str) or not tenant:
            await self._send(
                writer,
                error_payload(
                    "bad_request",
                    "'tenant' must be a non-empty string",
                    request_id=rid,
                ),
            )
            return
        self._requests_counter.labels(
            op=op
            if op in ("ping", "stats", "metrics", "shutdown", "query", "subscribe")
            else "unknown"
        ).inc()
        try:
            if op == "ping":
                await self._send(
                    writer,
                    {
                        "id": rid,
                        "ok": True,
                        "pong": True,
                        "draining": self._drain_started,
                    },
                )
            elif op == "stats":
                await self._send(writer, self._stats_payload(rid))
            elif op == "metrics":
                await self._send(
                    writer,
                    {"id": rid, "ok": True, "metrics": self.metrics.expose()},
                )
            elif op == "shutdown":
                await self._handle_shutdown(rid, writer)
            elif op == "query":
                await self._handle_query(request, rid, tenant, writer)
            elif op == "subscribe":
                await self._handle_subscribe(request, rid, tenant, writer)
            else:
                await self._send(
                    writer,
                    error_payload(
                        "unknown_op", f"unknown op {op!r}", request_id=rid
                    ),
                )
        except (ConnectionResetError, BrokenPipeError, OSError):
            raise
        except Exception as error:  # defense in depth: never kill the loop
            await self._send(writer, error_for_exception(error, rid))

    def _stats_payload(self, rid: Any) -> dict:
        subscriptions = {}
        for (tenant, name), state in sorted(self._subscription_state.items()):
            streaming = state.get("streaming")
            subscriptions[f"{tenant}/{name}"] = {
                "delivered": state["delivered"],
                "last_seq": state["last_seq"],
                "queue_depth": state["queue"].qsize(),
                "source_offset": (
                    streaming.runner.source_offset
                    if streaming is not None
                    else 0
                ),
            }
        return {
            "id": rid,
            "ok": True,
            "stats": {
                "uptime_s": round(self.uptime_s, 3),
                "plan_cache": {
                    "hits": self._executor.plan_cache_hits,
                    "misses": self._executor.plan_cache_misses,
                },
                "admission": self._admission.snapshot(),
                "inflight": self._inflight,
                "draining": self._drain_started,
                "subscriptions": len(self._active_subscriptions),
                "subscription_detail": subscriptions,
                "slow_queries": int(self._slow_queries_counter.value),
                "request_dedup": self._ledger.snapshot(),
                "checkpoint_replicas": self._checkpoint_replicas,
                "replica_repairs": int(self._replica_repair_counter.value),
                "tables": sorted(table.name for table in self._catalog),
            },
        }

    async def _handle_shutdown(
        self, rid: Any, writer: asyncio.StreamWriter
    ) -> None:
        if not self._allow_remote_shutdown:
            await self._send(
                writer,
                error_payload(
                    "unauthorized",
                    "remote shutdown is disabled "
                    "(start the server with --allow-remote-shutdown)",
                    request_id=rid,
                ),
            )
            return
        await self._send(writer, {"id": rid, "ok": True, "draining": True})
        asyncio.get_running_loop().create_task(self.drain())

    # -- admission ------------------------------------------------------

    async def _admit(
        self, tenant: str, rid: Any, writer: asyncio.StreamWriter
    ) -> bool:
        """Reserve a run slot; on failure a structured error has been
        sent and False is returned."""
        if self._inflight >= self._max_pending:
            self._note_rejection(tenant, "backpressure")
            await self._send(
                writer,
                error_payload(
                    "backpressure",
                    f"server request queue is full "
                    f"({self._inflight} in flight, limit {self._max_pending})",
                    retry_after=BACKPRESSURE_RETRY_AFTER,
                    request_id=rid,
                ),
            )
            return False
        decision = self._admission.reserve(tenant)
        if isinstance(decision, Rejection):
            self._note_rejection(tenant, decision.code, counted=True)
            await self._send(
                writer,
                error_payload(
                    decision.code,
                    decision.message,
                    retry_after=decision.retry_after,
                    request_id=rid,
                ),
            )
            return False
        if decision == "queue":
            promoted = False

            def slot_free() -> bool:
                nonlocal promoted
                if self._admission.draining:
                    return True
                promoted = self._admission.try_promote(tenant)
                return promoted

            try:
                async with self._slot_cond:
                    await asyncio.wait_for(
                        self._slot_cond.wait_for(slot_free),
                        timeout=QUEUE_WAIT_TIMEOUT,
                    )
            except asyncio.TimeoutError:
                self._admission.abandon(tenant)
                self._note_rejection(tenant, "backpressure")
                await self._send(
                    writer,
                    error_payload(
                        "backpressure",
                        f"timed out after {QUEUE_WAIT_TIMEOUT:g}s waiting "
                        f"for a concurrency slot",
                        retry_after=BACKPRESSURE_RETRY_AFTER,
                        request_id=rid,
                    ),
                )
                return False
            if not promoted:
                self._admission.abandon(tenant)
                self._note_rejection(tenant, "draining")
                await self._send(
                    writer,
                    error_payload(
                        "draining",
                        "server began draining while the request was queued",
                        request_id=rid,
                    ),
                )
                return False
        return True

    # -- query ----------------------------------------------------------

    @staticmethod
    def _bad(rid: Any, message: str) -> dict:
        return error_payload("bad_request", message, request_id=rid)

    async def _handle_query(
        self, request: dict, rid: Any, tenant: str, writer: asyncio.StreamWriter
    ) -> None:
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            await self._send(writer, self._bad(rid, "'sql' must be a query string"))
            return
        # Exact types: JSON true/false decode to bool, which is an int.
        timeout = request.get("timeout")
        if timeout is not None and (
            type(timeout) not in (int, float) or math.isnan(timeout)
        ):
            await self._send(writer, self._bad(rid, "'timeout' must be a number"))
            return
        if timeout is not None and timeout <= 0:
            # The chaos suite's expired-deadline fault class: a request
            # whose deadline has already passed is refused up front.
            self._note_rejection(tenant, "deadline")
            await self._send(
                writer,
                error_payload(
                    "deadline",
                    f"request deadline already expired (timeout={timeout})",
                    request_id=rid,
                ),
            )
            return
        max_matches = request.get("max_matches")
        if max_matches is not None and (
            type(max_matches) is not int or max_matches < 0
        ):
            await self._send(
                writer, self._bad(rid, "'max_matches' must be a non-negative int")
            )
            return
        request_key = request.get("request_key")
        if request_key is not None and (
            not isinstance(request_key, str) or not request_key
        ):
            await self._send(
                writer,
                self._bad(rid, "'request_key' must be a non-empty string"),
            )
            return
        if request_key is not None:
            # Idempotent retry: a client that lost its connection after
            # we executed (but before it read the response) resends under
            # the same key.  Replay the stored outcome — checked *before*
            # admission, so a replay costs no quota and cannot be bounced
            # by backpressure the original already paid for.
            cached = self._ledger.get(tenant, request_key)
            if cached is not None:
                self._dedup_counter.labels(tenant=tenant).inc()
                response = dict(cached)
                response["id"] = rid
                response["deduplicated"] = True
                await self._send(writer, response)
                return

        # Built before admission: a request whose limits cannot be built
        # must fail before it holds a run slot.
        limits = self._admission.quota_for(tenant).merge_limits(
            timeout=timeout, max_matches=max_matches
        )
        if not await self._admit(tenant, rid, writer):
            return
        token = CancelToken()
        self._active_tokens.add(token)
        self._inflight += 1
        started = time.perf_counter()
        rows_scanned = 0
        matches = 0
        try:
            try:
                result, report = await asyncio.get_running_loop().run_in_executor(
                    self._pool,
                    self._run_query,
                    tenant,
                    sql,
                    limits,
                    token,
                )
            except Exception as error:
                response = error_for_exception(error, rid)
            else:
                rows_scanned = report.rows_scanned
                matches = report.matches
                diagnostics = result.diagnostics
                response = {
                    "id": rid,
                    "ok": True,
                    "columns": list(result.columns),
                    "rows": [list(row) for row in result.rows],
                    "row_count": len(result.rows),
                    "matches": report.matches,
                    "limit_hit": diagnostics.limit_hit,
                    "limits_hit": list(diagnostics.limits_hit),
                    "elapsed_ms": round(
                        (time.perf_counter() - started) * 1000.0, 3
                    ),
                    "diagnostics": diagnostics.to_dict(),
                }
        finally:
            self._active_tokens.discard(token)
            self._inflight -= 1
            self._admission.finish(
                tenant, rows_scanned=rows_scanned, matches=matches
            )
            await self._notify_slots()
        if self._slow_log is not None and self._slow_log.maybe_record(
            elapsed_s=time.perf_counter() - started,
            sql=sql,
            tenant=tenant,
            ok=bool(response.get("ok")),
            rows_scanned=rows_scanned,
            matches=matches,
        ):
            self._slow_queries_counter.inc()
        if request_key is not None:
            # Record the outcome (success *or* execution error: the
            # request ran once; a retry deserves its result, not a second
            # execution) before attempting the send — the send is the
            # step a connection loss can destroy.
            self._ledger.put(tenant, request_key, dict(response))
        await self._send(writer, response)

    def _run_query(self, tenant, sql, limits, token):
        """Worker-thread body of one query (the chaos hook lives here)."""
        if self._fault_injector is not None:
            self._fault_injector("query", tenant, sql)
        return self._executor.execute_with_report(
            sql, limits=limits, cancel=token
        )

    # -- subscriptions ---------------------------------------------------

    def _subscription_store(
        self,
        tenant: str,
        subscription: str,
        diagnostics: Optional[Diagnostics] = None,
    ) -> CheckpointStore:
        """The checkpoint store for one subscription.

        One replica is ``checkpoint_dir/<file>``; with
        ``checkpoint_replicas > 1`` the same filename fans out to
        ``replica0..N-1`` subdirectories of the checkpoint dir — one
        failure domain per subdirectory (mount them on different volumes
        in production), repaired on load and counted in the registry.
        """
        filename = (
            f"{_safe_filename(tenant)}__{_safe_filename(subscription)}.ckpt"
        )
        directories = (
            [
                os.path.join(self._checkpoint_dir, f"replica{index}")
                for index in range(self._checkpoint_replicas)
            ]
            if self._checkpoint_replicas > 1
            else [self._checkpoint_dir]
        )
        return CheckpointStore(
            *(os.path.join(directory, filename) for directory in directories),
            repair_counter=self._replica_repair_counter,
            diagnostics=diagnostics,
        )

    async def _handle_subscribe(
        self, request: dict, rid: Any, tenant: str, writer: asyncio.StreamWriter
    ) -> None:
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            await self._send(writer, self._bad(rid, "'sql' must be a query string"))
            return
        subscription = request.get("subscription")
        if not isinstance(subscription, str) or not subscription:
            await self._send(
                writer,
                self._bad(rid, "'subscription' must be a non-empty string id"),
            )
            return
        after_seq = request.get("after_seq", -1)
        if type(after_seq) is not int:  # a JSON bool is an int subclass
            await self._send(writer, self._bad(rid, "'after_seq' must be an int"))
            return
        key = (tenant, subscription)
        if key in self._active_subscriptions:
            self._note_rejection(tenant, "subscription_busy")
            await self._send(
                writer,
                error_payload(
                    "subscription_busy",
                    f"subscription {subscription!r} is already being served "
                    f"for tenant {tenant!r}",
                    retry_after=BACKPRESSURE_RETRY_AFTER,
                    request_id=rid,
                ),
            )
            return
        if not await self._admit(tenant, rid, writer):
            return

        loop = asyncio.get_running_loop()
        token = CancelToken()
        queue: asyncio.Queue = asyncio.Queue(maxsize=SUBSCRIPTION_QUEUE_DEPTH)
        self._active_subscriptions.add(key)
        # Live lag view for the stats op: delivery high-water mark vs.
        # the runner's source offset, plus the queue depth between them.
        sub_state = {
            "queue": queue,
            "streaming": None,
            "delivered": 0,
            "last_seq": after_seq,
        }
        self._subscription_state[key] = sub_state
        self._active_tokens.add(token)
        self._inflight += 1
        delivered = 0
        rows_scanned = 0
        try:
            try:
                store = None
                resumed = False
                diagnostics = Diagnostics()
                if self._checkpoint_dir:
                    store = self._subscription_store(
                        tenant, subscription, diagnostics
                    )
                    # Resume from the checkpoint ONLY if the client
                    # confirms (via after_seq) receipt of every match
                    # the checkpoint's high-water mark would suppress.
                    # A crash can persist a high-water mark for matches
                    # that never reached the subscriber; resuming then
                    # would silently drop them.  Replaying from scratch
                    # re-emits everything and the after_seq filter
                    # below restores exactly-once.
                    resumed = (
                        store.exists()
                        and after_seq >= _checkpoint_high_water(store)
                    )
                parsed = parse_query(sql)
                streaming = self._executor.stream(
                    sql,
                    sequenced_source(
                        self._catalog.table(parsed.table), parsed.sequence_by
                    ),
                    store=store,
                    checkpoints=CheckpointPolicy(
                        # Checkpoint *behind* delivery: after a crash the
                        # runner re-emits a suffix and the subscriber's
                        # after_seq filter dedups it — exactly-once
                        # end-to-end (docs/serving.md).
                        every_rows=self._subscription_checkpoint_every,
                        on_emit=False,
                    ),
                    resume=resumed,
                    stop=token,
                    diagnostics=diagnostics,
                )
            except ReproError as error:
                await self._send(writer, error_for_exception(error, rid))
                return
            sub_state["streaming"] = streaming

            await self._send(
                writer,
                {
                    "id": rid,
                    "ok": True,
                    "event": "begin",
                    "columns": list(streaming.columns),
                    "resumed": resumed,
                },
            )
            producer = loop.run_in_executor(
                self._pool,
                self._pump_subscription,
                tenant,
                sql,
                streaming,
                after_seq,
                token,
                queue,
            )
            last_seq = after_seq
            try:
                while True:
                    kind, a, b = await queue.get()
                    if kind == "row":
                        await self._send(
                            writer,
                            {"id": rid, "event": "row", "seq": a, "values": b},
                        )
                        delivered += 1
                        last_seq = a
                        sub_state["delivered"] = delivered
                        sub_state["last_seq"] = last_seq
                    elif kind == "end":
                        if token.cancelled:
                            # The SERVER cut this stream short (drain or
                            # forced restart), not the query: a clean
                            # ``end`` would tell the subscriber the
                            # stream is complete.  Send a retryable
                            # ``unavailable`` error instead so failover
                            # clients resume from last_seq elsewhere.
                            payload = error_payload(
                                "unavailable",
                                f"subscription interrupted ({token()}); "
                                f"resume with after_seq={last_seq}",
                                retry_after=BACKPRESSURE_RETRY_AFTER,
                                request_id=rid,
                            )
                            payload["event"] = "error"
                            await self._send(writer, payload)
                            break
                        await self._send(
                            writer,
                            {
                                "id": rid,
                                "ok": True,
                                "event": "end",
                                "rows": delivered,
                                "last_seq": last_seq,
                                "limit_hit": diagnostics.limit_hit,
                                "diagnostics": diagnostics.to_dict(),
                            },
                        )
                        break
                    else:  # error
                        payload = error_for_exception(a, rid)
                        payload["event"] = "error"
                        await self._send(writer, payload)
                        break
            except (ConnectionResetError, BrokenPipeError, OSError):
                token.cancel("client disconnected mid-stream")
                raise
            finally:
                token.cancel("subscription closed")
                await self._drain_subscription_queue(queue, producer)
                rows_scanned = streaming.runner.source_offset
        finally:
            self._active_subscriptions.discard(key)
            self._subscription_state.pop(key, None)
            self._active_tokens.discard(token)
            self._inflight -= 1
            self._admission.finish(
                tenant, rows_scanned=rows_scanned, matches=delivered
            )
            await self._notify_slots()

    def _pump_subscription(
        self, tenant, sql, streaming, after_seq, token, queue
    ) -> None:
        """Worker-thread body of one subscription: drive the recovering
        runner and push frames at the consumer's pace (a full queue
        blocks here, which *is* the backpressure onto the matcher)."""

        def put(item) -> bool:
            while True:
                try:
                    future = asyncio.run_coroutine_threadsafe(
                        queue.put(item), self._loop
                    )
                except RuntimeError:  # loop already closed (forced stop)
                    return False
                try:
                    future.result(timeout=0.5)
                    return True
                except concurrent.futures.TimeoutError:
                    future.cancel()
                    if token.cancelled:
                        return False
                except Exception:
                    return False

        try:
            if self._fault_injector is not None:
                self._fault_injector("subscribe", tenant, sql)
            for seq, values in streaming.keyed_rows:
                if seq <= after_seq:
                    # Already delivered to this subscriber before a
                    # reconnect/restart; suppress for exactly-once.
                    continue
                if not put(("row", seq, list(values))):
                    return
            put(("end", None, None))
        except BaseException as error:  # noqa: BLE001 - reported to client
            put(("error", error, None))

    @staticmethod
    async def _drain_subscription_queue(queue: asyncio.Queue, producer) -> None:
        """Unblock the producer thread after the consumer stops reading."""
        while True:
            while not queue.empty():
                queue.get_nowait()
            if producer.done():
                break
            await asyncio.sleep(0.005)


class ServerThread:
    """Run a :class:`QueryServer` on a dedicated event-loop thread.

    The synchronous embedding used by the CLI-less callers — tests, the
    bench load generator, and notebooks::

        with ServerThread(server) as handle:
            client = ServeClient(*handle.address)
            ...

    ``stop()`` drains gracefully; ``force_stop()`` is the chaos
    harness's kill switch (abrupt, skips the grace period).
    """

    def __init__(self, server: QueryServer):
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stopped = False

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as error:  # surfaced from start()
            self._startup_error = error
            self._started.set()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._started.is_set():
            raise ExecutionError("server failed to start within 10s")
        return self

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def _finish(self, make_coroutine) -> None:
        if self._stopped:
            return
        self._stopped = True
        try:
            asyncio.run_coroutine_threadsafe(
                make_coroutine(), self._loop
            ).result(timeout=30.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)

    def stop(self, grace: Optional[float] = None) -> None:
        """Graceful drain, then stop the loop and join the thread."""
        self._finish(lambda: self.server.drain(grace))

    def force_stop(self) -> None:
        """Abrupt stop (simulated crash/restart)."""
        self._finish(self.server.force_stop)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        if not self._stopped:
            self.stop(grace=1.0)
