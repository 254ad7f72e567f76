"""A thin blocking client for the query service, with failover.

:class:`ServeClient` speaks the newline-delimited JSON protocol over a
plain socket — no asyncio, so it drops into scripts, tests, the bench
load generator, and the CLI without ceremony::

    with ServeClient("127.0.0.1", 7433, tenant="acme") as client:
        reply = client.query("SELECT ... FROM quote ...")
        for row in reply.rows:
            ...

Failures raise :class:`ServeError` carrying the server's stable error
``code`` and optional ``retry_after`` hint; callers that want to retry
on admission rejections catch it and check :attr:`ServeError.retryable`.

Failover (on by default, disable with ``failover=None``): when the
connection drops the client reconnects with full-jitter exponential
backoff and retries.  Queries carry an idempotent ``request_key`` so a
retry of a request the server already executed is *deduplicated*
server-side — replayed from the request ledger, not re-run.  A
``subscribe`` iterator transparently re-subscribes from the last acked
sequence, preserving exactly-once delivery across server restarts.
Only when retries are exhausted does :class:`ConnectionLostError`
escape, carrying the last acked sequence for manual resume — never a
raw socket error mid-stream.  See docs/serving.md ("Client failover").
"""

from __future__ import annotations

import random
import socket
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.serve.protocol import MAX_FRAME_BYTES, decode_frame, encode_frame


class ServeError(Exception):
    """A structured failure response from the server."""

    def __init__(
        self,
        code: str,
        message: str,
        retry_after: Optional[float] = None,
    ):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.retry_after = retry_after

    @property
    def retryable(self) -> bool:
        """Whether retrying after ``retry_after`` seconds can succeed."""
        return self.code in {
            "backpressure",
            "quota_exhausted",
            "subscription_busy",
            "unavailable",
        }


class ConnectionLostError(ServeError, ConnectionError):
    """The connection died and failover could not re-establish it.

    ``last_seq`` is the highest subscription sequence acked before the
    loss (-1 outside a subscription, or before the first row): pass it
    as ``after_seq`` to a fresh ``subscribe`` call to resume manually
    with exactly-once delivery intact.  Derives from
    :class:`ConnectionError` so pre-failover callers that guarded with
    ``except (ConnectionError, OSError)`` keep working.
    """

    def __init__(
        self,
        message: str,
        *,
        last_seq: int = -1,
        attempts: int = 0,
    ):
        ServeError.__init__(self, "connection_lost", message)
        self.last_seq = last_seq
        self.attempts = attempts


@dataclass(frozen=True)
class FailoverPolicy:
    """Reconnect/retry behavior for :class:`ServeClient`.

    Delays follow full-jitter exponential backoff: before reconnect
    attempt ``n`` the client sleeps a uniform sample from
    ``[base*(1-jitter), base)`` where ``base`` doubles from ``backoff``
    up to ``max_backoff``.  Full jitter (the default) decorrelates the
    reconnect storm after a server restart — without it every client of
    a restarted server retries on the same schedule and arrives in the
    same instant.
    """

    max_retries: int = 4
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(
        self, attempt: int, rng: Optional[Callable[[], float]] = None
    ) -> float:
        """Sleep before reconnect attempt ``attempt`` (1-based)."""
        base = min(
            self.backoff * self.backoff_factor ** max(attempt - 1, 0),
            self.max_backoff,
        )
        if self.jitter <= 0.0:
            return base
        sample = (rng if rng is not None else random.random)()
        return base * (1.0 - self.jitter) + base * self.jitter * sample


#: Sentinel distinguishing "use the default policy" from "no failover".
_DEFAULT_FAILOVER = FailoverPolicy()


@dataclass
class QueryReply:
    """A successful query response, unpacked."""

    columns: list[str]
    rows: list[list[Any]]
    matches: int
    limit_hit: bool
    limits_hit: list[str]
    elapsed_ms: float
    diagnostics: dict = field(default_factory=dict)
    deduplicated: bool = False


@dataclass(frozen=True)
class SubscriptionRow:
    """One delivered match: remember ``seq`` to resume exactly-once."""

    seq: int
    values: list[Any]


class ServeClient:
    """One connection to a :class:`~repro.serve.server.QueryServer`.

    ``failover`` controls reconnect-and-retry on dropped connections
    (``None`` disables it; lost connections then raise immediately —
    still as :class:`ConnectionLostError` inside a subscription).
    ``sleep`` and ``rng`` are injectable for deterministic tests.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = "default",
        timeout: Optional[float] = 30.0,
        failover: Optional[FailoverPolicy] = _DEFAULT_FAILOVER,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[Callable[[], float]] = None,
    ):
        self.tenant = tenant
        self._host = host
        self._port = port
        self._timeout = timeout
        self._failover = failover
        self._sleep = sleep
        self._rng = rng
        self._next_id = 0
        # Stable per-client prefix for idempotent request keys: retries
        # of one logical request reuse its key; distinct requests never
        # collide, even across clients.
        self._client_key = uuid.uuid4().hex[:12]
        self.reconnects = 0
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._connect()

    # -- plumbing -------------------------------------------------------

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._file = self._sock.makefile("rb")

    def _drop_connection(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _reconnect_with_backoff(self, cause: Exception, *, last_seq: int = -1) -> None:
        """Re-establish the connection or raise :class:`ConnectionLostError`.

        Counts attempts from scratch each time it is called — the retry
        budget guards one connection loss, not the client's lifetime.
        """
        policy = self._failover
        if policy is None:
            raise ConnectionLostError(
                f"connection to {self._host}:{self._port} lost and failover "
                f"is disabled ({cause})",
                last_seq=last_seq,
            ) from cause
        attempt = 0
        while True:
            attempt += 1
            if attempt > policy.max_retries:
                raise ConnectionLostError(
                    f"connection to {self._host}:{self._port} lost; "
                    f"{policy.max_retries} reconnect attempts failed "
                    f"({cause})",
                    last_seq=last_seq,
                    attempts=policy.max_retries,
                ) from cause
            self._sleep(policy.delay(attempt, rng=self._rng))
            self._drop_connection()
            try:
                self._connect()
            except OSError as error:
                cause = error
                continue
            self.reconnects += 1
            return

    def _send(self, payload: dict) -> None:
        self._sock.sendall(encode_frame(payload))

    def _recv(self) -> dict:
        line = self._file.readline(MAX_FRAME_BYTES + 2)
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_frame(line)

    def request(self, op: str, **fields: Any) -> dict:
        """Send one request and return its (raw) response payload.

        Raises :class:`ServeError` for ``"ok": false`` responses.  With
        failover enabled, a dropped connection is retried transparently;
        ``query`` requests carry an idempotent ``request_key``, so the
        server deduplicates a retry it already executed.
        """
        self._next_id += 1
        rid = self._next_id
        payload = {"id": rid, "op": op, "tenant": self.tenant, **fields}
        if op == "query" and "request_key" not in payload:
            payload["request_key"] = f"{self._client_key}-{rid}"
        while True:
            try:
                if self._sock is None:
                    self._connect()
                self._send(payload)
                reply = self._recv()
            except ConnectionError as error:
                if self._failover is None:
                    self._drop_connection()
                    raise
                self._reconnect_with_backoff(error)
                continue
            return self._check(reply)

    @staticmethod
    def _check(reply: dict) -> dict:
        if reply.get("ok"):
            return reply
        error = reply.get("error") or {}
        raise ServeError(
            error.get("code", "internal"),
            error.get("message", "unknown server error"),
            error.get("retry_after"),
        )

    # -- operations -----------------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def stats(self) -> dict:
        return self.request("stats")["stats"]

    def metrics(self) -> str:
        """The server's metrics registry in Prometheus text form."""
        return self.request("metrics")["metrics"]

    def shutdown(self) -> dict:
        """Ask the server to drain (needs ``allow_remote_shutdown``)."""
        return self.request("shutdown")

    def query(
        self,
        sql: str,
        *,
        timeout: Optional[float] = None,
        max_matches: Optional[int] = None,
    ) -> QueryReply:
        fields: dict[str, Any] = {"sql": sql}
        if timeout is not None:
            fields["timeout"] = timeout
        if max_matches is not None:
            fields["max_matches"] = max_matches
        reply = self.request("query", **fields)
        return QueryReply(
            columns=reply["columns"],
            rows=reply["rows"],
            matches=reply["matches"],
            limit_hit=reply["limit_hit"],
            limits_hit=reply["limits_hit"],
            elapsed_ms=reply["elapsed_ms"],
            diagnostics=reply.get("diagnostics", {}),
            deduplicated=bool(reply.get("deduplicated", False)),
        )

    def subscribe(
        self,
        sql: str,
        subscription: str,
        *,
        after_seq: int = -1,
        on_begin: Optional[Callable[[dict], None]] = None,
    ) -> Iterator[SubscriptionRow]:
        """Stream matches; yields :class:`SubscriptionRow` until the
        server sends ``end`` (StopIteration) or ``error`` (ServeError).

        ``after_seq`` is the exactly-once high-water mark: pass the
        highest ``seq`` previously received and the server suppresses
        everything at or below it.  The final ``end`` frame is stored on
        :attr:`last_end` after the iterator is exhausted.

        With failover enabled, a connection lost mid-stream triggers a
        reconnect and a fresh ``subscribe`` with ``after_seq`` set to
        the last sequence this iterator yielded — the server's
        checkpointed high-water mark plus that filter preserve
        exactly-once delivery across restarts.  When retries run out,
        :class:`ConnectionLostError` carries the last acked seq.
        """
        begin = self._begin_subscription(sql, subscription, after_seq)
        if on_begin is not None:
            on_begin(begin)
        self.last_end: Optional[dict] = None
        return self._subscription_rows(sql, subscription, after_seq)

    def _begin_subscription(
        self, sql: str, subscription: str, after_seq: int
    ) -> dict:
        """Send the subscribe frame and return the checked begin frame."""
        self._next_id += 1
        self._send(
            {
                "id": self._next_id,
                "op": "subscribe",
                "tenant": self.tenant,
                "sql": sql,
                "subscription": subscription,
                "after_seq": after_seq,
            }
        )
        return self._check(self._recv())

    def _resume_subscription(
        self, cause: Exception, sql: str, subscription: str, last_seq: int
    ) -> None:
        """Reconnect and re-subscribe after ``last_seq``, or raise.

        ``subscription_busy`` from the server is retried too: after a
        mid-stream disconnect the *old* producer task may briefly still
        hold the subscription until the server notices the dead socket.
        """
        policy = self._failover
        if policy is None:
            raise ConnectionLostError(
                f"subscription {subscription!r} lost its connection and "
                f"failover is disabled ({cause}); resume with "
                f"after_seq={last_seq}",
                last_seq=last_seq,
            ) from cause
        attempt = 0
        while True:
            attempt += 1
            if attempt > policy.max_retries:
                raise ConnectionLostError(
                    f"subscription {subscription!r} lost its connection; "
                    f"{policy.max_retries} resume attempts failed ({cause}); "
                    f"resume with after_seq={last_seq}",
                    last_seq=last_seq,
                    attempts=policy.max_retries,
                ) from cause
            self._sleep(policy.delay(attempt, rng=self._rng))
            self._drop_connection()
            try:
                self._connect()
                self._begin_subscription(sql, subscription, last_seq)
            except (OSError, ConnectionError) as error:
                cause = error
                continue
            except ServeError as error:
                if error.retryable:
                    cause = error
                    continue
                raise
            self.reconnects += 1
            return

    def _subscription_rows(
        self, sql: str, subscription: str, after_seq: int
    ) -> Iterator[SubscriptionRow]:
        last_seq = after_seq
        while True:
            try:
                frame = self._recv()
            except ConnectionError as error:
                self._resume_subscription(error, sql, subscription, last_seq)
                continue
            event = frame.get("event")
            if event == "row":
                last_seq = frame["seq"]
                yield SubscriptionRow(frame["seq"], frame["values"])
            elif event == "end":
                self.last_end = frame
                return
            else:  # error frame
                try:
                    self._check(frame)
                except ServeError as error:
                    # "unavailable" means the server is going away (drain
                    # or restart) mid-stream: resume like a dropped
                    # connection instead of surfacing a terminal error.
                    if error.code == "unavailable":
                        if self._failover is not None:
                            self._resume_subscription(
                                error, sql, subscription, last_seq
                            )
                            continue
                        raise ConnectionLostError(
                            f"subscription {subscription!r} interrupted by "
                            f"the server and failover is disabled "
                            f"({error.message}); resume with "
                            f"after_seq={last_seq}",
                            last_seq=last_seq,
                        ) from error
                    raise
                return

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            finally:
                if self._sock is not None:
                    self._sock.close()
        elif self._sock is not None:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
