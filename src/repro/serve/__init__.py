"""Always-on query service: serve SQL-TS queries to concurrent tenants.

The paper's optimized engine is meant to live *inside a database system*
serving many queries at once; this package is that front door.  It
composes the engine's layers — the executor and its plan cache
(:mod:`repro.engine.executor`), error policies and budgets
(:mod:`repro.resilience`), and crash-recoverable streaming
(:mod:`repro.recovery`) — behind one long-lived asyncio server speaking
a newline-delimited JSON protocol.  Each query runs serially on one
executor thread; the server starts no processes:

- :mod:`repro.serve.protocol` — the wire format: one JSON object per
  line, structured error payloads with stable codes and ``retry_after``
  hints;
- :mod:`repro.serve.tenants` — per-tenant quotas and admission control:
  per-query :class:`~repro.resilience.ResourceLimits`, concurrency and
  queue bounds, and a row-budget token bucket that rejects with
  ``retry_after`` when a tenant exhausts its allowance;
- :mod:`repro.serve.server` — the :class:`QueryServer`: named
  registered tables, one shared executor (and plan cache) across all
  connections, bounded queues with backpressure, per-request deadlines,
  graceful drain, and streaming subscriptions with per-subscriber
  exactly-once delivery;
- :mod:`repro.serve.client` — a thin blocking client
  (:class:`ServeClient`) for scripts, benchmarks, and the CLI, with
  transparent failover: full-jitter reconnect (:class:`FailoverPolicy`),
  idempotent request keys deduplicated server-side, subscription resume
  from the last acked sequence, and a typed
  :class:`ConnectionLostError` when retries run out.

See ``docs/serving.md`` for the protocol and semantics, and
``python -m repro serve --help`` for the CLI entry point.
"""

from repro.serve.client import (
    ConnectionLostError,
    FailoverPolicy,
    QueryReply,
    ServeClient,
    ServeError,
    SubscriptionRow,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_payload,
)
from repro.serve.server import QueryServer, ServerThread
from repro.serve.tenants import (
    AdmissionController,
    Rejection,
    RequestLedger,
    TenantQuota,
)

__all__ = [
    "AdmissionController",
    "ConnectionLostError",
    "FailoverPolicy",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "QueryReply",
    "QueryServer",
    "Rejection",
    "RequestLedger",
    "ServeClient",
    "ServeError",
    "ServerThread",
    "SubscriptionRow",
    "TenantQuota",
    "decode_frame",
    "encode_frame",
    "error_payload",
]
