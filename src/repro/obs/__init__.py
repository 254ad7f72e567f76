"""The engine-wide flight recorder: metrics, traces, profiles, slow log.

Three complementary observability surfaces (``docs/observability.md``):

- :class:`MetricsRegistry` — process-lifetime counters/gauges/histograms
  with Prometheus text exposition and a JSON snapshot (stdlib-only);
- :class:`Trace` / :class:`Span` — the span tree of *one* query,
  threaded through planning, scanning, and the recovery runner;
  rendered as a :class:`QueryProfile` (EXPLAIN ANALYZE-style operator
  tree) on ``Result.profile``;
- :class:`SlowQueryLog` — threshold-gated JSON-lines logging in the
  serving layer.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import QueryProfile
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import Span, Trace

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryProfile",
    "SlowQueryLog",
    "Span",
    "Trace",
]
