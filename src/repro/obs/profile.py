"""EXPLAIN ANALYZE-style per-query profiles.

A :class:`QueryProfile` is the readable face of the flight recorder:
the span tree of one traced execution
(:class:`~repro.obs.trace.Trace`) folded together with the execution
report's exact counters — matcher chosen, plan-cache hit/miss, rows
scanned, predicate tests, shift/next skips, band-fusion usage, budget
spend — and rendered as an operator tree the way ``EXPLAIN ANALYZE``
renders a plan::

    execute                              4.812ms  matcher=ops matches=11
    ├─ plan                              0.644ms  cache=miss degraded=False
    └─ scan                              4.102ms  clusters=1 searched=1
       └─ cluster                        4.055ms  rows=1000 tests=4195 ...

The profile rides on :attr:`repro.engine.result.Result.profile` when a
query runs with a trace, and is printed by ``repro query --profile``
and ``repro explain --analyze``.  It is strictly observational: the
result rows of a traced run are byte-identical to an untraced run (the
``tracing`` gate of ``repro.bench.gates`` checks it).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.trace import Span, Trace

__all__ = ["QueryProfile"]

#: Attribute keys rendered in a stable order before any others.
_ATTR_ORDER = (
    "cache",
    "matcher",
    "degraded",
    "clusters",
    "clusters_searched",
    "grouped",
    "sorted",
    "reused",
    "rows",
    "rows_scanned",
    "tests",
    "matches",
    "skips",
    "skip_distance",
    "band_fused_elements",
    "mode",
    "workers",
    "unit",
    "partition",
)


def _format_duration(duration_s: Optional[float]) -> str:
    if duration_s is None:
        return "     --  "
    return f"{duration_s * 1000.0:9.3f}ms"


def _format_attrs(attrs: dict) -> str:
    ordered = [key for key in _ATTR_ORDER if key in attrs]
    ordered += [key for key in sorted(attrs) if key not in _ATTR_ORDER]
    return " ".join(f"{key}={attrs[key]}" for key in ordered)


class QueryProfile:
    """The profile of one traced execution: span tree plus counters."""

    __slots__ = (
        "trace",
        "matcher",
        "matches",
        "clusters",
        "clusters_searched",
        "rows_scanned",
        "predicate_tests",
        "degraded",
    )

    def __init__(self, trace: Trace, report) -> None:
        self.trace = trace
        self.matcher = report.matcher
        self.matches = report.matches
        self.clusters = report.clusters
        self.clusters_searched = report.clusters_searched
        self.rows_scanned = report.rows_scanned
        self.predicate_tests = report.predicate_tests
        self.degraded = report.diagnostics.degraded

    @property
    def wall_s(self) -> Optional[float]:
        """Total wall time: the outermost span's duration."""
        root = self.trace.root
        return root.duration_s if root is not None else None

    def to_dict(self) -> dict:
        return {
            "matcher": self.matcher,
            "matches": self.matches,
            "clusters": self.clusters,
            "clusters_searched": self.clusters_searched,
            "rows_scanned": self.rows_scanned,
            "predicate_tests": self.predicate_tests,
            "degraded": self.degraded,
            "wall_s": self.wall_s,
            "trace": self.trace.to_dict(),
        }

    def render(self) -> str:
        """The operator tree as aligned text (the ``--profile`` output)."""
        wall = self.wall_s
        header = (
            f"Query Profile  matcher={self.matcher} matches={self.matches} "
            f"rows_scanned={self.rows_scanned} "
            f"predicate_tests={self.predicate_tests}"
        )
        if wall is not None:
            header += f" wall={wall * 1000.0:.3f}ms"
        lines = [header]
        for root in self.trace.roots:
            lines.extend(_render_span(root, prefix="", is_last=True, top=True))
        if self.trace.dropped:
            lines.append(
                f"({self.trace.dropped} span(s) over the trace budget "
                f"were dropped; counters above remain exact)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        wall = self.wall_s
        timing = f", wall={wall * 1000.0:.3f}ms" if wall is not None else ""
        return (
            f"QueryProfile(matcher={self.matcher!r}, "
            f"matches={self.matches}{timing})"
        )


def _render_span(span: Span, prefix: str, is_last: bool, top: bool = False):
    """One span line plus its subtree, with box-drawing connectors."""
    if top:
        connector = ""
        child_prefix = ""
    else:
        connector = "└─ " if is_last else "├─ "
        child_prefix = prefix + ("   " if is_last else "│  ")
    label = f"{prefix}{connector}{span.name}"
    attrs = _format_attrs(span.attrs)
    line = f"{label:<40s} {_format_duration(span.duration_s)}"
    if attrs:
        line += f"  {attrs}"
    yield line
    for index, child in enumerate(span.children):
        yield from _render_span(
            child, child_prefix, index == len(span.children) - 1
        )
