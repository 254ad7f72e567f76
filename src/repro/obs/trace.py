"""Span-based tracing for one query execution.

A :class:`Trace` is a lightweight tree of timed :class:`Span` objects,
threaded from :meth:`repro.engine.session.Session.execute` through
planning, the cluster scan, and the recovery runner.  It is
deliberately *not* a distributed-tracing client: there is no sampling,
no export, no context variables — one ``Trace`` per query, owned by
the caller, read by the profile renderer (:mod:`repro.obs.profile`).

Design constraints, in order:

1. **Tracing off must cost nothing.**  Every call site guards with
   ``if trace is not None`` — no null-object indirection on the hot
   path, and the matcher inner loops are *never* spanned per element
   (per-cluster spans bound the span count to the partition count,
   and :class:`~repro.match.base.Instrumentation` carries the per-test
   counters the profile folds in afterwards).
2. **Bounded memory.**  A pathological query over a million clusters
   must not materialize a million spans: past ``max_spans`` new spans
   are counted in :attr:`Trace.dropped` instead of recorded, and the
   profile says so.

Usage::

    trace = Trace()
    with trace.span("execute") as root:
        with trace.span("plan", cache="miss"):
            ...
    trace.root.duration_s   # wall time of the outermost span
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["Span", "Trace"]

#: Default ceiling on recorded spans per trace.
MAX_SPANS = 10_000


class Span:
    """One named, timed tree node with free-form attributes.

    ``duration_s`` is ``None`` while the span is open.
    """

    __slots__ = ("name", "attrs", "children", "start", "duration_s")

    def __init__(self, name: str, attrs: Optional[dict] = None):
        self.name = name
        self.attrs: dict = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        self.start: Optional[float] = None
        self.duration_s: Optional[float] = None

    def annotate(self, **attrs) -> "Span":
        """Merge attributes into the span (last write wins); chainable."""
        self.attrs.update(attrs)
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First descendant-or-self with ``name`` (depth-first), if any."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        return [span for span in self.walk() if span.name == name]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        timing = (
            f"{self.duration_s * 1000.0:.3f}ms"
            if self.duration_s is not None
            else "open"
        )
        return f"Span({self.name!r}, {timing}, {len(self.children)} children)"


class Trace:
    """The span tree and open-span stack for one query execution.

    Single-threaded by contract: one trace belongs to one query, and the
    executor and the recovery runner mutate it from the thread driving
    the query.
    """

    __slots__ = ("roots", "dropped", "_stack", "_clock", "_max_spans", "_count")

    def __init__(
        self,
        *,
        max_spans: int = MAX_SPANS,
        clock=time.perf_counter,
    ):
        if max_spans < 1:
            raise ValueError(f"max_spans must be positive, got {max_spans}")
        self.roots: list[Span] = []
        self.dropped = 0
        self._stack: list[Span] = []
        self._clock = clock
        self._max_spans = max_spans
        self._count = 0

    @property
    def root(self) -> Optional[Span]:
        """The first top-level span (the query's outermost phase)."""
        return self.roots[0] if self.roots else None

    @property
    def span_count(self) -> int:
        return self._count

    def _admit(self) -> bool:
        if self._count >= self._max_spans:
            self.dropped += 1
            return False
        self._count += 1
        return True

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a child span of the innermost open span; times its body.

        Over-budget spans still yield a live :class:`Span` (so call
        sites can annotate unconditionally) but are not recorded in the
        tree — only counted in :attr:`dropped`.
        """
        span = Span(name, attrs)
        admitted = self._admit()
        if admitted:
            if self._stack:
                self._stack[-1].children.append(span)
            else:
                self.roots.append(span)
            self._stack.append(span)
        span.start = self._clock()
        try:
            yield span
        finally:
            span.duration_s = self._clock() - span.start
            if admitted:
                self._stack.pop()

    def to_dict(self) -> dict:
        return {
            "spans": [root.to_dict() for root in self.roots],
            "dropped": self.dropped,
        }

    def find(self, name: str) -> Optional[Span]:
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def find_all(self, name: str) -> list[Span]:
        return [
            span
            for root in self.roots
            for span in root.find_all(name)
        ]

    def __repr__(self) -> str:
        return (
            f"Trace({self._count} spans, {len(self.roots)} roots, "
            f"dropped={self.dropped})"
        )
