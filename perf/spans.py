"""Spans recorded by the benchmark's own wrappers around layer calls.

A traced run patches a timing wrapper onto each name a caller looks up
(``repro.engine.executor.parse_query``, ``OpsStreamMatcher.push``, ...).
Each wrapped call becomes a span: a name, start and end times, its parent
span, and the id of the operation (one query, one served request, one
stream segment) that all spans of that operation share.

Repeated calls with the same name under the same parent are merged into
one record that keeps the call count, the first start, the last end and
the summed busy time.  That keeps a traced scan of thousands of clusters
(or a stream of a million ``push`` calls) at a handful of records per
operation, while self time stays exact: a layer's self time is its busy
time minus the busy time of its children.

Wrappers record only on the thread that created the :class:`Tracer`,
inside an open operation, in the process that created it: partition
workers forked by the parallel pool, and pool threads, run the original
code path untouched.

:class:`LayerSums` is the server-side variant: no operations and no
tree, only per-layer call counts, busy time and bytes, summed across the
server's threads under a lock.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator, Optional


class Node:
    """One span record: a call (or merged calls) of one layer."""

    __slots__ = ("id", "name", "parent", "op", "children", "calls", "busy", "start", "end")

    def __init__(self, node_id: int, name: str, parent: Optional["Node"], op: int):
        self.id = node_id
        self.name = name
        self.parent = parent
        self.op = op
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.busy = 0.0
        self.start: Optional[float] = None
        self.end: Optional[float] = None

    def self_time(self) -> float:
        return self.busy - sum(child.busy for child in self.children.values())

    def walk(self) -> Iterator["Node"]:
        yield self
        for child in self.children.values():
            yield from child.walk()


class Tracer:
    """In-memory span recorder for one single-threaded benchmark run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.ops: list[Node] = []
        #: Counts observed at layer boundaries (kernels lowered, bytes...).
        self.counts: Counter = Counter()
        self._clock = clock
        self._stack: list[Node] = []
        self._next_id = 0
        self._thread: Optional[int] = threading.get_ident()
        # A forked child (a parallel pool worker) inherits the patched
        # functions; it must run them as if unpatched.
        os.register_at_fork(after_in_child=self._stop_recording)

    def _stop_recording(self) -> None:
        self._thread = None

    def recording(self) -> bool:
        return bool(self._stack) and threading.get_ident() == self._thread

    def _node(self, name: str, parent: Optional[Node], op: int) -> Node:
        self._next_id += 1
        return Node(self._next_id, name, parent, op)

    @contextmanager
    def op(self, name: str):
        """Open one operation; every span recorded inside shares its id."""
        root = self._node(name, None, len(self.ops))
        self.ops.append(root)
        self._stack.append(root)
        started = self._clock()
        try:
            yield root
        finally:
            ended = self._clock()
            self._stack.pop()
            root.calls = 1
            root.start, root.end = started, ended
            root.busy = ended - started

    def _enter(self, name: str) -> Node:
        parent = self._stack[-1]
        node = parent.children.get(name)
        if node is None:
            node = self._node(name, parent, parent.op)
            parent.children[name] = node
        self._stack.append(node)
        return node

    def _exit(self, node: Node, started: float, ended: float) -> None:
        self._stack.pop()
        node.calls += 1
        node.busy += ended - started
        if node.start is None:
            node.start = started
        node.end = ended

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """A stand-in for ``fn`` that records each call as span ``name``.

        ``observe(counts, args, result)`` runs after a recorded call, to
        count what the layer did (bytes written, elements lowered...).
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            node = tracer._enter(name)
            started = tracer._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(node, started, tracer._clock())
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap` for a generator function: each ``next`` of
        the returned iterator is one call, so time the consumer spends
        between items is not charged to the generator."""
        tracer = self

        def timed(iterator: Iterator) -> Iterator:
            while True:
                node = tracer._enter(name)
                started = tracer._clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._exit(node, started, tracer._clock())
                yield item

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            if not tracer.recording():
                return iterator
            return timed(iterator)

        traced.__wrapped__ = fn
        return traced

    def layer_self(self, name: str) -> tuple[int, float]:
        """(calls, summed self time in seconds) of every span ``name``."""
        calls = 0
        total = 0.0
        for root in self.ops:
            for node in root.walk():
                if node.name == name and node.parent is not None:
                    calls += node.calls
                    total += node.self_time()
        return calls, total

    def unaccounted(self) -> float:
        """Share of operation wall time no child span covers."""
        wall = sum(root.busy for root in self.ops)
        if wall == 0:
            return 0.0
        return sum(root.self_time() for root in self.ops) / wall

    def records(self) -> list[dict]:
        """Every span as a flat JSON-ready record, operations first."""
        out = []
        for root in self.ops:
            for node in root.walk():
                out.append(
                    {
                        "id": node.id,
                        "parent": node.parent.id if node.parent is not None else None,
                        "op": node.op,
                        "name": node.name,
                        "start": node.start,
                        "end": node.end,
                        "calls": node.calls,
                        "busy_s": node.busy,
                        "self_s": node.self_time(),
                    }
                )
        return out


class LayerSums:
    """Per-layer call count, busy seconds and bytes, safe across threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self.layers: dict[str, dict] = {}

    def add(self, name: str, seconds: float, size: int = 0) -> None:
        with self._lock:
            entry = self.layers.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "bytes": 0}
            )
            entry["calls"] += 1
            entry["busy_s"] += seconds
            entry["bytes"] += size

    def wrap(self, name: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        """Time every call of ``fn``; ``size(args, result)`` adds bytes."""
        sums = self

        def timed(*args, **kwargs):
            started = sums._clock()
            result = fn(*args, **kwargs)
            sums.add(
                name,
                sums._clock() - started,
                size(args, result) if size is not None else 0,
            )
            return result

        timed.__wrapped__ = fn
        return timed

    def write(self, path: str) -> None:
        with self._lock:
            payload = json.dumps(self.layers, indent=2, sort_keys=True)
        with open(path, "w") as handle:
            handle.write(payload + "\n")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object, bool]] = []

    def replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` to ``make(current value)``."""
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
