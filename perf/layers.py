"""Per-layer metrics: where the wrappers go, and what each metric means.

:func:`install` patches a :class:`~perf.spans.Tracer` wrapper onto every
name an in-process caller looks up.  :func:`per_layer` turns one traced
phase (and the untraced phase before it) into the ``per_layer`` metrics
of ``BENCHMARK.json``.  Times are self times: a span's busy time minus
its children's.  Unless the name says otherwise, values are per
operation of the traced phase; a layer a workload does not use reads 0.
"""

from __future__ import annotations

import os
from collections import Counter

from perf import stats
from perf.spans import Patches, Tracer

#: Metric name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "sqlts.parse_ms": "ms",
    "sqlts.analyze_ms": "ms",
    "pattern.compile_ms": "ms",
    "plan_cache.hit_ratio": "ratio",
    "storage.load_ms": "ms",
    "storage.bytes_per_row": "bytes",
    "cluster.ms": "ms",
    "kernels.ms": "ms",
    "kernels.lowered_ratio": "ratio",
    "match.scan_ms": "ms",
    "aggregate.ms": "ms",
    "match.tests_per_op": "tests",
    "match.tests_per_match": "tests",
    "match.skips_per_op": "count",
    "match.skip_distance_per_skip": "rows",
    "project.ms": "ms",
    "parallel.ms": "ms",
    "parallel.unit_busy_ms": "ms",
    "parallel.efficiency": "ratio",
    "parallel.overhead_ms": "ms",
    "executor.unaccounted_frac": "ratio",
    "stream.push_us": "us",
    "checkpoint.save_ms": "ms",
    "checkpoint.saves_per_1k_rows": "count",
    "checkpoint.bytes": "bytes",
    "serve.decode_us": "us",
    "serve.admit_us": "us",
    "serve.pool_wait_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.response_kb": "kB",
    "serve.wire_ms": "ms",
    "serve.rejections": "count",
    "serve.overhead_ratio": "ratio",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Span name -> the metric that reports its self time per operation.
SPAN_MS = {
    "sqlts.parse": "sqlts.parse_ms",
    "sqlts.analyze": "sqlts.analyze_ms",
    "pattern.compile": "pattern.compile_ms",
    "storage.load": "storage.load_ms",
    "cluster": "cluster.ms",
    "kernels": "kernels.ms",
    "match.scan": "match.scan_ms",
    "aggregate": "aggregate.ms",
    "project": "project.ms",
    "parallel": "parallel.ms",
}


def _count_kernels(counts, args, kernels) -> None:
    counts["kernels.elements"] += args[0].m
    counts["kernels.lowered"] += kernels.lowered if kernels is not None else 0


def _count_load(counts, args, table) -> None:
    counts["storage.bytes"] += os.path.getsize(args[0])
    counts["storage.rows"] += len(table)


def _count_save(counts, args, _) -> None:
    counts["checkpoint.bytes"] += os.path.getsize(args[0].path)


def install(tracer: Tracer) -> Patches:
    """Wrap every in-process layer boundary; undo with ``.undo()``."""
    from repro.engine import columnar, executor, parallel
    from repro.match.backtracking import BacktrackingMatcher
    from repro.match.naive import NaiveMatcher
    from repro.match.ops import OpsMatcher
    from repro.match.ops_star import OpsStarMatcher
    from repro.match.streaming import OpsStreamMatcher
    from repro.recovery import CheckpointStore

    patches = Patches()

    def call(owner, attr, span, observe=None):
        patches.replace(owner, attr, lambda fn: tracer.wrap(span, fn, observe))

    call(executor, "parse_query", "sqlts.parse")
    call(executor, "analyze", "sqlts.analyze")
    call(executor, "compile_pattern", "pattern.compile")
    for module in (executor, parallel):
        patches.replace(module, "clusters_of", lambda fn: tracer.wrap_iter("cluster", fn))
    call(executor, "apply_aggregate", "aggregate")
    call(executor, "evaluate_expr", "project")
    call(columnar, "materialize_kernels", "kernels", _count_kernels)
    call(columnar, "load_table", "storage.load", _count_load)
    call(parallel, "execute_parallel", "parallel")
    for matcher in (NaiveMatcher, OpsMatcher, OpsStarMatcher, BacktrackingMatcher):
        call(matcher, "find_matches", "match.scan")
    call(OpsStreamMatcher, "push", "stream.push")
    call(CheckpointStore, "save", "checkpoint.save", _count_save)
    return patches


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(base, traced, tracer: Tracer) -> dict:
    """Every per-layer metric of one traced phase; see ``UNITS``."""
    ops = len(tracer.ops) or traced.ops
    counts = Counter(traced.counts)
    counts.update(tracer.counts)
    values = dict.fromkeys(UNITS, 0.0)
    for span, metric in SPAN_MS.items():
        _, self_s = tracer.layer_self(span)
        values[metric] = _ratio(self_s * 1000.0, ops)
    values["plan_cache.hit_ratio"] = _ratio(
        counts["plan_cache.hits"], counts["plan_cache.hits"] + counts["plan_cache.misses"]
    )
    values["storage.bytes_per_row"] = _ratio(counts["storage.bytes"], counts["storage.rows"])
    values["kernels.lowered_ratio"] = _ratio(counts["kernels.lowered"], counts["kernels.elements"])
    values["match.tests_per_op"] = _ratio(traced.tests, ops)
    values["match.tests_per_match"] = _ratio(traced.tests, traced.matches)
    values["match.skips_per_op"] = _ratio(traced.skips, ops)
    values["match.skip_distance_per_skip"] = _ratio(traced.skip_distance, traced.skips)
    values["parallel.unit_busy_ms"] = _ratio(counts["parallel.unit_busy_s"] * 1000.0, ops)
    values["parallel.efficiency"] = _ratio(
        counts["parallel.unit_busy_s"], counts["parallel.slots_s"]
    )
    values["parallel.overhead_ms"] = _ratio(counts["parallel.overhead_s"] * 1000.0, ops)
    values["executor.unaccounted_frac"] = tracer.unaccounted()

    pushes, push_s = tracer.layer_self("stream.push")
    values["stream.push_us"] = _ratio(push_s * 1e6, pushes)
    saves, save_s = tracer.layer_self("checkpoint.save")
    values["checkpoint.save_ms"] = _ratio(save_s * 1000.0, saves)
    values["checkpoint.saves_per_1k_rows"] = _ratio(saves * 1000.0, pushes)
    values["checkpoint.bytes"] = _ratio(counts["checkpoint.bytes"], saves)

    _serve(values, counts)
    if traced.late:
        values["loadgen.late_p99_ms"] = stats.percentile(traced.late, 99) * 1000.0
    values["trace.overhead_pct"] = 100.0 * (
        _ratio(_throughput(base), _throughput(traced)) - 1.0
    )
    return values


def _throughput(sample) -> float:
    return _ratio(sample.ops, sample.busy_s())


def _serve(values: dict, counts) -> None:
    """Server-side layer sums and the client's view of the same replies."""
    def mean_s(layer: str) -> float:
        return _ratio(counts[f"{layer}.busy_s"], counts[f"{layer}.calls"])

    values["serve.decode_us"] = mean_s("serve.decode") * 1e6
    values["serve.admit_us"] = mean_s("serve.admit") * 1e6
    values["serve.execute_ms"] = mean_s("serve.execute") * 1000.0
    values["serve.encode_ms"] = mean_s("serve.encode") * 1000.0
    replies = counts["client.replies"]
    if replies:
        elapsed_ms = counts["client.elapsed_ms"] / replies
        values["serve.pool_wait_ms"] = elapsed_ms - values["serve.execute_ms"]
        values["serve.response_kb"] = counts["client.reply_bytes"] / replies / 1024.0
        values["serve.wire_ms"] = (
            counts["client.latency_s"] * 1000.0 / replies
            - elapsed_ms
            - values["serve.encode_ms"]
        )
    values["serve.rejections"] = float(counts["serve.rejections"])
    if counts["inprocess.p50_s"]:
        values["serve.overhead_ratio"] = counts["served.p50_s"] / counts["inprocess.p50_s"]
