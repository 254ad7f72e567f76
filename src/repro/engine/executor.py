"""The SQL-TS query executor.

Ties the whole stack together: parse → analyze → compile the pattern with
OPS → for every cluster, apply the hoisted cluster filter and run the
configured matcher via the UDA substrate → evaluate the SELECT items on
each match.

The matcher is pluggable (``"ops"`` — the default, star-capable OPS
runtime — or ``"naive"``), and an :class:`~repro.match.base.Instrumentation`
can be threaded through to count predicate evaluations, which is how the
benchmark harness reproduces the paper's speedup numbers.

Resilience (see ``docs/resilience.md``): an
:class:`~repro.resilience.ErrorPolicy` and
:class:`~repro.resilience.ResourceLimits` can be supplied.  Under a
lenient policy, OPS compilation failures and star-capability mismatches
degrade to the ``fallback`` matcher (default ``"naive"``) instead of
raising — identical matches, more predicate tests — and every limit in
``limits`` is enforced by a :class:`~repro.resilience.Budget` threaded
into the matcher loops, so a runaway query returns partial results with
a limit diagnostic instead of hanging.  The default ``RAISE`` policy
with no limits behaves exactly like the seed executor.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Mapping, Optional, Tuple, Union

from repro.engine.aggregates import PatternSearchAggregate, apply_aggregate
from repro.engine.catalog import Catalog
from repro.engine.cluster import clusters_of
from repro.engine.result import Result
from repro.errors import ExecutionError, PlanningError
from repro.match.backtracking import BacktrackingMatcher
from repro.match.base import Instrumentation, Match, Matcher
from repro.match.naive import NaiveMatcher
from repro.match.ops import OpsMatcher
from repro.match.ops_star import OpsStarMatcher
from repro.obs import MetricsRegistry, QueryProfile, Trace
from repro.pattern.compiler import CompiledPattern, compile_pattern, degraded_pattern
from repro.pattern.predicates import AttributeDomains
from repro.recovery import (
    CheckpointPolicy,
    CheckpointStore,
    RecoveringStreamRunner,
    RetryPolicy,
)
from repro.resilience import Budget, Diagnostics, ErrorPolicy, ResourceLimits
from repro.sqlts import ast
from repro.sqlts.expressions import evaluate_condition, evaluate_expr
from repro.sqlts.parser import parse_query
from repro.sqlts.semantic import AnalyzedQuery, analyze

MATCHERS: dict[str, type] = {
    "ops": OpsStarMatcher,
    "ops-nonstar": OpsMatcher,
    "naive": NaiveMatcher,
    "backtracking": BacktrackingMatcher,
}

#: Matchers that ignore shift/next and are therefore safe for degraded
#: plans (restart-based scans).
_RESTART_MATCHERS = ("naive", "backtracking")

#: Predicate evaluation modes accepted by ``evaluator``: ``"columnar"``
#: materializes truth arrays for the lowered elements of each cluster,
#: ``"row"`` pins the per-row evaluators (the differential oracle for
#: the columnar path).  Matches are byte-identical in both modes.
EVALUATOR_MODES = ("columnar", "row")


@dataclass
class _CachedPlan:
    """One plan-cache entry: the analysis/compilation outcome of a query.

    ``planning_error`` is set when OPS compilation failed; ``compiled``
    is then the degraded placeholder plan and ``degrade_reason`` the
    downgrade diagnostic to re-record on every cache hit (diagnostics
    are per-execution, the cache is not).
    """

    analyzed: AnalyzedQuery
    compiled: CompiledPattern
    planning_error: Optional[PlanningError] = None
    degrade_reason: Optional[str] = None


@dataclass
class ExecutionReport:
    """Execution statistics alongside the compiled plan."""

    matcher: str
    clusters: int
    clusters_searched: int
    rows_scanned: int
    predicate_tests: int
    matches: int
    pattern: CompiledPattern
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    @property
    def limit_hit(self) -> bool:
        return self.diagnostics.limit_hit

    @property
    def degraded(self) -> bool:
        return self.diagnostics.degraded


class Executor:
    """Executes SQL-TS queries against a catalog of tables."""

    def __init__(
        self,
        catalog: Catalog,
        domains: Optional[AttributeDomains] = None,
        matcher: Union[str, Matcher] = "ops",
        policy: Union[ErrorPolicy, str] = ErrorPolicy.RAISE,
        limits: Optional[ResourceLimits] = None,
        fallback: Optional[str] = "naive",
        codegen: bool = True,
        plan_cache_size: int = 128,
        workers: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        evaluator: str = "columnar",
    ):
        self._catalog = catalog
        self._domains = domains if domains is not None else AttributeDomains.none()
        self._matcher_name, self._matcher = _resolve_matcher(matcher)
        self._policy = ErrorPolicy.coerce(policy)
        self._limits = limits if limits is not None else ResourceLimits()
        if fallback is not None and fallback not in _RESTART_MATCHERS:
            raise ExecutionError(
                f"fallback matcher must be restart-based "
                f"{_RESTART_MATCHERS}, got {fallback!r}"
            )
        self._fallback = fallback
        self._codegen = codegen
        if plan_cache_size < 0:
            raise ExecutionError(
                f"plan_cache_size must be >= 0, got {plan_cache_size}"
            )
        self._plan_cache_size = plan_cache_size
        self._plan_cache: OrderedDict[
            tuple[str, tuple[str, ...]], _CachedPlan
        ] = OrderedDict()
        # Cache reads mutate LRU order (move_to_end) and eviction mutates
        # the dict, so every access is serialized: threads sharing one
        # executor (the serving layer's pool) must not corrupt it.
        self._plan_cache_lock = threading.Lock()
        # The flight recorder's registry (docs/observability.md): shared
        # with the serving layer when one is passed in, private otherwise.
        # Plan-cache traffic lives here — ``plan_cache_hits``/``_misses``
        # stay available as int properties for existing callers.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._plan_cache_hit_counter = self.metrics.counter(
            "repro_plan_cache_hits_total", "Plan-cache hits"
        )
        self._plan_cache_miss_counter = self.metrics.counter(
            "repro_plan_cache_misses_total", "Plan-cache misses"
        )
        self._queries_counter = self.metrics.counter(
            "repro_queries_total", "Queries executed to completion"
        )
        self._query_seconds = self.metrics.histogram(
            "repro_query_seconds", "Query wall time in seconds"
        )
        if not isinstance(workers, int) or workers < 1:
            raise ExecutionError(f"workers must be a positive int, got {workers!r}")
        self._workers = workers
        if evaluator not in EVALUATOR_MODES:
            raise ExecutionError(
                f"evaluator must be one of {EVALUATOR_MODES}, "
                f"got {evaluator!r}"
            )
        self._evaluator = evaluator

    @property
    def plan_cache_hits(self) -> int:
        return int(self._plan_cache_hit_counter.value)

    @property
    def plan_cache_misses(self) -> int:
        return int(self._plan_cache_miss_counter.value)

    def prepare(self, query: Union[str, ast.Query]) -> tuple[AnalyzedQuery, CompiledPattern]:
        """Parse, analyze, and OPS-compile a query without running it."""
        entry = self._analyze_and_compile(query)
        if entry.planning_error is not None:
            raise entry.planning_error
        return entry.analyzed, entry.compiled

    def execute(
        self,
        query: Union[str, ast.Query],
        instrumentation: Optional[Instrumentation] = None,
        *,
        workers: Optional[int] = None,
        limits: Optional[ResourceLimits] = None,
        cancel: Optional[Callable[[], Optional[str]]] = None,
        trace: Optional[Trace] = None,
    ) -> Result:
        result, _ = self.execute_with_report(
            query,
            instrumentation,
            workers=workers,
            limits=limits,
            cancel=cancel,
            trace=trace,
        )
        return result

    def execute_with_report(
        self,
        query: Union[str, ast.Query],
        instrumentation: Optional[Instrumentation] = None,
        *,
        workers: Optional[int] = None,
        limits: Optional[ResourceLimits] = None,
        cancel: Optional[Callable[[], Optional[str]]] = None,
        trace: Optional[Trace] = None,
    ) -> tuple[Result, ExecutionReport]:
        """Execute ``query``, serially or partition-parallel.

        ``workers`` overrides the executor-level worker count for this
        call.  ``workers=1`` (the default) is exactly the seed's serial
        path; ``workers>1`` hands the admitted partitions to
        :func:`repro.engine.parallel.execute_parallel`, whose merge is
        deterministic and — absent resource limits — byte-identical to
        serial execution (see ``docs/performance.md``).

        ``limits`` overrides the executor-level :class:`ResourceLimits`
        for this call only — the serving layer uses it to apply
        per-tenant and per-request deadlines over one shared executor
        (and its shared plan cache).  ``cancel`` is a cooperative
        cancellation hook (see :class:`~repro.resilience.CancelToken`):
        called periodically from the budget checks; returning a reason
        string trips the budget and the query returns partial results
        with a limit diagnostic.

        ``trace`` (a :class:`~repro.obs.Trace`) turns on the flight
        recorder for this call: spans cover planning, the cluster scan
        (or the parallel pool), and the result carries an
        EXPLAIN ANALYZE-style :class:`~repro.obs.QueryProfile` on
        ``result.profile``.  With ``trace=None`` (the default) the
        traced code paths are never entered — output is byte-identical
        either way (asserted by ``repro.bench.obs_overhead``).
        """
        effective_workers = self._workers if workers is None else workers
        if not isinstance(effective_workers, int) or effective_workers < 1:
            raise ExecutionError(
                f"workers must be a positive int, got {effective_workers!r}"
            )
        started = time.perf_counter()
        if effective_workers > 1:
            from repro.engine.parallel import execute_parallel

            result, report = execute_parallel(
                self,
                query,
                instrumentation,
                workers=effective_workers,
                limits=limits,
                cancel=cancel,
                trace=trace,
            )
        else:
            result, report = self._execute_serial(
                query, instrumentation, limits=limits, cancel=cancel, trace=trace
            )
        self._queries_counter.inc()
        self._query_seconds.observe(time.perf_counter() - started)
        return result, report

    def _execute_serial(
        self,
        query: Union[str, ast.Query],
        instrumentation: Optional[Instrumentation] = None,
        *,
        limits: Optional[ResourceLimits] = None,
        cancel: Optional[Callable[[], Optional[str]]] = None,
        trace: Optional[Trace] = None,
    ) -> tuple[Result, ExecutionReport]:
        if trace is None:
            return self._serial_pass(
                query, instrumentation, limits=limits, cancel=cancel, trace=None
            )
        with trace.span("execute", mode="serial") as root:
            result, report = self._serial_pass(
                query, instrumentation, limits=limits, cancel=cancel, trace=trace
            )
        root.annotate(
            matcher=report.matcher,
            matches=report.matches,
            rows_scanned=report.rows_scanned,
            tests=report.predicate_tests,
        )
        result.profile = QueryProfile(trace, report)
        return result, report

    def _serial_pass(
        self,
        query: Union[str, ast.Query],
        instrumentation: Optional[Instrumentation] = None,
        *,
        limits: Optional[ResourceLimits] = None,
        cancel: Optional[Callable[[], Optional[str]]] = None,
        trace: Optional[Trace] = None,
    ) -> tuple[Result, ExecutionReport]:
        diagnostics = Diagnostics()
        if trace is not None:
            with trace.span("plan") as plan_span:
                analyzed, compiled, matcher_name, matcher = self._plan(
                    query, diagnostics
                )
            _annotate_plan_span(
                plan_span, diagnostics, matcher_name, compiled
            )
        else:
            analyzed, compiled, matcher_name, matcher = self._plan(query, diagnostics)
        instrumentation = instrumentation or Instrumentation()
        if trace is not None:
            instrumentation.enable_detail()
        effective_limits = limits if limits is not None else self._limits
        budget = (
            Budget(effective_limits, diagnostics, cancel=cancel)
            if effective_limits.bounded or cancel is not None
            else None
        )
        table = self._catalog.table(analyzed.table)
        columns = [
            item.output_name(position)
            for position, item in enumerate(analyzed.select, start=1)
        ]
        output_rows: list[tuple] = []
        clusters = 0
        searched = 0
        scanned = 0
        match_count = 0
        with (
            trace.span("scan") if trace is not None else nullcontext()
        ) as scan_span:
            for key, rows in clusters_of(
                table,
                analyzed.cluster_by,
                analyzed.sequence_by,
                policy=self._policy,
                diagnostics=diagnostics,
                keep=partial(_cluster_passes, analyzed),
            ):
                clusters += 1
                if budget is not None and budget.check_deadline():
                    break
                if rows is None:
                    continue
                if budget is not None and budget.add_rows(len(rows)):
                    break
                searched += 1
                scanned += len(rows)
                if trace is not None:
                    tests_before = instrumentation.tests
                    with trace.span("cluster") as cluster_span:
                        matches, matcher_name, matcher = self._search_cluster(
                            rows, compiled, matcher_name, matcher,
                            instrumentation, budget, diagnostics, trace=trace,
                        )
                    cluster_span.annotate(
                        partition=_cluster_label(key),
                        rows=len(rows),
                        tests=instrumentation.tests - tests_before,
                        matches=len(matches),
                        matcher=matcher_name,
                    )
                else:
                    matches, matcher_name, matcher = self._search_cluster(
                        rows, compiled, matcher_name, matcher, instrumentation,
                        budget, diagnostics,
                    )
                for match in matches:
                    match_count += 1
                    output_rows.append(_project(analyzed, rows, match))
                if budget is not None and budget.tripped is not None:
                    break
        if scan_span is not None:
            scan_span.annotate(
                clusters=clusters,
                clusters_searched=searched,
                rows_scanned=scanned,
                skips=instrumentation.skips,
                skip_distance=instrumentation.skip_distance,
            )
            if budget is not None and budget.tripped is not None:
                scan_span.annotate(tripped=budget.tripped)
        report = ExecutionReport(
            matcher=matcher_name,
            clusters=clusters,
            clusters_searched=searched,
            rows_scanned=scanned,
            predicate_tests=instrumentation.tests,
            matches=match_count,
            pattern=compiled,
            diagnostics=diagnostics,
        )
        return Result(columns, output_rows, diagnostics), report

    def stream(
        self,
        query: Union[str, ast.Query],
        source_factory: Callable[[int], Iterator[Tuple[int, Mapping[str, object]]]],
        *,
        store: Optional[CheckpointStore] = None,
        checkpoints: Optional[CheckpointPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        resume: bool = False,
        overflow: str = "raise",
        instrumentation: Optional[Instrumentation] = None,
        diagnostics: Optional[Diagnostics] = None,
        stop: Optional[Callable[[], Optional[str]]] = None,
        trace: Optional[Trace] = None,
    ) -> "StreamingQuery":
        """Plan a query for crash-recoverable streaming execution.

        ``source_factory(start_offset)`` yields ``(offset, row)`` pairs
        (see :class:`~repro.recovery.RecoveringStreamRunner` for the
        contract; :func:`repro.engine.csv_io.iter_csv` satisfies it).
        Returns a :class:`StreamingQuery` whose ``rows`` iterator lazily
        drives the source and yields one projected output tuple per
        match, checkpointing to ``store`` as configured.

        Streaming has no degraded path: the bounded look-back buffer *is*
        OPS's no-backtracking guarantee, so an unplannable pattern raises
        :class:`PlanningError` regardless of the error policy.  CLUSTER
        BY is rejected — a stream is one unbounded sequence; partition
        upstream and run one streaming query per partition instead.
        """
        entry = self._analyze_and_compile(query)
        if entry.planning_error is not None:
            raise PlanningError(
                f"streaming execution requires an OPS plan: "
                f"{entry.planning_error}"
            ) from entry.planning_error
        analyzed, compiled = entry.analyzed, entry.compiled
        if analyzed.cluster_by:
            raise ExecutionError(
                "streaming execution does not support CLUSTER BY "
                f"{list(analyzed.cluster_by)}; partition the stream "
                "upstream and run one streaming query per partition"
            )
        diagnostics = diagnostics if diagnostics is not None else Diagnostics()
        back, forward = _select_navigation(
            analyzed.select, last_var=analyzed.spec.names[-1]
        )
        if forward:
            diagnostics.warn(
                "SELECT navigates past the match end "
                f"({analyzed.spec.names[-1]}.NEXT); in streaming mode rows "
                "past the newest streamed tuple evaluate as NULL"
            )
        ordered_factory = _ordered_source(
            source_factory, analyzed.sequence_by
        )
        runner = RecoveringStreamRunner(
            compiled,
            ordered_factory,
            store=store,
            checkpoints=checkpoints,
            retry=retry,
            limits=self._limits if self._limits.bounded else None,
            overflow=overflow,
            extra_lookback=back,
            instrumentation=instrumentation,
            diagnostics=diagnostics,
            stop=stop,
            trace=trace,
        )
        columns = [
            item.output_name(position)
            for position, item in enumerate(analyzed.select, start=1)
        ]
        return StreamingQuery(
            columns=columns,
            runner=runner,
            keyed_rows=_stream_rows(runner, analyzed, resume),
        )

    # ------------------------------------------------------------------

    def _analyze_and_compile(
        self,
        query: Union[str, ast.Query],
        diagnostics: Optional[Diagnostics] = None,
    ) -> _CachedPlan:
        """Parse/analyze/compile a query, memoized in the LRU plan cache.

        Only string queries are cached (the text plus the domains
        fingerprint fully determine the plan for a given executor
        configuration); pre-built ``ast.Query`` objects bypass the cache
        because they are mutable and identity-keyed at best.  Compilation
        *failures* are cached too — the entry carries the original
        :class:`PlanningError` alongside a degraded placeholder plan, and
        the caller decides whether to raise or degrade.  Syntax and
        semantic errors always raise and are never cached.

        Keyed lookups feed two observers: the process-lifetime hit/miss
        counters on :attr:`metrics`, and (when ``diagnostics`` is given)
        the per-execution :meth:`Diagnostics.record_plan_cache` counts.
        Bypass paths record nothing anywhere.
        """
        key = None
        if isinstance(query, str) and self._plan_cache_size > 0:
            key = (query, self._domains.fingerprint())
            with self._plan_cache_lock:
                entry = self._plan_cache.get(key)
                if entry is not None:
                    self._plan_cache.move_to_end(key)
                    self._plan_cache_hit_counter.inc()
                    if diagnostics is not None:
                        diagnostics.record_plan_cache(hit=True)
                    return entry
                self._plan_cache_miss_counter.inc()
                if diagnostics is not None:
                    diagnostics.record_plan_cache(hit=False)
        parsed = parse_query(query) if isinstance(query, str) else query
        analyzed = analyze(parsed, self._domains)
        try:
            compiled = compile_pattern(analyzed.spec, codegen=self._codegen)
            entry = _CachedPlan(analyzed, compiled)
        except PlanningError as error:
            entry = _CachedPlan(
                analyzed,
                degraded_pattern(analyzed.spec, codegen=self._codegen),
                planning_error=error,
                degrade_reason=(
                    f"OPS compilation failed ({error}); executing with the "
                    f"{self._fallback!r} matcher on a degraded plan"
                ),
            )
        if key is not None:
            with self._plan_cache_lock:
                self._plan_cache[key] = entry
                if len(self._plan_cache) > self._plan_cache_size:
                    self._plan_cache.popitem(last=False)
        return entry

    def _plan(
        self, query: Union[str, ast.Query], diagnostics: Diagnostics
    ) -> tuple[AnalyzedQuery, CompiledPattern, str, Matcher]:
        """Produce the plan for one execution, degrading if allowed.

        Syntax and semantic errors always raise — there is nothing to
        degrade to without a valid query.  Planning (OPS compilation)
        errors degrade under a lenient policy: the pattern gets a
        placeholder plan and the restart-based fallback matcher, which
        produces identical matches without shift/next.  The downgrade
        diagnostic is re-recorded on every execution, including plan-cache
        hits — diagnostics belong to the execution, not the plan.
        """
        entry = self._analyze_and_compile(query, diagnostics)
        if entry.planning_error is not None:
            if not self._policy.lenient or self._fallback is None:
                raise entry.planning_error
            name = self._fallback
            diagnostics.record_downgrade(entry.degrade_reason)
            return entry.analyzed, entry.compiled, name, MATCHERS[name]()
        return entry.analyzed, entry.compiled, self._matcher_name, self._matcher

    def _search_cluster(
        self,
        rows: list[dict[str, object]],
        compiled: CompiledPattern,
        matcher_name: str,
        matcher: Matcher,
        instrumentation: Instrumentation,
        budget: Optional[Budget],
        diagnostics: Diagnostics,
        trace: Optional[Trace] = None,
    ) -> tuple[list[Match], str, Matcher]:
        """Run one cluster, downgrading the matcher on PlanningError.

        Returns the (possibly replaced) matcher so subsequent clusters
        skip the failing attempt instead of re-raising per cluster.
        """
        return search_rows(
            rows, compiled, matcher_name, matcher, instrumentation,
            budget, diagnostics, self._policy, self._fallback,
            evaluator=self._evaluator, trace=trace,
        )


@dataclass
class StreamingQuery:
    """A planned streaming execution: iterate ``rows`` to drive it.

    ``rows`` yields one projected SELECT tuple per match, in emission
    order.  ``keyed_rows`` is the same stream with each tuple preceded
    by its *sequence number* — the match's absolute end position in the
    stream, stable across checkpoint/resume cycles — which is how the
    serving layer delivers exactly-once to reconnecting subscribers
    (suppress everything at or below the subscriber's high-water mark).
    The two views share one underlying iterator: consume one of them.
    ``runner`` exposes the live matcher, the current source offset, and
    the shared diagnostics for monitoring mid-stream.
    """

    columns: list[str]
    runner: RecoveringStreamRunner
    keyed_rows: Iterator[tuple[int, tuple]]

    @property
    def rows(self) -> Iterator[tuple]:
        return (values for _, values in self.keyed_rows)

    @property
    def diagnostics(self) -> Diagnostics:
        return self.runner.diagnostics

    def __iter__(self) -> Iterator[tuple]:
        return self.rows


def _select_navigation(select, last_var: str) -> tuple[int, int]:
    """(max backward steps, max forward-past-end steps) in the SELECT.

    Backward navigation from *any* variable sizes the streaming matcher's
    ``extra_lookback`` so projection (``X.previous.attr`` chains) never
    reads a trimmed window position.  Forward navigation only escapes the
    match — and therefore the streamed-so-far prefix — when anchored on
    the final pattern variable, so only that case is reported.
    """
    back = 0
    forward = 0

    def visit(expr) -> None:
        nonlocal back, forward
        if isinstance(expr, ast.VarPath):
            position = 0
            for step in expr.navigation:
                position += -1 if step == "previous" else 1
                back = max(back, -position)
                if expr.var == last_var:
                    forward = max(forward, position)
        elif isinstance(expr, ast.BinOp):
            visit(expr.left)
            visit(expr.right)
        elif isinstance(expr, ast.Neg):
            visit(expr.operand)

    for item in select:
        visit(item.expr)
    return back, forward


def _ordered_source(source_factory, sequence_by: tuple[str, ...]):
    """Wrap a source factory with a SEQUENCE BY monotonicity guard.

    Batch execution sorts each cluster by the SEQUENCE BY key; a stream
    cannot be sorted after the fact, and silently matching against a
    disordered stream would produce wrong results *and* make resume
    nondeterministic — so out-of-order (or incomparable) keys raise
    :class:`ExecutionError` naming the offset.
    """
    if not sequence_by:
        return source_factory

    def factory(start_offset: int):
        previous: Optional[tuple] = None
        for offset, row in source_factory(start_offset):
            try:
                key = tuple(row[attr] for attr in sequence_by)
            except KeyError as error:
                raise ExecutionError(
                    f"stream row at offset {offset} is missing "
                    f"SEQUENCE BY attribute {error.args[0]!r}"
                ) from None
            if previous is not None:
                try:
                    disordered = key < previous
                except TypeError as error:
                    raise ExecutionError(
                        f"stream row at offset {offset}: SEQUENCE BY key "
                        f"{key!r} is not comparable with {previous!r} "
                        f"({error})"
                    ) from None
                if disordered:
                    raise ExecutionError(
                        f"stream is not ordered by SEQUENCE BY "
                        f"{list(sequence_by)}: row at offset {offset} has "
                        f"key {key!r} after {previous!r}"
                    )
            previous = key
            yield offset, row

    return factory


def _stream_rows(
    runner: RecoveringStreamRunner, analyzed: AnalyzedQuery, resume: bool
) -> Iterator[tuple[int, tuple]]:
    """Project each emitted match against the matcher's live window.

    Yields ``(seq, values)`` where ``seq`` is the match's absolute end
    position in the stream — the same coordinate the recovery runner's
    exactly-once high-water mark uses, so it is stable across
    crash/resume and strictly increasing within one subscription.
    """
    warned_trimmed = False
    for _, match in runner.run(resume=resume):
        window = runner.matcher.window
        bindings = {
            name: (span.start, span.end)
            for name, span in match.bindings().items()
        }
        values = []
        for item in analyzed.select:
            try:
                values.append(
                    evaluate_expr(item.expr, window, bindings, analyzed.stars)
                )
            except RuntimeError:
                # The window position was trimmed — possible after an
                # overflow "restart" dropped rows a restored/pending
                # match still references.  NULL matches the batch
                # engine's off-end semantics.
                values.append(None)
                if not warned_trimmed:
                    warned_trimmed = True
                    runner.diagnostics.warn(
                        "SELECT read a trimmed window position (dropped "
                        "by a stream-buffer restart); emitting NULL"
                    )
        yield match.end, tuple(values)


def _cluster_label(key) -> str:
    """A short, stable label for one cluster's CLUSTER BY key."""
    if key == ():
        return "(all)"
    if isinstance(key, tuple) and len(key) == 1:
        return str(key[0])
    return str(key)


def _annotate_plan_span(
    plan_span, diagnostics: Diagnostics, matcher_name: str,
    compiled: CompiledPattern,
) -> None:
    """Fold the planning outcome into the plan span's attributes."""
    if diagnostics.plan_cache_hits:
        cache = "hit"
    elif diagnostics.plan_cache_misses:
        cache = "miss"
    else:
        cache = "bypass"
    plan_span.annotate(
        cache=cache,
        matcher=matcher_name,
        degraded=diagnostics.degraded,
    )
    fused = sum(
        1
        for evaluator in compiled.evaluators
        if getattr(evaluator, "band_fused", False)
    )
    if fused:
        plan_span.annotate(band_fused_elements=fused)


def _resolve_matcher(matcher: Union[str, Matcher]) -> tuple[str, Matcher]:
    if isinstance(matcher, str):
        try:
            return matcher, MATCHERS[matcher]()
        except KeyError:
            raise ExecutionError(
                f"unknown matcher {matcher!r} (choose from {sorted(MATCHERS)})"
            ) from None
    # Instance-passed matchers normalize to their registry key so reports
    # and downgrade diagnostics name the same matcher an equivalent
    # string argument would ("ops", not "OpsStarMatcher").  Exact type
    # match only: a subclass is a different matcher and keeps its own name.
    for name, cls in MATCHERS.items():
        if type(matcher) is cls:
            return name, matcher
    return type(matcher).__name__, matcher


def search_rows(
    rows: list[dict[str, object]],
    compiled: CompiledPattern,
    matcher_name: str,
    matcher: Matcher,
    instrumentation: Instrumentation,
    budget: Optional[Budget],
    diagnostics: Diagnostics,
    policy: ErrorPolicy,
    fallback: Optional[str],
    *,
    evaluator: str = "row",
    trace: Optional[Trace] = None,
) -> tuple[list[Match], str, Matcher]:
    """Search one cluster's rows, degrading the matcher on PlanningError.

    The single source of truth for per-cluster matching: the serial
    executor loop and every parallel worker
    (:mod:`repro.engine.parallel`) call this, so the two paths cannot
    drift apart.  Returns the (possibly replaced by ``fallback``)
    matcher so callers carry the downgrade forward across clusters.

    ``evaluator`` selects the predicate path per :data:`EVALUATOR_MODES`;
    anything but ``"row"`` may materialize columnar truth arrays for
    this cluster and hand them to a kernel-aware matcher.  The default
    is ``"row"`` so existing callers keep the seed behaviour.
    """
    kernels = _cluster_kernels(rows, compiled, matcher, evaluator, trace)
    aggregate = PatternSearchAggregate(
        compiled, matcher, instrumentation, budget, kernels=kernels
    )
    try:
        return apply_aggregate(aggregate, rows), matcher_name, matcher
    except PlanningError as error:
        if not policy.lenient or fallback is None:
            raise
        replacement = MATCHERS[fallback]()
        diagnostics.record_downgrade(
            f"matcher {matcher_name!r} cannot execute this pattern "
            f"({error}); falling back to {fallback!r}"
        )
        if kernels is None:
            kernels = _cluster_kernels(
                rows, compiled, replacement, evaluator, trace
            )
        aggregate = PatternSearchAggregate(
            compiled, replacement, instrumentation, budget, kernels=kernels
        )
        return apply_aggregate(aggregate, rows), fallback, replacement


def _cluster_kernels(
    rows: list[dict[str, object]],
    compiled: CompiledPattern,
    matcher: Matcher,
    evaluator: str,
    trace: Optional[Trace],
):
    """Materialize columnar truth arrays for one cluster, or None.

    Engagement policy (see :data:`EVALUATOR_MODES`): never for
    ``"row"``; ``"columnar"`` always attempts.  The matcher must opt in
    via ``supports_kernels`` and the plan must have compiled closures —
    ``use_codegen=False`` is the interpreted differential oracle and
    stays kernel-free end to end.
    """
    if evaluator == "row" or not rows:
        return None
    if not compiled.use_codegen:
        return None
    if not getattr(matcher, "supports_kernels", False):
        return None
    from repro.engine.columnar import materialize_kernels

    if trace is None:
        return materialize_kernels(compiled, rows)
    with trace.span("kernels") as span:
        kernels = materialize_kernels(compiled, rows)
        if kernels is None:
            span.annotate(lowered=0, rows=len(rows))
        else:
            span.annotate(
                lowered=kernels.lowered,
                elements=compiled.m,
                backend=kernels.backend,
                rows=len(rows),
            )
    return kernels


def _cluster_passes(analyzed: AnalyzedQuery, rows: list[dict[str, object]]) -> bool:
    """Evaluate the hoisted cluster-invariant conditions on this cluster.

    The conditions only reference bare CLUSTER BY attributes, which are
    constant within the cluster, so binding every pattern variable to the
    first row is exact whether or not the rows are sorted yet.
    """
    if not analyzed.cluster_filter:
        return True
    if not rows:
        return False
    bindings = {name: (0, 0) for name in analyzed.spec.names}
    return all(
        evaluate_condition(condition, rows, bindings, analyzed.stars)
        for condition in analyzed.cluster_filter
    )


def _project(
    analyzed: AnalyzedQuery, rows: list[dict[str, object]], match: Match
) -> tuple:
    bindings = {name: (span.start, span.end) for name, span in match.bindings().items()}
    return tuple(
        evaluate_expr(item.expr, rows, bindings, analyzed.stars)
        for item in analyzed.select
    )


def execute(
    query: Union[str, ast.Query],
    catalog: Catalog,
    domains: Optional[AttributeDomains] = None,
    matcher: Union[str, Matcher] = "ops",
    instrumentation: Optional[Instrumentation] = None,
    policy: Union[ErrorPolicy, str] = ErrorPolicy.RAISE,
    limits: Optional[ResourceLimits] = None,
    fallback: Optional[str] = "naive",
    codegen: bool = True,
    workers: int = 1,
    evaluator: str = "columnar",
) -> Result:
    """One-shot convenience wrapper around :class:`Executor`."""
    return Executor(
        catalog,
        domains=domains,
        matcher=matcher,
        policy=policy,
        limits=limits,
        fallback=fallback,
        codegen=codegen,
        workers=workers,
        evaluator=evaluator,
    ).execute(query, instrumentation)
