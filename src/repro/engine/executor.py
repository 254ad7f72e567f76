"""The SQL-TS query executor.

Ties the whole stack together: parse → analyze → compile the pattern with
OPS → for every cluster, apply the hoisted cluster filter and hand the
sorted cluster to the configured matcher → evaluate the SELECT items on
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
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterator, Mapping, Optional, Tuple, Union

from repro.engine.catalog import Catalog
from repro.engine.cluster import Cluster, ClusterScan, clusters_of
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
from repro.sqlts.expressions import evaluate_condition

# ``codegen=False`` projects through the interpreter, and the benchmark's
# layer wrappers (perf/layers.py) patch this name as the ``project`` span;
# tests/test_perf_targets.py fails if it goes.  The lowered SELECT that
# every other run uses does not call it, so that span reads about 0.
from repro.sqlts.expressions import evaluate_expr
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


@dataclass(frozen=True)
class SearchPlan:
    """What searching one cluster needs.

    ``matcher`` is the executor's own instance, or a fallback once a
    search has degraded; ``matcher_name`` names it in reports.
    """

    analyzed: AnalyzedQuery
    compiled: CompiledPattern
    matcher_name: str
    matcher: Matcher
    policy: ErrorPolicy
    fallback: Optional[str]
    evaluator: str


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
        metrics: Optional[MetricsRegistry] = None,
        evaluator: str = "columnar",
    ):
        self._catalog = catalog
        self._domains = domains if domains is not None else AttributeDomains.none()
        self._matcher_name, self._matcher = resolve_matcher(matcher)
        self._policy = ErrorPolicy.coerce(policy)
        self._limits = limits if limits is not None else ResourceLimits()
        if fallback is not None and fallback not in _RESTART_MATCHERS:
            raise ExecutionError(
                f"fallback matcher must be restart-based "
                f"{_RESTART_MATCHERS}, got {fallback!r}"
            )
        self._fallback = fallback
        self._codegen = codegen
        if (
            isinstance(plan_cache_size, bool)
            or not isinstance(plan_cache_size, int)
            or plan_cache_size < 0
        ):
            raise ExecutionError(
                f"plan_cache_size must be a non-negative int, "
                f"got {plan_cache_size!r}"
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
        """Execute ``query``: search each cluster as it is admitted.

        ``workers`` must be a positive int and changes nothing: every
        query runs serially, and the keyword stays for callers that pass
        a worker count (see "Serial execution" in
        ``docs/performance.md``).

        ``limits`` overrides the executor-level :class:`ResourceLimits`
        for this call only — the serving layer uses it to apply
        per-tenant and per-request deadlines over one shared executor
        (and its shared plan cache).  ``cancel`` is a cooperative
        cancellation hook (see :class:`~repro.resilience.CancelToken`):
        called periodically from the budget checks; returning a reason
        string trips the budget and the query returns partial results
        with a limit diagnostic.

        ``trace`` (a :class:`~repro.obs.Trace`) turns on the flight
        recorder for this call: spans cover planning and the cluster
        scan, and the result carries an EXPLAIN ANALYZE-style
        :class:`~repro.obs.QueryProfile` on ``result.profile``.  With
        ``trace=None`` (the default) the traced code paths are never
        entered — output is byte-identical either way (asserted by the
        ``tracing`` gate of ``repro.bench.gates``).
        """
        if workers is not None:
            _check_workers(workers)
        started = time.perf_counter()
        if trace is None:
            result, report = self._run(query, instrumentation, limits, cancel, None)
        else:
            with trace.span("execute") as root:
                result, report = self._run(
                    query, instrumentation, limits, cancel, trace
                )
            root.annotate(
                matcher=report.matcher,
                matches=report.matches,
                rows_scanned=report.rows_scanned,
                tests=report.predicate_tests,
            )
            result.profile = QueryProfile(trace, report)
        self._queries_counter.inc()
        self._query_seconds.observe(time.perf_counter() - started)
        return result, report

    def _run(
        self,
        query: Union[str, ast.Query],
        instrumentation: Optional[Instrumentation],
        limits: Optional[ResourceLimits],
        cancel: Optional[Callable[[], Optional[str]]],
        trace: Optional[Trace],
    ) -> tuple[Result, ExecutionReport]:
        """One execution: plan, admit and search the clusters, report."""
        diagnostics = Diagnostics()
        plan = self._plan(query, diagnostics, trace)
        instrumentation = instrumentation or Instrumentation()
        if trace is not None:
            instrumentation.enable_detail()
        limits = limits if limits is not None else self._limits
        budget = (
            Budget(limits, diagnostics, cancel=cancel)
            if limits.bounded or cancel is not None
            else None
        )
        admission = _Admission(
            self._catalog.table(plan.analyzed.table),
            plan.analyzed,
            self._policy,
            diagnostics,
            budget,
        )
        output_rows: list[tuple] = []
        with (
            trace.span("scan") if trace is not None else nullcontext()
        ) as scan_span:
            for key, cluster in admission:
                projected, plan = search_cluster(
                    plan, key, cluster, instrumentation, budget, diagnostics, trace
                )
                output_rows += projected
                if budget is not None and budget.tripped is not None:
                    break
        if scan_span is not None:
            scan = admission.scan
            scan_span.annotate(
                clusters=admission.clusters,
                clusters_searched=admission.searched,
                grouped=scan.grouped,
                sorted=scan.sorted,
                reused=scan.reused,
                rows_scanned=admission.scanned,
                skips=instrumentation.skips,
                skip_distance=instrumentation.skip_distance,
            )
            if budget is not None and budget.tripped is not None:
                scan_span.annotate(tripped=budget.tripped)
        report = ExecutionReport(
            matcher=plan.matcher_name,
            clusters=admission.clusters,
            clusters_searched=admission.searched,
            rows_scanned=admission.scanned,
            predicate_tests=instrumentation.tests,
            matches=len(output_rows),
            pattern=plan.compiled,
            diagnostics=diagnostics,
        )
        columns = [
            item.output_name(position)
            for position, item in enumerate(plan.analyzed.select, start=1)
        ]
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
            keyed_rows=_stream_rows(runner, analyzed, resume, compiled.use_codegen),
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
        self,
        query: Union[str, ast.Query],
        diagnostics: Diagnostics,
        trace: Optional[Trace] = None,
    ) -> SearchPlan:
        """Produce the plan for one execution, degrading if allowed.

        Syntax and semantic errors always raise — there is nothing to
        degrade to without a valid query.  Planning (OPS compilation)
        errors degrade under a lenient policy: the pattern gets a
        placeholder plan and the restart-based fallback matcher, which
        produces identical matches without shift/next.  The downgrade
        diagnostic is re-recorded on every execution, including plan-cache
        hits — diagnostics belong to the execution, not the plan.  With
        ``trace``, planning is the ``plan`` span.
        """
        with (
            trace.span("plan") if trace is not None else nullcontext()
        ) as span:
            entry = self._analyze_and_compile(query, diagnostics)
            if entry.planning_error is None:
                name, matcher = self._matcher_name, self._matcher
            elif self._policy.lenient and self._fallback is not None:
                name = self._fallback
                matcher = MATCHERS[name]()
                diagnostics.record_downgrade(entry.degrade_reason)
            else:
                raise entry.planning_error
        if span is not None:
            if diagnostics.plan_cache_hits:
                cache = "hit"
            elif diagnostics.plan_cache_misses:
                cache = "miss"
            else:
                cache = "bypass"
            span.annotate(
                cache=cache, matcher=name, degraded=diagnostics.degraded
            )
            fused = sum(
                1
                for evaluator in entry.compiled.evaluators
                if getattr(evaluator, "band_fused", False)
            )
            if fused:
                span.annotate(band_fused_elements=fused)
        return SearchPlan(
            entry.analyzed,
            entry.compiled,
            name,
            matcher,
            self._policy,
            self._fallback,
            self._evaluator,
        )


class _Admission:
    """The clusters one execution searches, in first-appearance order.

    Iterating yields ``(key, cluster)`` for every cluster that passes
    the hoisted cluster filter (a :class:`~repro.engine.cluster.Cluster`
    of the table's partition); it checks the deadline before each
    cluster, charges its rows check-then-charge, and counts as it goes.
    ``scan`` says which clusters this execution grouped or sorted and
    which it reused.
    """

    def __init__(
        self,
        table,
        analyzed: AnalyzedQuery,
        policy: ErrorPolicy,
        diagnostics: Diagnostics,
        budget: Optional[Budget],
    ):
        self.scan = ClusterScan()
        self._clusters = clusters_of(
            table,
            analyzed.cluster_by,
            analyzed.sequence_by,
            policy=policy,
            diagnostics=diagnostics,
            keep=partial(_cluster_passes, analyzed) if analyzed.cluster_filter else None,
            scan=self.scan,
        )
        self._budget = budget
        self.clusters = 0
        self.searched = 0
        self.scanned = 0

    def __iter__(self) -> Iterator[tuple[tuple, Cluster]]:
        budget = self._budget
        for key, cluster in self._clusters:
            self.clusters += 1
            if budget is not None and budget.check_deadline():
                return
            if cluster is None:
                continue
            if budget is not None and budget.add_rows(len(cluster)):
                return
            self.searched += 1
            self.scanned += len(cluster)
            yield key, cluster


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
    runner: RecoveringStreamRunner,
    analyzed: AnalyzedQuery,
    resume: bool,
    lowered: bool,
) -> Iterator[tuple[int, tuple]]:
    """Project each emitted match against the matcher's live window.

    Yields ``(seq, values)`` where ``seq`` is the match's absolute end
    position in the stream — the same coordinate the recovery runner's
    exactly-once high-water mark uses, so it is stable across
    crash/resume and strictly increasing within one subscription.
    ``lowered`` reads the match's boundaries through the plan's lowered
    SELECT; otherwise each item is interpreted over the match's spans.
    """
    if lowered:
        items = analyzed.projection.items
    else:
        items = tuple(partial(evaluate_expr, item.expr) for item in analyzed.select)
    warned_trimmed = False
    for _, match in runner.run(resume=resume):
        window = runner.matcher.window
        context = match.bounds if lowered else _span_bindings(match)
        values = []
        for item in items:
            try:
                values.append(item(window, context))
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


def resolve_matcher(matcher: Union[str, Matcher]) -> tuple[str, Matcher]:
    """A :data:`MATCHERS` key or a matcher instance -> (report name, matcher)."""
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


# Nothing calls this: search_cluster hands each sorted cluster straight to
# the matcher.  The name stays only because the benchmark's layer wrappers
# (perf/layers.py) patch it; ROADMAP item 6 drops both together.
def apply_aggregate(*args, **kwargs) -> None:
    """Unused; a patch target for ``perf/layers.py`` only."""


def search_cluster(
    plan: SearchPlan,
    key: tuple,
    cluster: Cluster,
    instrumentation: Instrumentation,
    budget: Optional[Budget],
    diagnostics: Diagnostics,
    trace: Optional[Trace] = None,
) -> tuple[list[tuple], SearchPlan]:
    """Search one admitted cluster and project its matches.

    The cluster's kernels are materialized once, from its kept columns.
    A PlanningError from the matcher degrades to the fallback under a
    lenient policy, and the returned plan carries the fallback so later
    clusters skip the failing attempt.  With ``trace``, the search is
    one ``cluster`` span labelled with the cluster's key, with the
    projection of its matches as its ``project`` child; its ``replays``
    are the attempts the OPS replay walk settled.
    """
    tests_before = instrumentation.tests
    replays_before = instrumentation.replays
    with (
        trace.span("cluster") if trace is not None else nullcontext()
    ) as span:
        kernels = _cluster_kernels(cluster, plan, trace)
        try:
            matches = plan.matcher.find_matches(
                _scanned(plan, cluster, kernels),
                plan.compiled,
                instrumentation,
                budget,
                kernels=kernels,
            )
        except PlanningError as error:
            if not plan.policy.lenient or plan.fallback is None:
                raise
            diagnostics.record_downgrade(
                f"matcher {plan.matcher_name!r} cannot execute this pattern "
                f"({error}); falling back to {plan.fallback!r}"
            )
            plan = replace(
                plan,
                matcher_name=plan.fallback,
                matcher=MATCHERS[plan.fallback](),
            )
            matches = plan.matcher.find_matches(
                _scanned(plan, cluster, kernels),
                plan.compiled,
                instrumentation,
                budget,
                kernels=kernels,
            )
        if trace is None:
            projected = _project_cluster(plan, cluster, matches)
        else:
            with trace.span("project") as project_span:
                projected = _project_cluster(plan, cluster, matches)
            project_span.annotate(
                matches=len(matches), columns=len(plan.analyzed.select)
            )
    if span is not None:
        span.annotate(
            partition=_cluster_label(key),
            rows=len(cluster),
            tests=instrumentation.tests - tests_before,
            replays=instrumentation.replays - replays_before,
            matches=len(projected),
            matcher=plan.matcher_name,
        )
    return projected, plan


#: Matchers that read an element's truth array, where it has one, in
#: place of its evaluator; the OPS scan also reads anchored comparisons.
_TRUTH_READERS = (NaiveMatcher, OpsMatcher, BacktrackingMatcher)


def _scanned(plan: SearchPlan, cluster: Cluster, kernels):
    """What the matcher scans: the cluster itself where the kernels hold
    every element the matcher tests, so that only its length is read,
    and otherwise the cluster's row dicts, for the evaluators."""
    if kernels is not None:
        kind = type(plan.matcher)
        if kind is OpsStarMatcher:
            if kernels.lowered == len(kernels.truth):
                return cluster
        elif kind in _TRUTH_READERS and None not in kernels.truth:
            return cluster
    return cluster.rows


def _cluster_kernels(cluster: Cluster, plan: SearchPlan, trace: Optional[Trace]):
    """Materialize columnar truth arrays for one cluster, or None.

    Engagement policy (see :data:`EVALUATOR_MODES`): never for
    ``"row"``; ``"columnar"`` always attempts.  The plan must have
    ``use_codegen`` set — ``use_codegen=False`` is the interpreted
    differential oracle and stays kernel-free end to end.
    """
    compiled = plan.compiled
    if plan.evaluator == "row" or not len(cluster) or not compiled.use_codegen:
        return None
    from repro.engine.columnar import materialize_kernels

    if trace is None:
        return materialize_kernels(compiled, cluster)
    with trace.span("kernels") as span:
        kernels = materialize_kernels(compiled, cluster)
        if kernels is None:
            span.annotate(lowered=0, anchored=0, rows=len(cluster))
        else:
            span.annotate(
                lowered=kernels.lowered,
                anchored=sum(1 for entry in kernels.anchored if entry is not None),
                elements=compiled.m,
                rows=len(cluster),
            )
    return kernels


def _cluster_passes(analyzed: AnalyzedQuery, rows: list[dict[str, object]]) -> bool:
    """Evaluate the hoisted cluster-invariant conditions on this cluster.

    The conditions only reference bare CLUSTER BY attributes, constant
    within the cluster, so ``rows`` is one row of the cluster's CLUSTER
    BY values, and every pattern variable is bound to it.
    """
    bindings = {name: (0, 0) for name in analyzed.spec.names}
    return all(
        evaluate_condition(condition, rows, bindings)
        for condition in analyzed.cluster_filter
    )


def _project_cluster(
    plan: SearchPlan, cluster: Cluster, matches: list[Match]
) -> list[tuple]:
    """One output tuple per match, in match order.

    The plan's lowered SELECT gathers each value from the matches'
    boundaries, column by column through the cluster's index.
    ``codegen=False`` is the interpreted oracle: each item goes through
    ``evaluate_expr`` over the cluster's rows and the match's spans.
    """
    if plan.compiled.use_codegen:
        return plan.analyzed.projection.rows(cluster, Match.all_bounds(matches))
    if not matches:
        return []
    rows = cluster.rows
    select = plan.analyzed.select
    projected = []
    for match in matches:
        bindings = _span_bindings(match)
        projected.append(
            tuple(evaluate_expr(item.expr, rows, bindings) for item in select)
        )
    return projected


def _span_bindings(match: Match) -> dict[str, tuple[int, int]]:
    """The interpreter's bindings of a match: name -> (start, end)."""
    return {name: (span.start, span.end) for name, span in match.bindings().items()}


def _check_workers(workers) -> None:
    """Refuse a worker count that is not a positive int; a bool is an
    int to Python but no count a caller means."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ExecutionError(f"workers must be a positive int, got {workers!r}")


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
        evaluator=evaluator,
    ).execute(query, instrumentation)
