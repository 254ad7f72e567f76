"""Partition-parallel execution of clustered SQL-TS queries.

The paper's OPS matcher runs independently per ``CLUSTER BY`` partition
— each stock in the DJIA-style workloads is searched in isolation — so
partition parallelism is the cheapest scale-out step: split the
clustered input into work units, search them on a
:mod:`concurrent.futures` pool, and merge the outcomes back in
partition order.

Determinism contract (the reason this module can exist next to the
resilience and recovery layers): **without resource limits, parallel
execution is byte-identical to serial execution** — same output rows in
the same order, same predicate-test counts (the paper's metric), same
diagnostics, same report fields.  The guarantees rest on three pillars:

1. *Serial admission.*  Clustering, sequence audits, hoisted cluster
   filters, and ``max_rows_scanned`` check-then-charge all run in the
   parent, in first-appearance cluster order, before anything is
   dispatched — so which partitions are searched, and every
   admission-side diagnostic, is decided exactly as the serial loop
   decides it.
2. *Shared per-cluster search.*  Workers run the same
   :func:`repro.engine.executor.search_rows` the serial loop runs,
   including the per-partition OPS→fallback degrade.
3. *Ordered merge.*  Outcomes are merged by partition index regardless
   of completion order; identical downgrade/limit messages that each
   worker discovers independently (they are properties of the pattern,
   not the data) are collapsed to the single entry serial execution
   would record.

With resource limits the guarantees are necessarily looser — a worker
cannot know remotely when a sibling trips the global budget — but they
stay *safe*: ``max_rows_scanned`` admits exactly the serial prefix
(never over-admits), ``max_matches`` keeps exactly the first N matches
in partition order (the same rows serial keeps, though workers may have
tested more predicates finding discarded ones), and a
``wall_clock_deadline`` is pushed down to every worker so a mid-pool
expiry stops outstanding workers and still returns a well-formed
partial report; either way ``limits_hit`` names the configured limit,
as the serial loop does.  See "Parallel execution" in
``docs/performance.md``.

Where the units run: on a process pool when the query is a string and
more than one CPU is usable (:func:`usable_cpus`) — each worker
re-plans the query from its text, since compiled-predicate closures
cannot cross the pickle boundary and re-compilation is deterministic.
Otherwise (one usable CPU, a single unit, or a pre-built ``ast.Query``
that cannot be shipped to a fresh interpreter) the units run in-line,
one after another, through the same worker code.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures import as_completed
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional, Sequence, Union

from repro import failpoints
from repro.engine.cluster import clusters_of
from repro.engine.executor import (
    MATCHERS,
    ExecutionReport,
    _annotate_plan_span,
    _cluster_passes,
    _project,
    search_rows,
)
from repro.engine.result import Result
from repro.errors import (
    ExecutionError,
    LimitExceeded,
    PlanningError,
    ReproError,
    SchemaError,
    SemanticError,
)
from repro.match.base import Instrumentation
from repro.obs import QueryProfile, Trace
from repro.pattern.compiler import compile_pattern, degraded_pattern
from repro.pattern.predicates import AttributeDomains
from repro.resilience import Budget, Diagnostics, ErrorPolicy, ResourceLimits
from repro.sqlts import ast
from repro.sqlts.parser import parse_query
from repro.sqlts.semantic import analyze

#: Work units per worker: small enough to amortize dispatch overhead,
#: large enough that a skewed partition cannot straggle a whole unit's
#: worth of siblings behind it.
UNIT_OVERSUBSCRIPTION = 4


@dataclass(frozen=True)
class Partition:
    """One admitted cluster: its merge position, key, and sorted rows."""

    index: int
    key: tuple
    rows: Sequence


@dataclass(frozen=True)
class WorkUnit:
    """A consecutive slice of partitions dispatched as one pool task."""

    index: int
    partitions: tuple


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one (``taskset``, cgroup cpusets), the machine's count elsewhere.

    A process pinned to one CPU gains nothing from a pool, so the
    partitions then run in-line.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_partitions(partitions: Sequence, workers: int) -> list[WorkUnit]:
    """Chunk ``partitions`` into consecutive, order-preserving work units.

    Every input item appears in exactly one unit, units concatenate back
    to the input order, and no unit is empty — the invariants the
    property suite (``tests/engine/test_parallel_properties.py``) pins.
    Units are sized for ``workers * UNIT_OVERSUBSCRIPTION`` of them, so
    skewed partitions rebalance across the pool.
    """
    if workers < 1:
        raise ExecutionError(f"workers must be positive, got {workers}")
    size = max(1, -(-len(partitions) // (workers * UNIT_OVERSUBSCRIPTION)))
    return [
        WorkUnit(index, tuple(partitions[start : start + size]))
        for index, start in enumerate(range(0, len(partitions), size))
    ]


def index_outcomes(outcomes: Iterable[dict]) -> dict[int, dict]:
    """Key unit outcomes by unit index, rejecting duplicates."""
    by_unit: dict[int, dict] = {}
    for outcome in outcomes:
        unit = outcome["unit"]
        if unit in by_unit:
            raise ExecutionError(f"duplicate outcome for work unit {unit}")
        by_unit[unit] = outcome
    return by_unit


def ordered_partition_outcomes(by_unit: dict[int, dict]) -> Iterable[dict]:
    """Yield partition outcomes in global partition order.

    Units may complete in any order; this is the single place that
    restores determinism.  A partition index that repeats or goes
    backwards means a splitter/runner bug and is rejected loudly rather
    than silently reordering rows.
    """
    last = -1
    for unit_index in sorted(by_unit):
        for outcome in by_unit[unit_index]["partitions"]:
            if outcome["partition"] <= last:
                raise ExecutionError(
                    f"partition outcomes out of order or duplicated: "
                    f"{outcome['partition']} after {last}"
                )
            last = outcome["partition"]
            yield outcome


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


@dataclass
class _WorkerPlan:
    """Everything a worker needs to search partitions of one query."""

    analyzed: object
    compiled: object
    matcher_name: str
    policy: ErrorPolicy
    fallback: Optional[str]
    record_trace: bool
    # Flight-recorder mode: workers time each unit/partition and report
    # serialized span dicts (durations only — perf_counter origins do
    # not align across processes) for the parent to graft into its Trace.
    record_spans: bool = False
    # Predicate evaluation mode (see executor.EVALUATOR_MODES): workers
    # apply the same per-cluster kernel engagement policy as the serial
    # loop, so matches stay byte-identical across worker counts.
    evaluator: str = "row"


def _run_unit(
    plan: _WorkerPlan,
    unit_index: int,
    partitions: Sequence[tuple],
    deadline_remaining: Optional[float] = None,
    max_matches: Optional[int] = None,
) -> dict:
    """Search one work unit's partitions; return a picklable outcome.

    ``partitions`` is a sequence of ``(partition_index, rows)`` pairs.
    A fresh matcher starts the unit and — exactly like the serial loop —
    a PlanningError downgrade replaces it for the unit's remaining
    partitions.  A per-unit budget carries the pushed-down deadline and
    the global ``max_matches`` allowance (a unit alone can prove the
    global cap reached; the merge enforces it across units); the outcome
    says whether it tripped, and the parent names the limit.

    The first partition that raises stops the unit: its error is
    reported with its partition index so the parent can deterministically
    re-raise the earliest failure, exactly as the serial loop would have
    surfaced it.
    """
    failpoints.maybe_fail("parallel.worker_start")
    matcher_name = plan.matcher_name
    matcher = MATCHERS[matcher_name]()
    budget = None
    if deadline_remaining is not None or max_matches is not None:
        budget = Budget(
            ResourceLimits(
                wall_clock_deadline=deadline_remaining, max_matches=max_matches
            )
        )
    outcomes: list[dict] = []
    error: Optional[tuple[int, str, str]] = None
    error_obj: Optional[BaseException] = None
    record_spans = plan.record_spans
    partition_spans: list[dict] = []
    unit_started = time.perf_counter() if record_spans else 0.0
    for partition_index, rows in partitions:
        if budget is not None and budget.tripped is not None:
            break
        instrumentation = Instrumentation(record_trace=plan.record_trace)
        if record_spans:
            instrumentation.enable_detail()
            partition_started = time.perf_counter()
        diagnostics = Diagnostics()
        try:
            matches, matcher_name, matcher = search_rows(
                rows,
                plan.compiled,
                matcher_name,
                matcher,
                instrumentation,
                budget,
                diagnostics,
                plan.policy,
                plan.fallback,
                evaluator=plan.evaluator,
            )
            projected = [_project(plan.analyzed, rows, match) for match in matches]
        except Exception as exc:
            error = (partition_index, type(exc).__name__, str(exc))
            error_obj = exc
            break
        outcomes.append(
            {
                "partition": partition_index,
                "rows": projected,
                "tests": instrumentation.tests,
                "skips": instrumentation.skips,
                "skip_distance": instrumentation.skip_distance,
                "tests_by_element": instrumentation.tests_by_element,
                "trace": instrumentation.trace,
                "matcher": matcher_name,
                "downgrades": list(diagnostics.downgrades),
            }
        )
        if record_spans:
            partition_spans.append(
                {
                    "name": "cluster",
                    "duration_s": time.perf_counter() - partition_started,
                    "attrs": {
                        "partition": partition_index,
                        "rows": len(rows),
                        "tests": instrumentation.tests,
                        "matches": len(matches),
                        "matcher": matcher_name,
                    },
                    "children": [],
                }
            )
    return {
        "unit": unit_index,
        "partitions": outcomes,
        "tripped": budget is not None and budget.tripped is not None,
        "error": error,
        "error_obj": error_obj,
        "span": (
            {
                "name": "unit",
                "duration_s": time.perf_counter() - unit_started,
                "attrs": {"unit": unit_index},
                "children": partition_spans,
            }
            if record_spans
            else None
        ),
    }


#: Per-process plan, built once by the pool initializer.
_PROCESS_PLAN: Optional[_WorkerPlan] = None


def _plan_from_payload(payload: dict) -> _WorkerPlan:
    """Rebuild the execution plan inside a worker process.

    Compiled predicate evaluators are closures and cannot be pickled, so
    the parent ships the query *text* plus the planning knobs and each
    worker re-plans once.  Compilation is deterministic, so every worker
    holds the same plan the parent does.
    """
    domains = AttributeDomains(payload["positive"])
    parsed = parse_query(payload["query"])
    analyzed = analyze(parsed, domains)
    if payload["degraded"]:
        compiled = degraded_pattern(analyzed.spec, codegen=payload["codegen"])
    else:
        compiled = compile_pattern(analyzed.spec, codegen=payload["codegen"])
    return _WorkerPlan(
        analyzed=analyzed,
        compiled=compiled,
        matcher_name=payload["matcher"],
        policy=ErrorPolicy.coerce(payload["policy"]),
        fallback=payload["fallback"],
        record_trace=payload["record_trace"],
        record_spans=payload["record_spans"],
        evaluator=payload["evaluator"],
    )


def _process_initializer(payload: dict) -> None:
    global _PROCESS_PLAN
    _PROCESS_PLAN = _plan_from_payload(payload)


def _process_run_unit(task: tuple) -> dict:
    unit_index, partitions, deadline_remaining, max_matches = task
    outcome = _run_unit(
        _PROCESS_PLAN, unit_index, partitions, deadline_remaining, max_matches
    )
    # Live exception objects may not survive the pickle boundary; the
    # (partition, class name, message) triple does, and the parent
    # rebuilds the error from it.
    outcome["error_obj"] = None
    return outcome


#: Library errors reconstructible by name when a worker process reports
#: a failure (the triple form of the error crosses the pickle boundary,
#: the live object need not).
_ERROR_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        ExecutionError,
        PlanningError,
        SchemaError,
        SemanticError,
        LimitExceeded,
        ReproError,
    )
}


def _rebuild_error(class_name: str, message: str) -> BaseException:
    """Reconstruct a worker-reported error: same type where possible."""
    cls = _ERROR_TYPES.get(class_name)
    if cls is not None:
        return cls(message)
    import builtins

    candidate = getattr(builtins, class_name, None)
    if isinstance(candidate, type) and issubclass(candidate, Exception):
        try:
            return candidate(message)
        except Exception:  # exotic constructor signature
            pass
    return ExecutionError(f"{class_name}: {message}")


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _remaining(deadline_end: Optional[float]) -> Optional[float]:
    if deadline_end is None:
        return None
    return max(deadline_end - time.monotonic(), 0.001)


def _harvest(future, unit: WorkUnit, outcome_by_unit: dict[int, dict]) -> None:
    """Fold one finished future into the outcome map.

    A failure *outside* the per-partition guard (a broken process pool,
    an unpicklable outcome) is attributed to the unit's first partition
    so it participates in the deterministic earliest-error selection.
    """
    try:
        outcome = future.result(timeout=0)
    except Exception as exc:
        first = unit.partitions[0].index
        outcome = {
            "unit": unit.index,
            "partitions": [],
            "tripped": False,
            "error": (first, type(exc).__name__, str(exc)),
            "error_obj": exc,
        }
    outcome_by_unit[outcome["unit"]] = outcome


def _unit_rows(unit: WorkUnit) -> list[tuple]:
    return [(partition.index, partition.rows) for partition in unit.partitions]


def _run_units_pooled(
    payload: dict,
    units: Sequence[WorkUnit],
    workers: int,
    deadline_end: Optional[float],
    max_matches: Optional[int],
    budget: Optional[Budget],
) -> dict[int, dict]:
    """Dispatch units to a process pool and collect their outcomes.

    A global deadline expiring mid-pool trips the parent budget (which
    records the canonical limit diagnostic), cancels undispatched units,
    and then waits briefly for the running ones — each worker holds the
    same deadline allowance, so they stop on their own and their partial
    outcomes are still merged.
    """
    outcome_by_unit: dict[int, dict] = {}
    if payload["evaluator"] != "row" and payload["codegen"]:
        # Forked workers inherit the parent's modules: import NumPy for
        # the columnar kernels once here, not once per worker per query.
        import numpy  # noqa: F401
    pool = ProcessPoolExecutor(
        max_workers=min(workers, len(units)),
        initializer=_process_initializer,
        initargs=(payload,),
    )
    try:
        future_units = {
            pool.submit(
                _process_run_unit,
                (unit.index, _unit_rows(unit), _remaining(deadline_end), max_matches),
            ): unit
            for unit in units
        }
        try:
            for future in as_completed(future_units, timeout=_remaining(deadline_end)):
                _harvest(future, future_units[future], outcome_by_unit)
        except FuturesTimeout:
            if budget is not None:
                budget.check_deadline()
            for future in future_units:
                future.cancel()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    # Harvest anything that finished while the pool was draining.
    for future, unit in future_units.items():
        if (
            unit.index not in outcome_by_unit
            and future.done()
            and not future.cancelled()
        ):
            _harvest(future, unit, outcome_by_unit)
    return outcome_by_unit


def execute_parallel(
    executor,
    query: Union[str, ast.Query],
    instrumentation: Optional[Instrumentation] = None,
    *,
    workers: int,
    limits: Optional[ResourceLimits] = None,
    cancel=None,
    trace: Optional[Trace] = None,
) -> tuple[Result, ExecutionReport]:
    """Execute ``query`` with partition-parallel workers.

    Called by :meth:`repro.engine.executor.Executor.execute_with_report`
    when the effective worker count exceeds one; ``workers=1`` never
    reaches here (the executor short-circuits to the serial path).

    ``limits`` overrides the executor-level resource limits for this
    call (per-request deadlines from the serving layer).  ``cancel`` is
    a cooperative cancellation hook consulted by the parent budget
    during admission and harvest; dispatched workers stop on their own
    deadlines, so cancellation of in-flight units is best-effort.

    ``trace`` turns on the flight recorder: the parent spans planning,
    admission, and the pool phase, workers report per-unit span dicts
    (see :class:`_WorkerPlan.record_spans`), and the merged result
    carries a :class:`~repro.obs.QueryProfile`.
    """
    if executor._matcher_name not in MATCHERS:
        # A custom matcher instance has no registry constructor workers
        # could call; honor the request serially rather than guess.
        result, report = executor._execute_serial(
            query, instrumentation, limits=limits, cancel=cancel, trace=trace
        )
        result.diagnostics.warn(
            f"matcher {executor._matcher_name!r} is not in the matcher "
            "registry; parallel execution needs a registry matcher — ran "
            "serially"
        )
        return result, report
    if trace is None:
        return _parallel_pass(
            executor,
            query,
            instrumentation,
            workers=workers,
            limits=limits,
            cancel=cancel,
            trace=None,
        )
    with trace.span("execute", mode="parallel") as root:
        result, report = _parallel_pass(
            executor,
            query,
            instrumentation,
            workers=workers,
            limits=limits,
            cancel=cancel,
            trace=trace,
        )
    root.annotate(
        matcher=report.matcher,
        matches=report.matches,
        rows_scanned=report.rows_scanned,
        tests=report.predicate_tests,
    )
    result.profile = QueryProfile(trace, report)
    return result, report


def _parallel_pass(
    executor,
    query: Union[str, ast.Query],
    instrumentation: Optional[Instrumentation] = None,
    *,
    workers: int,
    limits: Optional[ResourceLimits] = None,
    cancel=None,
    trace: Optional[Trace] = None,
) -> tuple[Result, ExecutionReport]:
    diagnostics = Diagnostics()
    if trace is not None:
        with trace.span("plan") as plan_span:
            entry = executor._analyze_and_compile(query, diagnostics)
    else:
        entry = executor._analyze_and_compile(query, diagnostics)
    if entry.planning_error is not None:
        if not executor._policy.lenient or executor._fallback is None:
            raise entry.planning_error
        matcher_name = executor._fallback
        diagnostics.record_downgrade(entry.degrade_reason)
        degraded = True
    else:
        matcher_name = executor._matcher_name
        degraded = False
    analyzed, compiled = entry.analyzed, entry.compiled
    if trace is not None:
        _annotate_plan_span(plan_span, diagnostics, matcher_name, compiled)

    instrumentation = (
        instrumentation if instrumentation is not None else Instrumentation()
    )
    if trace is not None:
        instrumentation.enable_detail()
    limits = limits if limits is not None else executor._limits
    budget = (
        Budget(limits, diagnostics, cancel=cancel)
        if limits.bounded or cancel is not None
        else None
    )
    deadline_end = (
        time.monotonic() + limits.wall_clock_deadline
        if limits.wall_clock_deadline is not None
        else None
    )
    table = executor._catalog.table(analyzed.table)
    columns = [
        item.output_name(position)
        for position, item in enumerate(analyzed.select, start=1)
    ]

    # Phase 1 — admission, with the serial loop's exact semantics:
    # cluster order, sequence audits, hoisted filters, and the
    # check-then-charge row budget all happen here, in the parent, so
    # splitting work across workers can never over-admit rows.
    admitted: list[Partition] = []
    clusters = 0
    searched = 0
    scanned = 0
    admit_span = None
    if trace is not None:
        admit_cm = trace.span("scan")
        admit_span = admit_cm.__enter__()
    try:
        for key, rows in clusters_of(
            table,
            analyzed.cluster_by,
            analyzed.sequence_by,
            policy=executor._policy,
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
            admitted.append(Partition(index=len(admitted), key=key, rows=rows))
    finally:
        if admit_span is not None:
            admit_cm.__exit__(None, None, None)
            admit_span.annotate(
                clusters=clusters,
                clusters_searched=searched,
                rows_scanned=scanned,
            )

    # Phase 2 — dispatch.
    plan = _WorkerPlan(
        analyzed=analyzed,
        compiled=compiled,
        matcher_name=matcher_name,
        policy=executor._policy,
        fallback=executor._fallback,
        record_trace=instrumentation.trace is not None,
        record_spans=trace is not None,
        evaluator=executor._evaluator,
    )
    units = split_partitions(admitted, workers)
    max_matches = limits.max_matches
    pooled = len(units) > 1 and isinstance(query, str) and usable_cpus() > 1
    pool_span = None
    if trace is not None:
        pool_cm = trace.span("parallel")
        pool_span = pool_cm.__enter__()
    try:
        if pooled:
            payload = {
                "query": query,
                "positive": executor._domains.fingerprint(),
                "codegen": executor._codegen,
                "degraded": degraded,
                "matcher": matcher_name,
                "fallback": executor._fallback,
                "policy": executor._policy.value,
                "record_trace": plan.record_trace,
                "record_spans": plan.record_spans,
                "evaluator": plan.evaluator,
            }
            outcome_by_unit = _run_units_pooled(
                payload, units, workers, deadline_end, max_matches, budget
            )
        else:
            outcome_by_unit = index_outcomes(
                _run_unit(
                    plan,
                    unit.index,
                    _unit_rows(unit),
                    _remaining(deadline_end),
                    max_matches,
                )
                for unit in units
            )
    finally:
        if pool_span is not None:
            pool_cm.__exit__(None, None, None)
            pool_span.annotate(
                mode="process" if pooled else "inline",
                workers=workers,
                units=len(units),
            )
    if trace is not None:
        # Graft the per-unit span trees the workers reported (duration
        # only — their clock origins are not ours) under the pool span.
        for unit_index in sorted(outcome_by_unit):
            span_payload = outcome_by_unit[unit_index].get("span")
            if span_payload:
                trace.attach(pool_span, span_payload)

    # Phase 3 — deterministic earliest-error selection.  The serial loop
    # surfaces the first failing partition; completed siblings are
    # discarded just as serial execution would never have reached them.
    failures = [
        (outcome["error"], outcome.get("error_obj"))
        for outcome in outcome_by_unit.values()
        if outcome.get("error") is not None
    ]
    if failures:
        (partition, class_name, message), error_obj = min(
            failures, key=lambda failure: failure[0][0]
        )
        if error_obj is not None:
            raise error_obj
        raise _rebuild_error(class_name, message)

    # Phase 4 — ordered merge: rows, instrumentation, diagnostics, and
    # the match cap, all in partition order.
    output_rows: list[tuple] = []
    match_count = 0
    final_matcher = matcher_name
    capped = False
    for outcome in ordered_partition_outcomes(outcome_by_unit):
        instrumentation.tests += outcome["tests"]
        instrumentation.skips += outcome.get("skips", 0)
        instrumentation.skip_distance += outcome.get("skip_distance", 0)
        detail = outcome.get("tests_by_element")
        if detail and instrumentation.tests_by_element is not None:
            for position, count in detail.items():
                instrumentation.tests_by_element[position] = (
                    instrumentation.tests_by_element.get(position, 0) + count
                )
        if instrumentation.trace is not None and outcome["trace"]:
            instrumentation.trace.extend(outcome["trace"])
        if outcome["matcher"] != matcher_name:
            final_matcher = outcome["matcher"]
        for message in outcome["downgrades"]:
            # Each unit rediscovers the same pattern-level downgrade the
            # serial loop records once; collapse exact duplicates.
            if message not in diagnostics.downgrades:
                diagnostics.record_downgrade(message)
        if capped:
            continue
        for row in outcome["rows"]:
            output_rows.append(row)
            match_count += 1
            if max_matches is not None and match_count >= max_matches:
                capped = True
                if budget is not None:
                    budget.trip(f"max_matches ({max_matches}) reached")
                break
    if budget is not None and any(
        outcome["tripped"] for outcome in outcome_by_unit.values()
    ):
        # A unit's budget holds only the allowance left when it was
        # dispatched, and what it ran out of is the configured deadline
        # (a unit that reached the match cap has tripped the budget in
        # the merge above); name it as the serial loop does.
        budget.expire()

    report = ExecutionReport(
        matcher=final_matcher,
        clusters=clusters,
        clusters_searched=searched,
        rows_scanned=scanned,
        predicate_tests=instrumentation.tests,
        matches=match_count,
        pattern=compiled,
        diagnostics=diagnostics,
    )
    return Result(columns, output_rows, diagnostics), report
