"""The partition-parallel pool for clustered SQL-TS queries.

The paper's OPS matcher runs independently per ``CLUSTER BY`` partition
— each stock in the DJIA-style workloads is searched in isolation — so
partition parallelism is the cheapest scale-out step.  The executor
plans the query and admits its clusters exactly as a serial run does,
then hands the admitted clusters to :func:`execute_parallel`.  This
module owns only the pool: it splits the clusters into work units, runs
them on a :mod:`concurrent.futures` process pool or in-line, grafts
their spans into the caller's trace, picks the earliest error, and
merges the outcomes in partition order.

Determinism contract: **without resource limits, parallel execution is
byte-identical to serial execution** — same output rows in the same
order, same predicate-test counts (the paper's metric), same
diagnostics, same report fields.  The guarantees rest on three pillars:

1. *Shared admission.*  Clustering, sequence audits, hoisted cluster
   filters, and ``max_rows_scanned`` check-then-charge all run in the
   parent, through the executor's one admission loop, before anything
   is dispatched — so which partitions are searched, and every
   admission-side diagnostic, is decided by the code the serial loop
   runs.
2. *Shared per-cluster search.*  Work units call
   :func:`repro.engine.executor.search_cluster`, the function the serial
   loop calls, with the executor's own matcher instance — including the
   per-partition OPS→fallback degrade.
3. *Ordered merge.*  Outcomes are merged by partition index regardless
   of completion order; identical downgrade messages that each unit
   discovers independently (they are properties of the pattern, not the
   data) are collapsed to the single entry serial execution would
   record.

With resource limits the guarantees are necessarily looser — a worker
cannot know remotely when a sibling trips the global budget — but they
stay *safe*: ``max_rows_scanned`` admits exactly the serial prefix
(never over-admits), ``max_matches`` keeps exactly the first N matches
in partition order (the same rows serial keeps, though workers may have
tested more predicates finding discarded ones), and a
``wall_clock_deadline`` is pushed down to every unit so a mid-pool
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
one after another, through the same unit code.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures import as_completed
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, Union

from repro import failpoints

# Admission runs through ``executor.clusters_of``; this module keeps the
# name only because the benchmark's layer wrappers (perf/layers.py)
# patch it here as well.
from repro.engine.cluster import clusters_of  # noqa: F401
from repro.engine.executor import search_cluster
from repro.errors import (
    ExecutionError,
    LimitExceeded,
    PlanningError,
    ReproError,
    SchemaError,
    SemanticError,
)
from repro.match.base import Instrumentation
from repro.obs import Trace
from repro.pattern.compiler import compile_pattern, degraded_pattern
from repro.pattern.predicates import AttributeDomains
from repro.resilience import Budget, Diagnostics, ResourceLimits
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


def _run_unit(
    plan,
    unit: WorkUnit,
    limits: Optional[ResourceLimits],
    record_trace: bool,
    record_spans: bool,
) -> dict:
    """Search one work unit's partitions; return a picklable outcome.

    Each partition goes through :func:`search_cluster`, which carries a
    PlanningError downgrade forward to the unit's remaining partitions,
    as the serial loop does.  A per-unit budget holds ``limits``: what
    was left of the deadline at dispatch and the global ``max_matches``
    allowance (a unit alone can prove the global cap reached; the merge
    enforces it across units).  The outcome says whether it tripped, and
    the parent names the limit.  With ``record_spans`` the unit records
    its ``unit`` and ``cluster`` spans in a private trace and ships the
    tree as a dict, for the parent to graft into its own.

    The first partition that raises stops the unit: its error is
    reported with its partition index so the parent can deterministically
    re-raise the earliest failure, exactly as the serial loop would have
    surfaced it.
    """
    failpoints.maybe_fail("parallel.worker_start")
    budget = Budget(limits) if limits is not None else None
    instrumentation = Instrumentation(record_trace=record_trace)
    diagnostics = Diagnostics()
    trace = None
    if record_spans:
        instrumentation.enable_detail()
        trace = Trace()
    outcomes: list[dict] = []
    error: Optional[tuple[int, str, str]] = None
    error_obj: Optional[BaseException] = None
    with (
        trace.span("unit", unit=unit.index) if trace is not None else nullcontext()
    ):
        for partition in unit.partitions:
            if budget is not None and budget.tripped is not None:
                break
            try:
                rows, plan = search_cluster(
                    plan, partition.key, partition.rows, instrumentation,
                    budget, diagnostics, trace,
                )
            except Exception as exc:
                error = (partition.index, type(exc).__name__, str(exc))
                error_obj = exc
                break
            outcomes.append({"partition": partition.index, "rows": rows})
    return {
        "unit": unit.index,
        "partitions": outcomes,
        "instrumentation": instrumentation,
        "matcher": plan.matcher_name,
        "downgrades": list(diagnostics.downgrades),
        "tripped": budget is not None and budget.tripped is not None,
        "error": error,
        "error_obj": error_obj,
        "span": trace.root.to_dict() if trace is not None else None,
    }


#: Per-process plan, built once by the pool initializer.
_PROCESS_PLAN = None


def _process_initializer(
    query: str, domains: AttributeDomains, degraded: bool, codegen: bool, plan
) -> None:
    """Plan the query once in a pool worker process.

    Compiled predicates are closures and cannot be pickled, so ``plan``
    arrives without its analysis and pattern, and the worker re-plans
    the text; compilation is deterministic, so every worker holds the
    plan the parent does.  The rest, the executor's matcher instance
    included, arrives as the parent holds it: a forked worker inherits
    it, and an instance of any module-level class pickles.
    """
    global _PROCESS_PLAN
    analyzed = analyze(parse_query(query), domains)
    build = degraded_pattern if degraded else compile_pattern
    _PROCESS_PLAN = replace(
        plan, analyzed=analyzed, compiled=build(analyzed.spec, codegen=codegen)
    )


def _process_run_unit(
    unit: WorkUnit,
    limits: Optional[ResourceLimits],
    record_trace: bool,
    record_spans: bool,
) -> dict:
    outcome = _run_unit(_PROCESS_PLAN, unit, limits, record_trace, record_spans)
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


def _remaining(budget: Optional[Budget]) -> Optional[float]:
    """What is left of the parent budget's deadline (None without one)."""
    remaining = budget.remaining() if budget is not None else None
    return None if remaining is None else max(remaining, 0.001)


def _unit_limits(budget: Optional[Budget]) -> Optional[ResourceLimits]:
    """The limits a unit dispatched now runs under, or None."""
    deadline = _remaining(budget)
    max_matches = budget.limits.max_matches if budget is not None else None
    if deadline is None and max_matches is None:
        return None
    return ResourceLimits(wall_clock_deadline=deadline, max_matches=max_matches)


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


def _run_units_pooled(
    plan,
    units: Sequence[WorkUnit],
    workers: int,
    query: str,
    domains: AttributeDomains,
    budget: Optional[Budget],
    record_trace: bool,
    record_spans: bool,
) -> dict[int, dict]:
    """Dispatch units to a process pool and collect their outcomes.

    A global deadline expiring mid-pool trips the parent budget (which
    records the canonical limit diagnostic), cancels undispatched units,
    and then waits briefly for the running ones — each worker holds the
    same deadline allowance, so they stop on their own and their partial
    outcomes are still merged.
    """
    outcome_by_unit: dict[int, dict] = {}
    compiled = plan.compiled
    if plan.evaluator != "row" and compiled.use_codegen:
        # Forked workers inherit the parent's modules: import NumPy for
        # the columnar kernels once here, not once per worker per query.
        import numpy  # noqa: F401
    pool = ProcessPoolExecutor(
        max_workers=min(workers, len(units)),
        initializer=_process_initializer,
        initargs=(
            query,
            domains,
            compiled.degraded,
            compiled.use_codegen,
            replace(plan, analyzed=None, compiled=None),
        ),
    )
    try:
        future_units = {
            pool.submit(
                _process_run_unit,
                unit,
                _unit_limits(budget),
                record_trace,
                record_spans,
            ): unit
            for unit in units
        }
        try:
            for future in as_completed(future_units, timeout=_remaining(budget)):
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
    plan,
    clusters: Sequence[tuple],
    *,
    workers: int,
    query: Union[str, ast.Query],
    domains: AttributeDomains,
    instrumentation: Instrumentation,
    budget: Optional[Budget],
    diagnostics: Diagnostics,
    trace: Optional[Trace] = None,
) -> tuple[list[tuple], str]:
    """Search the admitted ``clusters`` on work units; merge in order.

    Called by :meth:`repro.engine.executor.Executor.execute_with_report`
    when the effective worker count exceeds one, with the executor's
    :class:`~repro.engine.executor.SearchPlan` and the ``(key, rows)``
    pairs it admitted, in cluster order.  Returns the projected rows,
    cut at the ``max_matches`` cap, and the name of the matcher that
    ran last.  The units' counts fold into ``instrumentation`` and their
    downgrades into ``diagnostics``.

    ``budget`` is the parent's: its deadline is pushed down to each
    unit, timed from the budget's start, together with its
    ``max_matches`` allowance.  Its cancel hook stays in the parent and
    is consulted when a mid-pool deadline expires; dispatched units stop
    on their own deadlines, so cancellation of in-flight units is
    best-effort.

    ``trace`` adds a ``parallel`` span to the caller's trace, with the
    units' own ``unit > cluster`` span trees grafted under it.
    """
    partitions = [
        Partition(index, key, rows) for index, (key, rows) in enumerate(clusters)
    ]
    units = split_partitions(partitions, workers)
    record_trace = instrumentation.trace is not None
    record_spans = trace is not None
    pooled = len(units) > 1 and isinstance(query, str) and usable_cpus() > 1
    with (
        trace.span("parallel") if trace is not None else nullcontext()
    ) as pool_span:
        if pooled:
            outcome_by_unit = _run_units_pooled(
                plan, units, workers, query, domains, budget,
                record_trace, record_spans,
            )
        else:
            outcome_by_unit = index_outcomes(
                _run_unit(
                    plan, unit, _unit_limits(budget), record_trace, record_spans
                )
                for unit in units
            )
    if pool_span is not None:
        pool_span.annotate(
            mode="process" if pooled else "inline",
            workers=workers,
            units=len(units),
        )
        # Graft the unit span trees (duration only — a worker's clock
        # origin is not ours) under the pool span.
        for unit_index in sorted(outcome_by_unit):
            span_payload = outcome_by_unit[unit_index].get("span")
            if span_payload:
                trace.attach(pool_span, span_payload)

    # Deterministic earliest-error selection.  The serial loop surfaces
    # the first failing partition; completed siblings are discarded just
    # as serial execution would never have reached them.
    failures = [
        (outcome["error"], outcome.get("error_obj"))
        for outcome in outcome_by_unit.values()
        if outcome.get("error") is not None
    ]
    if failures:
        (_, class_name, message), error_obj = min(
            failures, key=lambda failure: failure[0][0]
        )
        if error_obj is not None:
            raise error_obj
        raise _rebuild_error(class_name, message)

    # Ordered merge: counts and downgrades unit by unit (units are
    # consecutive, so the Figure 5 path stays in partition order), then
    # rows partition by partition up to the match cap.
    matcher_name = plan.matcher_name
    for unit_index in sorted(outcome_by_unit):
        outcome = outcome_by_unit[unit_index]
        instrumentation.merge(outcome["instrumentation"])
        if outcome["matcher"] != plan.matcher_name:
            matcher_name = outcome["matcher"]
        for message in outcome["downgrades"]:
            # Each unit rediscovers the same pattern-level downgrade the
            # serial loop records once; collapse exact duplicates.
            if message not in diagnostics.downgrades:
                diagnostics.record_downgrade(message)
    output_rows: list[tuple] = []
    for outcome in ordered_partition_outcomes(outcome_by_unit):
        output_rows += outcome["rows"]
    max_matches = budget.limits.max_matches if budget is not None else None
    if max_matches is not None and len(output_rows) >= max_matches:
        del output_rows[max_matches:]
        budget.trip(f"max_matches ({max_matches}) reached")
    if budget is not None and any(
        outcome["tripped"] for outcome in outcome_by_unit.values()
    ):
        # A unit's budget holds only the allowance left when it was
        # dispatched, and what it ran out of is the configured deadline
        # (a unit that reached the match cap has tripped the budget in
        # the merge above); name it as the serial loop does.
        budget.expire()
    return output_rows, matcher_name
