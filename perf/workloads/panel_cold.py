"""panel_cold: a cold ``repro query --workers 2`` over a large panel.

The input is a seeded CSV panel of 64 tickers x 1000 days (64k rows,
about 1 MB, ten times the DJIA series) with no columnar sidecar.  Each
operation mirrors one ``repro query --workers 2`` call: ``load_table``
ingests the CSV, a new executor plans the panel query cold, and the
partition-parallel pool searches the 64 clusters on 2 process workers.
It is the only workload with multi-partition data larger than the
others, and the one where the parallel pool has to pay its way.

Latency is load plus query.  Every result must equal the serial ``workers=1`` result.  The panel is
half the 128k rows first planned so that a 12-second run holds 12 to 22
queries; with 128k rows it held 7 to 11 and the p90 was the slowest.
(A 32k panel held more, but its times moved more: the process-pool
start dominates them.)
"""

from __future__ import annotations

import csv
import time
from pathlib import Path

from perf.speed import Speed
from perf.workloads import Sample
from repro import AttributeDomains, Catalog, Executor, Instrumentation, Schema
from repro.data.random_walk import geometric_walk
from repro.engine import columnar
from repro.obs import Trace

TICKERS = 64
DAYS = 1000
WORKERS = 2

#: A relaxed double bottom per ticker (the parallel scaling query).
PANEL_QUERY = (
    "SELECT X.name, X.date, S.date FROM quote CLUSTER BY name "
    "SEQUENCE BY date AS (X, *Y, S) "
    "WHERE Y.price < 0.995 * Y.previous.price "
    "AND S.price > 1.01 * X.price"
)

SCHEMA = Schema([("name", "str"), ("date", "int"), ("price", "float")])


class State:
    def __init__(self, path: str, first_rows: list):
        self.path = path
        self.first_rows = first_rows


def make_inputs(seed: int, workdir) -> dict:
    path = Path(workdir) / "panel.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SCHEMA.names)
        for ticker in range(TICKERS):
            walk = geometric_walk(
                DAYS, seed=seed * 1000 + ticker, shock_probability=0.03
            )
            for day, price in enumerate(walk):
                writer.writerow([f"T{ticker:02d}", day, round(price, 4)])
    return {"seed": seed, "path": str(path)}


def _query(path: str, instrumentation, trace=None):
    table = columnar.load_table(path, "quote", SCHEMA)
    executor = Executor(Catalog([table]), domains=AttributeDomains.prices())
    return executor.execute_with_report(
        PANEL_QUERY, instrumentation, workers=WORKERS, trace=trace
    )


def setup(inputs: dict) -> State:
    result, _ = _query(inputs["path"], Instrumentation())
    return State(inputs["path"], result.rows)


def measure(state: State, seconds: float, tracer=None) -> Sample:
    # The pool workers run on both CPUs: probe the speed of each.
    sample = Sample(speed=Speed(every_cpu=True))
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        instrumentation = Instrumentation()
        # Traced runs ask the executor for its own trace: it is how the
        # per-WorkUnit busy time of the pool workers comes back.
        trace = Trace() if tracer is not None else None
        outcome = sample.timed(
            "panel", lambda: _query(state.path, instrumentation, trace), tracer
        )
        if outcome is None:
            continue
        result, report = outcome
        sample.add_report(report, instrumentation)
        if trace is not None:
            _count_pool(sample, trace)
        if result.rows != state.first_rows:
            sample.fail("panel: rows differ from the first execution")
    sample.counts["plan_cache.misses"] = sample.ops
    return sample


def _count_pool(sample: Sample, trace: Trace) -> None:
    pool = trace.find("parallel")
    if pool is None or pool.duration_s is None:
        return
    units = [span.duration_s or 0.0 for span in pool.children if span.name == "unit"]
    sample.counts["parallel.unit_busy_s"] += sum(units)
    sample.counts["parallel.slots_s"] += pool.duration_s * WORKERS
    sample.counts["parallel.overhead_s"] += pool.duration_s - max(units, default=0.0)


def verify(state: State, sample: Sample) -> None:
    table = columnar.load_table(state.path, "quote", SCHEMA)
    serial = Executor(Catalog([table]), domains=AttributeDomains.prices())
    if serial.execute(PANEL_QUERY, workers=1).rows != state.first_rows:
        sample.fail(
            "panel: workers=2 rows differ from the serial workers=1 rows",
            count=max(1, sample.ops),
        )
