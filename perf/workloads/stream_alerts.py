"""stream_alerts: Example 10 as a live alert stream with checkpoints.

``Executor.stream(EXAMPLE_10)`` watches seeded regime-switching price
walks, one stream session per 50k-tick segment, with a
``CheckpointStore`` under the run's work directory and the default
``CheckpointPolicy(every_rows=1000, on_emit=True)``: a checkpoint is
written every 1000 rows and before every alert, fsynced as the store
does it.  The stream matcher tests rows one at a time (columnar kernels
are bypassed) while checkpoint writes run alongside, so a change that
speeds up batch matching at the cost of per-row ``push`` shows here.

An alert's latency runs from the source yielding the match's last row to
the projected tuple reaching the consumer; an operation is one tick
ingested.  Both leave out the time spent inside ``CheckpointStore.save``: about 90%
of an alert's wall time on a shared 2-vCPU VM is that save's two fsyncs,
whose time moved 3x with the other tenants' disk load (p90 spread 0.8
over ten runs) where no probe could follow it.  The checkpoint's cost is
the per-layer ``checkpoint.*`` metrics.  Each segment's alerts must
equal a batch ``execute`` of the same query over the same rows.
"""

from __future__ import annotations

import array
import os
import time
from contextlib import nullcontext

from perf.workloads import Sample
from repro import (
    AttributeDomains,
    Catalog,
    CheckpointPolicy,
    CheckpointStore,
    Executor,
    Instrumentation,
    Table,
)
from repro.data.random_walk import regime_switching_walk
from repro.data.workloads import EXAMPLE_10

SEGMENT_ROWS = 50_000
WARM_UP_ROWS = 2_000
#: The source offers a speed probe this often (rows); see perf.speed.
PROBE_EVERY_ROWS = 1024
SCHEMA = [("date", "int"), ("price", "float")]


def segment_prices(seed: int, segment: int, rows: int = SEGMENT_ROWS) -> list:
    return regime_switching_walk(
        rows, start=852.0, drift=0.0004, seed=seed * 1_000_003 + segment
    )


class TimedStore(CheckpointStore):
    """A checkpoint store that adds up the seconds its saves take."""

    def __init__(self, path: str):
        super().__init__(path)
        self.spent = 0.0

    def save(self, state: object) -> None:
        started = time.perf_counter()
        try:
            super().save(state)
        finally:
            self.spent += time.perf_counter() - started


class State:
    def __init__(self, seed: int, directory: str, executor: Executor):
        self.seed = seed
        self.directory = directory
        self.executor = executor
        self.segments = 0


def make_inputs(seed: int, workdir) -> dict:
    return {"seed": seed, "dir": str(workdir)}


def _stream(
    state: State, prices: list, instrumentation, alerts: list, sample: Sample
) -> float:
    """Run one stream session over ``prices``; collect (seq, row) alerts
    and their latencies, save time left out.  Returns the seconds spent
    in checkpoint saves."""
    stamps = array.array("d", bytes(8 * len(prices)))
    saved = array.array("d", bytes(8 * len(prices)))
    clock = time.perf_counter
    path = os.path.join(state.directory, "stream.ck")
    store = TimedStore(path)

    def source(start: int):
        for offset in range(start, len(prices)):
            if offset % PROBE_EVERY_ROWS == 0:
                sample.speed.tick()
            row = {"date": offset, "price": prices[offset]}
            saved[offset] = store.spent
            stamps[offset] = clock()
            yield offset, row

    streaming = state.executor.stream(
        EXAMPLE_10,
        source,
        store=store,
        checkpoints=CheckpointPolicy(every_rows=1000, on_emit=True),
        instrumentation=instrumentation,
    )
    for seq, values in streaming.keyed_rows:
        latency = clock() - stamps[seq] - (store.spent - saved[seq])
        sample.latencies.append((stamps[seq], latency))
        alerts.append((seq, values))
    for leftover in (path, path + ".prev"):
        if os.path.exists(leftover):
            os.remove(leftover)
    return store.spent


def setup(inputs: dict) -> State:
    executor = Executor(Catalog(), domains=AttributeDomains.prices())
    state = State(inputs["seed"], inputs["dir"], executor)
    _stream(state, segment_prices(0, 0, WARM_UP_ROWS), Instrumentation(), [], Sample())
    return state


def measure(state: State, seconds: float, tracer=None) -> Sample:
    sample = Sample()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        segment = state.segments
        state.segments += 1
        prices = segment_prices(state.seed, segment)
        instrumentation = Instrumentation()
        alerts: list = []
        sample.attempted += 1
        probing = sample.speed.spent
        started = time.perf_counter()
        try:
            with tracer.op(f"segment-{segment}") if tracer is not None else nullcontext():
                saving = _stream(state, prices, instrumentation, alerts, sample)
        except Exception as error:  # noqa: BLE001 - counted, reported
            sample.fail(f"segment {segment}: {type(error).__name__}: {error}")
            continue
        elapsed = time.perf_counter() - started - (sample.speed.spent - probing) - saving
        sample.busy.append((started + elapsed / 2, elapsed))
        sample.ops += len(prices)
        sample.tests += instrumentation.tests
        sample.matches += len(alerts)
        sample.skips += instrumentation.skips
        sample.skip_distance += instrumentation.skip_distance
        sample.kept.append((segment, alerts))
    return sample


def verify(state: State, sample: Sample) -> None:
    for segment, alerts in sample.kept:
        prices = segment_prices(state.seed, segment)
        table = Table("djia", SCHEMA)
        table.insert_many(
            {"date": offset, "price": price} for offset, price in enumerate(prices)
        )
        batch = Executor(Catalog([table]), domains=AttributeDomains.prices())
        expected = [tuple(row) for row in batch.execute(EXAMPLE_10).rows]
        streamed = [values for _, values in alerts]
        # S.previous.date is the row before the match's last row: it pins
        # the latency clock to the right source row.
        anchored = all(values[2] == seq - 1 for seq, values in alerts)
        if streamed != expected or not anchored:
            sample.fail(f"segment {segment}: stream alerts differ from batch execute")
