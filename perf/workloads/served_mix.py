"""served_mix: ``python -m repro serve`` under open- and closed-loop load.

The server runs as a subprocess with default settings over seeded CSV
copies of the DJIA series and the quote table; requests are BENCH_serve's
three-query mix, cycled in a fixed order, sent by one asyncio thread on
two connections.

- Phase B, one third of the run: a closed loop with one request in
  flight per connection.  Its completion rate is the capacity.
- Phase A, the other two thirds: an open loop sending requests evenly
  spaced at 40% of the capacity the phase B before it measured.
  Latency runs from each request's due time to its reply; the latency
  limit is p90 <= 250 ms.

The phases alternate four times.  Measured in one window at the end of
the run, the capacity moved 20% between seeds; in four windows spread
over the run, 6%.  The open-loop rate follows the capacity because the
host's speed does not hold still: a fixed 13.5 requests/s was 30% of the
capacity on a quiet host and 75% on a busy one, where a backlog built up
and the p50 moved 4x between runs.  A faster server is offered more
requests per second and its latency still shows its service time.

Each round starts once other processes have kept fewer than a quarter of
a CPU busy for half a second (at most 10 s of waiting per run, so that a
run stays under 30 s).  Client and server wake each other once per
request, and while another tenant keeps both CPUs busy every wake-up
waits for a CPU: two busy processes of another tenant cut the capacity
by a fifth to a quarter and raised the p50 by a fifth, which no speed
probe followed (see perf.speed).  The result's conditions record how
long the run waited, whether the wait timed out (then the run measured
a busy host), and the other processes' load during each round.

Every reply must be byte-identical to the in-process execution of the
same query rendered through the wire encoder.

This is the served-versus-in-process gap: the server adds frame decode,
admission, the executor-thread hop, JSON encode of a 2285-row result and
the socket, on top of the engine ``paper_mix`` measures in-process.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from perf import ROOT, SRC, stats
from perf.loadgen import Connection, closed_loop, fixed_rate, open_loop
from perf.workloads import Sample, seeded_djia, seeded_quote
from perf.workloads.paper_mix import DJIA_QUERIES
from repro import AttributeDomains, Catalog, Executor, Instrumentation, Schema
from repro.engine.columnar import load_table
from repro.engine.csv_io import save_csv
from repro.serve import ServeClient
from repro.serve.protocol import encode_frame

QUERIES = {
    **DJIA_QUERIES,
    "cluster_scan_quote": (
        "SELECT X.name, X.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (X, Y, Z) WHERE Y.price > 1.15 * X.price "
        "AND Z.price < 0.8 * Y.price"
    ),
}

#: Open-loop request rate, as a share of the measured capacity.
LOAD_SHARE = 0.4
OPEN_SHARE = 2 / 3
#: Phases A and B alternate this many times, so that capacity is measured
#: in several windows spread over the run rather than in one.
ROUNDS = 4
#: A round starts once other processes have used fewer than QUIET_CPUS
#: CPUs over QUIET_CHECK_S, or once the run has waited QUIET_WAIT_S.
QUIET_CPUS = 0.25
QUIET_CHECK_S = 0.5
QUIET_WAIT_S = 10.0
CONNECTIONS = 2
LATENCY_LIMIT_MS = 250.0
TENANT = "perf"
TABLES = {
    "djia": "date:date,price:float",
    "quote": "name:str,date:date,price:float",
}
#: Structured refusals (admission or queue limits), as opposed to errors.
REJECTION_CODES = ("quota_exhausted", "backpressure")


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, inputs: dict, traced: bool = False):
        workdir = Path(inputs["dir"])
        handle, self.speed_out = tempfile.mkstemp(prefix="speed-", suffix=".json", dir=workdir)
        os.close(handle)
        command = [sys.executable, "-m", "perf.serve_entry", self.speed_out]
        self.layers_out = str(workdir / "serve-layers.json") if traced else None
        if traced:
            command += ["--layers-out", self.layers_out]
        command += ["serve", "--positive", "price", "--port", "0"]
        for name, schema in TABLES.items():
            command += ["--table", f"{name}={inputs[name]}:{schema}"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
        self._stderr = open(workdir / "server.err", "ab")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        banner = self.process.stdout.readline()
        if " on " not in banner:
            self.stop()
            raise RuntimeError(f"repro serve did not start (see {self._stderr.name})")
        host, port = banner.rsplit(" on ", 1)[1].strip().rsplit(":", 1)
        self.host, self.port = host, int(port)

    def client(self) -> ServeClient:
        return ServeClient(self.host, self.port, tenant=TENANT)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Drain the server (SIGTERM) and wait for it to exit; its speed
        probes (and layer sums, when traced) are then on disk."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


class State:
    def __init__(self, inputs: dict, server: Server):
        self.inputs = inputs
        self.server = server
        # The three queries in one fixed order, repeated: every phase sends
        # them in equal shares and the two closed-loop connections pair
        # them the same way in every run.  Random draws, or a seeded order,
        # moved the capacity by 15% between seeds.
        self.mix = itertools.cycle(sorted(QUERIES))
        self.request_ids = itertools.count(1)
        #: An in-process executor over the same CSV files the server loads.
        self.executor: Optional[Executor] = None
        self._reference: Optional[dict] = None

    def reference(self) -> dict:
        """Per query: its rows executed in-process, wire-rendered."""
        if self._reference is None:
            catalog = Catalog(
                [load_table(self.inputs[name], name, _schema(name)) for name in TABLES]
            )
            self.executor = Executor(catalog, domains=AttributeDomains.prices())
            self._reference = {}
            for name, text in QUERIES.items():
                result = self.executor.execute(text)
                frame = encode_frame({"rows": [list(row) for row in result.rows]})
                self._reference[name] = json.loads(frame)["rows"]
        return self._reference

    def request(self) -> tuple[str, bytes]:
        name = next(self.mix)
        rid = next(self.request_ids)
        frame = encode_frame(
            {
                "id": rid,
                "op": "query",
                "tenant": TENANT,
                "sql": QUERIES[name],
            }
        )
        return name, frame


def _schema(name: str) -> Schema:
    return Schema([tuple(column.split(":")) for column in TABLES[name].split(",")])


def make_inputs(seed: int, workdir) -> dict:
    inputs = {"seed": seed, "dir": str(workdir)}
    for name, table in (("djia", seeded_djia(seed)), ("quote", seeded_quote(seed))):
        path = Path(workdir) / f"{name}.csv"
        save_csv(table, path)
        inputs[name] = str(path)
    return inputs


def _start(inputs: dict, traced: bool = False) -> Server:
    """Start a server; ready once it answers a ping and has run each
    query text once."""
    server = Server(inputs, traced)
    try:
        with server.client() as client:
            client.ping()
            for text in QUERIES.values():
                client.query(text)
    except BaseException:
        server.stop()
        raise
    return server


def setup(inputs: dict) -> State:
    return State(inputs, _start(inputs))


def close(state: State) -> None:
    state.server.stop()


class OtherLoad:
    """How many CPUs processes other than this one and the server kept
    busy: ``/proc/stat`` less the two processes' own CPU time."""

    def __init__(self, server_pid: int):
        self._pids = ("self", str(server_pid))
        self._tick_s = 1.0 / os.sysconf("SC_CLK_TCK")
        self._mark = self._busy()

    def _busy(self) -> tuple[float, int]:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:9]]
        ticks = sum(fields) - fields[3] - fields[4]  # less idle and iowait
        for pid in self._pids:
            with open(f"/proc/{pid}/stat") as handle:
                stat = handle.read().rsplit(")", 1)[1].split()
            ticks -= int(stat[11]) + int(stat[12])  # utime, stime
        return time.perf_counter(), ticks

    def since_mark(self) -> float:
        """CPUs kept busy by others since the last call, which sets a new mark."""
        (then, before), self._mark = self._mark, self._busy()
        now, after = self._mark
        return (after - before) * self._tick_s / (now - then)


async def _quiet(load: OtherLoad, budget_s: float) -> float:
    """Wait until other processes use fewer than QUIET_CPUS over
    QUIET_CHECK_S, or ``budget_s`` has passed; return the seconds waited."""
    started = time.perf_counter()
    while True:
        load.since_mark()
        await asyncio.sleep(QUIET_CHECK_S)
        waited = time.perf_counter() - started
        if load.since_mark() < QUIET_CPUS or waited >= budget_s:
            return waited


@dataclass
class Phases:
    """What the alternating phases of one measured run sent and saw."""

    opened: list = field(default_factory=list)
    closed: list = field(default_factory=list)
    #: Closed-loop windows as (moment, seconds), and the open-loop rates.
    windows: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    #: Seconds spent waiting for quiet, and other processes' CPUs per round.
    waited: float = 0.0
    others: list = field(default_factory=list)


async def _phases(state: State, seconds: float) -> Phases:
    server = state.server
    connections = [
        await Connection.open(server.host, server.port) for _ in range(CONNECTIONS)
    ]
    load = OtherLoad(server.process.pid)
    run = Phases()
    try:
        for _ in range(ROUNDS):
            run.waited += await _quiet(load, QUIET_WAIT_S - run.waited)
            load.since_mark()
            started = time.perf_counter()
            exchanges, wall = await closed_loop(
                connections, (1 - OPEN_SHARE) * seconds / ROUNDS, state.request
            )
            run.closed += exchanges
            run.windows.append((started + wall / 2, wall))
            answered = sum(exchange.reply is not None for exchange in exchanges)
            run.rates.append(LOAD_SHARE * answered / wall)
            due = fixed_rate(run.rates[-1], OPEN_SHARE * seconds / ROUNDS)
            run.opened += await open_loop(connections, due, state.request)
            run.others.append(load.since_mark())
    finally:
        for connection in connections:
            await connection.close()
    return run


def measure(state: State, seconds: float, tracer=None) -> Sample:
    """Alternating phases B and A against a server, which is stopped
    afterwards; a traced run gets a fresh server with layer sums."""
    state.reference()  # the in-process executor, before anything is timed
    if tracer is not None or state.server.process.poll() is not None:
        state.server.stop()
        state.server = _start(state.inputs, traced=tracer is not None)
    with state.server.client() as client:
        before = client.stats()["plan_cache"]
    run = asyncio.run(_phases(state, seconds))
    with state.server.client() as client:
        after = client.stats()["plan_cache"]
    sample = Sample(peak_rss_mb=state.server.peak_rss_mb())
    state.server.stop()
    sample.speed.load(state.server.speed_out)
    sample.counts["plan_cache.hits"] = after["hits"] - before["hits"]
    sample.counts["plan_cache.misses"] = after["misses"] - before["misses"]
    sample.attempted = len(run.opened) + len(run.closed)
    sample.late = [exchange.late for exchange in run.opened]
    sample.latencies = [(e.due, e.latency) for e in run.opened if e.reply is not None]
    sample.ops = sum(e.reply is not None for e in run.closed)
    sample.busy = run.windows
    sample.kept = run.opened + run.closed
    sample.conditions.update(
        quiet_wait_s=run.waited,
        quiet_timed_out=run.waited >= QUIET_WAIT_S,
        other_cpus=run.others,
    )
    print(
        f"served_mix: waited {run.waited:.1f} s for other processes to use fewer "
        f"than {QUIET_CPUS:g} CPUs; during the rounds they used "
        f"{', '.join(f'{cpus:.2f}' for cpus in run.others)} CPUs"
    )
    if sample.latencies:
        p90 = stats.percentile(sample.latency_s(), 90) * 1000.0
        verdict = "met" if p90 <= LATENCY_LIMIT_MS else "NOT met"
        print(
            f"served_mix: p90 {p90:.1f} ms at {statistics.fmean(run.rates):.1f} req/s "
            f"({LOAD_SHARE:.0%} of the measured capacity) over "
            f"{len(sample.latencies)} requests; limit p90 <= "
            f"{LATENCY_LIMIT_MS:g} ms {verdict}"
        )
    if tracer is not None:
        _trace_counts(state, sample, sample.kept)
    return sample


def _trace_counts(state: State, sample: Sample, exchanges: list) -> None:
    """Fold the drained server's layer sums and the client's view of the
    same requests into ``sample.counts``."""
    layers = json.loads(Path(state.server.layers_out).read_text())
    for name, entry in layers.items():
        for key, value in entry.items():
            sample.counts[f"{name}.{key}"] = value
    answered = [e for e in exchanges if e.reply is not None]
    sample.counts["client.replies"] = len(answered)
    sample.counts["client.latency_s"] = sum(e.received - e.sent for e in answered)
    sample.counts["client.elapsed_ms"] = sum(
        json.loads(e.reply).get("elapsed_ms", 0.0) for e in answered
    )
    sample.counts["client.reply_bytes"] = sum(len(e.reply) for e in answered)
    # In-process latency of the same mix, for the served/in-process ratio.
    latencies = []
    for _ in range(10):
        for text in QUERIES.values():
            started = time.perf_counter()
            state.executor.execute_with_report(text, Instrumentation())
            latencies.append(time.perf_counter() - started)
    sample.counts["inprocess.p50_s"] = stats.percentile(latencies, 50)
    if sample.latencies:
        sample.counts["served.p50_s"] = stats.percentile(
            [seconds for _, seconds in sample.latencies], 50
        )


def verify(state: State, sample: Sample) -> None:
    reference = state.reference()
    for exchange in sample.kept:
        if exchange.reply is None:
            sample.fail(f"{exchange.name}: no reply")
            continue
        reply = json.loads(exchange.reply)
        if not reply.get("ok"):
            code = (reply.get("error") or {}).get("code")
            if code in REJECTION_CODES:
                sample.counts["serve.rejections"] += 1
            sample.fail(f"{exchange.name}: error reply {code}")
        elif reply["rows"] != reference[exchange.name]:
            sample.fail(f"{exchange.name}: rows differ from in-process execution")
