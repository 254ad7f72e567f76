"""The CI gates: exact counts, ratios and throughput floors in one BENCH.json.

``python -m repro.bench.gates [--check] [--profile smoke|full] [GATE ...]``

runs the named gates, all of them by default.  Without ``--check`` it
records what they measured into ``BENCH.json`` at the repository root;
with it, it compares the run with the recorded entries and exits 1 on
any failure.  The profiles run the same workloads at the same sizes and
differ only in repetitions (``smoke`` for CI, ``full`` for recording),
so a smoke run compares every count it measures.

``BENCH.json`` holds a ``meta`` block (host, platform, CPU count,
Python, profile and the run's speed scale factor) and one entry per
workload:

- ``djia_double_bottom``: the paper's Example 10 double bottom over the
  synthetic DJIA (6,521 days).  The counts ``perf`` pins for it, 11
  matches and 8,143 OPS predicate tests, are this entry's;
- ``planted_double_bottom``: Example 10 over 4,000 days with a double
  bottom planted every 300 days;
- ``random_walk``: Example 10 over a 4,000-day fat-tailed random walk;
- ``djia_panel``: a relaxed double bottom per ticker over 12 random-walk
  tickers of 1,200 days, one ``CLUSTER BY`` partition each;
- ``served_mix``: three DJIA and quote queries sent to a live server by
  16 concurrent clients, beside a throttled tenant.

An entry records exact counts (``rows``, ``clusters``, ``matches``,
predicate ``tests`` per matcher, ``result_rows`` per served query) from
one serial instrumented run, ratios of timings taken back to back, and
untraced compiled throughput (``tests_per_s``) at the reference machine
speed of ``perf.speed``: a probe runs right before each timed compiled
call, and each call's time is scaled by the probes nearest it.  Only the two
throughput floors compare a time with a recorded one, so only they are
scaled; a ratio divides two times taken a moment apart on one host.

The gates, each a measurement and a pure check:

``compiled``  Compiled and interpreted (``use_codegen=False``) row paths
              give identical matches and test counts, for naive and
              ``ops``, on each series; compiled tests/s is no more than
              20% below the recorded rate, per series and matcher.
``tracing``   A traced execution of Example 10 returns the untraced rows
              and match count; the untraced result carries no profile;
              the traced profile's matcher and matches equal the
              report's.  Untraced DJIA ``ops`` tests/s (the number
              ``compiled`` measures) is no more than 2% below the
              recorded rate, unless the run's two measurements of it
              disagree by more than 5%: then the floor is skipped with
              a printed notice, never counted as a pass.
``columnar``  Instrumented row and columnar calls give identical matches
              and test counts, for naive and ``ops``, on each series; an
              uninstrumented columnar call returns the same matches.
              DJIA ``ops`` row time over columnar time is at least 5.0,
              repetitions interleaved; each columnar call materializes
              its kernels from the series' kept cluster, whose float64
              columns are built once outside the timed calls, as every
              warm query's are.
``serve``     Every concurrent reply equals serial execution; the
              measured tenants see no error and every request completes;
              the throttled tenant is rejected at least once, each
              rejection carries ``retry_after``, and it sees no
              unstructured error; plan-cache misses are at most 4 per
              distinct query text.

Every gate also compares the counts of the workloads it ran with their
entries.  The crash-and-resume check of Example 10 is a tier-1 test
(``tests/integration/test_crash_recovery.py``).

Recording replaces an entry's counts and ratios.  A throughput rate is
the median of its first five recorded runs (``runs``, each with its
scale factor), so record it with five separate full-profile runs on a
quiet host; later recordings leave it alone until its ``runs`` are
deleted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import sys
import threading
import time
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from perf.speed import Speed
from repro.data.djia import djia_table
from repro.data.planted import TEMPLATE_LENGTH, plant_double_bottoms
from repro.data.quotes import quote_table
from repro.data.random_walk import geometric_walk
from repro.data.workloads import EXAMPLE_10
from repro.engine.catalog import Catalog
from repro.engine.cluster import Cluster, clusters_of
from repro.engine.columnar import materialize_kernels
from repro.engine.executor import Executor
from repro.engine.table import Schema, Table
from repro.match.base import Instrumentation
from repro.match.naive import NaiveMatcher
from repro.match.ops_star import OpsStarMatcher
from repro.obs import Trace
from repro.pattern.predicates import AttributeDomains
from repro.resilience import ResourceLimits
from repro.serve import QueryServer, ServeClient, ServerThread, TenantQuota
from repro.serve.client import ServeError
from repro.serve.protocol import encode_frame

BENCH_JSON = Path(__file__).resolve().parents[3] / "BENCH.json"

#: Compiled tests/s may fall at most this far below the recorded rate.
THROUGHPUT_TOLERANCE = 0.20
#: Untraced DJIA ``ops`` tests/s may fall at most this far below it...
TRACING_TOLERANCE = 0.02
#: ...when the run's two measurements of it agree within this fraction.
STABILITY_BOUND = 0.05
#: DJIA ``ops``: instrumented row time over columnar time, at least.
COLUMNAR_FLOOR = 5.0
#: Plan-cache misses allowed per distinct served query text.
MISSES_PER_QUERY = 4
#: Recorded runs whose median is a throughput rate.
RECORD_RUNS = 5
#: Timed calls per measurement (served requests per client).
REPETITIONS = {"smoke": 10, "full": 20}

MATCHERS = {"naive": NaiveMatcher, "ops": OpsStarMatcher}
DJIA = "djia_double_bottom"
SERIES = (DJIA, "planted_double_bottom", "random_walk")
PANEL = "djia_panel"
SERVED = "served_mix"
#: The fields ``--check`` compares exactly.
EXACT_FIELDS = ("rows", "clusters", "matches", "tests", "result_rows")

#: A relaxed double bottom (down-run, recovery) per ticker.
PANEL_QUERY = (
    "SELECT X.name, X.date, S.date FROM quote CLUSTER BY name "
    "SEQUENCE BY date AS (X, *Y, S) "
    "WHERE Y.price < 0.995 * Y.previous.price "
    "AND S.price > 1.01 * X.price"
)

SERVED_QUERIES = {
    "example_10_djia": (
        "SELECT X.NEXT.date FROM djia SEQUENCE BY date AS (X, *Y, S) "
        "WHERE Y.price < 0.98 * Y.previous.price "
        "AND S.price > S.previous.price"
    ),
    "rising_pair_djia": (
        "SELECT X.date FROM djia SEQUENCE BY date AS (X, Y) "
        "WHERE Y.price > X.price"
    ),
    "cluster_scan_quote": (
        "SELECT X.name, X.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (X, Y, Z) WHERE Y.price > 1.15 * X.price "
        "AND Z.price < 0.8 * Y.price"
    ),
}
SERVED_CLIENTS = 16
#: The throttled tenant's row budget: one DJIA scan drains it.
THROTTLED_ROWS_PER_SECOND = 10.0
THROTTLED_ATTEMPTS = 8

DOMAINS = AttributeDomains.prices()


def _series_table(workload: str) -> Table:
    """A price series as a ``djia`` table, so Example 10 runs on each."""
    if workload == DJIA:
        return djia_table()
    if workload == "planted_double_bottom":
        positions = list(range(25, 4000 - TEMPLATE_LENGTH - 2, 300))
        prices, _ = plant_double_bottoms(4000, positions, seed=11)
    else:
        prices = geometric_walk(4000, seed=2, shock_probability=0.05)
    table = Table("djia", Schema([("date", "int"), ("price", "float")]))
    table.insert_many(
        {"date": day, "price": float(price)} for day, price in enumerate(prices)
    )
    return table


def _panel_table() -> Table:
    table = Table(
        "quote", Schema([("name", "str"), ("date", "int"), ("price", "float")])
    )
    for ticker in range(12):
        walk = geometric_walk(1200, seed=100 + ticker, shock_probability=0.03)
        table.insert_many(
            {"name": f"T{ticker:02d}", "date": day, "price": round(price, 4)}
            for day, price in enumerate(walk)
        )
    return table


def _query(workload: str) -> str:
    return PANEL_QUERY if workload == PANEL else EXAMPLE_10


def _instrumented(matcher, rows, pattern, kernels=None) -> tuple[list, int]:
    """One instrumented call: its matches and predicate-test count."""
    instrumentation = Instrumentation()
    matches = matcher.find_matches(rows, pattern, instrumentation, kernels=kernels)
    return matches, instrumentation.tests


def _timed(
    calls: list[Callable], repetitions: int, speed: Optional[Speed] = None
) -> list[list[tuple[float, float]]]:
    """``(moment, seconds)`` of each call per repetition, the calls of a
    repetition back to back; with ``speed``, a probe precedes each
    repetition and follows the last."""
    samples: list[list[tuple[float, float]]] = [[] for _ in calls]
    for _ in range(repetitions):
        if speed is not None:
            speed.measure()
        for call, timings in zip(calls, samples):
            started = time.perf_counter()
            call()
            elapsed = time.perf_counter() - started
            timings.append((started + elapsed / 2, elapsed))
    if speed is not None:
        speed.measure()
    return samples


def _best(timings: list[tuple[float, float]]) -> float:
    return min(seconds for _, seconds in timings)


class Run:
    """What one invocation measures, shared by the gates it runs.

    Each workload is built once, and its serial instrumented run, the
    source of every exact count, is taken once per matcher.  The
    throughput of a series is measured once, for whichever gates read
    it.  ``results`` holds the measured fields per workload, in
    ``BENCH.json``'s shape; ``mismatches`` the identity checks that
    failed.
    """

    def __init__(self, profile: str):
        self.profile = profile
        self.repetitions = REPETITIONS[profile]
        self.speed = Speed()
        self.results: dict[str, dict] = {}
        self.mismatches: list[str] = []
        self._catalogs: dict[str, Catalog] = {}
        self._serial: dict[tuple[str, str], tuple] = {}
        self._counts: dict[str, dict] = {}
        self._served_rows: Optional[dict[str, list]] = None
        self._pattern = None

    def expect(self, holds: bool, message: str) -> None:
        if not holds:
            self.mismatches.append(message)

    def catalog(self, workload: str) -> Catalog:
        if workload not in self._catalogs:
            if workload == SERVED:
                tables = [djia_table(), quote_table()]
            else:
                tables = [_panel_table() if workload == PANEL else _series_table(workload)]
            self._catalogs[workload] = Catalog(tables)
        return self._catalogs[workload]

    def executor(self, workload: str, matcher: str = "ops") -> Executor:
        return Executor(self.catalog(workload), domains=DOMAINS, matcher=matcher)

    def serial(self, workload: str, matcher: str) -> tuple:
        """The serial instrumented run's result and report."""
        key = (workload, matcher)
        if key not in self._serial:
            self._serial[key] = self.executor(workload, matcher).execute_with_report(
                _query(workload), Instrumentation()
            )
        return self._serial[key]

    def counts(self, workload: str) -> dict:
        """The workload's exact counts, recorded into its result."""
        if workload in self._counts:
            return self._counts[workload]
        if workload == SERVED:
            counts = {
                "result_rows": {
                    name: len(rows) for name, rows in self.served_rows().items()
                }
            }
        else:
            reports = {name: self.serial(workload, name)[1] for name in MATCHERS}
            ops = reports["ops"]
            self.expect(
                reports["naive"].matches == ops.matches,
                f"{workload}: naive found {reports['naive'].matches} matches, "
                f"ops {ops.matches}",
            )
            counts = {
                "rows": ops.rows_scanned,
                "clusters": ops.clusters,
                "matches": ops.matches,
                "tests": {name: report.predicate_tests for name, report in reports.items()},
            }
        self.results.setdefault(workload, {}).update(counts)
        self._counts[workload] = counts
        return counts

    def series(self, workload: str) -> tuple:
        """Example 10 compiled once, and the series' rows in date order."""
        if self._pattern is None:
            self._pattern = self.executor(DJIA).prepare(EXAMPLE_10)[1]
        return self._pattern, list(self.catalog(workload).table("djia"))

    def cluster(self, workload: str) -> Cluster:
        """The series as one cluster of its table's kept partition, in
        the order of :meth:`series`' rows."""
        ((_, cluster),) = clusters_of(self.catalog(workload).table("djia"), (), ())
        return cluster

    def expect_counts(
        self, workload: str, matcher: str, path: str, matches: list, tests: int
    ) -> None:
        """The ``path``'s matches and tests equal the serial run's."""
        counts = self.counts(workload)
        self.expect(
            (len(matches), tests) == (counts["matches"], counts["tests"][matcher]),
            f"{workload}/{matcher}: the {path} path gave {len(matches)} matches "
            f"and {tests} tests, the executor {counts['matches']} and "
            f"{counts['tests'][matcher]}",
        )

    def throughput(self, workload: str) -> None:
        """Untraced compiled tests/s per matcher on a series, measured twice.

        Each measurement is the median reference-speed time of
        ``repetitions`` calls: the host's speed swings within a run, and
        the median of calls scaled one by one follows it where the best
        call picks whichever probe ran slowest.  An interpreted call
        follows each compiled one, for the compiled speedup (raw best
        over raw best).
        """
        result = self.results.setdefault(workload, {})
        if "measured_tests_per_s" in result:
            return
        tests = self.counts(workload)["tests"]
        pattern, rows = self.series(workload)
        interpreted = dataclasses.replace(pattern, use_codegen=False)
        measured, speedup = {}, {}
        for name, cls in MATCHERS.items():
            matcher = cls()
            calls = [
                partial(matcher.find_matches, rows, pattern, None),
                partial(matcher.find_matches, rows, interpreted, None),
            ]
            pairs = [_timed(calls, self.repetitions, self.speed) for _ in range(2)]
            measured[name] = [
                round(tests[name] / statistics.median(self.speed.scale(fast)), 1)
                for fast, _ in pairs
            ]
            speedup[name] = round(
                min(_best(slow) for _, slow in pairs)
                / min(_best(fast) for fast, _ in pairs),
                3,
            )
        result["measured_tests_per_s"] = measured
        result["compiled_speedup"] = speedup

    def served_rows(self) -> dict[str, list]:
        """Each served query's serial rows, as the server renders them."""
        if self._served_rows is None:
            executor = self.executor(SERVED)
            self._served_rows = {
                name: json.loads(
                    encode_frame({"rows": [list(row) for row in executor.execute(sql).rows]})
                )["rows"]
                for name, sql in SERVED_QUERIES.items()
            }
        return self._served_rows

    def meta(self) -> dict:
        return {
            "host": platform.node(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "profile": self.profile,
            "scale_factor": (
                round(self.speed.overall(), 3) if self.speed.durations else None
            ),
        }


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------


def measure_compiled(run: Run) -> None:
    for workload in SERIES:
        pattern, rows = run.series(workload)
        interpreted = dataclasses.replace(pattern, use_codegen=False)
        for name, cls in MATCHERS.items():
            matcher = cls()
            matches, tests = _instrumented(matcher, rows, pattern)
            run.expect(
                _instrumented(matcher, rows, interpreted) == (matches, tests),
                f"{workload}/{name}: the interpreted path changed the matches "
                "or the test count",
            )
            run.expect_counts(workload, name, "compiled", matches, tests)
        run.throughput(workload)


def measure_tracing(run: Run) -> None:
    executor = run.executor(DJIA)
    untraced, untraced_report = executor.execute_with_report(EXAMPLE_10)
    traced, report = executor.execute_with_report(EXAMPLE_10, trace=Trace())
    run.expect(traced.rows == untraced.rows, "tracing changed the result rows")
    run.expect(
        report.matches == untraced_report.matches,
        f"tracing changed the match count "
        f"({untraced_report.matches} -> {report.matches})",
    )
    run.expect(untraced.profile is None, "the untraced result carries a profile")
    profile = traced.profile
    run.expect(
        profile is not None
        and (profile.matcher, profile.matches) == (report.matcher, report.matches),
        "the traced profile's matcher or match count disagrees with the report",
    )
    run.throughput(DJIA)


def measure_columnar(run: Run) -> None:
    for workload in SERIES:
        pattern, rows = run.series(workload)
        cluster = run.cluster(workload)
        kernels = materialize_kernels(pattern, cluster)
        speedup = {}
        for name, cls in MATCHERS.items():
            matcher = cls()
            matches, tests = _instrumented(matcher, rows, pattern)
            run.expect(
                _instrumented(matcher, rows, pattern, kernels) == (matches, tests),
                f"{workload}/{name}: the columnar path changed the matches or "
                "the test count",
            )
            run.expect(
                matcher.find_matches(rows, pattern, None, kernels=kernels) == matches,
                f"{workload}/{name}: an uninstrumented columnar call changed the "
                "matches",
            )
            run.expect_counts(workload, name, "row", matches, tests)
            row, columnar = _timed(
                [
                    lambda: matcher.find_matches(rows, pattern, Instrumentation()),
                    lambda: matcher.find_matches(
                        rows,
                        pattern,
                        Instrumentation(),
                        kernels=materialize_kernels(pattern, cluster),
                    ),
                ],
                run.repetitions,
            )
            speedup[name] = round(_best(row) / _best(columnar), 3)
        run.results[workload]["columnar_speedup"] = speedup


class _Client(threading.Thread):
    """One measured client: its own connection and request plan."""

    def __init__(self, address, tenant: str, plan: list[str], expected: dict):
        super().__init__(name=f"gate-client-{tenant}", daemon=True)
        self.address = address
        self.tenant = tenant
        self.plan = plan
        self.expected = expected
        self.completed = 0
        self.problems: list[str] = []

    def run(self) -> None:
        try:
            with ServeClient(*self.address, tenant=self.tenant) as client:
                for name in self.plan:
                    try:
                        reply = client.query(SERVED_QUERIES[name])
                    except ServeError as error:
                        self.problems.append(f"{name}: [{error.code}]")
                        continue
                    self.completed += 1
                    if reply.rows != self.expected[name]:
                        self.problems.append(
                            f"{name}: {len(reply.rows)} rows, serial "
                            f"{len(self.expected[name])}"
                        )
        except Exception as error:  # noqa: BLE001 - reported as a failure
            self.problems.append(f"connection: {type(error).__name__}: {error}")


def _throttled(address) -> dict:
    """Send the throttled tenant's requests; count how each ended."""
    outcome = {"rejected": 0, "missing_retry_after": 0, "unstructured_errors": 0}
    with ServeClient(*address, tenant="throttled") as client:
        for _ in range(THROTTLED_ATTEMPTS):
            try:
                client.query(SERVED_QUERIES["rising_pair_djia"])
            except ServeError as error:
                if not error.retryable:
                    outcome["unstructured_errors"] += 1
                    continue
                outcome["rejected"] += 1
                if error.retry_after is None:
                    outcome["missing_retry_after"] += 1
    return outcome


def measure_serve(run: Run) -> None:
    run.counts(SERVED)
    expected = run.served_rows()
    server = QueryServer(
        run.catalog(SERVED),
        domains=DOMAINS,
        default_quota=TenantQuota(max_concurrent=4, max_queued=64),
        quotas={
            "throttled": TenantQuota(
                limits=ResourceLimits(),
                max_concurrent=2,
                max_queued=2,
                rows_per_second=THROTTLED_ROWS_PER_SECOND,
            )
        },
        pool_workers=4,
        max_pending=4 * (SERVED_CLIENTS + 1),
    )
    names = list(SERVED_QUERIES)
    with ServerThread(server) as handle:
        clients = [
            # Round-robin plans, phase-shifted per client so every query
            # is in flight at once.
            _Client(
                handle.address,
                f"tenant{index % 4}",
                [names[(index + step) % len(names)] for step in range(run.repetitions)],
                expected,
            )
            for index in range(SERVED_CLIENTS)
        ]
        for client in clients:
            client.start()
        throttled = _throttled(handle.address)
        for client in clients:
            client.join(timeout=120.0)
        with ServeClient(*handle.address, tenant="gate-admin") as admin:
            misses = admin.stats()["plan_cache"]["misses"]
    for client in clients:
        for problem in client.problems:
            run.expect(False, f"{SERVED} {client.tenant}: {problem}")
    run.results[SERVED].update(
        requests=SERVED_CLIENTS * run.repetitions,
        completed=sum(client.completed for client in clients),
        distinct_queries=len(SERVED_QUERIES),
        plan_cache_misses=misses,
        **throttled,
    )


# ----------------------------------------------------------------------
# Checks: a run's results and the recorded entries in, failures out
# ----------------------------------------------------------------------


def check_counts(results: dict, recorded: dict) -> list[str]:
    failures = []
    for workload, result in results.items():
        entry = recorded.get(workload, {})
        for field in EXACT_FIELDS:
            if field in result and result[field] != entry.get(field):
                failures.append(
                    f"{workload}: {field} {result[field]}, recorded {entry.get(field)}"
                )
    return failures


def check_throughput(results: dict, recorded: dict) -> list[str]:
    failures = []
    for workload, result in results.items():
        for name, pair in result.get("measured_tests_per_s", {}).items():
            rate = recorded[workload]["tests_per_s"][name]
            if max(pair) < rate * (1.0 - THROUGHPUT_TOLERANCE):
                failures.append(
                    f"{workload}/{name}: {max(pair):.0f} compiled tests/s is more "
                    f"than {THROUGHPUT_TOLERANCE:.0%} below the recorded {rate:.0f}"
                )
    return failures


def check_tracing(results: dict, recorded: dict) -> list[str]:
    pair = results[DJIA]["measured_tests_per_s"]["ops"]
    spread = abs(pair[0] - pair[1]) / min(pair)
    if spread > STABILITY_BOUND:
        print(
            f"TRACING FLOOR SKIPPED: two measurements of untraced tests/s "
            f"disagree by {spread:.1%} (> {STABILITY_BOUND:.0%}); this host is "
            "too noisy to judge a 2% bound.  The identity checks still ran."
        )
        return []
    rate = recorded[DJIA]["tests_per_s"]["ops"]
    if max(pair) < rate * (1.0 - TRACING_TOLERANCE):
        return [
            f"{DJIA}/ops: {max(pair):.0f} untraced tests/s is more than "
            f"{TRACING_TOLERANCE:.0%} below the recorded {rate:.0f}"
        ]
    return []


def check_columnar(results: dict, recorded: dict) -> list[str]:
    speedup = results[DJIA]["columnar_speedup"]["ops"]
    if speedup < COLUMNAR_FLOOR:
        return [
            f"{DJIA}/ops: columnar speedup {speedup:.2f}x is below the "
            f"{COLUMNAR_FLOOR:.1f}x floor"
        ]
    return []


def check_serve(results: dict, recorded: dict) -> list[str]:
    served = results[SERVED]
    failures = []
    if served["completed"] != served["requests"]:
        failures.append(
            f"{SERVED}: {served['completed']} of {served['requests']} requests completed"
        )
    if served["rejected"] < 1:
        failures.append(f"{SERVED}: the throttled tenant was never rejected")
    if served["missing_retry_after"]:
        failures.append(
            f"{SERVED}: {served['missing_retry_after']} rejections without retry_after"
        )
    if served["unstructured_errors"]:
        failures.append(
            f"{SERVED}: the throttled tenant saw {served['unstructured_errors']} "
            "unstructured errors"
        )
    ceiling = MISSES_PER_QUERY * served["distinct_queries"]
    if served["plan_cache_misses"] > ceiling:
        failures.append(
            f"{SERVED}: {served['plan_cache_misses']} plan-cache misses for "
            f"{served['distinct_queries']} distinct queries (at most {ceiling})"
        )
    return failures


GATES = {
    "compiled": (measure_compiled, check_throughput),
    "tracing": (measure_tracing, check_tracing),
    "columnar": (measure_columnar, check_columnar),
    "serve": (measure_serve, check_serve),
}


def record(bench: dict, results: dict, meta: dict) -> None:
    """Fold a run into the recorded entries (see the module docstring)."""
    for workload, result in results.items():
        entry = bench.setdefault(workload, {})
        fields = dict(result)
        measured = fields.pop("measured_tests_per_s", None)
        entry.update(fields)
        if measured is None:
            continue
        runs = entry.setdefault("runs", [])
        if len(runs) < RECORD_RUNS:
            runs.append(
                {"scale_factor": meta["scale_factor"]}
                | {name: max(pair) for name, pair in measured.items()}
            )
            entry["tests_per_s"] = {
                name: round(statistics.median(run[name] for run in runs), 1)
                for name in measured
            }
    bench["meta"] = meta


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.gates",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "gates", nargs="*", metavar="GATE", help=f"one of {', '.join(GATES)} (default: all)"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare with BENCH.json instead of recording into it",
    )
    parser.add_argument(
        "--profile", choices=tuple(REPETITIONS), default="full",
        help="smoke takes fewer repetitions (default: full)",
    )
    args = parser.parse_args(argv)
    unknown = [gate for gate in args.gates if gate not in GATES]
    if unknown:
        parser.error(f"unknown gate {unknown[0]!r} (choose from {', '.join(GATES)})")
    if not args.check and args.profile != "full":
        parser.error("record with the full profile")
    gates = list(dict.fromkeys(args.gates)) or list(GATES)

    run = Run(args.profile)
    for gate in gates:
        GATES[gate][0](run)
    for workload, result in run.results.items():
        print(f"{workload}: {json.dumps(result, sort_keys=True)}")

    failures = list(run.mismatches)
    if args.check:
        recorded = json.loads(BENCH_JSON.read_text())
        failures += check_counts(run.results, recorded)
        for gate in gates:
            failures += GATES[gate][1](run.results, recorded)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    if args.check:
        print(f"passed: {', '.join(gates)}")
        return 0
    bench = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    record(bench, run.results, run.meta())
    BENCH_JSON.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"recorded {', '.join(gates)} into {BENCH_JSON.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
