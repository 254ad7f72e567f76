"""Parallel-scaling benchmark for the partition execution engine.

Times serial execution against ``workers ∈ {2, 4}`` on a DJIA-style
panel — a dozen random-walk tickers searched independently per
``CLUSTER BY`` partition, the workload shape partition parallelism is
built for — and on the paper's single-cluster Example 10 headline as a
sanity floor (one partition cannot parallelize; output must still be
identical).  Every timed configuration is first verified to produce
bit-identical rows and match counts to serial execution: the speedup
numbers are only reported for runs the equivalence check has passed.

Wall-clock speedup is hardware-dependent (``cpu_count``, the CPUs this
process may use, is recorded alongside the timings; with one usable CPU
the query runs in-line and honestly shows ~1x),
so the ``--check`` gate is asymmetric: identical match counts are a
hard failure, the speedup is reported for the CI log.

``python -m repro.bench.pr5``                 regenerate BENCH_pr5.json
``python -m repro.bench.pr5 --check``         verify match parity against
                                              the committed baseline and
                                              report scaling (CI gate)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from repro.bench.common import bench_metadata
from repro.data.djia import djia_table
from repro.data.random_walk import geometric_walk
from repro.data.workloads import EXAMPLE_10
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.parallel import usable_cpus
from repro.engine.table import Schema, Table
from repro.pattern.predicates import AttributeDomains

#: Default artefact location: the repository root.
DEFAULT_OUTPUT = Path(__file__).resolve().parents[3] / "BENCH_pr5.json"

#: Worker counts timed against serial.
WORKER_COUNTS = (2, 4)

#: The panel workload: a relaxed double bottom (down-run, recovery) per
#: ticker, clustered so each ticker is an independent partition.
PANEL_QUERY = (
    "SELECT X.name, X.date, S.date FROM quote CLUSTER BY name "
    "SEQUENCE BY date AS (X, *Y, S) "
    "WHERE Y.price < 0.995 * Y.previous.price "
    "AND S.price > 1.01 * X.price"
)


def panel_table(tickers: int, days: int) -> Table:
    table = Table(
        "quote", Schema([("name", "str"), ("date", "int"), ("price", "float")])
    )
    for ticker in range(tickers):
        walk = geometric_walk(
            days, seed=100 + ticker, shock_probability=0.03
        )
        for day, price in enumerate(walk):
            table.insert(
                {
                    "name": f"T{ticker:02d}",
                    "date": day,
                    "price": round(price, 4),
                }
            )
    return table


def _executor(catalog: Catalog, workers: int, matcher: str) -> Executor:
    return Executor(
        catalog,
        domains=AttributeDomains.prices(),
        matcher=matcher,
        workers=workers,
    )


def _best_time(catalog, query, workers, matcher, repetitions) -> float:
    executor = _executor(catalog, workers, matcher)
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        executor.execute(query)
        best = min(best, time.perf_counter() - started)
    return best


def _bench_workload(
    catalog: Catalog, query: str, matcher: str, repetitions: int
) -> dict:
    """Time serial vs parallel on one workload, verifying parity first."""
    serial_result, serial_report = _executor(
        catalog, 1, matcher
    ).execute_with_report(query)
    runs: dict[str, dict] = {}
    serial_s = _best_time(catalog, query, 1, matcher, repetitions)
    for workers in WORKER_COUNTS:
        result, report = _executor(catalog, workers, matcher).execute_with_report(
            query
        )
        if result.rows != serial_result.rows:
            raise AssertionError(
                f"workers={workers}: parallel execution changed the rows"
            )
        if report.matches != serial_report.matches:
            raise AssertionError(
                f"workers={workers}: match count diverged "
                f"(serial {serial_report.matches}, parallel {report.matches})"
            )
        parallel_s = _best_time(catalog, query, workers, matcher, repetitions)
        runs[str(workers)] = {
            "parallel_s": round(parallel_s, 6),
            "speedup": round(serial_s / parallel_s, 3),
            "matches": report.matches,
        }
    return {
        "rows": serial_report.rows_scanned,
        "clusters": serial_report.clusters,
        "matcher": serial_report.matcher,
        "serial_s": round(serial_s, 6),
        "predicate_tests": serial_report.predicate_tests,
        "matches": serial_report.matches,
        "workers": runs,
    }


def run_bench(profile: str = "full") -> dict:
    repetitions = 2 if profile == "smoke" else 5
    tickers, days = (12, 1200) if profile != "smoke" else (8, 400)
    workloads: dict[str, dict] = {}

    panel = Catalog([panel_table(tickers, days)])
    workloads["djia_panel"] = _bench_workload(
        panel, PANEL_QUERY, "naive", repetitions
    )
    workloads["djia_panel_ops"] = _bench_workload(
        panel, PANEL_QUERY, "ops", repetitions
    )

    # Single-cluster sanity floor: the paper's Example 10 headline has
    # one partition, so parallel execution must degenerate gracefully to
    # the same 11 DJIA matches BENCH_pr3.json records.
    djia = Catalog([djia_table()])
    workloads["example_10_single_cluster"] = _bench_workload(
        djia, EXAMPLE_10, "naive", repetitions
    )

    headline = workloads["djia_panel"]
    cpus = usable_cpus()
    return {
        "bench": "pr5-parallel-partitions",
        "profile": profile,
        "meta": bench_metadata(),
        "cpu_count": cpus,
        "scaling_note": (
            "recorded with one usable CPU: speedup columns are "
            "physically capped at ~1x and are not evidence about the "
            "engine; CI re-measures scaling on a multi-core runner "
            "with --require-scaling"
            if cpus <= 1
            else None
        ),
        "workloads": workloads,
        "headline": {
            "workload": "djia_panel",
            "matcher": "naive",
            "serial_s": headline["serial_s"],
            "speedup_workers_4": headline["workers"]["4"]["speedup"],
            "matches": headline["matches"],
        },
    }


def check_against_baseline(current: dict, baseline: dict) -> list[str]:
    """Hard failures of the CI gate; empty list means pass.

    Match counts must be exactly the baseline's (on matching profiles;
    the smoke profile shrinks the synthetic panel, so only the
    fixed-size workloads are comparable across profiles); wall-clock
    speedup is hardware-dependent and only reported.
    """
    failures: list[str] = []
    same_profile = current.get("profile") == baseline.get("profile")
    #: Workloads whose data does not depend on the profile.
    fixed_size = {"example_10_single_cluster"}
    for workload, recorded in current["workloads"].items():
        reference = baseline["workloads"].get(workload)
        if reference is None:
            continue
        if not same_profile and workload not in fixed_size:
            continue
        for exact_key in ("matches", "predicate_tests", "clusters"):
            if recorded[exact_key] != reference[exact_key]:
                failures.append(
                    f"{workload}: {exact_key} changed "
                    f"{reference[exact_key]} -> {recorded[exact_key]}"
                )
    return failures


def check_scaling(current: dict, min_speedup: float = 1.05) -> list[str]:
    """Enforce that parallelism actually pays on multi-core hardware.

    The committed baseline was once recorded on a single-core container
    where a ~1x "speedup" is the honest physical ceiling, not a bug —
    but silently passing ``--check`` there hides real scaling
    regressions on real hardware.  This gate makes the asymmetry
    explicit: on a multi-core host the best panel speedup must clear
    ``min_speedup``; on a single core the check is SKIPPED with a loud
    annotation instead of vacuously passing.
    """
    cpu = current.get("cpu_count") or 1
    if cpu <= 1:
        print(
            "SCALING CHECK SKIPPED: one usable CPU — wall-clock "
            "speedup cannot materialize on a single core. Match parity "
            "was still enforced; run on a multi-core host (the CI "
            "runner does) to enforce scaling."
        )
        return []
    headline = current["workloads"]["djia_panel"]
    best = max(run["speedup"] for run in headline["workers"].values())
    if best < min_speedup:
        return [
            f"djia_panel: best parallel speedup {best:.2f}x is below the "
            f"{min_speedup:.2f}x floor on a {cpu}-core host"
        ]
    print(f"scaling check passed: best panel speedup {best:.2f}x on {cpu} cores")
    return []


def check_against_pr3(current: dict, pr3_path: Path) -> list[str]:
    """Cross-check Example 10 against the serial BENCH_pr3 DJIA baseline.

    The parallel engine — even degenerated to one partition — must find
    exactly the match count the serial compiled-predicate baseline
    recorded in PR 3.
    """
    if not pr3_path.exists():
        return []
    pr3 = json.loads(pr3_path.read_text())
    expected = pr3["headline"]["matches"]
    recorded = current["workloads"]["example_10_single_cluster"]["matches"]
    if recorded != expected:
        return [
            f"example_10_single_cluster: {recorded} matches, but the "
            f"serial BENCH_pr3 DJIA baseline recorded {expected}"
        ]
    return []


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--profile", choices=["full", "smoke"], default="full",
        help="smoke shrinks the panel and repetition count for CI",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="verify match parity against the committed baseline "
        "instead of rewriting it",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help="baseline JSON path (written without --check, read with it)",
    )
    parser.add_argument(
        "--require-scaling", action="store_true",
        help="with --check: fail unless parallel execution beats serial "
        "on this host (skipped with a loud annotation when "
        "only one CPU is usable, where no speedup is physically possible)",
    )
    args = parser.parse_args(argv)

    current = run_bench(args.profile)
    print(f"cpu_count={current['cpu_count']}")
    if (current.get("cpu_count") or 1) <= 1:
        print(
            "NOTE: one usable CPU — the speedup columns below are "
            "physically capped at ~1x and say nothing about the engine; "
            "see --require-scaling"
        )
    for workload, recorded in current["workloads"].items():
        scaling = " ".join(
            f"w{workers}={run['speedup']:.2f}x"
            for workers, run in recorded["workers"].items()
        )
        print(
            f"{workload:26s} {recorded['matcher']:6s} "
            f"serial={recorded['serial_s']:.4f}s {scaling} "
            f"matches={recorded['matches']} (identical across workers)"
        )

    if args.check:
        if not args.output.exists():
            print(f"no baseline at {args.output}; run without --check first")
            return 2
        baseline = json.loads(args.output.read_text())
        failures = check_against_baseline(current, baseline)
        failures += check_against_pr3(
            current, args.output.parent / "BENCH_pr3.json"
        )
        if args.require_scaling:
            failures += check_scaling(current)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}")
            return 1
        print("bench check passed: match counts identical; speedup above")
        return 0

    args.output.write_text(json.dumps(current, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
