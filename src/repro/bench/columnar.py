"""Columnar truth-array path vs the row path: the vectorization gate.

Times the row evaluator (compiled closures, the pre-columnar path)
against the columnar path — truth-array materialization *included* in
every timed columnar run, so the number is end-to-end honest — on the
paper's DJIA Example 10 double-bottom and, in the full profile, the
planted and random-walk series.  Every timed call is instrumented, as
every executor call is, so the gate times the path the system runs,
and its headline is the executor's default matcher, ``ops``.  Before
any timing, both paths must produce bit-identical matches and identical
predicate-test counts, and an uninstrumented call must return the
instrumented matches.

``python -m repro.bench.columnar``            regenerate BENCH_columnar.json
``python -m repro.bench.columnar --check``    compare against the committed
                                              baseline; non-zero exit when
                                              the DJIA speedup falls below
                                              the floor (CI smoke gate)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.bench.common import bench_metadata
from repro.data.djia import djia_table
from repro.data.planted import TEMPLATE_LENGTH, plant_double_bottoms
from repro.data.random_walk import geometric_walk
from repro.data.workloads import EXAMPLE_10
from repro.engine.catalog import Catalog
from repro.engine.columnar import materialize_kernels
from repro.engine.executor import Executor
from repro.match.base import Instrumentation, Matcher
from repro.match.naive import NaiveMatcher
from repro.match.ops_star import OpsStarMatcher
from repro.pattern.compiler import CompiledPattern
from repro.pattern.predicates import AttributeDomains

#: Default artefact location: the repository root.
DEFAULT_OUTPUT = Path(__file__).resolve().parents[3] / "BENCH_columnar.json"

#: The compiled-predicate baseline whose match counts this bench must
#: reproduce exactly (same workload, same query, different evaluator).
PR3_BASELINE = Path(__file__).resolve().parents[3] / "BENCH_pr3.json"

#: The wall-clock floor the DJIA headline must clear (ROADMAP's target).
SPEEDUP_FLOOR = 5.0

BENCH_MATCHERS: tuple[tuple[str, type], ...] = (
    ("naive", NaiveMatcher),
    ("ops", OpsStarMatcher),
)

#: The matcher whose DJIA speedup the floor applies to: the executor's
#: default.
HEADLINE_MATCHER = "ops"


def _best_times(
    matcher: Matcher,
    rows: Sequence[dict],
    pattern: CompiledPattern,
    repetitions: int,
) -> tuple[float, float]:
    """Best row and best columnar wall-clock, interleaved.

    Each repetition times one row call and then one columnar call, so a
    slow spell of a shared host falls on both sides instead of on one
    phase.  The columnar time includes truth materialization.
    """
    best_row = best_columnar = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        matcher.find_matches(rows, pattern, Instrumentation())
        best_row = min(best_row, time.perf_counter() - started)
        started = time.perf_counter()
        kernels = materialize_kernels(pattern, rows)
        matcher.find_matches(rows, pattern, Instrumentation(), kernels=kernels)
        best_columnar = min(best_columnar, time.perf_counter() - started)
    return best_row, best_columnar


def _bench_workload(
    rows: Sequence[dict],
    pattern: CompiledPattern,
    repetitions: int,
) -> dict:
    """Time row vs columnar on one workload, verifying parity first."""
    kernels = materialize_kernels(pattern, rows)
    if kernels is None:
        raise AssertionError("benchmark pattern failed to lower any element")
    matchers: dict[str, dict] = {}
    for name, matcher_cls in BENCH_MATCHERS:
        matcher = matcher_cls()
        # Correctness before speed: instrumented runs must agree on the
        # matches AND the predicate-test counts (the columnar path under
        # instrumentation charges exactly the row path's tests)...
        row_inst, col_inst = Instrumentation(), Instrumentation()
        row_matches = matcher.find_matches(rows, pattern, row_inst)
        col_matches = matcher.find_matches(rows, pattern, col_inst, kernels=kernels)
        if col_matches != row_matches:
            raise AssertionError(f"{name}: columnar path changed the matches")
        if col_inst.tests != row_inst.tests:
            raise AssertionError(
                f"{name}: instrumented predicate-test count diverged "
                f"(columnar {col_inst.tests}, row {row_inst.tests})"
            )
        # ...and an uninstrumented call must return those same matches.
        if matcher.find_matches(rows, pattern, None, kernels=kernels) != row_matches:
            raise AssertionError(f"{name}: uninstrumented call diverged")
        row_s, columnar_s = _best_times(matcher, rows, pattern, repetitions)
        matchers[name] = {
            "row_s": round(row_s, 6),
            "columnar_s": round(columnar_s, 6),
            "speedup": round(row_s / columnar_s, 3),
            "predicate_tests": row_inst.tests,
            "matches": len(row_matches),
        }
    started = time.perf_counter()
    materialize_kernels(pattern, rows)
    materialize_s = time.perf_counter() - started
    return {
        "rows": len(rows),
        "kernel_backend": kernels.backend,
        "materialize_s": round(materialize_s, 6),
        "matchers": matchers,
    }


def _double_bottom_pattern() -> CompiledPattern:
    executor = Executor(
        Catalog([djia_table()]), domains=AttributeDomains.prices()
    )
    _, compiled = executor.prepare(EXAMPLE_10)
    return compiled


def _price_rows(prices: Sequence[float]) -> list[dict]:
    return [{"price": float(p), "date": i} for i, p in enumerate(prices)]


def run_bench(profile: str = "full") -> dict:
    repetitions = 3 if profile == "smoke" else 7
    pattern = _double_bottom_pattern()
    workloads: dict[str, dict] = {}

    djia_rows = list(Catalog([djia_table()]).table("djia"))
    workloads["djia_double_bottom"] = _bench_workload(
        djia_rows, pattern, repetitions
    )

    if profile != "smoke":
        n = 4000
        positions = list(range(25, n - TEMPLATE_LENGTH - 2, 300))
        planted, _anchors = plant_double_bottoms(n, positions, seed=11)
        workloads["planted_double_bottom"] = _bench_workload(
            _price_rows(planted), pattern, repetitions
        )
        walk = geometric_walk(4000, seed=2, shock_probability=0.05)
        workloads["random_walk"] = _bench_workload(
            _price_rows(walk), pattern, repetitions
        )

    headline = workloads["djia_double_bottom"]["matchers"][HEADLINE_MATCHER]
    return {
        "bench": "columnar-vectorized-kernels",
        "profile": profile,
        "meta": bench_metadata(),
        "workloads": workloads,
        "headline": {
            "workload": "djia_double_bottom",
            "matcher": HEADLINE_MATCHER,
            "speedup": headline["speedup"],
            "matches": headline["matches"],
        },
    }


def check_run(
    current: dict,
    baseline: Optional[dict],
    floor: float,
    pr3: Optional[dict],
) -> list[str]:
    """Gate failures for the CI smoke check; empty list means pass.

    The gate is deliberately ratio-based (machine-independent): the
    DJIA headline matcher must clear the wall-clock ``floor`` (the
    other matchers' speedups are recorded but not floored — short smoke
    runs on loaded runners are too noisy for a hard ratio on every
    row), match counts must equal the committed baseline exactly, and
    the DJIA match count must equal what BENCH_pr3 recorded for the
    same query — the two artefacts describe the same ground truth.
    """
    failures: list[str] = []
    djia = current["workloads"]["djia_double_bottom"]["matchers"]
    headline = current["headline"]["matcher"]
    if djia[headline]["speedup"] < floor:
        failures.append(
            f"djia_double_bottom/{headline}: columnar speedup "
            f"{djia[headline]['speedup']:.2f}x is below the {floor:.1f}x floor"
        )
    if baseline is not None:
        for workload, recorded in current["workloads"].items():
            reference = baseline["workloads"].get(workload, {}).get("matchers", {})
            for name, run in recorded["matchers"].items():
                expected = reference.get(name)
                if expected is None:
                    continue
                for exact_key in ("matches", "predicate_tests"):
                    if run[exact_key] != expected[exact_key]:
                        failures.append(
                            f"{workload}/{name}: {exact_key} changed "
                            f"{expected[exact_key]} -> {run[exact_key]}"
                        )
    if pr3 is not None:
        for name, run in djia.items():
            pr3_run = (
                pr3["workloads"]
                .get("djia_double_bottom", {})
                .get("matchers", {})
                .get(name)
            )
            if pr3_run is not None and run["matches"] != pr3_run["matches"]:
                failures.append(
                    f"djia_double_bottom/{name}: {run['matches']} matches, "
                    f"but BENCH_pr3 recorded {pr3_run['matches']} for the "
                    "same query"
                )
    return failures


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--profile", choices=["full", "smoke"], default="full",
        help="smoke runs only the DJIA workload with fewer repetitions",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline instead of rewriting it",
    )
    parser.add_argument(
        "--floor", type=float, default=SPEEDUP_FLOOR,
        help="minimum DJIA wall-clock speedup in --check mode",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help="baseline JSON path (written without --check, read with it)",
    )
    args = parser.parse_args(argv)

    current = run_bench(args.profile)
    for workload, recorded in current["workloads"].items():
        for name, run in recorded["matchers"].items():
            print(
                f"{workload:24s} {name:6s} row={run['row_s']:.4f}s "
                f"columnar={run['columnar_s']:.4f}s "
                f"speedup={run['speedup']:.2f}x matches={run['matches']}"
            )

    if args.check:
        if not args.output.exists():
            print(f"no baseline at {args.output}; run without --check first")
            return 2
        baseline = json.loads(args.output.read_text())
        pr3 = json.loads(PR3_BASELINE.read_text()) if PR3_BASELINE.exists() else None
        failures = check_run(current, baseline, args.floor, pr3)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}")
            return 1
        print("bench check passed")
        return 0

    args.output.write_text(json.dumps(current, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
