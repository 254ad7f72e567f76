"""``python -m perf``: run the benchmark, or compare two sets of runs.

    python -m perf run [--workload W] [--seed N] [--seconds S] [--trace DIR] [--out DIR]
    python -m perf compare A B

``run`` measures each workload in its own fresh interpreter (so peak RSS
and caches are per workload), prints every metric with its unit, writes
one result file per workload under ``--out``, and exits non-zero if any
output was wrong.  ``--trace DIR`` makes it a traced run: per-layer
metrics, and a trace file per workload in DIR.

``compare`` reads two sets of result files (a directory, or single
files) and prints, for every workload and end-to-end metric, each side's
median and quartiles and the verdict of :func:`perf.stats.verdict`
against the bound in ``BENCHMARK.json``.  When the two sets' speed scale
factors differ by more than their spread it warns and judges the
unscaled values as well, and it warns about ``served_mix`` runs that
measured on a busy host.  It exits non-zero if any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from perf import OUT, ROOT, stats
from perf.runner import CONDITIONS
from perf.workloads import NAMES


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args: argparse.Namespace) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    stamp = time.strftime("%Y%m%d-%H%M%S")
    for workload in args.workload or NAMES:
        command = [
            sys.executable, str(ROOT / "perf" / "run.py"),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0",
        ]
        if args.trace:
            command += ["--trace-dir", str(args.trace.resolve())]
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s)", flush=True)
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {child.returncode})", flush=True)
            status = 1
            continue
        print(
            f"{workload}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}",
            flush=True,
        )
        if child.returncode != 0 or not result["correct"]:
            status = 1
        record = {
            "workload": workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            **result,
        }
        for line in lines:
            if line.startswith(CONDITIONS):
                record["conditions"] = json.loads(line[len(CONDITIONS):])
        path = args.out / f"{workload}-seed{args.seed}-{'trace-' if args.trace else ''}{stamp}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
    return status


def load_results(source: Path) -> dict:
    """workload -> list of untraced result records, from a file or dir."""
    files = sorted(source.glob("*.json")) if source.is_dir() else [source]
    grouped = defaultdict(list)
    for path in files:
        record = json.loads(path.read_text())
        if not record.get("trace"):
            grouped[record["workload"]].append(record)
    return grouped


def _summary(values: list) -> str:
    q1, median, q3 = stats.quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def _compare_metrics(workload, metrics, a_runs, b_runs, value, suffix="") -> bool:
    """Print one line per metric; True if any regressed."""
    regressed = False
    for metric in metrics:
        name = metric["name"]
        a = [value(run, name) for run in a_runs]
        b = [value(run, name) for run in b_runs]
        worse = stats.worsening(stats.quartiles(a)[1], stats.quartiles(b)[1], metric["better"])
        verdict = stats.verdict(name, a, b, metric["bound"], metric["better"])
        regressed |= verdict == "regression"
        print(f"{workload:14} {name + suffix:17} {_summary(a):28} {_summary(b):28} "
              f"{worse:+8.1%} {metric['bound']:6.0%}  {verdict}")
    return regressed


def probe_moved(a_runs: list, b_runs: list) -> bool:
    """True when the two sets' median speed scale factors differ by more
    than their spread: the probe moved with the program or the host."""
    a = [run["conditions"]["scale_factor"] for run in a_runs]
    b = [run["conditions"]["scale_factor"] for run in b_runs]
    moved = abs(stats.worsening(stats.quartiles(a)[1], stats.quartiles(b)[1], "lower"))
    return moved > max(stats.spread(a), stats.spread(b))


def compare(args: argparse.Namespace) -> int:
    metrics = benchmark()["end_to_end"]
    parent, change = load_results(args.a), load_results(args.b)
    status = 0
    print(f"{'workload':14} {'metric':17} {'A median [q1, q3]':28} "
          f"{'B median [q1, q3]':28} {'change':>8} {'bound':>6}  verdict")
    for workload in NAMES:
        a_runs, b_runs = parent.get(workload), change.get(workload)
        if not a_runs or not b_runs:
            continue
        status |= _compare_metrics(
            workload, metrics, a_runs, b_runs,
            lambda run, name: run["metrics"][name]["value"],
        )
        if probe_moved(a_runs, b_runs):
            # Scaling may have cancelled a slowdown the program caused
            # (see perf.speed): judge the unscaled values too.
            print(f"{workload:14} WARNING: the speed scale factors moved beyond "
                  f"their spread; unscaled values follow")
            status |= _compare_metrics(
                workload, [m for m in metrics if m["name"] != "peak_rss_mb"],
                a_runs, b_runs,
                lambda run, name: run["conditions"]["unscaled"][name], " (raw)",
            )
        for label, runs in (("A", a_runs), ("B", b_runs)):
            timed_out = sum(run["conditions"].get("quiet_timed_out", False) for run in runs)
            if timed_out:
                print(f"{workload:14} WARNING: {label}: {timed_out} of {len(runs)} runs "
                      f"measured on a busy host (the wait for quiet timed out)")
            failed = sum(run["failed"] for run in runs)
            attempted = sum(run["attempted"] for run in runs)
            print(f"{workload:14} failed_frac {label}: {failed}/{attempted} "
                  f"over {len(runs)} runs")
            status |= failed > 0
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run workloads, one interpreter each")
    run_parser.add_argument("--workload", action="append", choices=NAMES,
                            help="run only this workload (repeatable; default: all)")
    run_parser.add_argument("--seed", type=int, default=1)
    run_parser.add_argument("--seconds", type=float, default=None,
                            help="measured seconds per workload (default: BENCHMARK.json)")
    run_parser.add_argument("--trace", type=Path, metavar="DIR",
                            help="traced run: per-layer metrics, trace files in DIR")
    run_parser.add_argument("--out", type=Path, default=OUT / "results",
                            help="directory for result files")
    compare_parser = commands.add_parser("compare", help="compare two sets of result files")
    compare_parser.add_argument("a", type=Path, help="parent results (directory or file)")
    compare_parser.add_argument("b", type=Path, help="change results (directory or file)")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args)
    if args.seconds is None:
        args.seconds = benchmark()["run_seconds"]
    return run(args)
