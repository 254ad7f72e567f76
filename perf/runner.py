"""Run one workload in this interpreter and print its result.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 612, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 14.2, "unit": "ms"}, ...}}

With ``--trace 0`` the metrics are the end-to-end metrics, measured for
``--seconds``.  With ``--trace 1`` the run measures ``--seconds / 2``
untraced, then ``--seconds / 2`` with the layer wrappers installed, and
reports the per-layer metrics; the spans go to
``<trace-dir>/trace-<workload>.json``.  The exit code is 1 when any
output was wrong.

An untraced run prints, just before the result, a line
``conditions: {...}`` with the run's median speed scale factors, the
end-to-end metrics unscaled, and what the workload observed of the host;
``python -m perf run`` keeps it in the result file.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from perf import OUT, ROOT, layers, stats, use_checkout_source, workloads
from perf.spans import Tracer
from perf.speed import Speed

#: End-to-end metric name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
}

#: Prefix of the stdout line, just before the result, that holds an
#: untraced run's conditions (see :func:`conditions`).
CONDITIONS = "conditions: "
#: Set-ups timed per run, each in a fresh interpreter; the median counts.
SETUP_REPEATS = 3
#: Speed probes a set-up child takes before and after its set-up.
PROBE_BURST = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-dir", type=Path, default=OUT / "traces",
        help="where --trace 1 writes trace-<workload>.json",
    )
    parser.add_argument(
        "--setup-probe", type=Path, metavar="WORKDIR", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def probe_setup(args: argparse.Namespace, workdir: Path) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until the workload's
    set-up is done (imports, table load, start-up, first executions), and
    the scale factor to the reference machine speed that the child
    measured around its set-up."""
    command = [
        sys.executable, str(ROOT / "perf" / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--setup-probe", str(workdir),
    ]
    started = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline().split()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        code = child.wait()
    if len(line) != 3 or line[0] != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {args.workload} failed (exit {code})")
    probing, factor = float(line[1]), float(line[2])
    return elapsed - probing, factor


def setup_child(args: argparse.Namespace) -> int:
    """The child side of :func:`probe_setup`: probe the machine speed, set
    up the workload from a fresh interpreter, probe again, report."""
    speed = Speed()
    speed.measure(PROBE_BURST)
    use_checkout_source()
    module = workloads.load(args.workload)
    state = module.setup(json.loads((args.setup_probe / "inputs.json").read_text()))
    speed.measure(PROBE_BURST)
    print(f"ready {speed.spent!r} {speed.overall()!r}", flush=True)
    if hasattr(module, "close"):
        module.close(state)
    return 0


def end_to_end(
    sample: workloads.Sample, setups: list, peak_rss_mb: float, scaled: bool = True
) -> dict:
    """The end-to-end metrics; times at reference machine speed unless
    ``scaled`` is off.  ``setups`` holds (seconds, scale factor) pairs."""
    if scaled:
        latencies = sample.latency_s()
        setup_s = [seconds * factor for seconds, factor in setups]
    else:
        latencies = [seconds for _, seconds in sample.latencies]
        setup_s = [seconds for seconds, _ in setups]
    return {
        "setup_s": stats.quartiles(setup_s)[1],
        "peak_rss_mb": peak_rss_mb,
        "latency_p50_ms": stats.percentile(latencies, 50) * 1000.0,
        "latency_p90_ms": stats.percentile(latencies, 90) * 1000.0,
        "throughput_per_s": sample.ops / sample.busy_s(scaled),
    }


def conditions(sample: workloads.Sample, setups: list, peak_rss_mb: float) -> dict:
    """What the result file records next to the metrics: the median scale
    factors, the metrics unscaled, and the workload's own conditions."""
    return {
        "scale_factor": sample.speed.overall(),
        "setup_scale_factor": stats.quartiles([factor for _, factor in setups])[1],
        "unscaled": end_to_end(sample, setups, peak_rss_mb, scaled=False),
        **sample.conditions,
    }


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(module, args: argparse.Namespace, workdir: Path) -> tuple[dict, list, dict]:
    """Measure one workload; return (metric values, samples, conditions)."""
    inputs = module.make_inputs(args.seed, workdir)
    (workdir / "inputs.json").write_text(json.dumps(inputs))
    setups = [] if args.trace else [probe_setup(args, workdir) for _ in range(SETUP_REPEATS)]
    state = module.setup(inputs)
    try:
        if not args.trace:
            sample = module.measure(state, args.seconds)
            peak = sample.peak_rss_mb or _own_peak_rss_mb()
            module.verify(state, sample)
            return (
                end_to_end(sample, setups, peak),
                [sample],
                conditions(sample, setups, peak),
            )
        base = module.measure(state, args.seconds / 2)
        tracer = Tracer()
        patches = layers.install(tracer)
        try:
            traced = module.measure(state, args.seconds / 2, tracer)
        finally:
            patches.undo()
        module.verify(state, base)
        module.verify(state, traced)
        values = layers.per_layer(base, traced, tracer)
        write_trace(args, tracer, values)
        return values, [base, traced], {}
    finally:
        if hasattr(module, "close"):
            module.close(state)


def write_trace(args: argparse.Namespace, tracer, values: dict) -> None:
    args.trace_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds / 2,
        "per_layer": values,
        "spans": tracer.records(),
    }
    path = args.trace_dir / f"trace-{args.workload}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"trace: {path}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe is not None:
        return setup_child(args)
    use_checkout_source()
    module = workloads.load(args.workload)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        values, samples, context = run(module, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = layers.UNITS if args.trace else END_TO_END
    attempted = sum(sample.attempted for sample in samples)
    failed = sum(sample.failed for sample in samples)
    for sample in samples:
        for error in sample.errors:
            print(f"wrong output: {error}", file=sys.stderr)
    for sample in samples:
        if sample.latencies and sample.busy:
            count = len(sample.latencies)
            wall_p50 = stats.percentile([s for _, s in sample.latencies], 50)
            scale = sample.busy_s() / sample.busy_s(scaled=False)
            print(
                f"{args.workload}: {count} latency samples, {stats.beyond(count, 90)} "
                f"beyond the p90{'' if stats.supported(count, 90) else ' (too few)'}; "
                f"wall p50 {wall_p50 * 1000.0:.4g} ms; times are scaled x{scale:.3f} "
                f"to the reference machine speed"
            )
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    if context:
        print(CONDITIONS + json.dumps(context))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1
