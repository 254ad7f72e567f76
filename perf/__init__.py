"""The SQL-TS benchmark: five seeded workloads, end-to-end and per-layer
metrics, one result schema.  See ``perf/README.md``.

``python -m perf run`` runs every workload, each in a fresh interpreter,
and prints every metric with its unit; ``python -m perf compare A B``
compares two sets of result files against the bounds in
``BENCHMARK.json``.  ``python3 perf/run.py --workload W ...`` runs one
workload in the current interpreter and prints its result as JSON.
"""

from pathlib import Path

#: The checkout the benchmark measures: ``perf/`` sits at its root.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs, result files and trace files.
OUT = ROOT / ".perf-out"


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    import sys

    for entry in (str(ROOT), str(SRC)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"repro imported from {origin}, not from {SRC}")
