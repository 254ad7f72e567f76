"""The benchmark's workloads and the sample each measured phase returns.

Every workload module provides:

- ``make_inputs(seed, workdir) -> dict``: generate the inputs from the
  seed (files go under ``workdir``); the dict is JSON so a set-up probe
  in a fresh interpreter can reuse it;
- ``setup(inputs) -> state``: the program set-up and warm-up that
  ``setup_s`` times (table load, executor or server start, first
  execution of each query text);
- ``measure(state, seconds, tracer) -> Sample``: the timed loop;
  ``tracer`` is None for the untraced run;
- ``verify(state, sample)``: the correctness checks, outside the timed
  region; each operation that gave wrong output is counted with
  :meth:`Sample.fail`;
- ``close(state)``, optional: stop whatever ``setup`` started.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

from perf.speed import Speed

NAMES = ("paper_mix", "adhoc_screens", "panel_cold", "served_mix", "stream_alerts")


def load(name: str):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r} (choose from {', '.join(NAMES)})")
    return importlib.import_module(f"perf.workloads.{name}")


def seeded_djia(seed: int):
    """The synthetic DJIA series for ``seed``; seed 1 is the repository's
    default series, whose Example 10 results BENCH_pr3.json records."""
    from repro.data.djia import DEFAULT_SEED, djia_table

    return djia_table(seed=DEFAULT_SEED + seed - 1)


def seeded_quote(seed: int):
    """The 8-ticker x 500-day quote table for ``seed``; seed 1 is the
    repository's default table."""
    from repro.data.quotes import quote_table

    return quote_table(seed=7 + seed - 1)


def oracle(catalog):
    """The interpreted reference: no codegen, row predicates, restart
    matching.  Every optimized result is checked against it."""
    from repro import AttributeDomains, Executor

    return Executor(
        catalog,
        domains=AttributeDomains.prices(),
        codegen=False,
        evaluator="row",
        matcher="naive",
    )


@dataclass
class Sample:
    """What one timed phase of a workload measured."""

    #: Per-operation latency as (moment, seconds), as the workload defines it.
    latencies: list = field(default_factory=list)
    #: Operations completed over the ``busy`` intervals, (moment, seconds) each.
    ops: int = 0
    busy: list = field(default_factory=list)
    #: Machine-speed probes taken between operations (see perf.speed).
    speed: Speed = field(default_factory=Speed)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: Instrumentation totals (the paper's metric and OPS skips).
    tests: int = 0
    matches: int = 0
    skips: int = 0
    skip_distance: int = 0
    #: Layer counts the workload observed itself (plan cache, pool, serve).
    counts: Counter = field(default_factory=Counter)
    #: Open-loop send time minus due time, seconds.
    late: list = field(default_factory=list)
    #: Outputs kept for ``verify``.
    kept: list = field(default_factory=list)
    #: Peak resident set of the measured process, when not this one.
    peak_rss_mb: Optional[float] = None
    #: What the host did during the run, beyond the speed probes; the
    #: result file records it and ``perf compare`` warns on it.
    conditions: dict = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def add_report(self, report, instrumentation) -> None:
        """Fold one query's ExecutionReport and Instrumentation in."""
        self.tests += report.predicate_tests
        self.matches += report.matches
        self.skips += instrumentation.skips
        self.skip_distance += instrumentation.skip_distance

    def timed(self, label: str, call: Callable, tracer=None):
        """Run ``call()`` as one closed-loop operation and time it.

        Returns its result, or None when it raised: the error is counted
        as a failed operation and the loop goes on.
        """
        self.speed.tick()
        self.attempted += 1
        started = time.perf_counter()
        try:
            with tracer.op(label) if tracer is not None else nullcontext():
                result = call()
        except Exception as error:  # noqa: BLE001 - counted, reported
            self.fail(f"{label}: {type(error).__name__}: {error}")
            return None
        elapsed = time.perf_counter() - started
        self.latencies.append((started + elapsed / 2, elapsed))
        self.busy.append((started + elapsed / 2, elapsed))
        self.ops += 1
        return result

    def latency_s(self) -> list[float]:
        """Latencies at reference machine speed."""
        return self.speed.scale(self.latencies)

    def busy_s(self, scaled: bool = True) -> float:
        """Busy seconds, at reference machine speed unless ``scaled`` is off."""
        return sum(self.speed.scale(self.busy) if scaled else (s for _, s in self.busy))
