"""Scale measured times to a reference machine speed.

A shared VM shares its CPUs with other tenants.  Their load changes how
fast any Python code runs by up to 2-3x, in episodes of seconds to
minutes: between two 15-second runs of the same workload, raw latencies
differed by 30-60%, far more than any bound worth enforcing.

A :class:`Speed` runs a fixed pure-Python :func:`probe` (sorting and
grouping a few thousand tuples; it calls nothing from ``repro``) every
:data:`INTERVAL_S` between operations, in the measuring thread itself
(and on every CPU in turn when the work spreads over processes).
A time ``t`` measured around moment ``m`` is reported as

    t * REFERENCE_S / (median probe time of the PROBES_PER_ESTIMATE probes nearest m)

that is, in milliseconds of a machine on which the probe takes
``REFERENCE_S``, close to its median on a quiet 2-vCPU Xeon VM.  On
that VM, shared, this took the run-to-run spread of paper_mix's
p90 latency from 32% to 5%.  The probe costs about 1% of the run; probe
time is never inside an operation's timing.

The program under test can move the probe too.  Anything it leaves
running between operations in the same process or on the same CPUs —
a thread of its own holding the interpreter lock, pool processes still
busy — slows the probe by the same ratio as the operations, and the
scaling then cancels that slowdown.  So every result records the run's
median scale factor and its metrics unscaled, and ``perf compare``
judges the unscaled values too when the scale factors of two sets of
runs differ by more than their spread.

Timed by the wall clock in the thread that does the work, a probe slows
down both when the CPU runs slower and when other processes take turns
on it.  A server's probe runs in a side thread instead, timed by the
thread's CPU clock so that waits for the interpreter lock do not count
(see ``perf/serve_entry.py``).  It follows the CPU's speed only, not
the wait for a CPU after each wake-up while other tenants keep every CPU
busy; the served workload waits for them to go quiet instead (see
``perf.workloads.served_mix``).
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import statistics
import time
from typing import Callable, Optional

#: The reference probe time, seconds: about the quiet VM's median.
REFERENCE_S = 1.6e-3
#: Seconds between probes.
INTERVAL_S = 0.2
#: Probes whose median estimates the speed at one moment.
PROBES_PER_ESTIMATE = 7


def probe() -> int:
    """A fixed slice of interpreter work: build, sort and group tuples."""
    rows = sorted(((i * 7919) % 10007, i * 0.5, str(i % 50)) for i in range(3000))
    totals: dict = {}
    for _, value, key in rows:
        totals[key] = totals.get(key, 0.0) + value
    return len(totals)


class Speed:
    """Probe times over one measured phase, and the scale factor they imply."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        work: Callable = probe,
        timer: Optional[Callable[[], float]] = None,
        every_cpu: bool = False,
    ):
        """``timer`` times the probe itself (default: ``clock``).

        ``every_cpu`` runs each probe once on every CPU the process may
        use and records their mean, for work spread over processes on all
        CPUs: their speeds differ from second to second."""
        self._clock = clock
        self._work = work
        self._timer = timer if timer is not None else clock
        self._cpus = sorted(os.sched_getaffinity(0)) if every_cpu else None
        self.moments: list[float] = []
        self.durations: list[float] = []
        #: Wall seconds spent probing, for callers whose timing spans probes.
        self.spent = 0.0

    def measure(self, count: int = 1) -> None:
        # The cyclic collector stays off during a probe: its pauses grow
        # with the heap of the program under test, not with machine speed.
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                started = self._clock()
                self.durations.append(self._probe_all() if self._cpus else self._probe())
                self.moments.append(started)
                self.spent += self._clock() - started
        finally:
            if collecting:
                gc.enable()

    def _probe(self) -> float:
        timed = self._timer()
        self._work()
        return self._timer() - timed

    def _probe_all(self) -> float:
        try:
            times = []
            for cpu in self._cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(self._probe())
        finally:
            os.sched_setaffinity(0, self._cpus)
        return statistics.fmean(times)

    def tick(self) -> None:
        """Probe if the last probe is more than INTERVAL_S old."""
        if not self.moments or self._clock() - self.moments[-1] >= INTERVAL_S:
            self.measure()

    def factor(self, moment: float) -> float:
        """REFERENCE_S over the local median probe time near ``moment``."""
        if not self.durations:
            return 1.0
        k = min(PROBES_PER_ESTIMATE, len(self.moments))
        at = bisect.bisect_left(self.moments, moment)
        lo, hi = max(0, at - k), min(len(self.moments), at + k)
        nearest = sorted(range(lo, hi), key=lambda i: abs(self.moments[i] - moment))[:k]
        return REFERENCE_S / statistics.median(self.durations[i] for i in nearest)

    def overall(self) -> float:
        """REFERENCE_S over the median of every probe taken."""
        return REFERENCE_S / statistics.median(self.durations)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"moments": self.moments, "durations": self.durations}, handle)

    def load(self, path: str) -> None:
        """Replace the probes with those :meth:`dump` wrote."""
        with open(path) as handle:
            saved = json.load(handle)
        self.moments, self.durations = saved["moments"], saved["durations"]

    def scale(self, samples: list) -> list[float]:
        """``[(moment, seconds), ...]`` -> reference-speed seconds."""
        return [seconds * self.factor(moment) for moment, seconds in samples]
