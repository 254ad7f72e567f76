"""Scaling measured times by the probes taken nearest to them."""

import pytest

from perf import speed
from perf.speed import Speed


class ScriptedProbe:
    """A clock whose probe takes a scripted time per call."""

    def __init__(self, durations):
        self.now = 0.0
        self._durations = iter(durations)

    def clock(self) -> float:
        return self.now

    def work(self) -> None:
        self.now += next(self._durations)


def test_no_probes_means_no_scaling():
    assert Speed().factor(12.0) == 1.0


def test_factor_uses_the_probes_nearest_the_moment(monkeypatch):
    monkeypatch.setattr(speed, "PROBES_PER_ESTIMATE", 3)
    # Three fast probes (at the reference time), then three twice as slow.
    ref = speed.REFERENCE_S
    probe = ScriptedProbe([ref] * 3 + [2 * ref] * 3)
    timer = Speed(clock=probe.clock, work=probe.work)
    for _ in range(6):
        timer.measure()
        probe.now += 1.0
    assert timer.factor(timer.moments[0]) == pytest.approx(1.0)
    assert timer.factor(timer.moments[-1]) == pytest.approx(0.5)
    # A time measured in the slow stretch reads half as long.
    assert timer.scale([(timer.moments[-1], 0.010)]) == [pytest.approx(0.005)]
    assert timer.spent == pytest.approx(9 * ref)


def test_tick_probes_at_most_once_per_interval():
    probe = ScriptedProbe([1e-3] * 10)
    timer = Speed(clock=probe.clock, work=probe.work)
    timer.tick()
    timer.tick()
    assert len(timer.durations) == 1
    probe.now += speed.INTERVAL_S
    timer.tick()
    assert len(timer.durations) == 2
