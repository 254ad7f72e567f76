"""``perf compare``: moved speed probes and busy-host runs are flagged."""

import json

from perf import cli


def _record(workload, factor, latency_ms, timed_out=False):
    metrics = {
        "setup_s": 0.5,
        "peak_rss_mb": 40.0,
        "latency_p50_ms": latency_ms,
        "latency_p90_ms": 2 * latency_ms,
        "throughput_per_s": 1000.0 / latency_ms,
    }
    return {
        "workload": workload,
        "trace": False,
        "correct": True,
        "attempted": 100,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()},
        "conditions": {
            "scale_factor": factor,
            "unscaled": {name: value / factor for name, value in metrics.items()},
            "quiet_timed_out": timed_out,
        },
    }


def _write(directory, records):
    directory.mkdir()
    for index, record in enumerate(records):
        (directory / f"run-{index}.json").write_text(json.dumps(record))
    return directory


def test_probe_moved_needs_a_shift_beyond_the_spread():
    steady = [_record("paper_mix", f, 10.0) for f in (0.50, 0.51, 0.49, 0.50)]
    close = [_record("paper_mix", f, 10.0) for f in (0.51, 0.50, 0.52, 0.50)]
    slower = [_record("paper_mix", f, 10.0) for f in (0.40, 0.41, 0.39, 0.40)]
    assert not cli.probe_moved(steady, close)
    assert cli.probe_moved(steady, slower)


def test_a_slowdown_the_probe_cancelled_shows_unscaled(tmp_path, capsys):
    # The program got 30% slower and the probe with it: scaled values
    # agree, the unscaled ones regress.
    parent = [_record("paper_mix", f, 10.0) for f in (0.50, 0.51, 0.49, 0.50)]
    change = [_record("paper_mix", f / 1.3, 10.0) for f in (0.50, 0.51, 0.49, 0.50)]
    status = cli.main(["compare", str(_write(tmp_path / "a", parent)),
                       str(_write(tmp_path / "b", change))])
    out = capsys.readouterr().out
    assert "speed scale factors moved" in out
    assert "latency_p50_ms (raw)" in out
    assert status == 1


def test_runs_on_a_busy_host_are_counted(tmp_path, capsys):
    parent = [_record("served_mix", 0.5, 20.0) for _ in range(3)]
    change = [_record("served_mix", 0.5, 20.0, timed_out=i == 0) for i in range(3)]
    status = cli.main(["compare", str(_write(tmp_path / "a", parent)),
                       str(_write(tmp_path / "b", change))])
    out = capsys.readouterr().out
    assert "B: 1 of 3 runs measured on a busy host" in out
    assert "speed scale factors moved" not in out
    assert status == 0
