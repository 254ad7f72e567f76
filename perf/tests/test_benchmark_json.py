"""BENCHMARK.json names exactly the metrics the runs print."""

import json
import re

from perf import ROOT, layers
from perf.runner import END_TO_END
from perf.workloads import NAMES

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_workloads_match():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(NAMES)


def test_end_to_end_metrics_match_the_runner():
    listed = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert listed == END_TO_END
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_per_layer_metrics_match_the_layers():
    listed = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert listed == layers.UNITS


def test_names_and_units_are_well_formed():
    entries = BENCHMARK["workloads"] + BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
