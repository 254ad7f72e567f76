"""NumPy is a declared dependency of the columnar kernels, loaded lazily.

The stream path never materializes kernels, so it must never pay the
NumPy import (about 11 MB of resident memory).  A batch query that
materializes kernels must fail loudly when NumPy is missing, instead of
quietly running every element on the row path.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data.djia import djia_table
from repro.data.workloads import EXAMPLE_10
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.pattern.predicates import AttributeDomains

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Streams Example 10 over the DJIA series and loads a CSV, then prints
#: the match count, the loaded row count and whether NumPy got imported.
STREAM_AND_LOAD = """
import sys

import repro
from repro.data.djia import djia_table
from repro.data.workloads import EXAMPLE_10
from repro.engine import columnar
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.table import Schema
from repro.pattern.predicates import AttributeDomains

rows = list(djia_table())
executor = Executor(Catalog(), domains=AttributeDomains.prices())
streaming = executor.stream(
    EXAMPLE_10, lambda start: ((i, rows[i]) for i in range(start, len(rows)))
)
matches = sum(1 for _ in streaming.rows)
schema = Schema([("name", "str"), ("day", "int"), ("price", "float")])
table = columnar.load_table(sys.argv[1], "quote", schema)
print(matches, len(table), "numpy" in sys.modules)
"""


def test_stream_and_csv_load_leave_numpy_unloaded(tmp_path):
    csv_path = tmp_path / "quote.csv"
    csv_path.write_text(
        "name,day,price\n" + "".join(f"IBM,{day},{100.0 + day}\n" for day in range(50))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", STREAM_AND_LOAD, str(csv_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["11", "50", "False"]


def test_missing_numpy_fails_a_columnar_query(monkeypatch):
    executor = Executor(
        Catalog([djia_table()]), domains=AttributeDomains.prices()
    )
    executor.prepare(EXAMPLE_10)
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError):
        executor.execute(EXAMPLE_10)
    # The row path needs no NumPy.
    row = Executor(
        Catalog([djia_table()]), domains=AttributeDomains.prices(), evaluator="row"
    )
    assert len(row.execute(EXAMPLE_10).rows) == 11
