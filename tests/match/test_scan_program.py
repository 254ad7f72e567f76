"""The OPS scan's per-plan program (``repro.match.ops_star.ScanProgram``).

A compiled plan builds its scan program on its first scan, not when it
is compiled, and keeps one per set of elements the cluster's kernels
lowered: the 64 clusters of a panel share one, and a cluster whose
kernels decline an element gets one that fits its own kernels.  The
scan's exact work under budgets and the detail modes is held by the
golden corpus (``test_scan_corpus.py``).
"""

from __future__ import annotations

import random

import pytest

from perf.workloads.adhoc_screens import distinct_screens
from perf.workloads.panel_cold import PANEL_QUERY, SCHEMA as PANEL_SCHEMA
from repro.data.quotes import quote_table
from repro.data.random_walk import geometric_walk
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.table import Table
from repro.match import ops_star
from repro.match.base import Instrumentation
from repro.pattern.predicates import AttributeDomains

DOMAINS = AttributeDomains.prices()

#: How the panel query's elements are held: X and *Y on truth arrays and
#: S on anchored comparisons, or, in a cluster with an int price, *Y and
#: S on their evaluators.
LOWERED = (ops_star._TRUTH, ops_star._TRUTH, ops_star._ANCHORED)
DECLINED = (ops_star._TRUTH, ops_star._EVALUATOR, ops_star._EVALUATOR)


def _panel(tickers: int, days: int, int_cell=None) -> Table:
    """A seeded panel; ``int_cell`` = (ticker, day) holds an int price."""
    table = Table("quote", PANEL_SCHEMA)
    for ticker in range(tickers):
        walk = geometric_walk(days, seed=500 + ticker, shock_probability=0.03)
        for day, price in enumerate(walk):
            price = round(price, 4)
            if (ticker, day) == int_cell:
                price = int(price)
            table.insert({"name": f"T{ticker:02d}", "date": day, "price": price})
    return table


@pytest.fixture
def built(monkeypatch) -> list:
    """The kinds of every scan program built while the test runs."""
    kinds = []
    build = ops_star.ScanProgram.__init__

    def counting(self, pattern, lowered, kernels=None):
        kinds.append(lowered)
        build(self, pattern, lowered, kernels)

    monkeypatch.setattr(ops_star.ScanProgram, "__init__", counting)
    return kinds


def test_a_panel_scan_builds_one_program(built):
    executor = Executor(Catalog([_panel(64, 40)]), domains=DOMAINS)
    _, compiled = executor.prepare(PANEL_QUERY)
    assert built == []
    result, report = executor.execute_with_report(PANEL_QUERY)
    assert report.clusters_searched == 64 and result.rows
    assert built == [LOWERED]
    assert executor.execute(PANEL_QUERY).rows == result.rows
    assert built == [LOWERED]
    assert list(compiled.scan_programs) == [LOWERED]


def test_planning_builds_no_program(built):
    """Compiling a pattern builds no program, so a plan that is never
    scanned (and an ``adhoc_screens`` text, planned once) costs what it
    did before."""
    executor = Executor(Catalog([quote_table()]), domains=DOMAINS)
    screens = distinct_screens(random.Random(11), set())
    for _ in range(20):
        executor.prepare(next(screens))
    assert built == []


def test_the_row_evaluator_builds_one_program(built):
    executor = Executor(Catalog([_panel(4, 60)]), domains=DOMAINS, evaluator="row")
    executor.execute(PANEL_QUERY)
    assert built == [(ops_star._EVALUATOR,) * 3]


def test_a_cluster_that_declines_an_element_gets_its_own_program(built):
    """An int price in T01 keeps *Y and S on their evaluators in that
    cluster only; each cluster scans with the program of its own
    kernels, and the query agrees with the interpreted naive oracle and
    the row path."""
    catalog = Catalog([_panel(3, 300, int_cell=(1, 40))])
    executor = Executor(catalog, domains=DOMAINS)
    columnar = Instrumentation()
    result = executor.execute(PANEL_QUERY, columnar)
    assert sorted(built) == sorted([LOWERED, DECLINED])
    oracle = Executor(
        catalog, domains=DOMAINS, codegen=False, evaluator="row", matcher="naive"
    ).execute(PANEL_QUERY)
    assert result.rows == oracle.rows
    assert {row[0] for row in result.rows} == {"T00", "T01", "T02"}
    row = Instrumentation()
    assert (
        Executor(catalog, domains=DOMAINS, evaluator="row")
        .execute(PANEL_QUERY, row)
        .rows
        == result.rows
    )
    assert (columnar.tests, columnar.skips, columnar.skip_distance) == (
        row.tests, row.skips, row.skip_distance
    )
    assert columnar.replays > 0
