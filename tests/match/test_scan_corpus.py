"""The OPS scan's exact work, pinned in a golden file.

``data/scan_corpus.json`` records what ``OpsStarMatcher`` does on every
cluster the executor scans for the queries below, under
``evaluator="columnar"`` and ``"row"``: the match bounds, the predicate
tests, skips, skip distance and replays, the per-element test counts
(``tests_by_element``), a digest of the path trace, the budget steps
the scan spends, and the partial matches and tests when a deadline trips
half-way through those steps.  Per query it records a digest of the
result rows, with no limits and under ``max_matches`` and
``max_rows_scanned``.  Example 10 is also pushed row by row through
:class:`~repro.match.streaming.OpsStreamMatcher`, with the matches each
push emits.

The row and columnar evaluators share one scan loop, so their equality
(``test_counted_runs.py``) cannot show that the loop's transitions are
unchanged; this file can.  Its queries:

- the nine ``paper_mix`` texts and the three ``served_mix`` texts of the
  benchmark, on their seed-1 tables;
- the ``panel_cold`` query over a small seeded panel;
- 300 seeded ``adhoc_screens`` texts;
- the starred-before-plain shapes of ``test_ops_oracle.py``;
- residuals behind a leading star and on a starred element, where the
  scan restarts one row in instead of skipping.

A change that is meant to change the scan's work re-records the file
(and says why):

    PYTHONPATH=src python -m tests.match.test_scan_corpus
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

import repro.engine.executor as executor_module
from perf.workloads import paper_mix, seeded_djia, seeded_quote
from perf.workloads.adhoc_screens import distinct_screens
from perf.workloads.panel_cold import PANEL_QUERY, SCHEMA as PANEL_SCHEMA
from perf.workloads.served_mix import QUERIES as SERVED_QUERIES
from repro.data.quotes import quote_table
from repro.data.random_walk import geometric_walk
from repro.data.workloads import EXAMPLE_10
from repro.engine.catalog import Catalog
from repro.engine.columnar import materialize_kernels
from repro.engine.executor import Executor
from repro.engine.table import Table
from repro.match.base import Instrumentation
from repro.match.ops_star import OpsStarMatcher
from repro.match.streaming import OpsStreamMatcher
from repro.pattern.predicates import AttributeDomains
from repro.resilience import Budget, ResourceLimits
from tests.match.test_ops_oracle import GE_SCREEN, MIDDLE_STAR_SCREEN, TWO_STAR_SCREEN

CORPUS_PATH = Path(__file__).parent / "data" / "scan_corpus.json"

EVALUATORS = ("columnar", "row")
SCREENS = 300
#: The small panel: tickers x days of the ``panel_cold`` generator.
PANEL_TICKERS = 16
PANEL_DAYS = 250
#: Residuals that stop shift/next from skipping: behind a leading star
#: (a later element reads its binding) and on a starred element.
RESIDUAL_GUARDS = {
    "leading_star_pair": (
        "SELECT A.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (*A, B) WHERE A.price < A.previous.price AND B.price > A.price"
    ),
    "leading_star_triple": (
        "SELECT A.date, C.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (*A, B, C) WHERE A.price < A.previous.price "
        "AND B.price > B.previous.price AND C.price > 1.01 * A.price"
    ),
    "residual_behind_two_stars": (
        "SELECT A.date, D.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (*A, *B, C, D) WHERE A.price < A.previous.price "
        "AND B.price > B.previous.price AND B.price < 1.05 * A.price "
        "AND C.price >= 0.98 * C.previous.price"
    ),
    "starred_residual": (
        "SELECT A.date, D.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (A, B, *C, D) WHERE A.price < 60 AND NOT C.price > 55 "
        "AND C.price < 1.05 * B.price AND NOT D.price > 55"
    ),
}
#: Query-level limits whose partial results the corpus pins.
MAX_MATCHES = 3
MAX_ROWS_SCANNED = 1200


def _panel_table() -> Table:
    table = Table("quote", PANEL_SCHEMA)
    table.insert_many(
        {"name": f"T{ticker:02d}", "date": day, "price": round(price, 4)}
        for ticker in range(PANEL_TICKERS)
        for day, price in enumerate(
            geometric_walk(PANEL_DAYS, seed=1000 + ticker, shock_probability=0.03)
        )
    )
    return table


def _groups() -> dict[str, tuple]:
    """Group name -> (catalog factory, {case name: sql})."""
    seed_1 = lambda: Catalog([seeded_djia(1), seeded_quote(1)])  # noqa: E731
    screens = distinct_screens(random.Random(26), set())
    return {
        "paper_mix": (seed_1, dict(paper_mix.QUERIES)),
        "served_mix": (seed_1, dict(SERVED_QUERIES)),
        "panel": (lambda: Catalog([_panel_table()]), {"panel": PANEL_QUERY}),
        "screens": (
            lambda: Catalog([seeded_quote(1)]),
            {f"screen_{n:03d}": next(screens) for n in range(SCREENS)},
        ),
        "ge_screen": (lambda: Catalog([quote_table(seed=20)]), {"ge": GE_SCREEN}),
        "star_before_plain": (
            lambda: Catalog([quote_table()]),
            {"middle_star": MIDDLE_STAR_SCREEN, "two_star": TWO_STAR_SCREEN},
        ),
        "residual_guards": (lambda: Catalog([quote_table()]), RESIDUAL_GUARDS),
    }


#: Longer lists of match bounds are kept as their digest.
RAW_BOUNDS = 8


def _sha256(value) -> str:
    """The first 64 bits of the SHA-256 of ``repr(value)``, in hex."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _bounds(bounds: list) -> dict:
    kept = bounds if len(bounds) <= RAW_BOUNDS else _sha256(bounds)
    return {"matches": len(bounds), "bounds": kept}


class _CountingBudget(Budget):
    """A budget that adds up the steps a scan spends."""

    def __init__(self, *args, **kwargs):
        self.spent = 0
        super().__init__(*args, **kwargs)

    def step(self, steps: int = 1) -> bool:
        self.spent += steps
        return super().step(steps)


def _deadline_budget(after: int) -> _CountingBudget:
    """A budget whose deadline passes once the scan has spent ``after``
    steps: every step consults the clock, which reads past the deadline
    from then on."""
    budget = None

    def clock() -> float:
        return 0.0 if budget is None or budget.spent < after else 1e9

    budget = _CountingBudget(
        ResourceLimits(wall_clock_deadline=1.0), clock=clock, check_every=1
    )
    return budget


def _scan(compiled, rows, kernels, instrumentation=None, budget=None):
    matches = OpsStarMatcher().find_matches(
        rows, compiled, instrumentation, budget, kernels=kernels
    )
    return [list(match.bounds) for match in matches]


#: A cluster's record is stored as a list of these fields, in order.
CLUSTER_FIELDS = (
    "rows", "matches", "bounds", "tests", "skips", "skip_distance", "replays",
    "tests_by_element", "trace_sha256", "budget_steps", "half_budget",
)


def _cluster_record(compiled, rows, kernels) -> list:
    """What the scan does on one cluster (see the module docstring)."""
    plain = Instrumentation()
    budget = _CountingBudget(ResourceLimits())
    bounds = _scan(compiled, rows, kernels, plain, budget)
    detail = Instrumentation(record_trace=True)
    detail.enable_detail()
    assert _scan(compiled, rows, kernels, detail) == bounds
    assert (detail.tests, detail.skips, detail.skip_distance, detail.replays) == (
        plain.tests, plain.skips, plain.skip_distance, plain.replays
    )
    assert sum(detail.tests_by_element.values()) == plain.tests
    tripped = Instrumentation()
    partial = _scan(compiled, rows, kernels, tripped, _deadline_budget(budget.spent // 2))
    record = {
        "rows": len(rows),
        **_bounds(bounds),
        "tests": plain.tests,
        "skips": plain.skips,
        "skip_distance": plain.skip_distance,
        "replays": plain.replays,
        "tests_by_element": [list(pair) for pair in sorted(detail.tests_by_element.items())],
        "trace_sha256": _sha256(detail.trace),
        "budget_steps": budget.spent,
        "half_budget": {**_bounds(partial), "tests": tripped.tests},
    }
    return [record[field] for field in CLUSTER_FIELDS]


def _query_record(catalog, sql: str, evaluator: str) -> dict:
    """The clusters one query scans, and its rows with and without limits."""
    executor = Executor(catalog, domains=AttributeDomains.prices(), evaluator=evaluator)
    scanned = []
    search_cluster = executor_module.search_cluster

    def capture(plan, key, rows, instrumentation, budget, diagnostics, trace, columns):
        scanned.append((plan, rows, columns))
        return search_cluster(
            plan, key, rows, instrumentation, budget, diagnostics, trace, columns
        )

    executor_module.search_cluster = capture
    try:
        result, report = executor.execute_with_report(sql)
    finally:
        executor_module.search_cluster = search_cluster
    clusters = []
    for plan, rows, columns in scanned:
        kernels = (
            materialize_kernels(plan.compiled, rows, columns=columns)
            if evaluator == "columnar"
            else None
        )
        clusters.append(_cluster_record(plan.compiled, rows, kernels))
    record = {
        "rows_sha256": _sha256(result.rows),
        "tests": report.predicate_tests,
        "clusters": clusters,
    }
    for name, limits in (
        ("max_matches", ResourceLimits(max_matches=MAX_MATCHES)),
        ("max_rows_scanned", ResourceLimits(max_rows_scanned=MAX_ROWS_SCANNED)),
    ):
        limited, report = executor.execute_with_report(sql, limits=limits)
        record[name] = {
            "rows_sha256": _sha256(limited.rows),
            "tests": report.predicate_tests,
        }
    return record


def _stream_record() -> dict:
    """Example 10 pushed row by row over the seed-1 DJIA series."""
    catalog = Catalog([seeded_djia(1)])
    _, compiled = Executor(catalog, domains=AttributeDomains.prices()).prepare(EXAMPLE_10)
    instrumentation = Instrumentation(record_trace=True)
    matcher = OpsStreamMatcher(compiled, instrumentation)
    emitted = []
    for index, row in enumerate(catalog.table("djia").rows):
        for match in matcher.push(row):
            emitted.append([index, list(match.bounds)])
    for match in matcher.finish():
        emitted.append([None, list(match.bounds)])
    return {
        "emitted": emitted,
        "tests": instrumentation.tests,
        "skips": instrumentation.skips,
        "skip_distance": instrumentation.skip_distance,
        "trace_sha256": _sha256(instrumentation.trace),
    }


def record_group(name: str) -> dict:
    factory, queries = _groups()[name]
    catalog = factory()
    return {
        evaluator: {
            case: _query_record(catalog, sql, evaluator)
            for case, sql in queries.items()
        }
        for evaluator in EVALUATORS
    }


def record() -> dict:
    corpus = {name: record_group(name) for name in _groups()}
    corpus["stream_example_10"] = _stream_record()
    return corpus


@pytest.fixture(scope="module")
def corpus() -> dict:
    return json.loads(CORPUS_PATH.read_text())


@pytest.mark.parametrize(
    "group",
    [
        "paper_mix",
        "served_mix",
        "panel",
        "screens",
        "ge_screen",
        "star_before_plain",
        "residual_guards",
    ],
)
def test_scan_work_equals_the_corpus(corpus, group):
    expected = corpus[group]
    actual = record_group(group)
    for evaluator in EVALUATORS:
        for case, want in expected[evaluator].items():
            assert actual[evaluator][case] == want, (group, evaluator, case)
    assert actual == expected


def test_stream_pushes_equal_the_corpus(corpus):
    assert _stream_record() == corpus["stream_example_10"]


def test_corpus_covers_every_scan_shortcut(corpus):
    """The corpus exercises counted runs, replays and budget trips."""
    clusters = [
        dict(zip(CLUSTER_FIELDS, cluster))
        for name, group in corpus.items()
        if name != "stream_example_10"
        for cases in group.values()
        for case in cases.values()
        for cluster in case["clusters"]
    ]
    assert sum(cluster["replays"] for cluster in clusters) > 100
    assert sum(cluster["matches"] for cluster in clusters) > 1000
    assert any(
        cluster["half_budget"]["matches"] < cluster["matches"] for cluster in clusters
    )
    assert corpus["stream_example_10"]["emitted"]


if __name__ == "__main__":
    CORPUS_PATH.parent.mkdir(exist_ok=True)
    CORPUS_PATH.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
    sys.exit(0)
