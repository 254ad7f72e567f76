"""Differential suite: the columnar evaluator must be bit-identical to row.

The tentpole contract of the columnar storage + vectorized-kernel path
(see ``docs/performance.md``): for every query, dataset and matcher,
executing with ``evaluator="columnar"`` — against an
in-memory table or an out-of-core mmap'd ``.rcol`` file — produces the
same :class:`~repro.engine.result.Result`, the same instrumented
predicate-test counts, the same skip accounting, the same diagnostics,
and the same budget spend as the row-path oracle.  Hypothesis sweeps
generated queries × random-walk tables across the full matrix, and a
committed corpus (``tests/engine/data/columnar_corpus.json``) replays
past findings deterministically.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.catalog import Catalog
from repro.engine.columnar import load_columnar, write_columnar
from repro.engine.executor import Executor
from repro.engine.table import Table
from repro.errors import ExecutionError
from repro.match.base import Instrumentation
from repro.pattern.predicates import AttributeDomains
from repro.resilience import ResourceLimits

DOMAINS = AttributeDomains.prices()
VARS = "ABCD"
CORPUS_PATH = Path(__file__).parent / "data" / "columnar_corpus.json"

#: Registry matchers swept by the differential matrix.  "ops-nonstar"
#: joins only for star-free queries (it raises PlanningError on stars).
MATCHERS = ["ops", "naive", "backtracking"]


def _condition_pool(var, previous_var, starred=frozenset()):
    pool = [
        f"{var}.price > {var}.previous.price",
        f"{var}.price < {var}.previous.price",
        f"{var}.price < 60",
        f"{var}.price > 40",
        f"{var}.price >= 0.98 * {var}.previous.price",
        f"({var}.price < 35 OR {var}.price > 65)",
        f"NOT {var}.price > 55",
    ]
    if previous_var is not None:
        # Starred endpoints turn this into a residual, an anchored
        # comparison on kernels.
        pool.append(f"{var}.price > {previous_var}.price")
        # Anchored comparisons with element 1's row (across a star when
        # one lies between), with navigation on the anchor side and !=.
        pool += [
            f"{var}.previous.price < 0.5 * A.price",
            f"{var}.price > 1.01 * A.price",
            f"{var}.price > A.next.price",
            f"{var}.price != A.price",
        ]
        if var > "B" and "B" in starred:
            pool += [
                f"{var}.price < 0.99 * FIRST(B).price",
                f"{var}.price > LAST(B).price",
            ]
    return pool


@st.composite
def queries(draw):
    arity = draw(st.integers(1, 4))
    names = list(VARS[:arity])
    stars = [draw(st.booleans()) for _ in names]
    starred = {name for name, star in zip(names, stars) if star}
    conjuncts = []
    for index, name in enumerate(names):
        previous_var = names[index - 1] if index > 0 else None
        pool = _condition_pool(name, previous_var, starred)
        picks = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=2))
        conjuncts.extend(picks)
    if not conjuncts:
        conjuncts = [f"{names[0]}.price > 0"]
    pattern = ", ".join(
        ("*" if star else "") + name for name, star in zip(names, stars)
    )
    return (
        f"SELECT {names[0]}.date FROM quote CLUSTER BY name SEQUENCE BY date "
        f"AS ({pattern}) WHERE " + " AND ".join(conjuncts)
    )


@st.composite
def price_steps(draw):
    """Per-ticker random-walk steps, the deterministic table seed."""
    return {
        ticker: draw(
            st.lists(
                st.sampled_from([-8.0, -3.0, -1.0, 1.0, 3.0, 8.0]),
                min_size=0,
                max_size=30,
            )
        )
        for ticker in ("AAA", "BBB")
    }


def build_table(steps_by_ticker) -> Table:
    table = Table(
        "quote", [("name", "str"), ("date", "date"), ("price", "float")]
    )
    base = dt.date(2000, 1, 3)
    for ticker, steps in sorted(steps_by_ticker.items()):
        value = 50.0
        for offset, step in enumerate(steps):
            value = max(10.0, min(90.0, value + step))
            table.insert(
                {
                    "name": ticker,
                    "date": base + dt.timedelta(days=offset),
                    "price": value,
                }
            )
    return table


def run(catalog, sql, *, matcher="ops", evaluator="row", limits=None):
    instrumentation = Instrumentation()
    instrumentation.enable_detail()
    executor = Executor(
        catalog,
        domains=DOMAINS,
        matcher=matcher,
        evaluator=evaluator,
        limits=limits,
    )
    result, report = executor.execute_with_report(sql, instrumentation)
    return result, report, instrumentation


def fingerprint(result, report, instrumentation):
    """Everything the equivalence contract pins, as one comparable value."""
    return (
        result.columns,
        tuple(result.rows),
        report.predicate_tests,
        report.matches,
        report.clusters_searched,
        report.rows_scanned,
        instrumentation.skips,
        instrumentation.skip_distance,
        dict(instrumentation.tests_by_element or {}),
        tuple(report.diagnostics.downgrades),
        tuple(report.diagnostics.limits_hit),
    )


def assert_equivalent(table, sql, matchers=MATCHERS):
    catalog = Catalog([table])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "quote.rcol")
        write_columnar(table, path)
        mapped = load_columnar(path)
        try:
            mapped_catalog = Catalog([mapped])
            for matcher in matchers:
                oracle = fingerprint(*run(catalog, sql, matcher=matcher))
                got = fingerprint(
                    *run(catalog, sql, matcher=matcher, evaluator="columnar")
                )
                assert got == oracle, (matcher, "columnar")
                mmapped = fingerprint(
                    *run(mapped_catalog, sql, matcher=matcher, evaluator="columnar")
                )
                assert mmapped == oracle, (matcher, "mmap")
        finally:
            mapped.close()


@settings(max_examples=40, deadline=None)
@given(queries(), price_steps())
def test_columnar_equivalence_sweep(sql, steps):
    assert_equivalent(build_table(steps), sql)


def test_columnar_corpus_replays():
    """The committed corpus of past cases replays bit-identically."""
    corpus = json.loads(CORPUS_PATH.read_text())
    assert corpus, "corpus must not be empty"
    for case in corpus:
        assert_equivalent(build_table(case["steps"]), case["sql"])


def test_star_free_ops_nonstar_equivalence():
    """The paper-literal OPS loop joins the matrix on star-free patterns."""
    table = build_table(
        {"AAA": [-3.0, 1.0, 3.0, -8.0, 8.0, -1.0] * 4, "BBB": [1.0, -1.0] * 8}
    )
    sql = (
        "SELECT A.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (A, B, C) WHERE A.price < A.previous.price "
        "AND B.price > 40 AND C.price > B.price"
    )
    assert_equivalent(table, sql, matchers=MATCHERS + ["ops-nonstar"])


def test_budget_spend_parity_under_max_matches():
    """A capped query spends its budget identically on both paths."""
    table = build_table({"AAA": [-1.0, 1.0] * 15, "BBB": [1.0, -1.0] * 15})
    sql = (
        "SELECT A.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (A, B) WHERE A.price < A.previous.price AND B.price > A.previous.price"
    )
    limits = ResourceLimits(max_matches=2)
    oracle = fingerprint(*run(Catalog([table]), sql, limits=limits))
    got = fingerprint(
        *run(Catalog([table]), sql, evaluator="columnar", limits=limits)
    )
    assert got == oracle


def test_interpreted_oracle_stays_kernel_free():
    """codegen=False (the differential oracle) must never engage kernels,
    even when evaluator='columnar' asks for them."""
    table = build_table({"AAA": [-1.0, 1.0] * 10, "BBB": [3.0, -3.0] * 10})
    sql = (
        "SELECT A.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (A, *B) WHERE A.price < A.previous.price AND B.price > 40"
    )
    catalog = Catalog([table])
    plain = Executor(catalog, domains=DOMAINS, codegen=False).execute(sql)
    columnar = Executor(
        catalog, domains=DOMAINS, codegen=False, evaluator="columnar"
    ).execute(sql)
    compiled = Executor(catalog, domains=DOMAINS, evaluator="columnar").execute(sql)
    assert plain == columnar == compiled


def test_invalid_evaluator_mode_rejected():
    for mode in ("vector", "auto"):
        with pytest.raises(ExecutionError):
            Executor(Catalog([build_table({"AAA": []})]), evaluator=mode)
