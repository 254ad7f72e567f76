"""Full-stack fuzzing: generated SQL-TS queries, OPS vs naive agreement.

Hypothesis builds random (but well-formed) queries over the quote schema
— random pattern arity, star flags, and per-element conditions drawn from
the paper's condition shapes — renders them to SQL text, and runs them
through parse → analyze → compile → execute under both matchers.  The
same generators also drive the columnar-vs-row differential legs: full
agreement unlimited, under match caps, and (via the CLI) under
mid-query wall-clock deadlines where both paths must take the same
partial-results exit code.
"""

import datetime as dt
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.catalog import Catalog
from repro.engine.csv_io import save_csv
from repro.engine.executor import Executor
from repro.engine.table import Table
from repro.match.base import Instrumentation
from repro.pattern.predicates import AttributeDomains
from repro.resilience import ResourceLimits

DOMAINS = AttributeDomains.prices()
VARS = "ABCDEFG"


def _condition_pool(var, previous_var, starred=frozenset()):
    """SQL condition templates for one pattern variable."""
    pool = [
        f"{var}.price > {var}.previous.price",
        f"{var}.price < {var}.previous.price",
        f"{var}.price < 60",
        f"{var}.price > 40",
        f"{var}.price >= 0.98 * {var}.previous.price",
        f"{var}.price < 0.97 * {var}.previous.price",
        f"({var}.price < 35 OR {var}.price > 65)",
        f"NOT {var}.price > 55",
    ]
    if previous_var is not None:
        pool.append(f"{var}.price > {previous_var}.price")
        pool.append(f"{var}.price < 1.05 * {previous_var}.price")
        # Anchored comparisons with element 1's row, and with B's start
        # or end when B is starred: the OPS scan tests them on kernels
        # and may settle their replays in one walk.
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
        previous_var = None
        # A reference to the previous variable is only offset-expressible
        # when neither endpoint is starred; the generator still emits it
        # for starred cases (it becomes a residual, also worth fuzzing).
        if index > 0:
            previous_var = names[index - 1]
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
def price_tables(draw):
    table = Table("quote", [("name", "str"), ("date", "date"), ("price", "float")])
    base = dt.date(2000, 1, 3)
    for ticker in ("AAA", "BBB"):
        steps = draw(
            st.lists(
                st.sampled_from([-8.0, -3.0, -1.0, 1.0, 3.0, 8.0]),
                min_size=0,
                max_size=40,
            )
        )
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
    return Catalog([table])


@settings(max_examples=150, deadline=None)
@given(queries(), price_tables())
def test_generated_queries_agree_across_matchers(sql, catalog):
    ops = Executor(catalog, domains=DOMAINS, matcher="ops").execute(sql)
    naive = Executor(catalog, domains=DOMAINS, matcher="naive").execute(sql)
    assert ops == naive


def test_residual_on_leading_star_binding_regression():
    """Fuzz-found: with a leading star and a residual that references its
    binding (``B.price > A.price`` resolves ``A`` to the run's first
    row), the element-granular shift must not skip restart positions
    interior to the star run — a shorter run re-binds ``A`` and can flip
    the residual's verdict.  On [60, 50, 40, 50] the only match starts
    one position *inside* the first attempt's A-run."""
    sql = (
        "SELECT A.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (*A, B) WHERE A.price < A.previous.price AND B.price > A.price"
    )
    table = Table("quote", [("name", "str"), ("date", "date"), ("price", "float")])
    base = dt.date(2000, 1, 3)
    for offset, price in enumerate([60.0, 50.0, 40.0, 50.0]):
        table.insert(
            {"name": "AAA", "date": base + dt.timedelta(days=offset), "price": price}
        )
    catalog = Catalog([table])
    ops = Executor(catalog, domains=DOMAINS, matcher="ops").execute(sql)
    naive = Executor(catalog, domains=DOMAINS, matcher="naive").execute(sql)
    assert ops == naive
    assert ops.rows == ((dt.date(2000, 1, 5),),)


def _one_ticker(prices):
    table = Table("quote", [("name", "str"), ("date", "date"), ("price", "float")])
    base = dt.date(2000, 1, 3)
    for offset, price in enumerate(prices):
        table.insert(
            {"name": "AAA", "date": base + dt.timedelta(days=offset), "price": price}
        )
    return Catalog([table])


def test_residual_on_earlier_element_of_leading_star_regression():
    """Fuzz-found: the leading star's run must not be skipped when *any*
    element tested after it carries a residual on its binding, not only
    the element that failed.  On [49, 41, 33, 34, 35, 32] the attempt
    with A = rows 1..2 fails at C, but the shorter A = row 2 re-binds
    ``A.price`` for B's residual and matches rows 2..5."""
    sql = (
        "SELECT A.date, D.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (*A, *B, C, D) WHERE A.price < A.previous.price "
        "AND B.price > B.previous.price AND B.price < 1.05 * A.price "
        "AND C.price >= 0.98 * C.previous.price"
    )
    catalog = _one_ticker([49.0, 41.0, 33.0, 34.0, 35.0, 32.0])
    ops = Executor(catalog, domains=DOMAINS, matcher="ops").execute(sql)
    naive = Executor(catalog, domains=DOMAINS, matcher="naive").execute(sql)
    assert ops == naive
    assert ops.rows == ((dt.date(2000, 1, 5), dt.date(2000, 1, 8)),)


def test_residual_attempt_reaching_end_of_input_regression():
    """Fuzz-found: an attempt that runs out of input must not end the
    scan when a residual reads an earlier binding.  On [53, 45, 46, 54]
    the attempt from row 0 runs B to the last row, while the start one
    row later binds ``A.price = 45`` and its B run stops at row 3."""
    sql = (
        "SELECT A.date, C.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (A, *B, C) WHERE B.price < 1.05 * A.price"
    )
    catalog = _one_ticker([53.0, 45.0, 46.0, 54.0])
    ops = Executor(catalog, domains=DOMAINS, matcher="ops").execute(sql)
    naive = Executor(catalog, domains=DOMAINS, matcher="naive").execute(sql)
    assert ops == naive
    assert ops.rows == ((dt.date(2000, 1, 4), dt.date(2000, 1, 6)),)


def test_residual_on_starred_element_regression():
    """Fuzz-found: shift/next assume a starred element consumes the same
    run in the shifted alignment, which a residual breaks.  On
    [49, 57, 49, 50, 53, 56] the attempt from row 0 runs C over rows
    2..4 and fails at D; one row later B binds 49, C's residual stops
    its run at row 3, and D matches at row 4."""
    sql = (
        "SELECT A.date, D.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (A, B, *C, D) WHERE A.price < 60 AND NOT C.price > 55 "
        "AND C.price < 1.05 * B.price AND NOT D.price > 55"
    )
    catalog = _one_ticker([49.0, 57.0, 49.0, 50.0, 53.0, 56.0])
    ops = Executor(catalog, domains=DOMAINS, matcher="ops").execute(sql)
    naive = Executor(catalog, domains=DOMAINS, matcher="naive").execute(sql)
    assert ops == naive
    assert ops.rows == ((dt.date(2000, 1, 4), dt.date(2000, 1, 7)),)


@settings(max_examples=80, deadline=None)
@given(queries(), price_tables())
def test_generated_queries_columnar_matches_row(sql, catalog):
    """The vectorized path is a pure optimization: same Result, always."""
    row = Executor(catalog, domains=DOMAINS, evaluator="row").execute(sql)
    columnar = Executor(catalog, domains=DOMAINS, evaluator="columnar").execute(sql)
    assert columnar == row


@settings(max_examples=40, deadline=None)
@given(queries(), price_tables(), st.integers(1, 3))
def test_columnar_respects_match_caps_like_row(sql, catalog, cap):
    """Under a max_matches cap both paths stop at the same point: same
    kept rows, same counted work, same limits_hit diagnostics."""
    reports = {}
    for evaluator in ("row", "columnar"):
        executor = Executor(
            catalog,
            domains=DOMAINS,
            evaluator=evaluator,
            limits=ResourceLimits(max_matches=cap),
        )
        result, report = executor.execute_with_report(sql, Instrumentation())
        reports[evaluator] = (
            result,
            report.matches,
            report.predicate_tests,
            tuple(report.diagnostics.limits_hit),
        )
    assert reports["columnar"] == reports["row"]


def _oscillating_csv(tmp_path, rows=2500):
    table = Table("quote", [("name", "str"), ("date", "date"), ("price", "float")])
    base = dt.date(2000, 1, 3)
    for offset in range(rows):
        table.insert(
            {
                "name": "AAA",
                "date": base + dt.timedelta(days=offset),
                "price": 50.0 + (1.0 if offset % 2 else -1.0),
            }
        )
    path = str(tmp_path / "quote.csv")
    save_csv(table, path)
    return f"quote={path}:name:str,date:date,price:float"


def test_mid_query_deadline_exit_code_parity(tmp_path):
    """An already-expired deadline yields partial results and exit code 3
    on both evaluator paths — the columnar path must honour the same
    cooperative cancellation points."""
    from repro.cli import EXIT_LIMIT_HIT, main

    spec = _oscillating_csv(tmp_path)
    sql = (
        "SELECT A.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (*A, *B) WHERE A.price < A.previous.price "
        "AND B.price > B.previous.price"
    )
    for evaluator in ("row", "columnar"):
        code = main(
            [
                "query",
                sql,
                "--table",
                spec,
                "--matcher",
                "naive",
                "--timeout",
                "1e-9",
                "--evaluator",
                evaluator,
            ],
            out=io.StringIO(),
        )
        assert code == EXIT_LIMIT_HIT, evaluator


def test_match_cap_exit_code_and_output_parity(tmp_path):
    """A deterministic cap: both evaluator paths print identical partial
    results and exit with code 3."""
    from repro.cli import EXIT_LIMIT_HIT, main

    spec = _oscillating_csv(tmp_path, rows=60)
    sql = (
        "SELECT A.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (A, B) WHERE A.price < A.previous.price AND B.price > 40"
    )
    outputs = {}
    for evaluator in ("row", "columnar"):
        out = io.StringIO()
        code = main(
            ["query", sql, "--table", spec, "--max-matches", "2",
             "--evaluator", evaluator],
            out=out,
        )
        assert code == EXIT_LIMIT_HIT, evaluator
        outputs[evaluator] = out.getvalue()
    assert outputs["columnar"] == outputs["row"]


@settings(max_examples=100, deadline=None)
@given(queries())
def test_generated_queries_compile(sql):
    """Every generated query must parse, analyze, and plan."""
    catalog = Catalog([Table("quote", [("name", "str"), ("date", "date"), ("price", "float")])])
    analyzed, compiled = Executor(catalog, domains=DOMAINS).prepare(sql)
    for j in range(1, compiled.m + 1):
        assert 1 <= compiled.shift(j) <= j
        if compiled.shift(j) == j:
            assert compiled.next(j) == 0
        else:
            assert 1 <= compiled.next(j) <= j - compiled.shift(j) + 1
