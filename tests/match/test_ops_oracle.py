"""OPS against the interpreted naive oracle, with stars at any position.

A shift/next transition may let a *plain* element of the new attempt
inherit a starred element's multi-row run; such an attempt would report
its match from the run's first row.  The matcher restarts fresh at the
shifted origin instead.  The regression screens below reported wrong match
starts before that guard; the property sweeps stars at every position,
with and without truth arrays, and the stream matcher (which shares the
batch runtime) alongside.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.quotes import quote_table
from repro.engine.catalog import Catalog
from repro.engine.columnar import materialize_kernels
from repro.engine.executor import Executor
from repro.match.naive import NaiveMatcher
from repro.match.ops_star import OpsStarMatcher
from repro.match.streaming import OpsStreamMatcher
from repro.pattern.compiler import compile_pattern
from repro.pattern.predicates import AttributeDomains, comparison
from repro.pattern.spec import PatternElement, PatternSpec
from tests.conftest import KernelColumns, PREV, PRICE, price_predicate

#: The known-limit repro: X inherits Z's run of rows 12..17 on GE, so
#: the match was reported from row 12 instead of row 17.
GE_SCREEN = (
    "SELECT X.name, X.date, U.date FROM quote CLUSTER BY name SEQUENCE BY date "
    "AS (X, Y, *Z, T, U) WHERE X.price < X.previous.price "
    "AND Y.price > Y.previous.price AND Z.price < Z.previous.price "
    "AND T.price > T.previous.price AND 0.99 * U.previous.price < U.price "
    "AND U.price < 1.02 * U.previous.price AND X.name = 'GE'"
)

MIDDLE_STAR_SCREEN = (
    "SELECT X.name, X.date, U.date FROM quote CLUSTER BY name SEQUENCE BY date "
    "AS (X, Y, *Z, T, U) WHERE X.price > X.previous.price "
    "AND Y.price < Y.previous.price AND Z.price > Z.previous.price "
    "AND T.price < T.previous.price AND U.price > 1.03 * U.previous.price"
)

TWO_STAR_SCREEN = (
    "SELECT X.name, X.date, U.date FROM quote CLUSTER BY name SEQUENCE BY date "
    "AS (X, *Y, *Z, T, U) WHERE X.price < X.previous.price "
    "AND Y.price > Y.previous.price AND Z.price < Z.previous.price "
    "AND T.price > T.previous.price AND U.price < U.previous.price"
)


def _rows(table, sql, **options):
    catalog = Catalog()
    catalog.register(table)
    executor = Executor(catalog, domains=AttributeDomains.prices(), **options)
    return executor.execute(sql).rows


def _assert_ops_matches_oracle(table, sql):
    oracle = _rows(table, sql, matcher="naive", codegen=False, evaluator="row")
    assert oracle
    for evaluator in ("row", "columnar"):
        assert _rows(table, sql, matcher="ops", evaluator=evaluator) == oracle


def test_known_limit_repro_reports_oracle_start():
    _assert_ops_matches_oracle(quote_table(seed=20), GE_SCREEN)


def test_middle_star_screen_matches_oracle():
    _assert_ops_matches_oracle(quote_table(), MIDDLE_STAR_SCREEN)


def test_two_star_screen_matches_oracle():
    _assert_ops_matches_oracle(quote_table(), TWO_STAR_SCREEN)


# ----------------------------------------------------------------------
# The property: few, overlapping predicates, so that one element's
# predicate often implies another's and shift/next inherit runs.

_PREDICATES = {
    "rise": price_predicate(comparison(PRICE, ">", PREV)),
    "fall": price_predicate(comparison(PRICE, "<", PREV)),
    "rise3pct": price_predicate(comparison(PRICE, ">", 1.03 * PREV)),
    "flat": price_predicate(
        comparison(0.99 * PREV, "<", PRICE), comparison(PRICE, "<", 1.02 * PREV)
    ),
}

patterns = st.lists(
    st.tuples(st.sampled_from(sorted(_PREDICATES)), st.booleans()),
    min_size=2,
    max_size=6,
)

# Multiplicative random walks: daily returns of -4% .. +4%.
price_paths = st.lists(
    st.sampled_from([-0.04, -0.02, -0.01, -0.005, 0.0, 0.005, 0.01, 0.02, 0.04]),
    max_size=150,
)


def _walk(returns):
    price = 50.0
    rows = []
    for change in returns:
        price *= 1.0 + change
        rows.append({"price": price})
    return rows


def _stream(rows, plan):
    matcher = OpsStreamMatcher(plan)
    found = []
    for row in rows:
        found.extend(matcher.push(row))
    found.extend(matcher.finish())
    return found


@settings(max_examples=400, deadline=None)
@given(patterns, price_paths)
def test_ops_star_matches_interpreted_oracle(pattern, returns):
    spec = PatternSpec(
        [
            PatternElement(f"V{k}", _PREDICATES[kind], star=star)
            for k, (kind, star) in enumerate(pattern)
        ]
    )
    rows = _walk(returns)
    oracle = NaiveMatcher().find_matches(rows, compile_pattern(spec, codegen=False))
    plan = compile_pattern(spec)
    assert OpsStarMatcher().find_matches(rows, plan) == oracle
    kernels = materialize_kernels(plan, KernelColumns(rows))
    assert OpsStarMatcher().find_matches(rows, plan, kernels=kernels) == oracle
    assert _stream(rows, plan) == oracle
