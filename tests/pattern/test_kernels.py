"""Unit tests for the columnar kernels: truth bytes from element predicates.

:func:`repro.engine.columnar.materialize_kernels` reads each element's
``predicate.conditions`` and emits truth bytes per cluster.  These tests
pin the edges: empty inputs, NaN and non-numeric cells, band-fused
conjunctions, the residual-on-star-binding class (an anchored
comparison, no truth array), kernel sharing across Example 10's
repeated shapes, and a seeded sweep that holds every truth byte to the
interpreted :meth:`~repro.pattern.predicates.ElementPredicate.test`
over the paper examples, screens of the ``adhoc_screens`` shape and
random predicates on every kind of cell.  Anchored comparisons must
decline wherever they could differ from the residual closure, and then
raise the closure's error or give its rows.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import random

import numpy
import pytest

from perf.workloads.adhoc_screens import distinct_screens
from repro.constraints.atoms import Op
from repro.data.djia import djia_table
from repro.data.workloads import ALL_EXAMPLES, EXAMPLE_10
from repro.engine import columnar
from repro.engine.catalog import Catalog
from repro.engine.columnar import ColumnStore, materialize_kernels
from repro.engine.executor import Executor
from repro.errors import ExecutionError
from repro.match.base import Instrumentation
from repro.match.naive import NaiveMatcher
from repro.match.ops_star import OpsStarMatcher
from repro.pattern.compiler import compile_pattern
from repro.pattern.predicates import (
    Attr,
    AttributeDomains,
    ComparisonCondition,
    EvalContext,
    LinearTerm,
    OrCondition,
    ResidualCondition,
    StringEqualityCondition,
    predicate,
)
from repro.pattern.spec import PatternElement, PatternSpec
from repro.sqlts import ast
from repro.sqlts.parser import parse_query

DOMAINS = AttributeDomains.prices()


def prepare(sql):
    executor = Executor(
        Catalog([djia_table()]), domains=AttributeDomains.prices()
    )
    _, compiled = executor.prepare(sql)
    return compiled


def price_rows(prices):
    return [{"price": p, "date": index} for index, p in enumerate(prices)]


DOWN_UP = (
    "SELECT X.date FROM djia SEQUENCE BY date AS (X, *Y, Z) "
    "WHERE Y.price < Y.previous.price AND Z.price > 1.02 * Z.previous.price"
)


def truth_matches_evaluators(compiled, rows, kernels):
    """Each truth byte equals the row evaluator's verdict, positionwise."""
    for j, truth in enumerate(kernels.truth, start=1):
        if truth is None:
            continue
        evaluator = compiled.evaluators[j - 1]
        for index in range(len(rows)):
            assert truth[index] == int(evaluator(rows, index, {})), (j, index)


def truth_matches_interpreter(compiled, rows, kernels):
    """Every kernel equals the interpreted predicate at every row.

    A truth array is held to ``ElementPredicate.test``.  An anchored
    element's gate is held to its ordinary conditions, and each of its
    comparisons to its residual's interpreted ``evaluate`` with the
    anchor bound to a sample of rows.
    """
    n = len(rows)
    anchors = sorted({*range(0, n, max(1, n // 7)), n - 1})
    for j, element in enumerate(compiled.spec, start=1):
        truth, anchored = kernels.truth[j - 1], kernels.anchored[j - 1]
        conditions = element.predicate.conditions
        if truth is not None:
            assert len(truth) == n
            for index in range(n):
                expected = element.predicate.test(EvalContext(rows, index))
                assert truth[index] == expected, (element, index)
            continue
        assert anchored is not None, f"{element} fell back to its closure"
        gate, comparisons = anchored
        ordinary = [c for c in conditions if not isinstance(c, ResidualCondition)]
        residuals = [c for c in conditions if isinstance(c, ResidualCondition)]
        assert (gate is None) == (not ordinary)
        for index in range(n):
            if gate is not None:
                expected = all(c.evaluate(EvalContext(rows, index)) for c in ordinary)
                assert gate[index] == expected, (element, index)
        for residual, (lhs, holds, rhs, edge, delta) in zip(residuals, comparisons):
            name = compiled.spec.names[residual.anchored.element - 1]
            for anchor in anchors:
                bindings = {name: (anchor, anchor)}
                for index in range(n):
                    expected = residual.evaluate(EvalContext(rows, index, bindings))
                    got = (
                        lhs[index] is not None
                        and rhs[anchor] is not None
                        and holds(lhs[index], rhs[anchor])
                    )
                    assert got == expected, (residual, anchor, index)


def captured_kernels(executor, sql):
    """``(compiled, rows, kernels)`` of every cluster ``sql`` scans."""
    calls = []
    original = columnar.materialize_kernels

    def capture(compiled, rows, columns=None):
        kernels = original(compiled, rows, columns=columns)
        calls.append((compiled, rows, kernels))
        return kernels

    columnar.materialize_kernels = capture
    try:
        executor.execute(sql)
    finally:
        columnar.materialize_kernels = original
    assert calls
    return calls


# ----------------------------------------------------------------------
# Edges of materialization
# ----------------------------------------------------------------------


def test_empty_rows_materialize_empty_truth():
    compiled = prepare(DOWN_UP)
    kernels = materialize_kernels(compiled, [])
    assert kernels is not None
    for j in (2, 3):
        assert kernels.truth[j - 1] == b""
    assert OpsStarMatcher().find_matches([], compiled, kernels=kernels) == []


def test_nan_cells_are_false_on_both_paths():
    compiled = prepare(DOWN_UP)
    rows = price_rows([50.0, float("nan"), 45.0, 50.0, 52.0])
    kernels = materialize_kernels(compiled, rows)
    assert kernels is not None and kernels.backend == "numpy"
    truth_matches_evaluators(compiled, rows, kernels)
    # NaN fails every comparison: positions touching the NaN cell are 0
    # in both the < and > kernels.
    assert kernels.truth[1][1] == 0 and kernels.truth[1][2] == 0
    assert kernels.truth[2][1] == 0 and kernels.truth[2][2] == 0


def test_non_numeric_cell_falls_back_to_row_evaluator():
    """A cell that would raise TypeError in ``a * value + b`` must leave
    the element on the row path, where the error surfaces (or
    short-circuits away) exactly as it always did."""
    compiled = prepare(DOWN_UP)
    rows = price_rows([50.0, 45.0, 50.0])
    rows[1]["price"] = "not-a-price"
    kernels = materialize_kernels(compiled, rows)
    if kernels is not None:
        assert kernels.truth[1] is None and kernels.truth[2] is None


def test_missing_column_cell_is_false():
    compiled = prepare(DOWN_UP)
    rows = price_rows([50.0, 45.0, 50.0, 52.0])
    del rows[1]["price"]
    kernels = materialize_kernels(compiled, rows)
    assert kernels is not None
    truth_matches_evaluators(compiled, rows, kernels)


def test_interpreted_plan_has_no_kernels():
    executor = Executor(
        Catalog([djia_table()]), domains=AttributeDomains.prices(), codegen=False
    )
    _, compiled = executor.prepare(DOWN_UP)
    assert materialize_kernels(compiled, price_rows([50.0, 45.0])) is None


# ----------------------------------------------------------------------
# Lowering coverage
# ----------------------------------------------------------------------


def test_band_fused_element_lowers_with_flag():
    """The row path fuses the band into one closure (the flight-recorder
    marker); the kernels give the same element one truth array."""
    sql = (
        "SELECT Z.date FROM djia SEQUENCE BY date AS (X, Z) "
        "WHERE 0.98 * Z.previous.price < Z.price "
        "AND Z.price < 1.02 * Z.previous.price"
    )
    compiled = prepare(sql)
    assert getattr(compiled.evaluators[1], "band_fused", False)
    rows = price_rows([50.0, 49.5, 49.0, 51.0, 50.8])
    kernels = materialize_kernels(compiled, rows)
    assert kernels.truth[1] == bytes([0, 1, 1, 0, 1])
    assert kernels.lowered == 2 and kernels.backend == "numpy"
    truth_matches_evaluators(compiled, rows, kernels)


def test_residual_star_binding_element_lowers_anchored():
    """``B.price > A.price`` with ``*A`` reads A's start, which moves
    with the attempt — a residual.  The element gets an anchored
    comparison, never a truth array, and matches must equal the row
    path on the leading-star regression input."""
    sql = (
        "SELECT A.date FROM djia SEQUENCE BY date "
        "AS (*A, B) WHERE A.price < A.previous.price AND B.price > A.price"
    )
    compiled = prepare(sql)
    rows = price_rows([60.0, 50.0, 40.0, 50.0])
    kernels = materialize_kernels(compiled, rows)
    assert kernels is not None and kernels.lowered == 2
    assert kernels.truth[0] is not None  # *A: offset-expressible
    assert kernels.truth[1] is None and kernels.anchored[0] is None
    # B compares with A's start: count edge 0, no delta, no gate.
    gate, ((lhs, holds, rhs, edge, delta),) = kernels.anchored[1]
    assert (gate, holds, edge, delta) == (None, operator.gt, 0, 0)
    assert lhs == rhs == [60.0, 50.0, 40.0, 50.0]
    oracle = OpsStarMatcher().find_matches(rows, compiled)
    got = OpsStarMatcher().find_matches(rows, compiled, kernels=kernels)
    assert got == oracle
    assert NaiveMatcher().find_matches(rows, compiled, kernels=kernels) == oracle


def test_disjunction_lowers():
    sql = (
        "SELECT X.date FROM djia SEQUENCE BY date AS (X) "
        "WHERE (X.price < 35 OR X.price > 65)"
    )
    compiled = prepare(sql)
    (condition,) = compiled.spec.elements[0].predicate.conditions
    assert isinstance(condition, OrCondition)
    rows = price_rows([30.0, 50.0, 70.0])
    kernels = materialize_kernels(compiled, rows)
    assert kernels.truth[0] == bytes([1, 0, 1])


def test_opaque_predicate_declines(example4_predicates):
    """A hand-built predicate with a residual lambda keeps its row
    evaluator; the paper's Example 4 predicates all lower."""
    opaque = predicate(
        ResidualCondition(lambda ctx: True, "opaque"),
        domains=DOMAINS,
        label="opaque",
    )
    elements = [
        PatternElement(name, p)
        for name, p in zip("ABCDE", [opaque, *example4_predicates])
    ]
    compiled = compile_pattern(PatternSpec(elements))
    rows = price_rows([50.0, 45.0, 44.0, 46.0, 48.0, 51.0])
    kernels = materialize_kernels(compiled, rows)
    assert kernels.truth[0] is None and kernels.anchored[0] is None
    assert None not in kernels.truth[1:]
    assert kernels.lowered == 4
    truth_matches_evaluators(compiled, rows, kernels)


# ----------------------------------------------------------------------
# Representation agreement and sharing
# ----------------------------------------------------------------------


def test_truth_bytes_match_row_evaluators():
    compiled = prepare(DOWN_UP)
    rows = price_rows([50.0, 45.0, 44.0, 46.0, 48.0, 47.0, 49.0])
    kernels = materialize_kernels(compiled, rows)
    assert kernels.lowered == compiled.m
    truth_matches_evaluators(compiled, rows, kernels)


def test_example_10_repeated_shapes_share_truth():
    """Example 10 repeats its down/flat/up shapes across the starred
    elements; elements of one shape must share one truth object."""
    compiled = prepare(EXAMPLE_10)
    rows = price_rows(
        [50.0, 49.0, 47.0, 47.5, 49.5, 49.0, 47.0, 47.5, 49.5, 50.0]
    )
    kernels = materialize_kernels(compiled, rows)
    assert kernels.lowered == compiled.m  # everything lowers
    # Z, U, W share the flat band; Y, V share the drop; T, R the rise.
    assert kernels.truth[2] is kernels.truth[4] is kernels.truth[6]
    assert kernels.truth[1] is kernels.truth[5]
    assert kernels.truth[3] is kernels.truth[7]
    assert kernels.truth[1] is not kernels.truth[3]


def test_int_cells_use_python_backend_exactly():
    """Int columns (exact Python semantics) stay off the float fast path
    but still produce correct truth."""
    sql = (
        "SELECT X.date FROM djia SEQUENCE BY date AS (X) WHERE X.price > 50"
    )
    compiled = prepare(sql)
    rows = [{"price": p, "date": i} for i, p in enumerate([49, 50, 51, 10**40])]
    kernels = materialize_kernels(compiled, rows)
    assert kernels.truth[0] == bytes([0, 0, 1, 1])
    assert kernels.backend == "python"
    truth_matches_evaluators(compiled, rows, kernels)


# ----------------------------------------------------------------------
# The seeded sweep: every truth byte against the interpreter
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
def test_truth_bytes_equal_the_interpreter_on_paper_examples(paper_catalog, name):
    executor = Executor(paper_catalog, domains=DOMAINS)
    for compiled, rows, kernels in captured_kernels(executor, ALL_EXAMPLES[name]):
        assert kernels.lowered == compiled.m and kernels.backend == "numpy"
        truth_matches_interpreter(compiled, rows, kernels)


def test_truth_bytes_equal_the_interpreter_on_seeded_screens(paper_catalog):
    """200 seeded screens of the ``adhoc_screens`` shape, residuals
    against ``X`` included, each over the one cluster it scans."""
    executor = Executor(paper_catalog, domains=DOMAINS)
    screens = distinct_screens(random.Random(25), set())
    anchored = 0
    for _ in range(200):
        for compiled, rows, kernels in captured_kernels(executor, next(screens)):
            assert kernels.lowered == compiled.m
            anchored += sum(entry is not None for entry in kernels.anchored)
            truth_matches_interpreter(compiled, rows, kernels)
    assert anchored > 20


#: Cell values per column kind of the random-predicate sweep; None is a
#: missing cell (the row has no such key).
CELLS = {
    "float": [-2.0, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0, 2.0**53],
    "int": [-3, -1, 0, 1, 2, 3, 10**20, 2**53],
    "mixed": [-2, -0.5, 0, 0.5, 1, 1.5, 3],
    "special": [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, -1.5],
    "missing": [-1.0, 0.0, 0.5, 2.0, None],
}
COEFFICIENTS = (1.0, -1.0, 0.5, 2.0, 1.02, 0.0)
CONSTANTS = (0.0, -0.0, 1.0, -1.5, 2.5, math.inf, -math.inf, math.nan)
#: Int constants float64 cannot hold, for constant-only sides.
BIG_INTS = (2**53 + 1, -(2**53 + 1), 3 * 2**60 + 7)


def _random_term(rng):
    if rng.random() < 0.3:
        return LinearTerm(0.0, None, rng.choice(CONSTANTS + BIG_INTS))
    attr = Attr(rng.choice(("v", "w")), rng.randint(-2, 1))
    return LinearTerm(rng.choice(COEFFICIENTS), attr, rng.choice(CONSTANTS[:5]))


def _random_condition(rng, depth=0):
    roll = rng.random()
    if roll < 0.1:
        return StringEqualityCondition(
            Attr("s", rng.randint(-2, 1)), rng.choice((Op.EQ, Op.NE)), "a"
        )
    if roll < 0.25 and depth == 0:
        return OrCondition(
            [
                [_random_condition(rng, 1) for _ in range(rng.randint(1, 2))]
                for _ in range(rng.randint(1, 3))
            ]
        )
    return ComparisonCondition(
        _random_term(rng), rng.choice(list(Op)), _random_term(rng)
    )


def _random_rows(rng, kind, n=40):
    rows = []
    for index in range(n):
        row = {"s": rng.choice(("a", "b"))}
        for name in ("v", "w"):
            value = rng.choice(CELLS[kind])
            if value is not None:
                row[name] = value
        if kind == "missing" and rng.random() < 0.1:
            del row["s"]
        rows.append(row)
    return rows


@pytest.mark.parametrize("kind", sorted(CELLS))
def test_truth_bytes_equal_the_interpreter_on_random_predicates(kind):
    """One-element predicates: constants on either side, offsets -2..+1,
    OR conditions and string equalities, over every kind of cell."""
    rng = random.Random(f"kernels-{kind}")
    backends = set()
    for _ in range(150):
        conditions = [_random_condition(rng) for _ in range(rng.randint(1, 3))]
        element = PatternElement("X", predicate(*conditions))
        compiled = compile_pattern(PatternSpec([element]))
        rows = _random_rows(rng, kind)
        kernels = materialize_kernels(compiled, rows)
        assert kernels is not None and kernels.lowered == 1
        backends.add(kernels.backend)
        truth_matches_interpreter(compiled, rows, kernels)
    # Only all-float columns vectorize; string equalities and constant
    # comparisons never do.
    assert ("numpy" in backends) == (kind in ("float", "special"))


def test_a_constant_only_side_compares_the_exact_int():
    """``v >= 2**53 + 1`` at ``v = 2.0**53`` is False on every path: the
    interpreter no longer rounds a bare int constant to float64."""
    condition = ComparisonCondition(
        LinearTerm(1.0, Attr("v"), 0.0), Op.GE, LinearTerm(0.0, None, 2**53 + 1)
    )
    element = PatternElement("X", predicate(condition))
    compiled = compile_pattern(PatternSpec([element]))
    rows = [{"v": 2.0**53}]
    assert not element.predicate.test(EvalContext(rows, 0))
    assert not compiled.evaluators[0](rows, 0, {})
    assert materialize_kernels(compiled, rows).truth[0] == b"\x00"


def test_a_kept_store_serves_a_scalar_then_a_numpy_build():
    """A cluster's kept store is shared by every later query: a scalar
    build (an int literal float64 cannot hold) must not stop a later
    query from vectorizing, and the kept float64 array stays unchanged."""
    prices = [50.0 + math.sin(i / 3.0) * 5.0 + (i % 7) * 0.3 for i in range(200)]
    rows = price_rows(prices)
    store = ColumnStore(rows)
    price = Attr("price")
    inexact = ComparisonCondition(
        LinearTerm(2**53 + 1, price, 0.0), Op.GT, LinearTerm(0.0, None, 4.9e17)
    )
    scalar = compile_pattern(PatternSpec([PatternElement("X", predicate(inexact))]))
    vector = prepare(EXAMPLE_10)
    first = materialize_kernels(scalar, rows, columns=store)
    second = materialize_kernels(vector, rows, columns=store)
    again = materialize_kernels(vector, rows, columns=store)
    assert (first.backend, second.backend) == ("python", "numpy")
    assert 0 < sum(first.truth[0]) < len(rows)
    truth_matches_interpreter(scalar, rows, first)
    truth_matches_interpreter(vector, rows, second)
    assert second.truth == again.truth
    kept = store.column("price").f8(numpy)
    assert not kept.flags.writeable
    assert kept.tolist() == prices


# ----------------------------------------------------------------------
# Anchored comparisons: exact where they lower, declined elsewhere
# ----------------------------------------------------------------------

#: Z's residual is the condition under test; Y is a truth array.
ANCHORED = (
    "SELECT X.date FROM djia SEQUENCE BY date AS (X, *Y, Z) "
    "WHERE Y.price < Y.previous.price AND {}"
)


def scan_outcome(compiled, rows, kernels):
    """The scan's matches, or its ExecutionError text, with its tests."""
    instrumentation = Instrumentation()
    try:
        matches = OpsStarMatcher().find_matches(
            rows, compiled, instrumentation, kernels=kernels
        )
    except ExecutionError as error:
        return str(error), instrumentation.tests
    return matches, instrumentation.tests


def assert_declined_like_row(compiled, rows, error=None):
    """Z keeps its residual closure: the scan gives the row path's
    matches, or raises its error after the same tests."""
    kernels = materialize_kernels(compiled, rows)
    assert kernels is not None and kernels.truth[1] is not None
    assert kernels.truth[2] is None and kernels.anchored[2] is None
    got = scan_outcome(compiled, rows, kernels)
    assert got == scan_outcome(compiled, rows, None)
    if error is not None:
        assert got[0] == error


SLIDE = [50.0, 48.0, 47.0, 45.0, 52.0, 51.0, 49.0, 48.5, 60.0, 58.0]


def test_anchored_sides_equal_the_closure():
    """Every (row, anchor) pair gives the closure's verdict, with NaN
    cells and navigation off both ends."""
    rng = random.Random(4)
    prices = [rng.choice([40.0, 41.5, 43.0, 44.25, math.nan]) for _ in range(40)]
    rows = price_rows(prices)
    for condition in (
        "Z.previous.price < 0.5 * X.price + 25",
        "-Z.price != X.next.price * 1.01 - 90",
        "LAST(Y).previous.price >= Z.next.price",
        "Z.price - 2 = FIRST(Y).price",
    ):
        compiled = prepare(ANCHORED.format(condition))
        evaluator = compiled.evaluators[2]
        kernels = materialize_kernels(compiled, rows)
        assert kernels.backend == "numpy"
        (gate, ((lhs, holds, rhs, edge, delta),)) = kernels.anchored[2]
        assert gate is None
        for start in range(len(rows) - 2):
            counts = [0, 1, 2]  # X at start, Y at start + 1
            anchor = start + counts[edge] + delta
            for index in range(start + 2, len(rows)):
                bindings = {"X": (start, start), "Y": (start + 1, start + 1)}
                expected = evaluator(rows, index, bindings)
                got = (
                    lhs[index] is not None
                    and rhs[anchor] is not None
                    and holds(lhs[index], rhs[anchor])
                )
                assert got == expected, (condition, start, index)


def test_anchored_element_keeps_its_ordinary_steps():
    """An anchored element's other conditions AND in through its gate."""
    compiled = prepare(ANCHORED.format("Z.price > 40 AND Z.price > 0.9 * X.price"))
    rows = price_rows(SLIDE * 3)
    kernels = materialize_kernels(compiled, rows)
    gate, _ = kernels.anchored[2]
    assert gate == bytes(1 if price > 40 else 0 for price in SLIDE * 3)
    assert scan_outcome(compiled, rows, kernels) == scan_outcome(
        compiled, rows, None
    )


def test_int_column_keeps_the_closure():
    compiled = prepare(ANCHORED.format("Z.price > 1.01 * X.price"))
    rows = price_rows([int(price) for price in SLIDE * 3])
    assert_declined_like_row(compiled, rows)
    assert scan_outcome(compiled, rows, None)[0]


def test_string_column_keeps_the_closure():
    compiled = prepare(ANCHORED.format("Z.price > 1.01 * X.name"))
    rows = [dict(row, name="AAA") for row in price_rows(SLIDE)]
    assert_declined_like_row(
        compiled, rows, error="arithmetic on non-numeric value 'AAA'"
    )


def test_missing_cell_keeps_the_closure():
    compiled = prepare(ANCHORED.format("Z.price > 1.01 * X.price"))
    rows = price_rows(SLIDE)
    del rows[2]["price"]
    assert_declined_like_row(compiled, rows, error="unknown attribute 'price'")


def test_unknown_attribute_keeps_the_closure():
    compiled = prepare(ANCHORED.format("Z.price > 1.01 * X.volume"))
    assert_declined_like_row(
        compiled, price_rows(SLIDE), error="unknown attribute 'volume'"
    )


def test_division_keeps_the_closure():
    compiled = prepare(ANCHORED.format("Z.price > X.price / 0.9"))
    (residual,) = compiled.spec.elements[2].predicate.conditions
    assert residual.anchored is None and residual.fast is not None
    assert_declined_like_row(compiled, price_rows(SLIDE * 3))


def test_inexact_constant_keeps_the_closure():
    """An int literal float64 cannot hold (the parser only makes floats,
    so the query is built as a tree) declines at materialization."""
    query = parse_query(ANCHORED.format("Z.price > 1.0 * X.price"))
    z_price = ast.VarPath("Z", None, (), "price")
    x_price = ast.VarPath("X", None, (), "price")
    inexact = ast.Comparison(
        ">", z_price, ast.BinOp("*", ast.NumberLit(2**53 + 1), x_price)
    )
    query = dataclasses.replace(query, where=ast.And(query.where.left, inexact))
    _, compiled = Executor(Catalog([djia_table()]), domains=DOMAINS).prepare(query)
    (residual,) = compiled.spec.elements[2].predicate.conditions
    assert residual.anchored is not None
    rows = price_rows([value * 1e-16 for value in SLIDE * 3])
    assert_declined_like_row(compiled, rows)
