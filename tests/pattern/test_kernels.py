"""Unit tests for the batch-kernel lowering and truth materialization.

Stage 1 (:mod:`repro.pattern.kernels`) turns element predicates into
frozen symbolic programs; stage 2 (:mod:`repro.engine.columnar`) binds
them to column data and emits truth bytes.  These tests pin the edges:
empty inputs, NaN and non-numeric cells, band-fused conjunctions, the
residual-on-star-binding class (an anchored comparison, no truth array),
truth bytes vs the row evaluators, kernel deduplication across Example
10's repeated shapes, and Python vs NumPy backend bit-parity.  Anchored
comparisons must decline wherever they could differ from the residual
closure, and then raise the closure's error or give its rows.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy
import pytest

from repro.constraints.atoms import Op
from repro.data.djia import djia_table
from repro.data.workloads import EXAMPLE_10
from repro.engine.catalog import Catalog
from repro.engine.columnar import ColumnStore, materialize_kernels
from repro.engine.executor import Executor
from repro.errors import ExecutionError
from repro.match.base import Instrumentation
from repro.match.naive import NaiveMatcher
from repro.match.ops_star import OpsStarMatcher
from repro.pattern.kernels import Disjunction, ElementKernel, plan_element
from repro.pattern.predicates import AttributeDomains
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
    for backend in ("python", "numpy"):
        kernels = materialize_kernels(compiled, rows, backend=backend)
        assert kernels is not None
        truth_matches_evaluators(compiled, rows, kernels)
        # NaN fails every comparison: positions touching the NaN cell
        # are 0 in both the < and > kernels.
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
    assert compiled.kernel_plan.lowered == 0
    assert materialize_kernels(compiled, price_rows([50.0, 45.0])) is None


# ----------------------------------------------------------------------
# Lowering coverage
# ----------------------------------------------------------------------


def test_band_fused_element_lowers_with_flag():
    sql = (
        "SELECT Z.date FROM djia SEQUENCE BY date AS (X, Z) "
        "WHERE 0.98 * Z.previous.price < Z.price "
        "AND Z.price < 1.02 * Z.previous.price"
    )
    compiled = prepare(sql)
    kernel = compiled.kernel_plan.elements[1]
    assert kernel is not None and kernel.band_fused
    # The row path fuses the same pair (the flight-recorder marker).
    assert getattr(compiled.evaluators[1], "band_fused", False)
    rows = price_rows([50.0, 49.5, 49.0, 51.0, 50.8])
    kernels = materialize_kernels(compiled, rows)
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
    plan = compiled.kernel_plan
    assert plan.elements[0] is not None  # *A: offset-expressible
    (compare,) = plan.elements[1].anchored  # B compares with A's start
    assert (compare.element, compare.last, compare.op) == (1, False, Op.GT)
    assert plan.lowered == 2
    rows = price_rows([60.0, 50.0, 40.0, 50.0])
    kernels = materialize_kernels(compiled, rows)
    assert kernels is not None and kernels.truth[1] is None
    assert kernels.anchored[1] is not None and kernels.lowered == 2
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
    kernel = compiled.kernel_plan.elements[0]
    assert kernel is not None
    assert any(isinstance(step, Disjunction) for step in kernel.steps)
    rows = price_rows([30.0, 50.0, 70.0])
    kernels = materialize_kernels(compiled, rows)
    assert kernels.truth[0] == bytes([1, 0, 1])


def test_opaque_predicate_declines(example4_predicates):
    """A hand-built predicate with a residual lambda cannot lower."""
    from repro.pattern.predicates import ResidualCondition, predicate

    opaque = predicate(
        ResidualCondition(lambda ctx: True, "opaque"),
        domains=DOMAINS,
        label="opaque",
    )
    assert plan_element(opaque) is None
    # Symbolic-only predicates from the paper's Example 4 all lower.
    for predicate in example4_predicates:
        assert plan_element(predicate) is not None


# ----------------------------------------------------------------------
# Representation agreement and dedup
# ----------------------------------------------------------------------


def test_truth_bytes_match_row_evaluators():
    compiled = prepare(DOWN_UP)
    rows = price_rows([50.0, 45.0, 44.0, 46.0, 48.0, 47.0, 49.0])
    kernels = materialize_kernels(compiled, rows)
    assert kernels.lowered == compiled.m
    truth_matches_evaluators(compiled, rows, kernels)


def test_example_10_repeated_shapes_share_truth():
    """Example 10 repeats its down/flat/up shapes across the starred
    elements; equal kernels must deduplicate to one truth object."""
    compiled = prepare(EXAMPLE_10)
    plan = compiled.kernel_plan
    assert plan.lowered == compiled.m  # everything lowers
    # Z, U, W share the flat band; Y, V share the drop; T, R the rise.
    assert plan.elements[2] == plan.elements[4] == plan.elements[6]
    assert plan.elements[1] == plan.elements[5]
    assert plan.elements[3] == plan.elements[7]
    rows = price_rows(
        [50.0, 49.0, 47.0, 47.5, 49.5, 49.0, 47.0, 47.5, 49.5, 50.0]
    )
    kernels = materialize_kernels(compiled, rows)
    assert kernels.truth[2] is kernels.truth[4] is kernels.truth[6]
    assert kernels.truth[1] is kernels.truth[5]
    assert kernels.truth[3] is kernels.truth[7]


# ----------------------------------------------------------------------
# Backend parity
# ----------------------------------------------------------------------


def test_python_and_numpy_backends_agree_bitwise():
    compiled = prepare(EXAMPLE_10)
    prices = [50.0 + math.sin(i / 3.0) * 5.0 + (i % 7) * 0.3 for i in range(200)]
    rows = price_rows(prices)
    python = materialize_kernels(compiled, rows, backend="python")
    vector = materialize_kernels(compiled, rows, backend="numpy")
    assert python.backend == "python"
    assert vector.backend == "numpy"
    assert python.truth == vector.truth


def test_a_kept_column_store_serves_both_backends():
    """A cluster's kept store is shared by every later query: a scalar
    pass must not stop a later NumPy pass from vectorizing, and the
    kept float64 array must stay unchanged."""
    compiled = prepare(EXAMPLE_10)
    prices = [50.0 + math.sin(i / 3.0) * 5.0 + (i % 7) * 0.3 for i in range(200)]
    rows = price_rows(prices)
    store = ColumnStore(rows)
    python = materialize_kernels(compiled, rows, backend="python", columns=store)
    vector = materialize_kernels(compiled, rows, columns=store)
    again = materialize_kernels(compiled, rows, columns=store)
    assert (python.backend, vector.backend) == ("python", "numpy")
    assert python.truth == vector.truth == again.truth
    kept = store.column("price").f8(numpy)
    assert not kept.flags.writeable
    assert kept.tolist() == prices


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        materialize_kernels(prepare(DOWN_UP), price_rows([50.0]), backend="auto")


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
    truth_matches_evaluators(compiled, rows, kernels)


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
    cells and navigation off both ends; the ``python`` backend keeps the
    closure."""
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
        python = materialize_kernels(compiled, rows, backend="python")
        assert python.anchored[2] is None and python.truth[2] is None
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
    assert compiled.kernel_plan.elements[2] is None
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
    assert compiled.kernel_plan.elements[2].anchored
    rows = price_rows([value * 1e-16 for value in SLIDE * 3])
    assert_declined_like_row(compiled, rows)
