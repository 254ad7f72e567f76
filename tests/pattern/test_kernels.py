"""Unit tests for the batch-kernel lowering and truth materialization.

Stage 1 (:mod:`repro.pattern.kernels`) turns element predicates into
frozen symbolic programs; stage 2 (:mod:`repro.engine.columnar`) binds
them to column data and emits truth bytes.  These tests pin the edges:
empty inputs, NaN and non-numeric cells, band-fused conjunctions, the
residual-on-star-binding class (must decline to lower), truth bytes vs
the row evaluators, kernel deduplication across Example 10's repeated
shapes, and Python vs NumPy backend bit-parity.
"""

from __future__ import annotations

import math

import numpy
import pytest

from repro.data.djia import djia_table
from repro.data.workloads import EXAMPLE_10
from repro.engine.catalog import Catalog
from repro.engine.columnar import ColumnStore, materialize_kernels
from repro.engine.executor import Executor
from repro.match.naive import NaiveMatcher
from repro.match.ops_star import OpsStarMatcher
from repro.pattern.kernels import Disjunction, ElementKernel, plan_element
from repro.pattern.predicates import AttributeDomains

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


def test_residual_star_binding_element_declines():
    """The PR 8 class: ``B.price > A.price`` with ``*A`` resolves A's
    binding per attempt — a residual.  The element must not lower, and
    matches must equal the row path on the regression input."""
    sql = (
        "SELECT A.date FROM djia SEQUENCE BY date "
        "AS (*A, B) WHERE A.price < A.previous.price AND B.price > A.price"
    )
    compiled = prepare(sql)
    plan = compiled.kernel_plan
    assert plan.elements[0] is not None  # *A: offset-expressible
    assert plan.elements[1] is None  # B references A's binding
    rows = price_rows([60.0, 50.0, 40.0, 50.0])
    kernels = materialize_kernels(compiled, rows)
    assert kernels is not None and kernels.truth[1] is None
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
