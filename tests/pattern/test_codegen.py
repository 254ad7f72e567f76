"""Unit tests for the compiled predicate fast path (repro.pattern.codegen).

The contract under test: a comparison's lowered closure is
observationally identical to the interpreted ``evaluate`` — same
booleans, same False on off-end navigation and missing columns, same
``TypeError`` on non-numeric arithmetic — and every other condition
(string equalities, disjunctions, residuals) makes ``lower_predicate``
return None, so the compiled pattern interprets that element.
"""

import pytest

from repro.constraints.atoms import Op
from repro.pattern.codegen import lower_comparison, lower_predicate
from repro.pattern.compiler import compile_pattern
from repro.pattern.predicates import (
    Attr,
    ElementPredicate,
    EvalContext,
    OrCondition,
    ResidualCondition,
    StringEqualityCondition,
    comparison,
    predicate,
)
from repro.pattern.spec import PatternElement, PatternSpec
from repro.sqlts.parser import parse_query
from repro.sqlts.semantic import analyze
from tests.conftest import DOMAINS, PREV, PRICE, price_predicate, price_rows

ROWS = price_rows(50, 48, 52, 47, 47)


def assert_parity(condition, rows, indices=None, bindings=None):
    """The lowered closure agrees with interpreted evaluate everywhere."""
    lowered = lower_comparison(condition)
    bindings = bindings or {}
    for index in indices if indices is not None else range(-2, len(rows) + 2):
        expected = condition.evaluate(EvalContext(rows, index, bindings))
        assert lowered(rows, index, bindings) == expected, (condition, index)


class TestComparisonLowering:
    def test_attr_vs_attr(self):
        assert_parity(comparison(PRICE, "<", PREV), ROWS)
        assert_parity(comparison(PRICE, ">=", 0.98 * PREV), ROWS)

    def test_attr_vs_constant_and_flipped(self):
        assert_parity(comparison(PRICE, ">", 48), ROWS)
        assert_parity(comparison(48, "<=", PRICE), ROWS)

    def test_ground_comparison_is_constant(self):
        true_cond = comparison(1, "<", 2)
        false_cond = comparison(2, "<", 1)
        assert lower_comparison(true_cond)([], 0, {}) is True
        assert lower_comparison(false_cond)([], 0, {}) is False

    def test_linear_terms(self):
        assert_parity(comparison(2 * PRICE + 1, "<", 3 * PREV - 4), ROWS)

    def test_off_end_navigation_is_false(self):
        condition = comparison(PRICE, "<", PREV)
        lowered = lower_comparison(condition)
        assert lowered(ROWS, 0, {}) is False  # previous of row 0
        assert lowered(ROWS, -1, {}) is False
        assert lowered(ROWS, len(ROWS), {}) is False

    def test_missing_column_is_false(self):
        rows = [{"volume": 10}, {"price": 50.0}]
        assert_parity(comparison(PRICE, ">", 0), rows)
        assert_parity(comparison(PRICE, ">", PREV), rows, indices=[0, 1])

    def test_type_error_parity_on_strings(self):
        rows = [{"price": "not-a-number"}]
        condition = comparison(PRICE, ">", 0)
        lowered = lower_comparison(condition)
        with pytest.raises(TypeError):
            condition.evaluate(EvalContext(rows, 0, {}))
        with pytest.raises(TypeError):
            lowered(rows, 0, {})


class TestBandFusion:
    BAND = price_predicate(
        comparison(0.98 * PREV, "<", PRICE), comparison(PRICE, "<", 1.02 * PREV)
    )

    def test_fused_band_parity(self):
        lowered = lower_predicate(self.BAND)
        assert lowered is not None
        for index in range(-1, len(ROWS) + 1):
            assert lowered(ROWS, index, {}) == self.BAND.test(
                EvalContext(ROWS, index, {})
            )

    def test_fusion_short_circuits_like_the_interpreter(self):
        # First conjunct False on a non-numeric row must not mask the
        # TypeError ordering: interpreted evaluates conjunct 1 fully
        # (raising on the arithmetic) before conjunct 2.
        rows = [{"price": 10.0}, {"price": "bad"}]
        lowered = lower_predicate(self.BAND)
        with pytest.raises(TypeError):
            self.BAND.test(EvalContext(rows, 1, {}))
        with pytest.raises(TypeError):
            lowered(rows, 1, {})

    def test_distinct_cells_do_not_fuse_incorrectly(self):
        # Conditions over different cells take the generic conjunction
        # path; parity must still hold.
        pred = price_predicate(
            comparison(PRICE, ">", 40), comparison(Attr("price", -2), "<", 60)
        )
        lowered = lower_predicate(pred)
        assert lowered is not None
        for index in range(len(ROWS)):
            assert lowered(ROWS, index, {}) == pred.test(EvalContext(ROWS, index, {}))


def assert_interpreted(condition, rows, bindings=None):
    """An element holding ``condition`` does not lower: its evaluator
    runs the interpreter, and agrees with ``evaluate`` everywhere."""
    element = PatternElement("A", predicate(condition, domains=DOMAINS))
    assert lower_predicate(element.predicate) is None
    (evaluator,) = compile_pattern(PatternSpec([element])).evaluators
    bindings = bindings or {}
    for index in range(-2, len(rows) + 2):
        expected = condition.evaluate(EvalContext(rows, index, bindings))
        assert evaluator(rows, index, bindings) == expected, (condition, index)


class TestStringEquality:
    ROWS = [{"name": "IBM"}, {"name": "ACME"}, {"volume": 1}]

    def test_eq_and_ne(self):
        assert_interpreted(
            StringEqualityCondition(Attr("name", 0), Op.EQ, "IBM"), self.ROWS
        )
        assert_interpreted(
            StringEqualityCondition(Attr("name", 0), Op.NE, "IBM"), self.ROWS
        )

    def test_offset_and_missing_column(self):
        assert_interpreted(
            StringEqualityCondition(Attr("name", -1), Op.EQ, "IBM"), self.ROWS
        )


class TestDisjunctionLowering:
    def test_or_condition_parity(self):
        condition = OrCondition(
            [
                [comparison(PRICE, "<", 48)],
                [comparison(PRICE, ">", 50), comparison(PRICE, "<", 53)],
            ]
        )
        assert_interpreted(condition, ROWS)

    def test_or_with_opaque_branch_falls_back(self):
        condition = OrCondition(
            [
                [comparison(PRICE, "<", 48)],
                [ResidualCondition(lambda ctx: True, "opaque")],
            ]
        )
        assert_interpreted(condition, ROWS)


class TestFallback:
    def test_opaque_residual_lowers_to_none(self):
        pred = predicate(
            comparison(PRICE, ">", 0),
            ResidualCondition(lambda ctx: True, "opaque"),
            domains=DOMAINS,
        )
        assert lower_predicate(pred) is None

    def test_empty_predicate_lowers_to_true(self):
        pred = predicate(domains=DOMAINS)
        assert lower_predicate(pred)(ROWS, 0, {}) is True


class TestCompiledPatternEvaluators:
    def spec(self):
        # The opaque residual reads a cell through the context, so its
        # verdict varies by row and codegen cannot lower it.
        opaque = ResidualCondition(
            lambda ctx: ctx.attr_value(PRICE) > 48, "opaque"
        )
        return PatternSpec(
            [
                PatternElement("A", price_predicate(comparison(PRICE, ">", PREV))),
                PatternElement("B", predicate(opaque, domains=DOMAINS)),
            ]
        )

    def assert_evaluators_agree_with_predicates(self, compiled):
        """Every element has an evaluator, and each agrees with the
        interpreted ``predicate.test`` on every row."""
        assert len(compiled.evaluators) == compiled.m
        for element, evaluator in zip(compiled.spec, compiled.evaluators):
            for index in range(len(ROWS)):
                expected = element.predicate.test(EvalContext(ROWS, index, {}))
                assert evaluator(ROWS, index, {}) == expected, (element, index)

    def interpreted_elements(self, compiled, monkeypatch):
        """The elements whose evaluator runs ``ElementPredicate.test``."""
        calls = []
        original = ElementPredicate.test

        def counting(predicate, ctx):
            calls.append(predicate)
            return original(predicate, ctx)

        monkeypatch.setattr(ElementPredicate, "test", counting)
        for evaluator in compiled.evaluators:
            evaluator(ROWS, 1, {})
        return [
            j
            for j, element in enumerate(compiled.spec, start=1)
            if element.predicate in calls
        ]

    def test_evaluators_align_with_elements(self, monkeypatch):
        compiled = compile_pattern(self.spec())
        # The comparison lowers; the opaque residual runs interpreted.
        assert self.interpreted_elements(compiled, monkeypatch) == [2]
        self.assert_evaluators_agree_with_predicates(compiled)

    def test_codegen_off_interprets_every_element(self, monkeypatch):
        compiled = compile_pattern(self.spec(), codegen=False)
        assert self.interpreted_elements(compiled, monkeypatch) == [1, 2]
        self.assert_evaluators_agree_with_predicates(compiled)


class TestSemanticResiduals:
    QUERY = """
        SELECT X.price FROM quote CLUSTER BY name SEQUENCE BY date
        AS (X, *Y, Z) WHERE Y.price < Y.previous.price
        AND Z.price > X.price * 1.5
        """

    def test_analyzer_residuals_run_interpreted(self):
        # Z.price > 1.5 * X.price reaches across a star: it stays a
        # residual, with an anchored program for the kernels, and its
        # element's evaluator runs the interpreter.
        analyzed = analyze(parse_query(self.QUERY), DOMAINS)
        (residual,) = analyzed.spec.elements[2].predicate.conditions
        assert isinstance(residual, ResidualCondition)
        assert residual.anchored is not None
        assert lower_predicate(analyzed.spec.elements[2].predicate) is None

    def test_residual_parity_with_bindings(self):
        analyzed = analyze(parse_query(self.QUERY), DOMAINS)
        (residual,) = analyzed.spec.elements[2].predicate.conditions
        assert_interpreted(
            residual, price_rows(50, 48, 46, 80), {"X": (0, 0), "Y": (1, 2)}
        )
