"""Runtime expression/condition evaluation with bindings and navigation."""

import pytest

from repro.errors import ExecutionError
from repro.sqlts import ast
from repro.sqlts.expressions import evaluate_condition, evaluate_expr

ROWS = [
    {"price": 10.0, "name": "IBM"},
    {"price": 12.0, "name": "IBM"},
    {"price": 9.0, "name": "IBM"},
    {"price": 15.0, "name": "IBM"},
]


def path(var, attr="price", navigation=(), accessor=None):
    return ast.VarPath(var, accessor, tuple(navigation), attr)


class TestVarResolution:
    def test_bare_variable_is_span_start(self):
        bindings = {"X": (1, 1)}
        assert evaluate_expr(path("X"), ROWS, bindings) == 12.0

    def test_bare_starred_variable_is_first_tuple(self):
        bindings = {"Y": (1, 3)}
        assert evaluate_expr(path("Y"), ROWS, bindings) == 12.0

    def test_first_last_accessors(self):
        bindings = {"Y": (1, 3)}
        assert evaluate_expr(path("Y", accessor="first"), ROWS, bindings) == 12.0
        assert evaluate_expr(path("Y", accessor="last"), ROWS, bindings) == 15.0

    def test_navigation(self):
        bindings = {"X": (1, 1)}
        assert evaluate_expr(path("X", navigation=["previous"]), ROWS, bindings) == 10.0
        assert evaluate_expr(path("X", navigation=["next"]), ROWS, bindings) == 9.0
        assert (
            evaluate_expr(path("X", navigation=["next", "next"]), ROWS, bindings)
            == 15.0
        )

    def test_navigation_off_end_is_null(self):
        bindings = {"X": (0, 0)}
        assert evaluate_expr(path("X", navigation=["previous"]), ROWS, bindings) is None
        bindings = {"X": (3, 3)}
        assert evaluate_expr(path("X", navigation=["next"]), ROWS, bindings) is None

    def test_unbound_variable_raises(self):
        with pytest.raises(ExecutionError):
            evaluate_expr(path("Q"), ROWS, {})

    def test_unknown_attribute_raises(self):
        with pytest.raises(ExecutionError):
            evaluate_expr(path("X", attr="volume"), ROWS, {"X": (0, 0)})


class TestArithmetic:
    B = {"X": (1, 1)}

    def test_binops(self):
        expr = ast.BinOp("*", ast.NumberLit(2), path("X"))
        assert evaluate_expr(expr, ROWS, self.B) == 24.0
        expr = ast.BinOp("-", path("X"), ast.NumberLit(2))
        assert evaluate_expr(expr, ROWS, self.B) == 10.0
        expr = ast.BinOp("/", path("X"), ast.NumberLit(4))
        assert evaluate_expr(expr, ROWS, self.B) == 3.0

    def test_negation(self):
        expr = ast.Neg(path("X"))
        assert evaluate_expr(expr, ROWS, self.B) == -12.0

    def test_division_by_zero(self):
        expr = ast.BinOp("/", path("X"), ast.NumberLit(0))
        with pytest.raises(ExecutionError):
            evaluate_expr(expr, ROWS, self.B)

    def test_arithmetic_on_string_raises(self):
        expr = ast.BinOp("+", path("X", attr="name"), ast.NumberLit(1))
        with pytest.raises(ExecutionError):
            evaluate_expr(expr, ROWS, self.B)


class TestConditions:
    B = {"X": (1, 1), "Y": (2, 2)}

    def test_comparison(self):
        cond = ast.Comparison("<", path("Y"), path("X"))
        assert evaluate_condition(cond, ROWS, self.B)
        cond = ast.Comparison(">", path("Y"), path("X"))
        assert not evaluate_condition(cond, ROWS, self.B)

    def test_string_equality(self):
        cond = ast.Comparison("=", path("X", attr="name"), ast.StringLit("IBM"))
        assert evaluate_condition(cond, ROWS, self.B)

    def test_off_end_navigation_makes_condition_false(self):
        cond = ast.Comparison(
            ">", path("X", navigation=["previous"] * 5), ast.NumberLit(0)
        )
        assert not evaluate_condition(cond, ROWS, self.B)

    def test_boolean_connectives(self):
        true_cond = ast.Comparison(">", path("X"), ast.NumberLit(0))
        false_cond = ast.Comparison("<", path("X"), ast.NumberLit(0))
        assert evaluate_condition(ast.And(true_cond, true_cond), ROWS, self.B)
        assert not evaluate_condition(ast.And(true_cond, false_cond), ROWS, self.B)
        assert evaluate_condition(ast.Or(false_cond, true_cond), ROWS, self.B)
        assert evaluate_condition(ast.Not(false_cond), ROWS, self.B)

    def test_incomparable_values(self):
        cond = ast.Comparison("<", path("X", attr="name"), ast.NumberLit(0))
        with pytest.raises(ExecutionError):
            evaluate_condition(cond, ROWS, self.B)
