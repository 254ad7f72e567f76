"""SQL-TS parser: every paper query, structure assertions, error cases."""

import pytest

from repro.data import workloads
from repro.errors import SqlTsSyntaxError
from repro.sqlts import ast
from repro.sqlts.parser import parse_query


class TestPaperQueriesParse:
    @pytest.mark.parametrize("name", sorted(workloads.ALL_EXAMPLES))
    def test_example_parses(self, name):
        query = parse_query(workloads.ALL_EXAMPLES[name])
        assert query.select and query.pattern

    def test_example1_structure(self):
        q = parse_query(workloads.EXAMPLE_1)
        assert q.table == "quote"
        assert q.cluster_by == ("name",)
        assert q.sequence_by == ("date",)
        assert [v.name for v in q.pattern] == ["X", "Y", "Z"]
        assert not any(v.star for v in q.pattern)
        assert len(ast.conjuncts(q.where)) == 2

    def test_example2_star_flags(self):
        q = parse_query(workloads.EXAMPLE_2)
        assert [(v.name, v.star) for v in q.pattern] == [
            ("X", False),
            ("Y", True),
            ("Z", False),
        ]

    def test_example9_star_flags(self):
        q = parse_query(workloads.EXAMPLE_9)
        assert [v.star for v in q.pattern] == [True, False, True, True, False, True, False]

    def test_example10_no_cluster_by(self):
        q = parse_query(workloads.EXAMPLE_10)
        assert q.cluster_by == ()
        assert q.table == "djia"
        assert len(q.pattern) == 9


class TestSelectList:
    def test_aliases(self):
        q = parse_query(workloads.EXAMPLE_2)
        assert [item.alias for item in q.select] == [None, "start_date", "end_date"]
        assert q.select[1].output_name(2) == "start_date"

    def test_output_name_defaults_to_path(self):
        q = parse_query("SELECT X.name FROM t AS (X) WHERE X.price > 1")
        assert q.select[0].output_name(1) == "X.name"

    def test_first_last_accessors(self):
        q = parse_query(workloads.EXAMPLE_8)
        first = q.select[1].expr
        last = q.select[2].expr
        assert isinstance(first, ast.VarPath) and first.accessor == "first"
        assert isinstance(last, ast.VarPath) and last.accessor == "last"

    def test_next_navigation_case_insensitive(self):
        q = parse_query(workloads.EXAMPLE_10)
        path = q.select[0].expr
        assert isinstance(path, ast.VarPath)
        assert path.navigation == ("next",) and path.attr == "date"


class TestExpressions:
    def _where(self, condition):
        return parse_query(
            f"SELECT X.price FROM t AS (X, Y) WHERE {condition}"
        ).where

    def test_multiplication_binds_tighter_than_comparison(self):
        cond = self._where("Y.price > 1.15 * X.price")
        assert isinstance(cond, ast.Comparison)
        assert isinstance(cond.right, ast.BinOp) and cond.right.op == "*"

    def test_chained_navigation(self):
        cond = self._where("X.previous.previous.price > 1")
        assert isinstance(cond, ast.Comparison)
        path = cond.left
        assert isinstance(path, ast.VarPath)
        assert path.navigation == ("previous", "previous")

    def test_arithmetic_precedence(self):
        cond = self._where("X.price + 2 * 3 > 1")
        left = cond.left
        assert isinstance(left, ast.BinOp) and left.op == "+"
        assert isinstance(left.right, ast.BinOp) and left.right.op == "*"

    def test_parenthesized_expression(self):
        cond = self._where("(X.price + 2) * 3 > 1")
        left = cond.left
        assert isinstance(left, ast.BinOp) and left.op == "*"

    def test_unary_minus(self):
        cond = self._where("X.price > -5")
        assert isinstance(cond.right, ast.Neg)

    def test_string_literal(self):
        cond = self._where("X.name = 'IBM'")
        assert isinstance(cond.right, ast.StringLit) and cond.right.value == "IBM"

    def test_inequality_spellings(self):
        for spelling in ("<>", "!="):
            cond = self._where(f"X.price {spelling} 5")
            assert cond.op == "!="


class TestBooleanStructure:
    def _where(self, condition):
        return parse_query(f"SELECT X.price FROM t AS (X) WHERE {condition}").where

    def test_and_chain_flattens(self):
        cond = self._where("X.price > 1 AND X.price < 5 AND X.price != 3")
        assert len(ast.conjuncts(cond)) == 3

    def test_or_precedence_below_and(self):
        cond = self._where("X.price > 1 AND X.price < 5 OR X.price = 9")
        assert isinstance(cond, ast.Or)
        assert isinstance(cond.left, ast.And)

    def test_parenthesized_or(self):
        cond = self._where("X.price > 1 AND (X.price < 5 OR X.price = 9)")
        parts = ast.conjuncts(cond)
        assert len(parts) == 2
        assert isinstance(parts[1], ast.Or)

    def test_not(self):
        cond = self._where("NOT X.price > 5")
        assert isinstance(cond, ast.Not)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "FROM t AS (X)",  # missing SELECT
            "SELECT X.a AS (X)",  # missing FROM
            "SELECT X.a FROM t",  # missing AS pattern
            "SELECT X.a FROM t AS ()",  # empty pattern
            "SELECT X.a FROM t AS (X",  # unclosed pattern
            "SELECT X.a FROM t AS (X) WHERE",  # dangling WHERE
            "SELECT X.a FROM t AS (X) WHERE X.a >",  # dangling comparison
            "SELECT X FROM t AS (X) WHERE X.a > 1",  # bare var, no attribute
            "SELECT X.a FROM t AS (X) WHERE X.a 5",  # missing operator
            "SELECT X.a FROM t AS (X) extra",  # trailing input
            "SELECT FIRST(X FROM t AS (*X) WHERE X.a > 1",  # unclosed FIRST
        ],
    )
    def test_malformed_queries_raise(self, text):
        with pytest.raises(SqlTsSyntaxError):
            parse_query(text)

    def test_error_position_reported(self):
        with pytest.raises(SqlTsSyntaxError) as exc:
            parse_query("SELECT X.a FROM t AS (X) WHERE X.a >")
        assert exc.value.line is not None

    # '²' crashed float(); '٣' was read as 3.  Number literals take 0-9 only.
    @pytest.mark.parametrize("digit", ["²", "٣"])
    @pytest.mark.parametrize(
        "literal, offset", [("{}", 0), ("1{}", 1), ("1.{}", 2), ("1e{}", 2)]
    )
    def test_non_ascii_digit_is_a_syntax_error_at_the_digit(
        self, digit, literal, offset
    ):
        prefix = "SELECT X.a FROM t AS (X)\nWHERE X.a > "
        with pytest.raises(SqlTsSyntaxError, match="non-ASCII digit") as exc:
            parse_query(prefix + literal.format(digit))
        assert (exc.value.line, exc.value.column) == (2, 13 + offset)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(workloads.ALL_EXAMPLES))
    def test_str_reparses_to_same_shape(self, name):
        """Rendering the AST and reparsing must preserve the structure."""
        original = parse_query(workloads.ALL_EXAMPLES[name])
        reparsed = parse_query(str(original))
        assert reparsed.table == original.table
        assert reparsed.pattern == original.pattern
        assert reparsed.cluster_by == original.cluster_by
        assert len(ast.conjuncts(reparsed.where)) == len(
            ast.conjuncts(original.where)
        )
