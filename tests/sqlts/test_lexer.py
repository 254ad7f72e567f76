"""SQL-TS lexer: tokens, positions, strings, comments, errors."""

import pytest

from repro.errors import SqlTsSyntaxError
from repro.sqlts.lexer import tokenize
from repro.sqlts.tokens import Token, TokenType


def kinds(text):
    return [(t.type, t.value) for t in tokenize(text)[:-1]]  # drop EOF


class TestBasics:
    def test_empty_input_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1 and tokens[0].type is TokenType.EOF

    def test_keywords_case_insensitive(self):
        assert kinds("select SELECT SeLeCt") == [
            (TokenType.KEYWORD, "SELECT")
        ] * 3

    def test_identifiers_preserve_case(self):
        assert kinds("quote Price _x a1") == [
            (TokenType.IDENT, "quote"),
            (TokenType.IDENT, "Price"),
            (TokenType.IDENT, "_x"),
            (TokenType.IDENT, "a1"),
        ]

    def test_navigation_words_are_identifiers(self):
        # previous/next are contextual: the parser decides, not the lexer.
        assert kinds("previous NEXT")[0][0] is TokenType.IDENT

    def test_star_is_distinct_token(self):
        assert kinds("*")[0][0] is TokenType.STAR

    def test_tokens_are_equal_by_fields_and_type(self):
        first, second = tokenize("X X")[:2]
        same = Token(TokenType.IDENT, "X", 1, 1)
        assert first == same and hash(first) == hash(same)
        assert first != second  # the columns differ
        assert first != (TokenType.IDENT, "X", 1, 1)
        assert (TokenType.IDENT, "X", 1, 1) != first
        assert first.is_keyword("x") is False
        assert tokenize("select")[0].is_keyword("Select")


class TestNumbers:
    @pytest.mark.parametrize(
        "text, value",
        [("42", "42"), ("3.14", "3.14"), ("0.80", "0.80"), (".5", ".5"), ("1e3", "1e3"), ("2.5E-2", "2.5E-2")],
    )
    def test_number_forms(self, text, value):
        ((kind, got),) = kinds(text)
        assert kind is TokenType.NUMBER and got == value

    def test_number_followed_by_dot_attr_not_consumed(self):
        # "1.15 * X.price": the dot after X starts a path, not a decimal.
        tokens = kinds("1.15 * X.price")
        assert tokens == [
            (TokenType.NUMBER, "1.15"),
            (TokenType.STAR, "*"),
            (TokenType.IDENT, "X"),
            (TokenType.PUNCT, "."),
            (TokenType.IDENT, "price"),
        ]


class TestStrings:
    def test_simple_string(self):
        ((kind, value),) = kinds("'IBM'")
        assert kind is TokenType.STRING and value == "IBM"

    def test_escaped_quote(self):
        ((_, value),) = kinds("'O''Neil'")
        assert value == "O'Neil"

    def test_unterminated_string(self):
        with pytest.raises(SqlTsSyntaxError):
            tokenize("'oops")


class TestOperators:
    def test_two_char_operators(self):
        assert [v for _, v in kinds("<= >= <> !=")] == ["<=", ">=", "!=", "!="]

    def test_one_char_operators(self):
        assert [v for _, v in kinds("< > = + - /")] == ["<", ">", "=", "+", "-", "/"]

    def test_punctuation(self):
        assert [v for _, v in kinds("( ) , .")] == ["(", ")", ",", "."]

    def test_unknown_character(self):
        with pytest.raises(SqlTsSyntaxError) as exc:
            tokenize("SELECT @")
        assert "@" in str(exc.value)


class TestCommentsAndPositions:
    def test_line_comments_skipped(self):
        assert kinds("SELECT -- the works\n X") == [
            (TokenType.KEYWORD, "SELECT"),
            (TokenType.IDENT, "X"),
        ]

    def test_positions_track_lines(self):
        tokens = tokenize("SELECT\n  X")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_carries_position(self):
        with pytest.raises(SqlTsSyntaxError) as exc:
            tokenize("a\n  ~")
        assert exc.value.line == 2 and exc.value.column == 3
