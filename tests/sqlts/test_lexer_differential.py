"""The regex lexer against the hand-written reference lexer.

Each input gives the same tokens (type, value, line, column), or the same
error message at the same position.  The one intended difference is
non-ASCII digits: where the reference reads one into a number literal,
the lexer raises a syntax error at that digit.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SqlTsSyntaxError
from repro.sqlts.lexer import tokenize
from repro.sqlts.tokens import TokenType
from tests.sqlts.reference_lexer import Lexer

NON_ASCII_DIGIT = "non-ASCII digit"


def expected(text):
    """The reference's tokens up to its first error, and that error as
    ``(message, line, column)`` (None when the text lexes)."""
    tokens = []
    try:
        for token in Lexer(text).tokens():
            if token.type is TokenType.NUMBER and not token.value.isascii():
                offset = next(
                    i for i, ch in enumerate(token.value) if not ch.isascii()
                )
                return tokens, (NON_ASCII_DIGIT, token.line, token.column + offset)
            tokens.append(token)
    except SqlTsSyntaxError as error:
        return tokens, (str(error), error.line, error.column)
    return tokens, None


def check(text):
    tokens, error = expected(text)
    if error is None:
        assert tokenize(text) == tokens
        return
    message, line, column = error
    with pytest.raises(SqlTsSyntaxError) as caught:
        tokenize(text)
    assert (caught.value.line, caught.value.column) == (line, column)
    if message == NON_ASCII_DIGIT:
        assert str(caught.value).startswith(NON_ASCII_DIGIT)
    else:
        assert str(caught.value) == message


# SQL-ish pieces, with the cases a regex lexer gets wrong most easily:
# quotes next to quotes, comments, line breaks, exponents, Unicode
# letters, spaces and digits.
FRAGMENTS = [
    "SELECT", "select", "FROM", "WHERE", "CLUSTER", "BY", "SEQUENCE", "AS",
    "AND", "or", "Not", "FIRST", "last", "X", "Y", "price", "previous", "_x",
    "a1", "é", "ſelect", "fırst", "ß", "x²", "x٣",
    "1", "42", "1.5", ".5", "0.97", "1e3", "2.5E-2", "1e", "1E+", "1e-",
    "1.", "1.e5", "1e5e5", "٣", "²", "½", "Ⅻ", "一", "1٣", "e٣", "e+٣",
    "'IBM'", "'O''Neil'", "''", "'''", "''''", "'a''", "'x'''", "'", "'a\nb'",
    "--", "-- note", "- -", "-", "\n", "\r\n", "\t", " ", " ", " ",
    "<=", ">=", "<>", "!=", "!", "<", ">", "=", "+", "/", "*", "(", ")",
    ",", ".", "@", "~", ";", '"', "#",
]

fragment_texts = st.tuples(
    st.lists(st.sampled_from(FRAGMENTS), max_size=30),
    st.sampled_from(["", " ", "\n"]),
).map(lambda parts: parts[1].join(parts[0]))


@settings(max_examples=1500, deadline=None)
@given(fragment_texts)
@example("'abc''")
@example("x = 'a'''b'")
@example("WHERE X.name = 'it''s")
@example("1e٣")
@example("X.price > ²")
@example("X.price > ٣ AND")
@example("a\n  'unterminated\n")
def test_fragments_agree(text):
    check(text)


@settings(max_examples=1000, deadline=None)
@given(st.text(max_size=200))
def test_arbitrary_text_agrees(text):
    check(text)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="SELCTFROMWHEREas_x019.eE+-'<>=!*(),\n \t\r", max_size=200))
def test_sql_alphabet_agrees(text):
    check(text)
