"""Lexer for SQL-TS: one compiled master pattern.

Produces a flat token list for the recursive-descent parser.  SQL
conventions apply: keywords are case-insensitive, strings use single
quotes with ``''`` as the escape for a literal quote, and both ``<>`` and
``!=`` spell inequality.  Number literals take the ASCII digits ``0-9``
only; any other digit where a number would be read is a syntax error at
that digit.

One regular expression, with a named group per token kind, consumes the
whole text: its last alternative takes any single character, so every
character that starts no token is reported where it stands.  Letters,
identifier characters and whitespace follow ``str.isalpha``,
``str.isalnum`` and ``str.isspace``, which the ``\\w``, ``\\d`` and ``\\s``
classes of a ``str`` pattern match exactly.
"""

from __future__ import annotations

import re

from repro.errors import SqlTsSyntaxError
from repro.sqlts.tokens import KEYWORDS, Token, TokenType

_MASTER = re.compile(
    r"""
      (?P<skip>(?:\s+|--[^\n]*)++)      # whitespace and line comments
    | (?P<word>[^\W\d]\w*)              # keyword or identifier
    | (?P<number>(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (?P<string>'(?:[^']|'')*+')       # '' is an escaped quote
    | (?P<operator><=|>=|<>|!=|[<>=+\-/])
    | (?P<star>\*)
    | (?P<punct>[(),.])
    | (?P<other>.)                      # an unterminated string or a stray
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORD = TokenType.KEYWORD
_IDENT = TokenType.IDENT
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING
_OPERATOR = TokenType.OPERATOR
_STAR = TokenType.STAR
_PUNCT = TokenType.PUNCT


def tokenize(text: str) -> list[Token]:
    """Tokenize one SQL-TS statement; the list ends with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of the current line
    for match in _MASTER.finditer(text):
        kind = match.lastgroup
        value = match.group()
        start = match.start()
        column = start - line_start + 1
        if kind == "skip" or kind == "string":
            if kind == "string":
                append(Token(_STRING, value[1:-1].replace("''", "'"), line, column))
            # Only whitespace and strings span lines.
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = start + value.rindex("\n") + 1
        elif kind == "word":
            first = value[0]
            if not (first.isalpha() or first == "_"):
                raise _unexpected(first, line, column)
            upper = value.upper()
            if upper in KEYWORDS:
                append(Token(_KEYWORD, upper, line, column))
            else:
                append(Token(_IDENT, value, line, column))
        elif kind == "punct":
            append(Token(_PUNCT, value, line, column))
        elif kind == "operator":
            append(Token(_OPERATOR, "!=" if value == "<>" else value, line, column))
        elif kind == "number":
            end = match.end()
            if (
                text[end : end + 1] in ("e", "E")
                and text[end + 1 : end + 2].isdigit()
                and "e" not in value.lower()
            ):
                # An exponent whose first digit is not ASCII: the digit
                # is the error, not the start of an identifier "e...".
                raise _unexpected(text[end + 1], line, column + len(value) + 1)
            append(Token(_NUMBER, value, line, column))
        elif kind == "star":
            append(Token(_STAR, value, line, column))
        elif value == "'":
            raise SqlTsSyntaxError("unterminated string literal", line, column)
        else:
            raise _unexpected(value, line, column)
    append(Token(TokenType.EOF, "", line, len(text) - line_start + 1))
    return tokens


def _unexpected(ch: str, line: int, column: int) -> SqlTsSyntaxError:
    if ch.isdigit():
        return SqlTsSyntaxError(
            f"non-ASCII digit {ch!r}: number literals take 0-9 only", line, column
        )
    return SqlTsSyntaxError(f"unexpected character {ch!r}", line, column)
