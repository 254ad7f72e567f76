"""Token definitions for the SQL-TS lexer."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class TokenType(Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"  # comparison and arithmetic operators
    PUNCT = "punct"  # ( ) , .
    STAR = "star"  # '*' — multiplication or pattern star, parser decides
    EOF = "eof"


#: Reserved words, matched case-insensitively and normalized to upper case.
KEYWORDS = frozenset(
    {
        "SELECT",
        "FROM",
        "WHERE",
        "CLUSTER",
        "SEQUENCE",
        "BY",
        "AS",
        "AND",
        "OR",
        "NOT",
        "FIRST",
        "LAST",
    }
)

#: Navigation attributes on tuple variables (case-insensitive).
NAVIGATION = frozenset({"PREVIOUS", "NEXT"})


class Token(NamedTuple):
    """One lexical token with its 1-based source position.

    A named tuple, because a query text makes a hundred or so tokens and a
    tuple is built several times faster than a frozen dataclass.  Two
    tokens are equal when all four fields are; a token never equals a
    plain tuple.
    """

    type: TokenType
    value: str
    line: int
    column: int

    def __eq__(self, other: object) -> bool:
        return other.__class__ is Token and tuple.__eq__(self, other)

    __ne__ = object.__ne__
    __hash__ = tuple.__hash__

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word.upper()

    def __str__(self) -> str:
        return f"{self.type.value}:{self.value!r}@{self.line}:{self.column}"
