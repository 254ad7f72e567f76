"""DDL and DML statements: CREATE TABLE and INSERT.

The paper's Section 2 opens with

    CREATE TABLE quote ( name Varchar(8), date Date, price Integer )

so the substrate accepts that statement class (plus INSERT ... VALUES) in
addition to SQL-TS queries, making :class:`repro.engine.session.Session`
a self-contained miniature sequence database.

SQL type names map onto the engine's four storage types:

    VARCHAR(n) / CHAR(n) / TEXT           -> str
    DATE                                   -> date
    INTEGER / INT / SMALLINT / BIGINT      -> int
    REAL / FLOAT / DOUBLE / NUMERIC / DECIMAL -> float

Note the deliberate deviation for ``price Integer``: the engine stores
prices as they arrive — INSERT accepts both int and float literals for
numeric columns, with ints widening to float where declared.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import SqlTsSyntaxError
from repro.sqlts.lexer import tokenize
from repro.sqlts.parser import TokenParser
from repro.sqlts.tokens import TokenType

#: SQL type name (upper-cased) -> engine storage type.
TYPE_MAP = {
    "VARCHAR": "str",
    "CHAR": "str",
    "TEXT": "str",
    "STRING": "str",
    "DATE": "date",
    "INTEGER": "int",
    "INT": "int",
    "SMALLINT": "int",
    "BIGINT": "int",
    "REAL": "float",
    "FLOAT": "float",
    "DOUBLE": "float",
    "NUMERIC": "float",
    "DECIMAL": "float",
}


@dataclass(frozen=True)
class CreateTable:
    """A parsed CREATE TABLE statement."""

    name: str
    columns: tuple[tuple[str, str], ...]  # (column, engine type)


@dataclass(frozen=True)
class Insert:
    """A parsed INSERT ... VALUES statement (possibly multi-row)."""

    table: str
    columns: Optional[tuple[str, ...]]
    rows: tuple[tuple[object, ...], ...]


Statement = Union[CreateTable, Insert]


class _DdlParser(TokenParser):
    def _expect_word(self, word: str) -> None:
        token = self._peek()
        if token.type not in (TokenType.IDENT, TokenType.KEYWORD) or (
            token.value.upper() != word
        ):
            raise self._error(f"expected {word}")
        self._advance()

    def _expect_eof(self) -> None:
        if self._peek().type is not TokenType.EOF:
            raise self._error("unexpected trailing input")

    # ------------------------------------------------------------------

    def parse_create_table(self) -> CreateTable:
        self._expect_word("CREATE")
        self._expect_word("TABLE")
        name = self._expect_ident()
        self._expect_punct("(")
        columns: list[tuple[str, str]] = []
        while True:
            column = self._expect_ident()
            type_token = self._peek()
            if type_token.type is not TokenType.IDENT:
                raise self._error("expected a column type")
            self._advance()
            type_name = type_token.value.upper()
            if type_name not in TYPE_MAP:
                raise SqlTsSyntaxError(
                    f"unknown column type {type_token.value!r}",
                    type_token.line,
                    type_token.column,
                )
            if self._accept_punct("("):  # VARCHAR(8) etc. — size ignored
                if self._peek().type is not TokenType.NUMBER:
                    raise self._error("expected a type size")
                self._advance()
                self._expect_punct(")")
            columns.append((column, TYPE_MAP[type_name]))
            if self._accept_punct(","):
                continue
            self._expect_punct(")")
            break
        self._expect_eof()
        return CreateTable(name, tuple(columns))

    def parse_insert(self) -> Insert:
        self._expect_word("INSERT")
        self._expect_word("INTO")
        table = self._expect_ident()
        columns: Optional[tuple[str, ...]] = None
        if self._accept_punct("("):
            names = [self._expect_ident()]
            while self._accept_punct(","):
                names.append(self._expect_ident())
            self._expect_punct(")")
            columns = tuple(names)
        self._expect_word("VALUES")
        rows = [self._parse_row()]
        while self._accept_punct(","):
            rows.append(self._parse_row())
        self._expect_eof()
        return Insert(table, columns, tuple(rows))

    def _parse_row(self) -> tuple[object, ...]:
        self._expect_punct("(")
        values = [self._parse_literal()]
        while self._accept_punct(","):
            values.append(self._parse_literal())
        self._expect_punct(")")
        return tuple(values)

    def _parse_literal(self) -> object:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            return float(text) if any(c in text for c in ".eE") else int(text)
        if token.type is TokenType.STRING:
            self._advance()
            return token.value
        if token.type is TokenType.OPERATOR and token.value == "-":
            self._advance()
            inner = self._parse_literal()
            if not isinstance(inner, (int, float)):
                raise self._error("expected a number after '-'")
            return -inner
        raise self._error("expected a literal value")


def statement_kind(text: str) -> str:
    """Classify a statement: 'create', 'insert', or 'query'."""
    for token in tokenize(text):
        if token.type is TokenType.EOF:
            break
        word = token.value.upper()
        if word == "CREATE":
            return "create"
        if word == "INSERT":
            return "insert"
        return "query"
    raise SqlTsSyntaxError("empty statement")


def parse_create_table(text: str) -> CreateTable:
    return _DdlParser(text).parse_create_table()


def parse_insert(text: str) -> Insert:
    return _DdlParser(text).parse_insert()


def coerce_value(value: object, type_name: str) -> object:
    """Adapt a literal to a column type (ISO strings become dates, ints
    widen to floats); raises ValueError on impossible conversions."""
    if type_name == "date" and isinstance(value, str):
        return _dt.date.fromisoformat(value)
    if type_name == "float" and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if type_name == "int" and isinstance(value, float) and value.is_integer():
        return int(value)
    return value
