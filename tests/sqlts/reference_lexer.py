"""The hand-written SQL-TS lexer: the reference for ``repro.sqlts.lexer``.

It steps through the text a character at a time.  The library lexer
scans with one compiled pattern instead, and
``test_lexer_differential.py`` checks that the two agree on tokens and
errors.  The one intended difference: this lexer reads any character
``str.isdigit`` accepts into a number literal, where the library lexer
takes ASCII digits only.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import SqlTsSyntaxError
from repro.sqlts.tokens import KEYWORDS, Token, TokenType

_TWO_CHAR_OPERATORS = ("<=", ">=", "<>", "!=")
_ONE_CHAR_OPERATORS = "<>=+-/"
_PUNCT = "(),."


class Lexer:
    """Tokenizes one SQL-TS statement."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokenize(self) -> list[Token]:
        return list(self.tokens())

    def tokens(self) -> Iterator[Token]:
        """Yield tokens up to EOF; an error surfaces after the tokens before it."""
        while True:
            self._skip_whitespace_and_comments()
            if self._pos >= len(self._text):
                yield Token(TokenType.EOF, "", self._line, self._column)
                return
            yield self._next_token()

    # ------------------------------------------------------------------

    def _peek(self, ahead: int = 0) -> str:
        index = self._pos + ahead
        return self._text[index] if index < len(self._text) else ""

    def _advance(self, count: int = 1) -> str:
        chunk = self._text[self._pos : self._pos + count]
        for ch in chunk:
            if ch == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
        self._pos += count
        return chunk

    def _skip_whitespace_and_comments(self) -> None:
        while self._pos < len(self._text):
            ch = self._peek()
            if ch.isspace():
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                while self._pos < len(self._text) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _next_token(self) -> Token:
        line, column = self._line, self._column
        ch = self._peek()
        if ch.isalpha() or ch == "_":
            word = self._read_while(lambda c: c.isalnum() or c == "_")
            upper = word.upper()
            if upper in KEYWORDS:
                return Token(TokenType.KEYWORD, upper, line, column)
            return Token(TokenType.IDENT, word, line, column)
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return Token(TokenType.NUMBER, self._read_number(), line, column)
        if ch == "'":
            return Token(TokenType.STRING, self._read_string(), line, column)
        two = self._text[self._pos : self._pos + 2]
        if two in _TWO_CHAR_OPERATORS:
            self._advance(2)
            return Token(TokenType.OPERATOR, "!=" if two == "<>" else two, line, column)
        if ch == "*":
            self._advance()
            return Token(TokenType.STAR, "*", line, column)
        if ch in _ONE_CHAR_OPERATORS:
            self._advance()
            return Token(TokenType.OPERATOR, ch, line, column)
        if ch in _PUNCT:
            self._advance()
            return Token(TokenType.PUNCT, ch, line, column)
        raise SqlTsSyntaxError(f"unexpected character {ch!r}", line, column)

    def _read_while(self, keep) -> str:
        start = self._pos
        while self._pos < len(self._text) and keep(self._peek()):
            self._advance()
        return self._text[start : self._pos]

    def _read_number(self) -> str:
        start = self._pos
        self._read_while(str.isdigit)
        if self._peek() == "." and self._peek(1).isdigit():
            self._advance()
            self._read_while(str.isdigit)
        if self._peek() in ("e", "E") and (
            self._peek(1).isdigit()
            or (self._peek(1) in "+-" and self._peek(2).isdigit())
        ):
            self._advance()
            if self._peek() in "+-":
                self._advance()
            self._read_while(str.isdigit)
        return self._text[start : self._pos]

    def _read_string(self) -> str:
        line, column = self._line, self._column
        self._advance()  # opening quote
        pieces: list[str] = []
        while True:
            if self._pos >= len(self._text):
                raise SqlTsSyntaxError("unterminated string literal", line, column)
            ch = self._advance()
            if ch == "'":
                if self._peek() == "'":  # escaped quote
                    self._advance()
                    pieces.append("'")
                else:
                    return "".join(pieces)
            else:
                pieces.append(ch)


def tokenize(text: str) -> list[Token]:
    """Tokenize one SQL-TS statement with the reference lexer."""
    return Lexer(text).tokenize()
