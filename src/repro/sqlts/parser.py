"""Recursive-descent parser for SQL-TS.

Grammar (keywords case-insensitive)::

    query       := SELECT select_list FROM ident
                   [CLUSTER BY ident_list] [,]
                   [SEQUENCE BY ident_list]
                   AS '(' pattern_list ')'
                   [WHERE condition]
    select_list := select_item (',' select_item)*
    select_item := expr [AS ident]
    pattern_list:= ['*'] ident (',' ['*'] ident)*
    condition   := disjunct (OR disjunct)*
    disjunct    := negation (AND negation)*
    negation    := [NOT] (comparison | '(' condition ')')
    comparison  := expr relop expr
    expr        := term (('+'|'-') term)*
    term        := factor (('*'|'/') factor)*
    factor      := NUMBER | STRING | path | '(' expr ')' | '-' factor
    path        := (FIRST|LAST) '(' ident ')' steps | ident steps
    steps       := ('.' (PREVIOUS | NEXT | ident))+     -- last step = attr

The dotted-path rule follows the paper: intermediate steps named
``previous``/``next`` (case-insensitive) are navigation, the final step is
the attribute name.  The SQL3 arrow spelling ``Z.previous -> date``
mentioned in the paper is accepted as the dot form only.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SqlTsSyntaxError
from repro.sqlts import ast
from repro.sqlts.lexer import tokenize
from repro.sqlts.tokens import NAVIGATION, Token, TokenType

_COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


class TokenParser:
    """Token plumbing shared by the query parser and the DDL parser."""

    def __init__(self, text: str):
        self._tokens = tokenize(text)
        self._index = 0

    def _peek(self, ahead: int = 0) -> Token:
        index = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _error(self, message: str) -> SqlTsSyntaxError:
        token = self._peek()
        return SqlTsSyntaxError(f"{message} (found {token.value!r})", token.line, token.column)

    def _expect_punct(self, symbol: str) -> Token:
        token = self._peek()
        if token.type is not TokenType.PUNCT or token.value != symbol:
            raise self._error(f"expected {symbol!r}")
        return self._advance()

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.type is not TokenType.IDENT:
            raise self._error("expected an identifier")
        return self._advance().value

    def _accept_punct(self, symbol: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.value == symbol:
            self._advance()
            return True
        return False


class Parser(TokenParser):
    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise self._error(f"expected {word}")
        return self._advance()

    # -- grammar --------------------------------------------------------

    def parse(self) -> ast.Query:
        self._expect_keyword("SELECT")
        select = self._select_list()
        self._expect_keyword("FROM")
        table = self._expect_ident()
        cluster_by: tuple[str, ...] = ()
        sequence_by: tuple[str, ...] = ()
        if self._peek().is_keyword("CLUSTER"):
            self._advance()
            self._expect_keyword("BY")
            cluster_by = self._ident_list()
            self._accept_punct(",")  # the paper writes "CLUSTER BY name,"
        if self._peek().is_keyword("SEQUENCE"):
            self._advance()
            self._expect_keyword("BY")
            sequence_by = self._ident_list()
        self._expect_keyword("AS")
        self._expect_punct("(")
        pattern = self._pattern_list()
        self._expect_punct(")")
        where: Optional[ast.Cond] = None
        if self._peek().is_keyword("WHERE"):
            self._advance()
            where = self._condition()
        if self._peek().type is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        return ast.Query(
            select=select,
            table=table,
            cluster_by=cluster_by,
            sequence_by=sequence_by,
            pattern=pattern,
            where=where,
        )

    def _select_list(self) -> tuple[ast.SelectItem, ...]:
        items = [self._select_item()]
        while self._accept_punct(","):
            items.append(self._select_item())
        return tuple(items)

    def _select_item(self) -> ast.SelectItem:
        expr = self._expr()
        alias = None
        if self._peek().is_keyword("AS"):
            # Lookahead: 'AS (' starts the pattern clause, not an alias.
            following = self._peek(1)
            if not (following.type is TokenType.PUNCT and following.value == "("):
                self._advance()
                alias = self._expect_ident()
        return ast.SelectItem(expr, alias)

    def _ident_list(self) -> tuple[str, ...]:
        names = [self._expect_ident()]
        while True:
            # A comma is ambiguous between "more idents" and the paper's
            # trailing comma before SEQUENCE BY; look ahead for an ident.
            if (
                self._peek().type is TokenType.PUNCT
                and self._peek().value == ","
                and self._peek(1).type is TokenType.IDENT
            ):
                self._advance()
                names.append(self._expect_ident())
            else:
                return tuple(names)

    def _pattern_list(self) -> tuple[ast.PatternVar, ...]:
        entries = [self._pattern_var()]
        while self._accept_punct(","):
            entries.append(self._pattern_var())
        return tuple(entries)

    def _pattern_var(self) -> ast.PatternVar:
        star = False
        if self._peek().type is TokenType.STAR:
            self._advance()
            star = True
        return ast.PatternVar(self._expect_ident(), star)

    # -- conditions -----------------------------------------------------

    def _condition(self) -> ast.Cond:
        left = self._conjunction()
        while self._peek().is_keyword("OR"):
            self._advance()
            left = ast.Or(left, self._conjunction())
        return left

    def _conjunction(self) -> ast.Cond:
        left = self._negation()
        while self._peek().is_keyword("AND"):
            self._advance()
            left = ast.And(left, self._negation())
        return left

    def _negation(self) -> ast.Cond:
        if self._peek().is_keyword("NOT"):
            self._advance()
            return ast.Not(self._negation())
        return self._primary_condition()

    def _primary_condition(self) -> ast.Cond:
        # A '(' may open either a parenthesized condition or a
        # parenthesized arithmetic expression; parse speculatively.
        if self._peek().type is TokenType.PUNCT and self._peek().value == "(":
            checkpoint = self._index
            self._advance()
            try:
                inner = self._condition()
                self._expect_punct(")")
                return inner
            except SqlTsSyntaxError:
                self._index = checkpoint
        left = self._expr()
        token = self._peek()
        if token.type is not TokenType.OPERATOR or token.value not in _COMPARISON_OPS:
            raise self._error("expected a comparison operator")
        op = self._advance().value
        right = self._expr()
        return ast.Comparison(op, left, right)

    # -- expressions ----------------------------------------------------

    def _expr(self) -> ast.Expr:
        left = self._term()
        while (
            self._peek().type is TokenType.OPERATOR and self._peek().value in ("+", "-")
        ):
            op = self._advance().value
            left = ast.BinOp(op, left, self._term())
        return left

    def _term(self) -> ast.Expr:
        left = self._factor()
        while (
            self._peek().type is TokenType.STAR
            or (self._peek().type is TokenType.OPERATOR and self._peek().value == "/")
        ):
            op = self._advance().value
            left = ast.BinOp(op, left, self._factor())
        return left

    def _factor(self) -> ast.Expr:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return ast.NumberLit(float(token.value))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.StringLit(token.value)
        if token.type is TokenType.OPERATOR and token.value == "-":
            self._advance()
            return ast.Neg(self._factor())
        if token.type is TokenType.PUNCT and token.value == "(":
            self._advance()
            inner = self._expr()
            self._expect_punct(")")
            return inner
        if token.is_keyword("FIRST") or token.is_keyword("LAST"):
            return self._accessor_path()
        if token.type is TokenType.IDENT:
            return self._var_path()
        raise self._error("expected an expression")

    def _accessor_path(self) -> ast.VarPath:
        accessor = self._advance().value.lower()
        self._expect_punct("(")
        var = self._expect_ident()
        self._expect_punct(")")
        navigation, attr = self._path_steps()
        return ast.VarPath(var, accessor, navigation, attr)

    def _var_path(self) -> ast.VarPath:
        var = self._expect_ident()
        navigation, attr = self._path_steps()
        return ast.VarPath(var, None, navigation, attr)

    def _path_steps(self) -> tuple[tuple[str, ...], str]:
        """Parse ``('.' step)+``: navigation steps then the attribute."""
        steps: list[str] = []
        if not self._accept_punct("."):
            raise self._error("expected '.' and an attribute name")
        while True:
            token = self._peek()
            if token.type is not TokenType.IDENT:
                raise self._error("expected an attribute or navigation name")
            name = self._advance().value
            if name.upper() in NAVIGATION and self._accept_punct("."):
                steps.append(name.lower())
                continue
            return tuple(steps), name


def parse_query(text: str) -> ast.Query:
    """Parse one SQL-TS statement into its AST."""
    return Parser(text).parse()
