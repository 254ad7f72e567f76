"""Constraint atoms: the GSW fragment ``X op Y + C`` plus categorical equality.

An :class:`Atom` is a numeric constraint ``x op y + c`` where ``x`` and
``y`` are :class:`~repro.constraints.terms.Variable` and ``c`` is a float.
The constant-only form ``x op c`` is represented with ``y = ZERO``.  The
supported operators are exactly those of the GSW paper:
``=, !=, <, <=, >, >=``.

A :class:`CategoricalAtom` constrains a categorical variable against a
string constant (``name = 'IBM'``); only ``=`` and ``!=`` are meaningful.

Atoms know how to negate themselves (the negation of a GSW atom is another
GSW atom), which is what makes the phi-matrix computation effective.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

from repro.constraints.terms import Domain, Variable, ZERO
from repro.errors import ConstraintError


class Op(Enum):
    """Comparison operators of the GSW constraint language."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @property
    def negated(self) -> "Op":
        return _NEGATION[self]

    @property
    def flipped(self) -> "Op":
        """The operator obtained by swapping the two sides of the atom."""
        return _FLIP[self]

    @property
    def operator(self) -> Callable[[object, object], object]:
        """The comparison as a function: ``operator.lt`` for ``<``, and so on."""
        return _OPERATORS[self]

    def holds(self, left: float, right: float) -> bool:
        """Evaluate the comparison on concrete numbers."""
        return self.operator(left, right)


_OPERATORS = {
    Op.EQ: operator.eq,
    Op.NE: operator.ne,
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
}

_NEGATION = {
    Op.EQ: Op.NE,
    Op.NE: Op.EQ,
    Op.LT: Op.GE,
    Op.LE: Op.GT,
    Op.GT: Op.LE,
    Op.GE: Op.LT,
}

_FLIP = {
    Op.EQ: Op.EQ,
    Op.NE: Op.NE,
    Op.LT: Op.GT,
    Op.LE: Op.GE,
    Op.GT: Op.LT,
    Op.GE: Op.LE,
}


@dataclass(frozen=True)
class Atom:
    """A numeric constraint ``x op y + c`` (``y = ZERO`` encodes ``x op c``)."""

    x: Variable
    op: Op
    y: Variable
    c: float = 0.0

    def __post_init__(self) -> None:
        if self.x.domain is not Domain.NUMERIC or self.y.domain is not Domain.NUMERIC:
            raise ConstraintError("numeric atoms require numeric variables")
        if self.x == self.y and self.x != ZERO:
            # x op x + c is a ground fact about c; it stays representable
            # (the solver resolves it), but x must not be the ZERO dummy
            # on both sides with a nonzero offset sneaking in unnoticed.
            pass
        if self.x == ZERO:
            raise ConstraintError("the ZERO pseudo-variable may only appear on the right")

    def negate(self) -> "Atom":
        """The logical negation, which is again a single GSW atom."""
        return Atom(self.x, self.op.negated, self.y, self.c)

    @property
    def variables(self) -> frozenset[Variable]:
        names = {self.x}
        if self.y != ZERO:
            names.add(self.y)
        return frozenset(names)

    def is_tautology(self) -> bool:
        """True when the atom holds for every real assignment.

        Over unconstrained reals this happens only for self-comparisons
        (``x op x + c``) whose arithmetic resolves to truth, e.g.
        ``x <= x + 0``.
        """
        if self.x != self.y:
            return False
        return self.op.holds(0.0, self.c)

    def is_contradiction(self) -> bool:
        """True when the atom fails for every real assignment."""
        if self.x != self.y:
            return False
        return not self.op.holds(0.0, self.c)

    def evaluate(self, assignment: dict[Variable, float]) -> bool:
        """Evaluate the atom under a concrete variable assignment."""
        left = assignment[self.x]
        right = (0.0 if self.y == ZERO else assignment[self.y]) + self.c
        return self.op.holds(left, right)

    def __str__(self) -> str:
        if self.y == ZERO:
            return f"{self.x} {self.op.value} {_fmt(self.c)}"
        if self.c == 0:
            return f"{self.x} {self.op.value} {self.y}"
        sign = "+" if self.c >= 0 else "-"
        return f"{self.x} {self.op.value} {self.y} {sign} {_fmt(abs(self.c))}"


@dataclass(frozen=True)
class CategoricalAtom:
    """An equality/disequality between a categorical variable and a constant."""

    x: Variable
    op: Op
    value: str

    def __post_init__(self) -> None:
        if self.op not in (Op.EQ, Op.NE):
            raise ConstraintError(f"categorical atoms support = and != only, got {self.op.value}")
        if self.x.domain is not Domain.CATEGORICAL:
            raise ConstraintError(f"variable {self.x} is not categorical")

    def negate(self) -> "CategoricalAtom":
        return CategoricalAtom(self.x, self.op.negated, self.value)

    @property
    def variables(self) -> frozenset[Variable]:
        return frozenset({self.x})

    def is_tautology(self) -> bool:
        return False

    def is_contradiction(self) -> bool:
        return False

    def evaluate(self, assignment: dict[Variable, str]) -> bool:
        if self.op is Op.EQ:
            return assignment[self.x] == self.value
        return assignment[self.x] != self.value

    def __str__(self) -> str:
        return f"{self.x} {self.op.value} '{self.value}'"


AnyAtom = Union[Atom, CategoricalAtom]


def _fmt(value: float) -> str:
    return f"{value:g}"


def atom(x: Variable, op: Union[Op, str], y: Union[Variable, float, int], c: float = 0.0) -> Atom:
    """Convenience constructor accepting operator strings and bare constants.

    ``atom(v, "<", 50)`` builds ``v < 50``; ``atom(a, ">", b, 2)`` builds
    ``a > b + 2``.
    """
    if isinstance(op, str):
        op = Op(op)
    if isinstance(y, (int, float)) and not isinstance(y, bool):
        return Atom(x, op, ZERO, float(y) + c)
    if isinstance(y, Variable):
        return Atom(x, op, y, float(c))
    raise ConstraintError(f"invalid right-hand side: {y!r}")


def cat_atom(x: Variable, op: Union[Op, str], value: str) -> CategoricalAtom:
    """Convenience constructor for categorical atoms."""
    if isinstance(op, str):
        op = Op(op)
    return CategoricalAtom(x, op, value)
