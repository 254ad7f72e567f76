"""Element predicates: runtime conditions coupled with symbolic forms.

Every pattern element carries an :class:`ElementPredicate` — a conjunction
of runtime-evaluable :class:`Condition` objects.  Each condition *may* also
expose a symbolic form (GSW atoms over canonical variables); the OPS
compile-time analysis reasons over those, and any condition without a
symbolic form (a *residual*, e.g. a cross-element reference such as
``Z.previous.price < 0.5 * X.price``) conservatively downgrades the
implication matrices toward ``U``.

Canonical variables
-------------------
When two pattern elements are evaluated against the *same* input tuple
(which is exactly the situation the theta/phi matrices describe), their
attribute references resolve identically, so we name them canonically:

- ``price@0``  — attribute of the current tuple,
- ``price@-1`` — attribute of the previous tuple in the sequence,
- ``price@0/price@-1`` — the Section 6 ratio variable, produced when a
  comparison has the multiplicative form ``X op C * Y`` and the attribute
  is declared positive (see :class:`AttributeDomains`).

Boundary semantics: a condition that references ``previous`` (or ``next``)
evaluates to False on the first (last) tuple of a cluster, where the
neighbour does not exist.  The matrices stay sound because they are only
ever applied to inputs that already satisfied some element at position
>= 2, i.e. inputs whose ``previous`` exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from repro.constraints.atoms import AnyAtom, Op, atom, cat_atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.dnf import Disjunction
from repro.constraints.terms import Domain, Variable, ratio_variable
from repro.errors import ConstraintError


# ----------------------------------------------------------------------
# Attribute references and linear terms
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Attr:
    """A reference to an attribute of the current tuple or a neighbour.

    ``offset`` is 0 for the current tuple, -1 for ``previous``, +1 for
    ``next``.
    """

    name: str
    offset: int = 0

    @property
    def previous(self) -> "Attr":
        return Attr(self.name, self.offset - 1)

    @property
    def next(self) -> "Attr":
        return Attr(self.name, self.offset + 1)

    def variable(self) -> Variable:
        return Variable(f"{self.name}@{self.offset}")

    def categorical_variable(self) -> Variable:
        return Variable(f"{self.name}@{self.offset}", Domain.CATEGORICAL)

    def __mul__(self, factor: float) -> "LinearTerm":
        return LinearTerm(float(factor), self, 0.0)

    __rmul__ = __mul__

    def __add__(self, constant: float) -> "LinearTerm":
        return LinearTerm(1.0, self, float(constant))

    def __sub__(self, constant: float) -> "LinearTerm":
        return LinearTerm(1.0, self, -float(constant))

    def __str__(self) -> str:
        suffix = {0: "", -1: ".previous", 1: ".next"}.get(self.offset, f".offset({self.offset})")
        return f"t{suffix}.{self.name}"


def col(name: str) -> Attr:
    """Shorthand for an attribute of the current tuple."""
    return Attr(name, 0)


@dataclass(frozen=True)
class LinearTerm:
    """``coefficient * attr + constant`` — one side of a comparison.

    ``attr`` may be None, in which case the term is the bare constant.
    """

    coefficient: float
    attr: Optional[Attr]
    constant: float

    @classmethod
    def of(cls, value: Union["LinearTerm", Attr, float, int]) -> "LinearTerm":
        if isinstance(value, LinearTerm):
            return value
        if isinstance(value, Attr):
            return cls(1.0, value, 0.0)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return cls(0.0, None, float(value))
        raise ConstraintError(f"cannot interpret comparison operand: {value!r}")

    def value(self, resolve: Callable[[Attr], float]) -> float:
        # A bare constant is returned as it is: ``0.0 + constant`` would
        # round an int that float64 cannot hold, which the compiled
        # closures compare exactly and the kernels decline.
        if self.attr is None:
            return self.constant
        return self.coefficient * resolve(self.attr) + self.constant

    def __add__(self, constant: float) -> "LinearTerm":
        return LinearTerm(self.coefficient, self.attr, self.constant + float(constant))

    def __sub__(self, constant: float) -> "LinearTerm":
        return LinearTerm(self.coefficient, self.attr, self.constant - float(constant))

    def __mul__(self, factor: float) -> "LinearTerm":
        return LinearTerm(
            self.coefficient * float(factor), self.attr, self.constant * float(factor)
        )

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.attr is None:
            return f"{self.constant:g}"
        parts = [] if self.coefficient == 1.0 else [f"{self.coefficient:g}*"]
        parts.append(str(self.attr))
        if self.constant:
            parts.append(f" {'+' if self.constant > 0 else '-'} {abs(self.constant):g}")
        return "".join(parts)


# ----------------------------------------------------------------------
# Evaluation context
# ----------------------------------------------------------------------


class EvalContext:
    """Everything a condition may consult while testing one input tuple.

    ``rows`` is the sorted cluster; ``index`` the 0-based position of the
    tuple under test.  ``bindings`` maps pattern-element names to
    ``(start, end)`` input spans of the current match attempt — residual
    (cross-element) conditions use them; plain conditions ignore them.
    """

    __slots__ = ("rows", "index", "bindings")

    def __init__(
        self,
        rows: Sequence[Mapping[str, object]],
        index: int,
        bindings: Optional[Mapping[str, tuple[int, int]]] = None,
    ):
        self.rows = rows
        self.index = index
        self.bindings = bindings if bindings is not None else {}

    def attr_value(self, attr: Attr) -> object:
        """Resolve an attribute reference; raises LookupError off either end."""
        position = self.index + attr.offset
        if position < 0 or position >= len(self.rows):
            raise LookupError(f"no tuple at sequence offset {attr.offset}")
        return self.rows[position][attr.name]


# ----------------------------------------------------------------------
# Conditions
# ----------------------------------------------------------------------


class Condition:
    """A single runtime-evaluable conjunct of an element predicate."""

    def evaluate(self, ctx: EvalContext) -> bool:
        raise NotImplementedError

    def symbolic_atoms(self, domains: "AttributeDomains") -> Optional[list[AnyAtom]]:
        """The condition as GSW atoms over canonical variables, or None.

        None means the condition is a *residual*: the runtime still
        enforces it, but the implication analysis must treat the element
        conservatively.
        """
        return None


@dataclass(frozen=True)
class ComparisonCondition(Condition):
    """``left op right`` where each side is a linear term over one attribute."""

    left: LinearTerm
    op: Op
    right: LinearTerm

    def evaluate(self, ctx: EvalContext) -> bool:
        try:
            left = self.left.value(ctx.attr_value)  # type: ignore[arg-type]
            right = self.right.value(ctx.attr_value)  # type: ignore[arg-type]
        except LookupError:
            return False
        return self.op.holds(left, right)

    def symbolic_atoms(self, domains: "AttributeDomains") -> Optional[list[AnyAtom]]:
        left, op, right = self.left, self.op, self.right
        # Put the (unique) attribute on the left for single-attribute forms.
        if left.attr is None and right.attr is None:
            # Ground comparison: fold into a tautology or contradiction atom.
            dummy = Variable("__ground__")
            if op.holds(left.constant, right.constant):
                return [atom(dummy, "<=", dummy, 0.0)]
            return [atom(dummy, "<", dummy, 0.0)]
        if left.attr is None:
            left, right = right, left
            op = op.flipped
        x = left.attr
        assert x is not None
        if right.attr is None:
            # a*X + b op c  ->  X op (c - b) / a  (flip on negative a)
            if left.coefficient == 0:
                return None
            bound = (right.constant - left.constant) / left.coefficient
            effective = op if left.coefficient > 0 else op.flipped
            return [atom(x.variable(), effective, bound)]
        y = right.attr
        if left.coefficient == right.coefficient and left.coefficient != 0:
            # a*X + b1 op a*Y + b2  ->  X op Y + (b2 - b1)/a  (flip on a < 0)
            offset = (right.constant - left.constant) / left.coefficient
            effective = op if left.coefficient > 0 else op.flipped
            return [atom(x.variable(), effective, y.variable(), offset)]
        if left.constant == 0 and right.constant == 0 and left.coefficient != 0:
            # a*X op b*Y  ->  X op (b/a)*Y: the Section 6 multiplicative form.
            ratio = right.coefficient / left.coefficient
            effective = op if left.coefficient > 0 else op.flipped
            if ratio > 0 and domains.is_positive(x.name) and domains.is_positive(y.name):
                return [atom(ratio_variable(x.variable(), y.variable()), effective, ratio)]
            return None
        return None

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"


@dataclass(frozen=True)
class StringEqualityCondition(Condition):
    """``attr = 'constant'`` or ``attr != 'constant'`` on a string column."""

    attr: Attr
    op: Op
    value: str

    def __post_init__(self) -> None:
        if self.op not in (Op.EQ, Op.NE):
            raise ConstraintError("string conditions support = and != only")

    def evaluate(self, ctx: EvalContext) -> bool:
        try:
            actual = ctx.attr_value(self.attr)
        except LookupError:
            return False
        if self.op is Op.EQ:
            return actual == self.value
        return actual != self.value

    def symbolic_atoms(self, domains: "AttributeDomains") -> Optional[list[AnyAtom]]:
        return [cat_atom(self.attr.categorical_variable(), self.op, self.value)]

    def __str__(self) -> str:
        return f"{self.attr} {self.op.value} '{self.value}'"


class OrCondition(Condition):
    """A disjunction of condition branches (Section 8 extension).

    Each branch is itself a conjunction of conditions.  The condition
    holds when *some* branch holds.  If every branch is fully
    symbolizable the whole disjunct contributes a multi-disjunct DNF to
    the element's symbolic predicate (see
    :meth:`ElementPredicate.__init__`), letting the theta/phi analysis
    reason about OR patterns through :mod:`repro.constraints.dnf`;
    otherwise it degrades to a residual like any other opaque condition.
    """

    __slots__ = ("branches",)

    def __init__(self, branches: Iterable[Iterable[Condition]]):
        self.branches: tuple[tuple[Condition, ...], ...] = tuple(
            tuple(branch) for branch in branches
        )
        if not self.branches:
            raise ConstraintError("OrCondition needs at least one branch")

    def evaluate(self, ctx: EvalContext) -> bool:
        return any(
            all(condition.evaluate(ctx) for condition in branch)
            for branch in self.branches
        )

    def symbolic_branches(
        self, domains: "AttributeDomains"
    ) -> Optional[list[list[AnyAtom]]]:
        """Per-branch atom lists, or None if any branch is opaque."""
        result: list[list[AnyAtom]] = []
        for branch in self.branches:
            atoms: list[AnyAtom] = []
            for condition in branch:
                extracted = condition.symbolic_atoms(domains)
                if extracted is None:
                    return None
                atoms.extend(extracted)
            result.append(atoms)
        return result

    def __str__(self) -> str:
        rendered = [
            "(" + " AND ".join(str(c) for c in branch) + ")" for branch in self.branches
        ]
        return "(" + " OR ".join(rendered) + ")"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrCondition):
            return NotImplemented
        return self.branches == other.branches

    def __hash__(self) -> int:
        return hash(self.branches)


@dataclass(frozen=True)
class AnchoredCompare:
    """``op(lhs(i), rhs(anchor))``: a residual comparison the kernels run.

    ``lhs`` reads only the row under test ``i``, ``rhs`` only the
    *anchor*: the start of pattern element ``element`` (1-based), or its
    end when ``last`` (a ``LAST(V)`` reference).  Each side is an
    expression program over one row, as nested tuples:
    ``("col", name, offset)`` reads ``column[row + offset]``,
    ``("num", value)`` is a literal, ``("neg", operand)`` negates, and
    ``("+" | "-" | "*", left, right)`` is arithmetic.  There is no
    division: Python raises on a zero divisor, NumPy does not.

    At run time the anchor is ``attempt_start + counts[element - 1]``, or
    ``attempt_start + counts[element] - 1`` for the end (see
    :mod:`repro.match.ops_star`).  Navigation off either end makes the
    comparison False for every operator, as in the interpreted residual.
    """

    lhs: tuple
    op: Op
    rhs: tuple
    element: int
    last: bool = False


@dataclass(frozen=True)
class ResidualCondition(Condition):
    """An opaque condition evaluated by a callable (cross-element references).

    The SQL-TS layer wraps binding-dependent WHERE conjuncts in these; the
    matrix analysis sees them only through ``has_residual``.  The
    interpreter runs ``func`` on every test, on the row path and in the
    stream alike.

    ``anchored``, when present, is the same condition as an
    :class:`AnchoredCompare` program, which the columnar kernels
    evaluate in place of ``func`` (see :mod:`repro.engine.columnar`);
    it must be observationally identical to ``func`` and is therefore
    excluded from equality.
    """

    func: Callable[[EvalContext], bool]
    description: str = "<residual>"
    anchored: Optional[AnchoredCompare] = field(default=None, compare=False)

    def evaluate(self, ctx: EvalContext) -> bool:
        return bool(self.func(ctx))

    def __str__(self) -> str:
        return self.description


# ----------------------------------------------------------------------
# Attribute domains (positivity declarations for the Section 6 rewrite)
# ----------------------------------------------------------------------


class AttributeDomains:
    """Which attributes are known positive (enables the ratio rewrite)."""

    __slots__ = ("_positive",)

    def __init__(self, positive: Iterable[str] = ()):
        self._positive = frozenset(positive)

    def is_positive(self, attribute: str) -> bool:
        return attribute in self._positive

    def fingerprint(self) -> tuple[str, ...]:
        """Hashable identity for plan-cache keys: two domains with the
        same fingerprint compile every query identically."""
        return tuple(sorted(self._positive))

    @classmethod
    def none(cls) -> "AttributeDomains":
        return cls()

    @classmethod
    def prices(cls) -> "AttributeDomains":
        """The domain declaration used throughout the paper's examples."""
        return cls({"price"})


# ----------------------------------------------------------------------
# Element predicates
# ----------------------------------------------------------------------


class ElementPredicate:
    """The conjunction of conditions attached to one pattern element.

    ``symbolic`` is the DNF of the analyzable sub-conjunction (a single
    disjunct unless the Section 8 disjunction extension is used);
    ``has_residual`` records whether any condition escaped symbolization,
    in which case the analysis must not claim the element fully implied.
    """

    __slots__ = ("conditions", "symbolic", "has_residual", "label")

    def __init__(
        self,
        conditions: Iterable[Condition],
        domains: Optional[AttributeDomains] = None,
        label: str = "",
    ):
        self.conditions: tuple[Condition, ...] = tuple(conditions)
        self.label = label
        domains = domains if domains is not None else AttributeDomains.none()
        atoms: list[AnyAtom] = []
        disjunctive: list[list[list[AnyAtom]]] = []
        residual = False
        for condition in self.conditions:
            if isinstance(condition, OrCondition):
                branches = condition.symbolic_branches(domains)
                if branches is None:
                    residual = True
                else:
                    disjunctive.append(branches)
                continue
            extracted = condition.symbolic_atoms(domains)
            if extracted is None:
                residual = True
            else:
                atoms.extend(extracted)
        # Distribute: (common atoms) AND (OR ...) AND (OR ...) -> DNF.
        symbolic = Disjunction.of(Conjunction(atoms))
        for branches in disjunctive:
            symbolic = symbolic & Disjunction(
                [Conjunction(branch) for branch in branches]
            )
        self.symbolic = symbolic
        self.has_residual = residual

    def test(self, ctx: EvalContext) -> bool:
        """Evaluate the full predicate on one input tuple."""
        return all(condition.evaluate(ctx) for condition in self.conditions)

    def satisfiable(self) -> bool:
        """Is the symbolic part consistent?  (False means the element can
        never match — useful to reject impossible queries early.)"""
        return self.symbolic.satisfiable()

    def is_tautology(self) -> bool:
        """Provably always-true (requires no residuals)."""
        return not self.has_residual and self.symbolic.is_tautology()

    def __repr__(self) -> str:
        name = self.label or "p"
        body = " AND ".join(str(c) for c in self.conditions) or "TRUE"
        return f"{name}({body})"


def comparison(
    left: Union[LinearTerm, Attr, float, int],
    op: Union[Op, str],
    right: Union[LinearTerm, Attr, float, int],
) -> ComparisonCondition:
    """Build a comparison condition from flexible operand spellings."""
    if isinstance(op, str):
        op = Op(op)
    return ComparisonCondition(LinearTerm.of(left), op, LinearTerm.of(right))


def predicate(
    *conditions: Condition,
    domains: Optional[AttributeDomains] = None,
    label: str = "",
) -> ElementPredicate:
    """Build an :class:`ElementPredicate` from conditions."""
    return ElementPredicate(conditions, domains=domains, label=label)


def true_predicate(label: str = "") -> ElementPredicate:
    """The always-true predicate (an unconstrained pattern variable)."""
    return ElementPredicate((), label=label)
