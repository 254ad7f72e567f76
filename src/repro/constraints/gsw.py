"""The Guo–Sun–Weiss (GSW) decision procedures for conjunctions of inequalities.

Section 6 of Sadri & Zaniolo cites Guo, Sun and Weiss (TKDE 1996) for
deciding *implication* and *satisfiability* of conjunctions of atoms
``X op C``, ``X op Y``, ``X op Y + C`` with ``op`` in
``{=, !=, <, <=, >, >=}``.  This module implements both procedures over the
real domain with the classic constraint-graph formulation:

- every non-``!=`` atom becomes one or two *difference bounds*
  ``x - y <= c`` (optionally strict), with a distinguished ``ZERO`` node
  standing for the constant 0;
- the min-plus closure of the bound graph (Floyd–Warshall over weights
  ``(c, strict)`` ordered so a strict bound is tighter than a non-strict
  bound of equal ``c``) yields the tightest derivable bound between every
  pair of variables;
- the conjunction is **unsatisfiable** iff some closure self-bound is
  negative (``x - x <= c`` with ``c < 0``, or ``c = 0`` strict), or some
  ``!=`` atom's equality is forced by the closure;
- the conjunction **implies** an atom iff the closure's tightest bound on
  each of the atom's difference bounds is at least as tight
  (:class:`PremiseClosure`): GSW's own test, which closes the premises
  once and reads every conclusion off that closure.  Refutation —
  conjoin the atom's negation and test satisfiability — stays as the
  reference (:meth:`GswSolver.implies`) and as the path for what a
  lookup cannot decide alone: ``!=`` conclusions, premises containing
  ``!=`` (``x <= 0 AND x != 0`` implies ``x < 0``) and categorical atoms.

Categorical equality atoms (``name = 'IBM'``) are decided by a separate
elementary procedure and do not interact with the numeric graph.

The closure is cubic in the number of variables; pattern predicates mention
a handful of variables, so — as the paper notes — "these compilation costs
are quite reasonable".
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, NamedTuple, Optional, Sequence

from repro.constraints.atoms import AnyAtom, Atom, CategoricalAtom, Op
from repro.constraints.terms import Variable, ZERO
from repro.errors import ConstraintError


class Weight(NamedTuple):
    """A difference bound ``x - y <= c`` (strict: ``x - y < c``).

    Ordering: smaller is *tighter*.  At equal ``c`` a strict bound is
    tighter than a non-strict one, which the ``tightness`` field encodes
    (``-1`` for strict, ``0`` for non-strict) so tuple ordering gives the
    right lexicographic comparison.  The closure itself works on bare
    ``(c, tightness)`` tuples, compared and combined at C level; this
    class names the fields for callers of :meth:`BoundClosure.bound`.
    """

    c: float
    tightness: int  # -1 = strict, 0 = non-strict

    @property
    def strict(self) -> bool:
        return self.tightness == -1

    def __add__(self, other: "Weight") -> "Weight":
        # A chain of bounds is strict as soon as one link is strict.
        return Weight(self.c + other.c, min(self.tightness, other.tightness))

    def entails(self, target: "Weight") -> bool:
        """Does ``x - y <= self`` guarantee ``x - y <= target``?

        Exactly when ``self`` is at least as tight: at equal constants a
        strict derived bound entails both forms, a non-strict one only the
        non-strict target.
        """
        return self <= target

    def is_negative_cycle(self) -> bool:
        """Would this self-bound (``x - x <= self``) be contradictory?"""
        return self < _NO_OFFSET


#: The bound ``x - x <= 0`` every closure starts each variable with.
_NO_OFFSET = (0.0, 0)

#: ``(x name, y name, (c, tightness))``: the difference bound ``x - y <= c``.
Bound = tuple[str, str, tuple[float, int]]


def _bounds_of(a: Atom) -> tuple[Bound, ...]:
    """Decompose a numeric atom into difference bounds.

    Equality yields two bounds; ``!=`` yields none (handled separately).
    Variables go by name: the atoms of one closure are all numeric, so
    the name identifies the variable, and a ``str`` hashes at C speed.
    """
    op, x, y, c = a.op, a.x.name, a.y.name, a.c
    if op is Op.LE:
        return ((x, y, (c, 0)),)
    if op is Op.LT:
        return ((x, y, (c, -1)),)
    if op is Op.GE:
        return ((y, x, (-c, 0)),)
    if op is Op.GT:
        return ((y, x, (-c, -1)),)
    if op is Op.EQ:
        return ((x, y, (c, 0)), (y, x, (-c, 0)))
    if op is Op.NE:
        return ()
    raise ConstraintError(f"unsupported operator: {a.op}")


class BoundClosure:
    """Min-plus closure of the difference-bound graph of a set of atoms.

    Entries are ``(c, tightness)`` tuples or None (unbounded).  Adding two
    bounds adds the constants and ORs the tightness flags: for flags in
    ``{-1, 0}``, ``|`` is ``min``, so a chain is strict as soon as one link
    is.  Variables are ordered by name, which fixes the order in which
    Floyd–Warshall sums the constants.  The closure never changes once
    built.
    """

    __slots__ = ("_names", "_dist")

    def __init__(self, atoms: Iterable[Atom]):
        edges = [bound for a in atoms for bound in _bounds_of(a)]
        names = {ZERO.name}
        for x, y, _ in edges:
            names.add(x)
            names.add(y)
        index = {name: i for i, name in enumerate(sorted(names))}
        n = len(index)
        dist: list[list[Optional[tuple[float, int]]]] = [[None] * n for _ in range(n)]
        for i in range(n):
            dist[i][i] = _NO_OFFSET
        for x, y, w in edges:
            row, j = dist[index[x]], index[y]
            current = row[j]
            if current is None or w < current:
                row[j] = w
        for k, row_k in enumerate(dist):
            for row_i in dist:
                d_ik = row_i[k]
                if d_ik is None:
                    continue
                c_ik, t_ik = d_ik
                for j, d_kj in enumerate(row_k):
                    if d_kj is None:
                        continue
                    via = (c_ik + d_kj[0], t_ik | d_kj[1])
                    current = row_i[j]
                    if current is None or via < current:
                        row_i[j] = via
        # Kept compact, since cached plans hold their closures: the names
        # in index order and the matrix as one flat tuple.
        self._names = tuple(index)
        self._dist = tuple(chain.from_iterable(dist))

    @property
    def feasible(self) -> bool:
        """False when the closure contains a negative self-cycle."""
        n = len(self._names)
        return not any(d < _NO_OFFSET for d in self._dist[:: n + 1])

    def _lookup(self, x: str, y: str) -> Optional[tuple[float, int]]:
        names = self._names
        if x in names and y in names:
            return self._dist[names.index(x) * len(names) + names.index(y)]
        return _NO_OFFSET if x == y else None

    def bound(self, x: Variable, y: Variable) -> Optional[Weight]:
        """The tightest derivable bound ``x - y <= w``, or None if unbounded."""
        found = self._lookup(x.name, y.name)
        return None if found is None else Weight(*found)

    def entails(self, a: Atom) -> bool:
        """GSW implication by lookup: does every model of the closed
        (feasible) system satisfy the ``!=``-free atom ``a``?

        It does exactly when, for each of ``a``'s difference bounds, the
        tightest derived bound is at least as tight.
        """
        for x, y, w in _bounds_of(a):
            derived = self._lookup(x, y)
            if derived is None or not derived <= w:
                return False
        return True

    def forces_equality(self, x: Variable, y: Variable, c: float) -> bool:
        """Does the closure force ``x - y == c`` exactly?"""
        return self._lookup(x.name, y.name) == (c, 0) and self._lookup(
            y.name, x.name
        ) == (-c, 0)


def _categorical_satisfiable(atoms: Sequence[CategoricalAtom]) -> bool:
    """Satisfiability of categorical equality atoms (infinite domains)."""
    equals: dict[Variable, str] = {}
    not_equals: dict[Variable, set[str]] = {}
    for a in atoms:
        if a.op is Op.EQ:
            if a.x in equals and equals[a.x] != a.value:
                return False
            equals[a.x] = a.value
        else:
            not_equals.setdefault(a.x, set()).add(a.value)
    for var, value in equals.items():
        if value in not_equals.get(var, ()):
            return False
    return True


class PremiseClosure:
    """A conjunction of premises, closed once and then queried many times.

    ``satisfiable`` is the full GSW verdict on the premises.
    :meth:`implies` reads a conclusion off the closure (see the module
    docstring for what falls back to refutation).  An instance never
    changes once built, so a shared, cached plan can hold it.
    """

    __slots__ = ("atoms", "satisfiable", "_closure", "_categorical", "_disequalities")

    def __init__(self, atoms: Iterable[AnyAtom]):
        self.atoms: tuple[AnyAtom, ...] = tuple(atoms)
        self._closure: Optional[BoundClosure] = None
        self._categorical: tuple[CategoricalAtom, ...] = ()
        self._disequalities: tuple[Atom, ...] = ()
        self.satisfiable = self._close()

    def _close(self) -> bool:
        numeric: list[Atom] = []
        categorical: list[CategoricalAtom] = []
        disequalities: list[Atom] = []
        for a in self.atoms:
            if isinstance(a, CategoricalAtom):
                categorical.append(a)
            elif a.x == a.y:
                # x op x + c is a ground fact about c: a contradiction
                # (x < x, x != x) or a tautology the closure can skip.
                if not a.op.holds(0.0, a.c):
                    return False
            elif a.op is Op.NE:
                disequalities.append(a)
            else:
                numeric.append(a)
        if not _categorical_satisfiable(categorical):
            return False
        closure = BoundClosure(numeric)
        if not closure.feasible:
            return False
        # Over a dense domain, a feasible difference system plus
        # disequalities is satisfiable unless some disequality's equality
        # is forced by the system.
        for d in disequalities:
            if closure.forces_equality(d.x, d.y, d.c):
                return False
        self._closure = closure
        self._categorical = tuple(categorical)
        self._disequalities = tuple(disequalities)
        return True

    def implies(self, conclusion: AnyAtom) -> bool:
        """Do the premises imply ``conclusion``?  Classical: unsatisfiable
        premises imply everything."""
        if not self.satisfiable:
            return True
        if isinstance(conclusion, CategoricalAtom):
            # Categorical atoms never meet the numeric graph, so refuting
            # on the categorical premises alone decides it.
            return not _categorical_satisfiable(
                (*self._categorical, conclusion.negate())
            )
        if conclusion.op is Op.NE:
            return GswSolver.implies(self.atoms, conclusion)
        if self._closure.entails(conclusion):
            return True
        # A disequality premise can cut a bound's endpoint off
        # (x <= 0 AND x != 0 implies x < 0), which no lookup sees.
        return bool(self._disequalities) and GswSolver.implies(self.atoms, conclusion)

    def implies_all(self, conclusions: Iterable[AnyAtom]) -> bool:
        """Do the premises imply every conclusion atom?"""
        return all(self.implies(c) for c in conclusions)


class GswSolver:
    """Stateless facade exposing the two GSW decision procedures."""

    @staticmethod
    def satisfiable(atoms: Iterable[AnyAtom]) -> bool:
        """Is the conjunction of ``atoms`` satisfiable over the reals?"""
        return PremiseClosure(atoms).satisfiable

    @staticmethod
    def implies(premises: Iterable[AnyAtom], conclusion: AnyAtom) -> bool:
        """Does the conjunction of ``premises`` imply ``conclusion``?

        Decided by refutation: ``premises AND NOT conclusion`` must be
        unsatisfiable.  This is the reference procedure; a
        :class:`PremiseClosure` answers the same question by lookup.  Note
        this is classical implication — an unsatisfiable premise implies
        everything; callers guarding theta and phi entries handle that
        case explicitly per the paper.
        """
        return not GswSolver.satisfiable(chain(premises, [conclusion.negate()]))

    @staticmethod
    def implies_all(premises: Iterable[AnyAtom], conclusions: Iterable[AnyAtom]) -> bool:
        """Does the premise conjunction imply every conclusion atom?"""
        premises = list(premises)
        return all(GswSolver.implies(premises, c) for c in conclusions)

    @staticmethod
    def equivalent(left: Iterable[AnyAtom], right: Iterable[AnyAtom]) -> bool:
        """Mutual implication of two conjunctions."""
        left = list(left)
        right = list(right)
        return GswSolver.implies_all(left, right) and GswSolver.implies_all(right, left)
