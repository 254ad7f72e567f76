"""Conjunctions of constraint atoms, with the queries theta/phi need.

A pattern-element predicate that the OPS compiler can analyze symbolically
is a :class:`Conjunction` of atoms over the variables of the current tuple
and its predecessor.  The theta/phi matrix computation (paper Section 4.2)
needs exactly four queries, all provided here:

- ``satisfiable()``                          (is p consistent?)
- ``implies(q)``                             (p => q)
- ``conjunction_satisfiable_with(q)``        (is p AND q consistent?)
- ``negation_implies(q)``                    (NOT p => q)

``negation_implies`` is where conjunctions stop being closed under
negation: ``NOT p`` is a disjunction of negated atoms, and a disjunction
implies ``q`` iff every disjunct does.  Each disjunct is a single GSW atom,
so the test reduces to GSW implication checks — no general theorem
prover needed.

Each conjunction closes its atoms once, on first use, and keeps the
:class:`~repro.constraints.gsw.PremiseClosure`: every later
satisfiability or implication query on it is a lookup.  Within one plan
theta, phi and the equivalent-pair refinement ask about the same element
predicates many times, and a cached plan carries its closures with it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from repro.constraints.atoms import AnyAtom, Atom, CategoricalAtom
from repro.constraints.gsw import GswSolver, PremiseClosure
from repro.constraints.terms import Variable


class Conjunction:
    """An immutable conjunction of numeric and categorical atoms.

    The empty conjunction is the constant TRUE.  The closure is computed
    lazily and never changes once set; two threads that both compute it
    first build equal closures, and either may stay.
    """

    __slots__ = ("_atoms", "_closure")

    def __init__(self, atoms: Iterable[AnyAtom] = ()):
        self._atoms: tuple[AnyAtom, ...] = tuple(atoms)
        for a in self._atoms:
            if not isinstance(a, (Atom, CategoricalAtom)):
                raise TypeError(f"not a constraint atom: {a!r}")
        self._closure: Optional[PremiseClosure] = None

    @property
    def closure(self) -> PremiseClosure:
        """The atoms closed once (see :class:`PremiseClosure`)."""
        closure = self._closure
        if closure is None:
            closure = self._closure = PremiseClosure(self._atoms)
        return closure

    @property
    def atoms(self) -> tuple[AnyAtom, ...]:
        return self._atoms

    def __iter__(self) -> Iterator[AnyAtom]:
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def __and__(self, other: Union["Conjunction", AnyAtom]) -> "Conjunction":
        if isinstance(other, Conjunction):
            return Conjunction(self._atoms + other._atoms)
        return Conjunction(self._atoms + (other,))

    @property
    def variables(self) -> frozenset[Variable]:
        result: set[Variable] = set()
        for a in self._atoms:
            result |= a.variables
        return frozenset(result)

    # ------------------------------------------------------------------
    # Decision queries (all delegate to GSW)
    # ------------------------------------------------------------------

    def satisfiable(self) -> bool:
        """Is this conjunction consistent over the reals?"""
        return self.closure.satisfiable

    def is_tautology(self) -> bool:
        """Does this conjunction hold for every assignment?

        A conjunction is a tautology iff every atom is one, and a single
        GSW atom is a tautology only for resolvable self-comparisons.
        """
        return all(a.is_tautology() for a in self._atoms)

    def implies(self, other: "Conjunction") -> bool:
        """Classical implication: self => other.

        Note that an unsatisfiable conjunction implies everything; the
        theta/phi builders apply the paper's ``p !== F`` / ``p !== T``
        guards on top of this primitive.
        """
        return self.closure.implies_all(other._atoms)

    def conjunction_satisfiable_with(self, other: "Conjunction") -> bool:
        """Is self AND other consistent?  (theta = 0 test, negated.)

        When one side is a single atom ``a``, the other side's closure
        decides it: ``p AND a`` is unsatisfiable iff ``p => NOT a``.
        """
        if len(other._atoms) == 1:
            return not self.closure.implies(other._atoms[0].negate())
        if len(self._atoms) == 1:
            return not other.closure.implies(self._atoms[0].negate())
        return GswSolver.satisfiable(self._atoms + other._atoms)

    def negation_implies(self, other: "Conjunction") -> bool:
        """Does NOT self imply other?  (phi = 1 test.)

        ``NOT self`` is the disjunction of the negations of self's atoms;
        the disjunction implies ``other`` iff each disjunct does.  The
        empty conjunction (TRUE) has an unsatisfiable negation, which
        vacuously implies everything.
        """
        return all(
            PremiseClosure([a.negate()]).implies_all(other._atoms)
            for a in self._atoms
        )

    def equivalent(self, other: "Conjunction") -> bool:
        return self.implies(other) and other.implies(self)

    # ------------------------------------------------------------------

    def evaluate(self, assignment: dict[Variable, object]) -> bool:
        """Evaluate all atoms under a concrete assignment (for testing)."""
        return all(a.evaluate(assignment) for a in self._atoms)  # type: ignore[arg-type]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Conjunction):
            return NotImplemented
        return self._atoms == other._atoms

    def __hash__(self) -> int:
        return hash(self._atoms)

    def __repr__(self) -> str:
        if not self._atoms:
            return "Conjunction(TRUE)"
        return "Conjunction(" + " AND ".join(str(a) for a in self._atoms) + ")"


#: The empty conjunction — constant TRUE.
TRUE_CONJUNCTION = Conjunction()
