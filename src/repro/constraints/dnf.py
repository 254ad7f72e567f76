"""Disjunctive predicates (Section 8 extension).

The paper's conclusion notes that the OPS algorithm "has been extended to
optimize patterns containing disjunctive conditions".  This module lifts
the GSW decision procedures from conjunctions to predicates in disjunctive
normal form (DNF):

- a :class:`Disjunction` is a non-empty set of
  :class:`~repro.constraints.conjunction.Conjunction` disjuncts;
- satisfiability: some disjunct is satisfiable;
- ``D => q`` for a conjunction ``q``: every disjunct implies ``q``;
- ``D1 => D2``: every disjunct of ``D1`` implies ``D2``; a conjunction
  implies a disjunction when it implies *some* disjunct — this one-disjunct
  witness rule is sound but incomplete (a conjunction can imply a
  disjunction "collectively"), so callers treat a negative answer as
  *unknown*, exactly the conservatism the U truth value exists for.

A disjunction computes its negation and its tautology verdict once, on
first use, and keeps both; each disjunct keeps its own closure (see
:class:`~repro.constraints.conjunction.Conjunction`).
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Optional

from repro.constraints.conjunction import Conjunction


class Disjunction:
    """A predicate in disjunctive normal form: OR of conjunctions.

    Immutable; the cached negation and tautology verdict never change
    once set, so threads racing to compute them first do no harm.
    """

    __slots__ = ("_disjuncts", "_negation", "_tautology")

    def __init__(self, disjuncts: Iterable[Conjunction]):
        self._disjuncts: tuple[Conjunction, ...] = tuple(disjuncts)
        if not self._disjuncts:
            raise ValueError("a Disjunction needs at least one disjunct")
        self._negation: Optional[Disjunction] = None
        self._tautology: Optional[bool] = None

    @classmethod
    def of(cls, conjunction: Conjunction) -> "Disjunction":
        """Wrap a single conjunction as a one-disjunct DNF."""
        return cls([conjunction])

    @property
    def disjuncts(self) -> tuple[Conjunction, ...]:
        return self._disjuncts

    def __iter__(self) -> Iterator[Conjunction]:
        return iter(self._disjuncts)

    def __len__(self) -> int:
        return len(self._disjuncts)

    def __or__(self, other: "Disjunction") -> "Disjunction":
        return Disjunction(self._disjuncts + other._disjuncts)

    def __and__(self, other: "Disjunction") -> "Disjunction":
        """Distribute AND over OR (cartesian product of disjuncts)."""
        return Disjunction([a & b for a, b in product(self._disjuncts, other._disjuncts)])

    def negate(self) -> "Disjunction":
        """De Morgan expansion of NOT(DNF), itself returned as DNF.

        NOT(OR of conjunctions) = AND of (OR of negated atoms); distributing
        the AND over the ORs gives the product of per-disjunct atom choices.
        Exponential in the worst case, but pattern predicates are tiny.
        """
        negation = self._negation
        if negation is None:
            negation = self._negation = self._expand_negation()
        return negation

    def _expand_negation(self) -> "Disjunction":
        per_disjunct = []
        for conj in self._disjuncts:
            if len(conj) == 0:
                # NOT TRUE = FALSE: the whole negation is unsatisfiable.
                # Represent FALSE as a self-contradictory numeric-free DNF by
                # conjoining nothing — callers must check satisfiability.
                return Disjunction([_false_conjunction()])
            per_disjunct.append([Conjunction([a.negate()]) for a in conj])
        result = []
        for choice in product(*per_disjunct):
            merged = Conjunction([])
            for c in choice:
                merged = merged & c
            result.append(merged)
        return Disjunction(result)

    # ------------------------------------------------------------------

    def satisfiable(self) -> bool:
        return any(d.satisfiable() for d in self._disjuncts)

    def is_tautology(self) -> bool:
        """Sound tautology test: the negation must be unsatisfiable."""
        tautology = self._tautology
        if tautology is None:
            tautology = self._tautology = not self.negate().satisfiable()
        return tautology

    def implies_conjunction(self, q: Conjunction) -> bool:
        """D => q: every satisfiable disjunct must imply q."""
        return all(d.implies(q) for d in self._disjuncts)

    def implies(self, other: "Disjunction") -> bool:
        """Sound (incomplete) implication test between DNF predicates.

        Every disjunct of self must imply some single disjunct of other.
        A False result means "not proven", not "refuted".
        """
        return all(
            any(d.implies(e) for e in other._disjuncts) for d in self._disjuncts
        )

    def conjunction_satisfiable_with(self, other: "Disjunction") -> bool:
        """Is self AND other satisfiable?  (Exact for DNF.)"""
        return any(
            d.conjunction_satisfiable_with(e)
            for d in self._disjuncts
            for e in other._disjuncts
        )

    def negation_implies(self, other: "Disjunction") -> bool:
        """Sound test for NOT self => other."""
        negated = self.negate()
        return all(
            (not d.satisfiable()) or any(d.implies(e) for e in other._disjuncts)
            for d in negated._disjuncts
        )

    def evaluate(self, assignment: dict) -> bool:
        return any(d.evaluate(assignment) for d in self._disjuncts)

    def __repr__(self) -> str:
        return "Disjunction(" + " OR ".join(repr(d) for d in self._disjuncts) + ")"


def _false_conjunction() -> Conjunction:
    """A canonical unsatisfiable conjunction (0 < 0 over a dummy variable)."""
    from repro.constraints.atoms import atom
    from repro.constraints.terms import Variable

    dummy = Variable("__false__")
    return Conjunction([atom(dummy, "<", dummy, 0.0)])
