"""Predicate reasoning: atoms, conjunctions, and the GSW decision procedures.

The OPS compiler needs to answer two questions about pattern-element
predicates (conjunctions of inequalities over tuple attributes):

- *implication* — does ``p_j`` imply ``p_k``?
- *satisfiability* — is ``p_j AND p_k`` satisfiable?

Section 6 of the paper uses the Guo–Sun–Weiss (GSW) algorithm for
conjunctions of atoms of the form ``X op C``, ``X op Y`` and ``X op Y + C``
(with ``op`` in ``=, !=, <, <=, >, >=``), extended to ``X op C*Y`` through a
ratio-variable rewrite for positive domains.  This subpackage implements all
of that, plus the Section 8 extensions (interval-based reasoning and
disjunctive predicates); the rewrite itself is applied where conditions are
symbolized, in :mod:`repro.pattern.predicates`.
"""

from repro.constraints.terms import ZERO, Variable
from repro.constraints.atoms import Atom, CategoricalAtom, Op, atom, cat_atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.gsw import GswSolver
from repro.constraints.dnf import Disjunction
from repro.constraints.intervals import IntervalSet, interval_implies, interval_satisfiable

__all__ = [
    "Variable",
    "ZERO",
    "Op",
    "Atom",
    "CategoricalAtom",
    "atom",
    "cat_atom",
    "Conjunction",
    "GswSolver",
    "Disjunction",
    "IntervalSet",
    "interval_implies",
    "interval_satisfiable",
]
