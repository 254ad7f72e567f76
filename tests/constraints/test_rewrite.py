"""The Section 6 multiplicative rewrite X op C*Y -> X/Y op C.

Production rewrites in :meth:`ComparisonCondition.symbolic_atoms`;
``tests/pattern/test_predicates.py`` pins when it applies and
``test_gsw_properties.py`` brute-forces its claims on positive values.
"""

import pytest

from repro.constraints.atoms import Op
from repro.constraints.gsw import GswSolver
from repro.constraints.terms import ZERO
from repro.pattern.predicates import AttributeDomains, col, comparison

PRICE = col("price")
PREV = PRICE.previous


def ratio_atom(op: str, factor: float):
    (atom,) = comparison(PRICE, op, factor * PREV).symbolic_atoms(
        AttributeDomains.prices()
    )
    return atom


class TestRewrite:
    def test_produces_ratio_bound(self):
        rewritten = ratio_atom("<", 0.98)
        assert rewritten.x.name == "price@0/price@-1"
        assert rewritten.y == ZERO
        assert rewritten.c == pytest.approx(0.98)
        assert rewritten.op is Op.LT

    def test_rewritten_atoms_compose_in_gsw(self):
        """The paper's point: drop >2% contradicts rise >2% via the ratio."""
        drop = ratio_atom("<", 0.98)
        rise = ratio_atom(">", 1.02)
        flat_low = ratio_atom(">", 0.98)
        flat_high = ratio_atom("<", 1.02)
        assert not GswSolver.satisfiable([drop, rise])
        assert not GswSolver.satisfiable([drop, flat_low])
        assert GswSolver.satisfiable([flat_low, flat_high])
        assert GswSolver.implies([rise], flat_low)  # >1.02 implies >0.98
