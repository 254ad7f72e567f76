"""The GSW decision procedures: satisfiability and implication.

Includes the worked implications of the paper's Example 5 and a
brute-force soundness check: whenever the solver says "unsatisfiable" or
"implied", random sampling must never find a counterexample.
"""

import math
import random

import pytest

from repro.constraints.atoms import atom, cat_atom
from repro.constraints.gsw import BoundClosure, GswSolver, PremiseClosure, Weight
from repro.constraints.terms import Domain, Variable

A = Variable("a")
B = Variable("b")
C = Variable("c")
NAME = Variable("name", Domain.CATEGORICAL)


class TestWeight:
    def test_ordering_prefers_smaller_constant(self):
        assert Weight(1.0, 0) < Weight(2.0, -1)

    def test_strict_is_tighter_at_equal_constant(self):
        assert Weight(1.0, -1) < Weight(1.0, 0)

    def test_addition_propagates_strictness(self):
        assert (Weight(1.0, 0) + Weight(2.0, -1)) == Weight(3.0, -1)
        assert (Weight(1.0, 0) + Weight(2.0, 0)) == Weight(3.0, 0)

    def test_entails(self):
        assert Weight(1.0, 0).entails(Weight(2.0, 0))
        assert Weight(2.0, 0).entails(Weight(2.0, 0))
        assert not Weight(2.0, 0).entails(Weight(2.0, -1))
        assert Weight(2.0, -1).entails(Weight(2.0, 0))
        assert not Weight(3.0, -1).entails(Weight(2.0, 0))

    def test_negative_cycle(self):
        assert Weight(-0.5, 0).is_negative_cycle()
        assert Weight(0.0, -1).is_negative_cycle()
        assert not Weight(0.0, 0).is_negative_cycle()


class TestSatisfiability:
    def test_empty_is_satisfiable(self):
        assert GswSolver.satisfiable([])

    def test_simple_bounds(self):
        assert GswSolver.satisfiable([atom(A, ">", 10), atom(A, "<", 20)])
        assert not GswSolver.satisfiable([atom(A, ">", 20), atom(A, "<", 10)])

    def test_boundary_strictness(self):
        assert GswSolver.satisfiable([atom(A, ">=", 10), atom(A, "<=", 10)])
        assert not GswSolver.satisfiable([atom(A, ">", 10), atom(A, "<=", 10)])
        assert not GswSolver.satisfiable([atom(A, ">=", 10), atom(A, "<", 10)])

    def test_transitive_chain(self):
        chain = [atom(A, "<", B), atom(B, "<", C), atom(C, "<", A)]
        assert not GswSolver.satisfiable(chain)

    def test_transitive_chain_with_offsets(self):
        # a <= b - 1, b <= c - 1, c <= a + 2  -> feasible exactly
        assert GswSolver.satisfiable(
            [atom(A, "<=", B, -1), atom(B, "<=", C, -1), atom(C, "<=", A, 2)]
        )
        # tighten to c <= a + 1: cycle weight -1 -> infeasible
        assert not GswSolver.satisfiable(
            [atom(A, "<=", B, -1), atom(B, "<=", C, -1), atom(C, "<=", A, 1)]
        )

    def test_equality_chains(self):
        assert not GswSolver.satisfiable(
            [atom(A, "=", B, 1), atom(B, "=", C, 1), atom(A, "=", C, 3)]
        )
        assert GswSolver.satisfiable(
            [atom(A, "=", B, 1), atom(B, "=", C, 1), atom(A, "=", C, 2)]
        )

    def test_self_contradiction(self):
        assert not GswSolver.satisfiable([atom(A, "<", A, 0)])

    def test_self_tautology_ignored(self):
        assert GswSolver.satisfiable([atom(A, "<=", A, 0), atom(A, ">", 5)])

    def test_disequality_forced_equality(self):
        assert not GswSolver.satisfiable(
            [atom(A, ">=", 5), atom(A, "<=", 5), atom(A, "!=", 5)]
        )

    def test_disequality_with_room(self):
        assert GswSolver.satisfiable([atom(A, ">=", 5), atom(A, "!=", 5)])

    def test_disequality_between_variables(self):
        assert not GswSolver.satisfiable(
            [atom(A, "=", B, 2), atom(A, "!=", B, 2)]
        )
        assert GswSolver.satisfiable([atom(A, "<=", B, 2), atom(A, "!=", B, 2)])

    def test_self_disequality(self):
        assert not GswSolver.satisfiable([atom(A, "!=", A, 0)])
        assert GswSolver.satisfiable([atom(A, "!=", A, 1)])

    def test_categorical(self):
        assert not GswSolver.satisfiable(
            [cat_atom(NAME, "=", "IBM"), cat_atom(NAME, "=", "INTC")]
        )
        assert not GswSolver.satisfiable(
            [cat_atom(NAME, "=", "IBM"), cat_atom(NAME, "!=", "IBM")]
        )
        assert GswSolver.satisfiable(
            [cat_atom(NAME, "!=", "IBM"), cat_atom(NAME, "!=", "INTC")]
        )

    def test_categorical_independent_of_numeric(self):
        assert GswSolver.satisfiable(
            [cat_atom(NAME, "=", "IBM"), atom(A, ">", 5), atom(A, "<", 6)]
        )


class TestImplication:
    def test_reflexive(self):
        a = atom(A, "<", B, 2)
        assert GswSolver.implies([a], a)

    def test_weakening_constant(self):
        assert GswSolver.implies([atom(A, "<", 5)], atom(A, "<", 6))
        assert not GswSolver.implies([atom(A, "<", 6)], atom(A, "<", 5))

    def test_strict_vs_nonstrict(self):
        assert GswSolver.implies([atom(A, "<", 5)], atom(A, "<=", 5))
        assert not GswSolver.implies([atom(A, "<=", 5)], atom(A, "<", 5))

    def test_transitivity(self):
        premises = [atom(A, "<", B), atom(B, "<", C)]
        assert GswSolver.implies(premises, atom(A, "<", C))
        assert not GswSolver.implies(premises, atom(C, "<", A))

    def test_offset_arithmetic(self):
        premises = [atom(A, "<=", B, -2), atom(B, "<=", C, 1)]
        assert GswSolver.implies(premises, atom(A, "<=", C, -1))
        assert not GswSolver.implies(premises, atom(A, "<=", C, -2))

    def test_equality_implication(self):
        assert GswSolver.implies(
            [atom(A, "=", B, 1)], atom(B, "=", A, -1)
        )
        assert GswSolver.implies([atom(A, "=", 5)], atom(A, "!=", 6))

    def test_disequality_conclusion(self):
        assert GswSolver.implies([atom(A, "<", 5)], atom(A, "!=", 5))
        assert not GswSolver.implies([atom(A, "<=", 5)], atom(A, "!=", 5))

    def test_paper_example5_relations(self):
        """The six entailments the paper derives for Example 4."""
        b = Variable("price@0")
        a = Variable("price@-1")
        p1 = [atom(b, "<", a)]
        p2 = [atom(b, "<", a), atom(b, ">", 40), atom(b, "<", 50)]
        p3 = [atom(b, ">", a), atom(b, "<", 52)]
        p4 = [atom(b, ">", a)]
        assert GswSolver.implies_all(p2, p1)  # theta_21 = 1
        assert not GswSolver.satisfiable(p3 + p1)  # theta_31 = 0
        assert not GswSolver.satisfiable(p3 + p2)  # theta_32 = 0
        assert not GswSolver.satisfiable(p4 + p2)  # theta_42 = 0
        assert not GswSolver.satisfiable(p4 + p1)  # theta_41 = 0
        assert GswSolver.implies_all(p3, p4)  # phi_43 = 0

    def test_equivalent(self):
        assert GswSolver.equivalent(
            [atom(A, "<=", B, 0)], [atom(B, ">=", A, 0)]
        )
        assert not GswSolver.equivalent([atom(A, "<", B)], [atom(A, "<=", B)])


class TestBoundClosure:
    def test_tightest_bound(self):
        closure = BoundClosure([atom(A, "<=", B, 3), atom(A, "<", B, 5)])
        assert closure.bound(A, B) == Weight(3.0, 0)

    def test_unrelated_variables_unbounded(self):
        closure = BoundClosure([atom(A, "<", 5)])
        assert closure.bound(A, B) is None

    def test_forces_equality(self):
        closure = BoundClosure([atom(A, "<=", B, 2), atom(A, ">=", B, 2)])
        assert closure.forces_equality(A, B, 2)
        assert not closure.forces_equality(A, B, 1)


class TestExactSums:
    """The closure sums constants exactly, so float rounding along a path
    fakes neither a contradiction nor an implication.  The atoms are the
    ratio rewrites of ``0.5 * prev < price``, ``price = 2 * prev`` and
    ``1.02 * price = vol`` (or ``1.02 * vol <= prev``)."""

    def test_rounding_fakes_no_negative_cycle(self):
        # In floats, -2 + (2 - 1/1.02) rounds one ulp below -1/1.02.
        atoms = [atom(A, "<", 2.0), atom(B, "=", 2.0), atom(C, "=", 1 / 1.02)]
        assert GswSolver.satisfiable(atoms)

    def test_refutation_agrees_with_lookup_at_a_boundary(self):
        premises = [atom(A, "<", 2.0), atom(B, "=", 2.0), atom(C, "<=", 1 / 1.02)]
        conclusion = atom(C, "<", 1 / 1.02)
        assert not GswSolver.implies(premises, conclusion)
        assert not PremiseClosure(premises).implies(conclusion)
        assert PremiseClosure(premises).implies(atom(C, "<=", 1 / 1.02))

    def test_conclusion_finer_than_every_premise(self):
        # Integer premises, a conclusion constant in 2**-53 units.
        closure = PremiseClosure([atom(A, "<", B, 1), atom(B, "<=", 0)])
        assert closure.implies(atom(A, "<", 1 / 1.02 + 0.1))
        assert not closure.implies(atom(A, "<", 1 / 1.02))

    def test_infinite_constants(self):
        assert GswSolver.satisfiable([atom(A, "<=", math.inf), atom(A, ">", 3)])
        assert not GswSolver.satisfiable([atom(A, ">=", math.inf)])
        assert not GswSolver.satisfiable([atom(A, "<", math.nan)])


class TestBruteForceSoundness:
    """Random sampling must never contradict the solver's verdicts."""

    VARIABLES = [A, B, C]

    def _random_atoms(self, rng, count):
        atoms = []
        for _ in range(count):
            x = rng.choice(self.VARIABLES)
            op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
            if rng.random() < 0.5:
                atoms.append(atom(x, op, rng.randint(-5, 5)))
            else:
                y = rng.choice([v for v in self.VARIABLES if v != x])
                atoms.append(atom(x, op, y, rng.randint(-3, 3)))
        return atoms

    def _satisfied_by_sampling(self, atoms, rng, samples=4000):
        from repro.constraints.terms import ZERO

        for _ in range(samples):
            assignment = {v: float(rng.randint(-8, 8)) for v in self.VARIABLES}
            assignment[ZERO] = 0.0
            if all(a.evaluate(assignment) for a in atoms):
                return True
        return False

    def test_unsat_verdicts_have_no_models(self):
        rng = random.Random(0)
        checked = 0
        for _ in range(300):
            atoms = self._random_atoms(rng, rng.randint(2, 5))
            if not GswSolver.satisfiable(atoms):
                checked += 1
                assert not self._satisfied_by_sampling(atoms, rng, samples=800)
        assert checked > 10  # the generator must actually produce unsat sets

    def test_implication_verdicts_hold_on_models(self):
        rng = random.Random(1)
        from repro.constraints.terms import ZERO

        checked = 0
        for _ in range(300):
            premises = self._random_atoms(rng, rng.randint(2, 4))
            conclusion = self._random_atoms(rng, 1)[0]
            if GswSolver.implies(premises, conclusion):
                for _ in range(600):
                    assignment = {v: float(rng.randint(-8, 8)) for v in self.VARIABLES}
                    assignment[ZERO] = 0.0
                    if all(a.evaluate(assignment) for a in premises):
                        checked += 1
                        assert conclusion.evaluate(assignment)
        assert checked > 50


class TestCompleteness:
    """Known-decidable cases must not be reported unknown/unproven."""

    @pytest.mark.parametrize("bound", [0, 1, -1, 2.5])
    def test_sharp_constant_bounds(self, bound):
        assert GswSolver.implies([atom(A, "<", bound)], atom(A, "<=", bound))

    def test_combined_chain_and_constants(self):
        premises = [atom(A, "<", B), atom(B, "<=", 10)]
        assert GswSolver.implies(premises, atom(A, "<", 10))
        assert GswSolver.implies(premises, atom(A, "<", 11))
        assert not GswSolver.implies(premises, atom(A, "<", 9))
