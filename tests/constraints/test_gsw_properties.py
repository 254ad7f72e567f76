"""Hypothesis property tests for the GSW solver.

The key meta-properties: verdicts must be consistent with brute-force
model evaluation, closed under logical identities, and stable under
syntactic permutation.  Implication by closure lookup must agree with
the refutation reference, and the Section 6 ratio rewrite must be sound
for the original multiplicative conditions.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints.atoms import atom, cat_atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.gsw import GswSolver, PremiseClosure
from repro.constraints.terms import Domain, Variable, ZERO
from repro.pattern.predicates import (
    Attr,
    AttributeDomains,
    EvalContext,
    LinearTerm,
    comparison,
)

VARIABLES = [Variable("a"), Variable("b"), Variable("c")]

operators = st.sampled_from(["<", "<=", ">", ">=", "=", "!="])
constants = st.integers(-4, 4).map(float)


@st.composite
def atoms(draw):
    x = draw(st.sampled_from(VARIABLES))
    op = draw(operators)
    if draw(st.booleans()):
        return atom(x, op, draw(constants))
    y = draw(st.sampled_from([v for v in VARIABLES if v != x]))
    return atom(x, op, y, draw(constants))


atom_lists = st.lists(atoms(), min_size=1, max_size=5)

#: Grid assignments dense enough to witness satisfiability of integer-offset
#: systems over three variables (the solver's own domain is the reals, but
#: half-integer grids catch all strict-inequality corner cases here).
assignments = st.tuples(
    st.integers(-12, 12), st.integers(-12, 12), st.integers(-12, 12)
).map(
    lambda triple: {
        VARIABLES[0]: triple[0] / 2.0,
        VARIABLES[1]: triple[1] / 2.0,
        VARIABLES[2]: triple[2] / 2.0,
        ZERO: 0.0,
    }
)


@settings(max_examples=400, deadline=None)
@given(atom_lists, assignments)
def test_unsat_has_no_models(premises, assignment):
    """If the solver says unsatisfiable, no assignment satisfies it."""
    if not GswSolver.satisfiable(premises):
        assert not all(a.evaluate(assignment) for a in premises)


@settings(max_examples=400, deadline=None)
@given(atom_lists, atoms(), assignments)
def test_implication_holds_on_models(premises, conclusion, assignment):
    """If premises => conclusion, every model of the premises satisfies it."""
    if GswSolver.implies(premises, conclusion):
        if all(a.evaluate(assignment) for a in premises):
            assert conclusion.evaluate(assignment)


@settings(max_examples=200, deadline=None)
@given(atom_lists)
def test_satisfiability_is_order_insensitive(premises):
    shuffled = list(reversed(premises))
    assert GswSolver.satisfiable(premises) == GswSolver.satisfiable(shuffled)


@settings(max_examples=200, deadline=None)
@given(atom_lists, atoms())
def test_implication_monotone_in_premises(premises, extra):
    """Adding premises never invalidates an implication."""
    conclusion = premises[0]
    assert GswSolver.implies(premises, conclusion)
    assert GswSolver.implies(premises + [extra], conclusion)


@settings(max_examples=200, deadline=None)
@given(atom_lists, atoms())
def test_contrapositive_consistency(premises, conclusion):
    """premises => c and premises => NOT c together force unsat premises."""
    implies_c = GswSolver.implies(premises, conclusion)
    implies_not_c = GswSolver.implies(premises, conclusion.negate())
    if implies_c and implies_not_c:
        assert not GswSolver.satisfiable(premises)


@settings(max_examples=200, deadline=None)
@given(atoms())
def test_atom_self_implication(a):
    assert GswSolver.implies([a], a)


@settings(max_examples=200, deadline=None)
@given(atoms(), assignments)
def test_negation_is_complementary(a, assignment):
    assert a.evaluate(assignment) != a.negate().evaluate(assignment)


@settings(max_examples=300, deadline=None)
@given(atom_lists, assignments)
def test_models_imply_sat_verdict(premises, assignment):
    """A concrete model forces the solver to answer satisfiable."""
    assume(all(a.evaluate(assignment) for a in premises))
    assert GswSolver.satisfiable(premises)


# -- implication by lookup against refutation --------------------------------

NAME = Variable("name", Domain.CATEGORICAL)

#: Integers and quarters: sums stay exact in binary floating point, so
#: the lookup and the refutation see the same numbers.
exact_constants = st.one_of(
    constants, st.integers(-16, 16).map(lambda quarters: quarters / 4)
)


@st.composite
def mixed_atoms(draw):
    """Numeric atoms (``!=`` and self-comparisons included) or categorical ones."""
    if draw(st.integers(0, 5)) == 0:
        return cat_atom(NAME, draw(st.sampled_from(["=", "!="])), draw(st.sampled_from("AB")))
    x = draw(st.sampled_from(VARIABLES))
    op = draw(operators)
    if draw(st.booleans()):
        return atom(x, op, draw(exact_constants))
    return atom(x, op, draw(st.sampled_from(VARIABLES)), draw(exact_constants))


mixed_lists = st.lists(mixed_atoms(), max_size=6)


@settings(max_examples=800, deadline=None)
@given(mixed_lists, mixed_atoms())
def test_lookup_implication_matches_refutation(premises, conclusion):
    """Disequalities, categorical atoms and infeasible premises included."""
    closed = PremiseClosure(premises)
    assert closed.satisfiable == GswSolver.satisfiable(premises)
    assert closed.implies(conclusion) == GswSolver.implies(premises, conclusion)


@settings(max_examples=300, deadline=None)
@given(mixed_lists, mixed_lists)
def test_conjunction_queries_match_refutation(left, right):
    p, q = Conjunction(left), Conjunction(right)
    assert p.satisfiable() == GswSolver.satisfiable(left)
    assert p.implies(q) == GswSolver.implies_all(left, right)
    assert p.conjunction_satisfiable_with(q) == GswSolver.satisfiable(left + right)
    assert p.negation_implies(q) == all(
        GswSolver.implies_all([a.negate()], right) for a in left
    )


# -- the Section 6 ratio rewrite ---------------------------------------------

POSITIVE = AttributeDomains({"price", "vol"})
ATTRIBUTES = [Attr("price", 0), Attr("price", -1), Attr("vol", 0)]
FACTORS = [0.5, 0.9, 0.97, 0.98, 1.0, 1.02, 1.03, 1.1, 2.0]


@st.composite
def ratio_conditions(draw):
    """``x op c*y`` or ``c*x op y`` over positive attributes."""
    x, y = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=2, max_size=2, unique=True))
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "="]))
    scaled = LinearTerm(draw(st.sampled_from(FACTORS)), y, 0.0)
    if draw(st.booleans()):
        return comparison(x, op, scaled)
    return comparison(scaled, op, x)


def positive_assignments(rng, count=300):
    """Rows ``[previous, current]`` with positive values, many of them
    exactly on or next to a factor's boundary."""
    ratios = FACTORS + [1 / f for f in FACTORS]
    for _ in range(count):
        base = rng.uniform(1.0, 100.0)
        values = [base]
        for _ in range(2):
            ratio = rng.choice(ratios) if rng.random() < 0.7 else rng.uniform(0.3, 3.0)
            values.append(base * ratio * rng.choice([1.0, 1.0, 1 - 1e-9, 1 + 1e-9]))
        rng.shuffle(values)
        yield EvalContext(
            [{"price": values[0]}, {"price": values[1], "vol": values[2]}], 1
        )


def holds(conditions, ctx):
    return all(condition.evaluate(ctx) for condition in conditions)


def rewrite(conditions):
    atoms = []
    for condition in conditions:
        atoms += condition.symbolic_atoms(POSITIVE)
    return atoms


@settings(max_examples=300, deadline=None)
@given(st.lists(ratio_conditions(), min_size=1, max_size=4), st.integers(0, 2**32))
def test_ratio_rewrite_unsat_claims_have_no_models(conditions, seed):
    if GswSolver.satisfiable(rewrite(conditions)):
        return
    for ctx in positive_assignments(random.Random(seed)):
        assert not holds(conditions, ctx)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(ratio_conditions(), min_size=1, max_size=3),
    st.lists(ratio_conditions(), min_size=1, max_size=2),
    st.integers(0, 2**32),
)
def test_ratio_rewrite_implication_claims_hold(premises, conclusions, seed):
    premise_atoms, conclusion_atoms = rewrite(premises), rewrite(conclusions)
    claimed = PremiseClosure(premise_atoms).implies_all(conclusion_atoms)
    assert claimed == GswSolver.implies_all(premise_atoms, conclusion_atoms)
    if not claimed:
        return
    for ctx in positive_assignments(random.Random(seed)):
        if holds(premises, ctx):
            assert holds(conclusions, ctx)
