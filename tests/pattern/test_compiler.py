"""End-to-end pattern compilation: plan structure and invariants."""

import pytest

from repro.errors import PlanningError
from repro.pattern.compiler import compile_pattern
from repro.pattern.spec import PatternElement, PatternSpec
from repro.pattern.predicates import comparison, true_predicate
from tests.conftest import PREV, PRICE, price_predicate


def spec_of(*defs):
    return PatternSpec(
        [PatternElement(name, pred, star=star) for name, pred, star in defs]
    )


class TestSpecValidation:
    def test_empty_pattern_rejected(self):
        with pytest.raises(PlanningError):
            PatternSpec([])

    def test_duplicate_names_rejected(self):
        p = price_predicate(comparison(PRICE, "<", 5))
        with pytest.raises(PlanningError):
            spec_of(("X", p, False), ("X", p, False))

    def test_element_accessor_is_one_based(self, example4_pattern):
        assert example4_pattern.element(1).name == "Y"
        with pytest.raises(IndexError):
            example4_pattern.element(0)
        with pytest.raises(IndexError):
            example4_pattern.element(5)

    def test_names_and_star(self, example9_pattern):
        assert example9_pattern.names == ("X", "Y", "Z", "T", "U", "V", "S")
        assert example9_pattern.has_star


class TestPlanShape:
    def test_nonstar_plan(self, example4_compiled):
        cp = example4_compiled
        assert not cp.has_star
        assert cp.s_matrix is not None
        assert cp.graph is None
        assert cp.m == 4
        assert cp.stars() == (False,) * 4

    def test_star_plan(self, example9_compiled):
        cp = example9_compiled
        assert cp.has_star
        assert cp.s_matrix is None
        assert cp.graph is not None

    def test_single_element(self):
        cp = compile_pattern(spec_of(("X", price_predicate(comparison(PRICE, "<", 5)), False)))
        assert cp.shift(1) == 1 and cp.next(1) == 0

    def test_single_star_element(self):
        cp = compile_pattern(spec_of(("X", price_predicate(comparison(PRICE, "<", PREV)), True)))
        assert cp.shift(1) == 1 and cp.next(1) == 0

    def test_describe_contains_arrays(self, example4_compiled):
        text = example4_compiled.describe()
        assert "shift: 1 1 1 3" in text
        assert "next:  0 1 2 1" in text
        assert "theta" in text and "phi" in text and "S:" in text


class TestInvariants:
    """Structural invariants every compiled plan must satisfy."""

    def _check(self, cp):
        for j in range(1, cp.m + 1):
            assert 1 <= cp.shift(j) <= j
            if cp.shift(j) == j:
                assert cp.next(j) == 0
            else:
                assert 1 <= cp.next(j) <= j - cp.shift(j) + 1

    def test_paper_patterns(self, example4_compiled, example9_compiled):
        self._check(example4_compiled)
        self._check(example9_compiled)

    def test_true_elements(self):
        cp = compile_pattern(
            spec_of(
                ("A", true_predicate(), False),
                ("B", price_predicate(comparison(PRICE, "<", 5)), False),
                ("C", true_predicate(), False),
            )
        )
        self._check(cp)

    def test_star_free_agreement_with_star_machinery(self, example4_pattern):
        """On a star-free pattern, the Section 5 graph machinery must not
        produce more aggressive shifts than the Section 4 arrays."""
        from repro.pattern.analysis import build_phi, build_theta
        from repro.pattern.star_graph import ImplicationGraph
        from repro.pattern.star_shift_next import compute_star_shift_next

        section4 = compile_pattern(example4_pattern)
        theta = build_theta(example4_pattern)
        phi = build_phi(example4_pattern)
        graph = ImplicationGraph(theta, phi, [False] * 4)
        section5 = compute_star_shift_next(graph)
        for j in range(1, 5):
            assert section5.shift[j] == section4.shift(j)
            # next may be one smaller (the graph walk stops at j - shift
            # where the S = 1 case reaches j - shift + 1), never bigger.
            assert section5.next_[j] <= section4.next(j)


class TestSharedPlans:
    """Conjunctions cache their closures lazily; a plan is shared by
    every thread that runs it, so threads may race to fill those caches."""

    QUERY = (
        "SELECT X.date FROM quote CLUSTER BY name SEQUENCE BY date "
        "AS (X, Y, Z, *T) WHERE X.price > 1.02 * X.previous.price "
        "AND 0.98 * Y.previous.price < Y.price AND Y.price < 1.01 * Y.previous.price "
        "AND Z.price < Z.previous.price AND Z.price > 0.9 * X.price "
        "AND T.price = 50 AND T.name != 'IBM'"
    )

    def fresh_spec(self):
        from repro.pattern.predicates import AttributeDomains
        from repro.sqlts.parser import parse_query
        from repro.sqlts.semantic import analyze

        return analyze(parse_query(self.QUERY), AttributeDomains.prices()).spec

    def test_racing_threads_build_the_serial_plan(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        expected = compile_pattern(self.fresh_spec()).describe()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                for _ in range(10):
                    spec = self.fresh_spec()
                    plans = pool.map(
                        lambda _: compile_pattern(spec).describe(), range(16)
                    )
                    assert list(plans) == [expected] * 16
        finally:
            sys.setswitchinterval(interval)
