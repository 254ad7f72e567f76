"""Shared fixtures: paper predicates, patterns, datasets, catalogs."""

from __future__ import annotations

import pytest

from repro.data.djia import djia_table
from repro.data.quotes import quote_table
from repro.engine.catalog import Catalog
from repro.engine.table import float_array
from repro.pattern.compiler import compile_pattern
from repro.pattern.predicates import AttributeDomains, col, comparison, predicate
from repro.pattern.spec import PatternElement, PatternSpec

PRICE = col("price")
PREV = PRICE.previous
DOMAINS = AttributeDomains.prices()


def price_predicate(*conditions, label=""):
    """An ElementPredicate over the price attribute with positive domain."""
    return predicate(*conditions, domains=DOMAINS, label=label)


@pytest.fixture(scope="session")
def example4_predicates():
    """The paper's Example 4 predicates p1..p4 (Section 4)."""
    p1 = price_predicate(comparison(PRICE, "<", PREV), label="p1")
    p2 = price_predicate(
        comparison(PRICE, "<", PREV),
        comparison(40, "<", PRICE),
        comparison(PRICE, "<", 50),
        label="p2",
    )
    p3 = price_predicate(
        comparison(PRICE, ">", PREV), comparison(PRICE, "<", 52), label="p3"
    )
    p4 = price_predicate(comparison(PRICE, ">", PREV), label="p4")
    return [p1, p2, p3, p4]


@pytest.fixture(scope="session")
def example4_pattern(example4_predicates):
    """Example 4 as a 4-element star-free PatternSpec (Y, Z, T, U)."""
    names = ["Y", "Z", "T", "U"]
    return PatternSpec(
        [PatternElement(n, p) for n, p in zip(names, example4_predicates)]
    )


@pytest.fixture(scope="session")
def example4_compiled(example4_pattern):
    return compile_pattern(example4_pattern)


@pytest.fixture(scope="session")
def example9_pattern():
    """The paper's Example 9 star pattern (*X, Y, *Z, *T, U, *V, S)."""
    p1 = price_predicate(comparison(PRICE, ">", PREV), label="p1")
    p2 = price_predicate(
        comparison(30, "<", PRICE), comparison(PRICE, "<", 40), label="p2"
    )
    p3 = price_predicate(comparison(PRICE, "<", PREV), label="p3")
    p4 = price_predicate(comparison(PRICE, ">", PREV), label="p4")
    p5 = price_predicate(
        comparison(35, "<", PRICE), comparison(PRICE, "<", 40), label="p5"
    )
    p6 = price_predicate(comparison(PRICE, "<", PREV), label="p6")
    p7 = price_predicate(comparison(PRICE, "<", 30), label="p7")
    return PatternSpec(
        [
            PatternElement("X", p1, star=True),
            PatternElement("Y", p2),
            PatternElement("Z", p3, star=True),
            PatternElement("T", p4, star=True),
            PatternElement("U", p5),
            PatternElement("V", p6, star=True),
            PatternElement("S", p7),
        ]
    )


@pytest.fixture(scope="session")
def example9_compiled(example9_pattern):
    """Example 9 compiled with the paper's literal rule set.

    The equivalence refinement (on by default) legitimately strengthens
    shift(6) from the paper's 3 to 4 — see
    tests/pattern/test_paper_example9.py::TestEquivalenceRefinement — so
    the paper-fidelity assertions pin the unrefined plan.
    """
    return compile_pattern(example9_pattern, use_equivalence=False)


@pytest.fixture(scope="session")
def example9_refined(example9_pattern):
    """Example 9 compiled with the default (refined) rule set."""
    return compile_pattern(example9_pattern)


def price_rows(*prices):
    """Rows with a single price column."""
    return [{"price": float(p)} for p in prices]


class KernelColumns:
    """The kernel columns of a cluster holding ``rows`` in order, for
    ``materialize_kernels`` over rows built in a test: each column is
    decided as a table decides it (``float_array``), and a row without
    the column makes it decline."""

    def __init__(self, rows):
        self.rows = rows
        self._arrays = {}

    def __len__(self):
        return len(self.rows)

    def floats(self, name, np):
        if name not in self._arrays:
            try:
                values = [row[name] for row in self.rows]
            except KeyError:
                self._arrays[name] = None
            else:
                self._arrays[name] = float_array(values, np)
        array = self._arrays[name]
        if array is None:
            raise ValueError(f"column {name!r} is not all float")
        return array


@pytest.fixture(scope="session")
def paper_catalog():
    """A catalog with the quote and synthetic DJIA tables."""
    catalog = Catalog()
    catalog.register(quote_table(days=250, seed=7))
    catalog.register(djia_table())
    return catalog
