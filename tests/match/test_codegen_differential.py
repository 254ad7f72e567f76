"""Differential testing: compiled fast path vs. interpreted oracle.

Satellite of the codegen PR: every example query from the paper and a
battery of planted / random-walk workloads run through both evaluation
paths on every matcher, and everything observable must be identical —
matches, SELECT projections (including off-end NULLs), error behaviour,
and the paper's own metric, the predicate-test count (instrumentation is
recorded before dispatch, so the counts are path-independent by
construction; these tests pin that down).
"""

import dataclasses

import pytest

from repro.data.djia import djia_table
from repro.data.planted import plant_double_bottoms
from repro.data.quotes import quote_table
from repro.data.random_walk import geometric_walk, regime_switching_walk
from repro.data.workloads import ALL_EXAMPLES, EXAMPLE_10
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.table import Schema, Table
from repro.errors import ExecutionError
from repro.match.backtracking import BacktrackingMatcher
from repro.match.base import Instrumentation
from repro.match.naive import NaiveMatcher
from repro.match.ops import OpsMatcher
from repro.match.ops_star import OpsStarMatcher
from repro.pattern.predicates import AttributeDomains

MATCHER_NAMES = ["naive", "backtracking", "ops"]


def paper_catalog():
    return Catalog([quote_table(days=250, seed=7), djia_table()])


def run_both(query, matcher_name, catalog=None):
    """Execute one query on both paths; return the two (result, report,
    tests) triples after asserting they agree."""
    catalog = catalog or paper_catalog()
    outcomes = []
    for codegen in (True, False):
        executor = Executor(
            catalog,
            domains=AttributeDomains.prices(),
            matcher=matcher_name,
            codegen=codegen,
        )
        instrumentation = Instrumentation()
        result, report = executor.execute_with_report(query, instrumentation)
        outcomes.append((result, report, instrumentation.tests))
    (fast, fast_report, fast_tests), (oracle, oracle_report, oracle_tests) = outcomes
    assert fast.columns == oracle.columns
    assert fast.rows == oracle.rows
    assert fast_report.matches == oracle_report.matches
    assert fast_tests == oracle_tests
    return outcomes


class TestExampleQueries:
    @pytest.mark.parametrize("matcher_name", MATCHER_NAMES)
    @pytest.mark.parametrize("example", sorted(ALL_EXAMPLES))
    def test_examples_identical_on_both_paths(self, example, matcher_name):
        run_both(ALL_EXAMPLES[example], matcher_name)

    @pytest.mark.parametrize("example", ["example_1", "example_3", "example_4"])
    def test_star_free_examples_on_ops_nonstar(self, example):
        run_both(ALL_EXAMPLES[example], "ops-nonstar")


def price_rows(prices):
    return [{"price": float(p), "date": i} for i, p in enumerate(prices)]


def double_bottom_pattern():
    executor = Executor(
        Catalog([djia_table()]), domains=AttributeDomains.prices()
    )
    _, compiled = executor.prepare(EXAMPLE_10)
    return compiled


ALL_MATCHERS = [
    ("naive", NaiveMatcher()),
    ("backtracking", BacktrackingMatcher()),
    ("ops", OpsStarMatcher()),
]


class TestGeneratedWorkloads:
    """Pattern-level differential runs on synthetic series."""

    def assert_matcher_parity(self, matcher, rows, compiled):
        interpreted = dataclasses.replace(compiled, use_codegen=False)
        fast_inst, oracle_inst = Instrumentation(), Instrumentation()
        fast = matcher.find_matches(rows, compiled, fast_inst)
        oracle = matcher.find_matches(rows, interpreted, oracle_inst)
        assert fast == oracle
        assert fast_inst.tests == oracle_inst.tests

    @pytest.mark.parametrize("name,matcher", ALL_MATCHERS)
    def test_planted_double_bottoms(self, name, matcher):
        prices, anchors = plant_double_bottoms(400, [25, 140, 300], seed=11)
        compiled = double_bottom_pattern()
        self.assert_matcher_parity(matcher, price_rows(prices), compiled)
        # Sanity: the planted occurrences are actually found.
        matches = matcher.find_matches(price_rows(prices), compiled)
        assert len(matches) == len(anchors)

    @pytest.mark.parametrize("name,matcher", ALL_MATCHERS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_geometric_walks(self, name, matcher, seed):
        prices = geometric_walk(500, seed=seed, shock_probability=0.05)
        self.assert_matcher_parity(
            matcher, price_rows(prices), double_bottom_pattern()
        )

    @pytest.mark.parametrize("name,matcher", ALL_MATCHERS)
    def test_regime_switching_walk(self, name, matcher):
        prices = regime_switching_walk(500, seed=3)
        self.assert_matcher_parity(
            matcher, price_rows(prices), double_bottom_pattern()
        )

    def test_star_free_pattern_on_ops_nonstar(self):
        catalog = paper_catalog()
        executor = Executor(catalog, domains=AttributeDomains.prices())
        _, compiled = executor.prepare(ALL_EXAMPLES["example_1"])
        assert not compiled.has_star
        prices = geometric_walk(500, seed=4, shock_probability=0.08)
        self.assert_matcher_parity(OpsMatcher(), price_rows(prices), compiled)


def tiny_catalog(prices):
    table = Table(
        "quote", Schema([("name", "str"), ("day", "int"), ("price", "float")])
    )
    table.insert_many(
        {"name": "IBM", "day": day, "price": float(p)}
        for day, p in enumerate(prices)
    )
    return Catalog([table])


class TestProjectionParity:
    def test_off_end_projections_are_null_on_both_paths(self):
        # The only match spans the whole table: X.previous and Y.NEXT
        # both navigate off the end and must project NULL identically.
        query = (
            "SELECT X.previous.price, Y.NEXT.price FROM quote "
            "CLUSTER BY name SEQUENCE BY day AS (X, Y) "
            "WHERE Y.price > X.price"
        )
        catalog = tiny_catalog([10, 12])
        for matcher_name in MATCHER_NAMES:
            (fast, _, _), _ = run_both(query, matcher_name, catalog=catalog)
            assert list(fast.rows) == [(None, None)]

    def test_division_by_zero_raises_identically(self):
        query = (
            "SELECT X.day FROM quote CLUSTER BY name SEQUENCE BY day "
            "AS (X, Y) WHERE Y.price / 0 > 1"
        )
        catalog = tiny_catalog([10, 12, 11])
        errors = []
        for codegen in (True, False):
            executor = Executor(catalog, codegen=codegen)
            with pytest.raises(ExecutionError) as info:
                executor.execute(query)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert "division by zero" in errors[0]

    # The lowered SELECT (row gathers over a match's boundaries) against
    # the interpreted oracle (evaluate_expr over Match.spans).  The data
    # below hold two matches of (X, *Y, Z): X=0, Y=1..3, Z=4 and X=5,
    # Y=6..7, Z=8, the second one ending on the last row.
    STARRED = (
        "FROM quote CLUSTER BY name SEQUENCE BY day AS (X, *Y, Z) "
        "WHERE Y.price < Y.previous.price AND Z.price > Z.previous.price"
    )
    STARRED_PRICES = [10, 9, 8, 7, 9, 8, 6, 5, 10]

    def assert_rows_on_both_paths(self, select, expected):
        catalog = tiny_catalog(self.STARRED_PRICES)
        for matcher_name in MATCHER_NAMES:
            (fast, _, _), _ = run_both(
                f"SELECT {select} {self.STARRED}", matcher_name, catalog=catalog
            )
            assert list(fast.rows) == expected

    def test_bare_first_and_last_on_a_starred_variable(self):
        self.assert_rows_on_both_paths(
            "Y.day, FIRST(Y).day, LAST(Y).day, LAST(Y).price, X.day, Z.day",
            [(1, 1, 3, 7.0, 0, 4), (6, 6, 7, 5.0, 5, 8)],
        )

    def test_navigation_chains_off_both_ends_are_null(self):
        self.assert_rows_on_both_paths(
            "X.previous.day, X.previous.previous.day, X.previous.NEXT.day, "
            "LAST(Y).NEXT.NEXT.day, Z.NEXT.day, Z.NEXT.previous.day, "
            "FIRST(Y).previous.previous.previous.day",
            [(None, None, 0, 5, 5, 4, None), (4, 3, 5, None, None, 8, 3)],
        )

    def test_arithmetic_negation_and_literal_items(self):
        self.assert_rows_on_both_paths(
            "-X.price, X.price * 2 + 1, (LAST(Y).price - X.price) / X.price, "
            "3, 'tag', Z.NEXT.price - 1, -(Z.NEXT.price)",
            [
                (-10.0, 21.0, -0.3, 3.0, "tag", 7.0, -8.0),
                (-8.0, 17.0, -0.375, 3.0, "tag", None, None),
            ],
        )

    def error_on_both_paths(self, query, prices):
        catalog = tiny_catalog(prices)
        messages = set()
        for matcher_name in MATCHER_NAMES:
            for codegen in (True, False):
                executor = Executor(catalog, matcher=matcher_name, codegen=codegen)
                with pytest.raises(ExecutionError) as info:
                    executor.execute(query)
                messages.add(str(info.value))
        assert len(messages) == 1
        return messages.pop()

    RISING = (
        "FROM quote CLUSTER BY name SEQUENCE BY day AS (X, Y) "
        "WHERE Y.price > X.price"
    )

    def test_unknown_attribute_raises_identically(self):
        message = self.error_on_both_paths(
            f"SELECT X.day, X.nosuch {self.RISING}", [10, 12, 11, 13]
        )
        assert message == "unknown attribute 'nosuch'"

    def test_arithmetic_on_a_string_raises_identically(self):
        message = self.error_on_both_paths(
            f"SELECT X.name + 1 {self.RISING}", [10, 12, 11, 13]
        )
        assert message == "arithmetic on non-numeric value 'IBM'"

    def test_first_error_is_in_match_then_item_order(self):
        # Match 1 (X=0): item 1 navigates off the start (NULL, no error),
        # so item 2 raises first.  Item 1 would only raise at match 2.
        message = self.error_on_both_paths(
            f"SELECT X.previous.name + 1, X.nosuch {self.RISING}",
            [10, 12, 11, 13],
        )
        assert message == "unknown attribute 'nosuch'"

    def test_stream_projection_matches_batch_on_both_paths(self):
        # A stream has no rows past the newest one, so the items stay
        # inside or before the match.
        select = (
            "SELECT X.previous.day, FIRST(Y).day, LAST(Y).day, "
            "Z.previous.previous.day, -X.price FROM quote SEQUENCE BY day "
            "AS (X, *Y, Z) "
            "WHERE Y.price < Y.previous.price AND Z.price > Z.previous.price"
        )
        catalog = tiny_catalog(self.STARRED_PRICES)
        rows = list(catalog.table("quote").rows)

        def source(start):
            return ((offset, row) for offset, row in enumerate(rows) if offset >= start)

        outputs = []
        for codegen in (True, False):
            executor = Executor(catalog, codegen=codegen)
            outputs.append(list(executor.stream(select, source).rows))
            outputs.append(list(executor.execute(select).rows))
        assert outputs[0] == [(None, 1, 3, 2, -10.0), (4, 6, 7, 6, -8.0)]
        assert all(output == outputs[0] for output in outputs)

    @pytest.mark.parametrize("lowered", [True, False], ids=["lowered", "interpreted"])
    def test_trimmed_window_reads_are_null_with_one_warning(self, lowered):
        # A stream-buffer restart can leave a pending match pointing at
        # rows the window already dropped: those items project NULL, and
        # the stream warns once.
        from types import SimpleNamespace

        from repro.engine.executor import _stream_rows
        from repro.match.base import Match
        from repro.match.streaming import _Window
        from repro.resilience import Diagnostics

        analyzed, _ = Executor(tiny_catalog([1])).prepare(
            "SELECT X.previous.day, X.day FROM quote SEQUENCE BY day AS (X, Y) "
            "WHERE Y.price > X.price"
        )
        window = _Window()
        for day in range(7):
            window.append({"day": day, "price": float(day)})
        window.trim_before(3)
        matches = [
            Match.from_bounds(bounds, ("X", "Y"))
            for bounds in ((1, 2, 3), (3, 4, 5), (4, 5, 6))
        ]
        runner = SimpleNamespace(
            run=lambda resume: ((0, match) for match in matches),
            matcher=SimpleNamespace(window=window),
            diagnostics=Diagnostics(),
        )
        rows = list(_stream_rows(runner, analyzed, False, lowered))
        assert rows == [(2, (None, None)), (4, (None, 3)), (5, (3, 4))]
        assert len(runner.diagnostics.warnings) == 1
        assert "trimmed window position" in runner.diagnostics.warnings[0]
