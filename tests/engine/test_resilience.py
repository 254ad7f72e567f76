"""The resilience layer: policies, limits, budgets, graceful degradation."""

from __future__ import annotations

import pytest

from repro.engine.catalog import Catalog
from repro.engine.cluster import clusters_of
from repro.engine.executor import Executor
from repro.engine.table import Schema, Table
from repro.errors import LimitExceeded, PlanningError
from repro.match.backtracking import BacktrackingMatcher
from repro.match.naive import NaiveMatcher
from repro.match.ops import OpsMatcher
from repro.match.ops_star import OpsStarMatcher
from repro.match.streaming import OpsStreamMatcher
from repro.obs import Trace
from repro.pattern.compiler import compile_pattern, degraded_pattern
from repro.pattern.predicates import ElementPredicate, ResidualCondition, comparison
from repro.pattern.spec import PatternElement, PatternSpec
from repro.resilience import (
    Budget,
    Diagnostics,
    ErrorPolicy,
    ResourceLimits,
)
from tests.conftest import PREV, PRICE, price_predicate

RISE = price_predicate(comparison(PRICE, ">", PREV))
FALL = price_predicate(comparison(PRICE, "<", PREV))


def price_rows(*prices):
    return [{"price": float(p)} for p in prices]


def rise_fall_pattern(star_fall=False):
    return compile_pattern(
        PatternSpec(
            [
                PatternElement("A", RISE),
                PatternElement("B", FALL, star=star_fall),
            ]
        )
    )


#: Alternating up/down prices — a match every two rows.
ZIGZAG = price_rows(*(10 + (i % 2) for i in range(40)))


class FakeClock:
    """A controllable monotonic clock: advances by ``tick`` per call."""

    def __init__(self, tick: float = 0.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


class TestErrorPolicy:
    def test_coerce_string(self):
        assert ErrorPolicy.coerce("skip") is ErrorPolicy.SKIP
        assert ErrorPolicy.coerce("RAISE") is ErrorPolicy.RAISE
        assert ErrorPolicy.coerce(ErrorPolicy.COLLECT) is ErrorPolicy.COLLECT

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown error policy"):
            ErrorPolicy.coerce("explode")

    def test_lenient(self):
        assert not ErrorPolicy.RAISE.lenient
        assert ErrorPolicy.SKIP.lenient and ErrorPolicy.COLLECT.lenient


class TestResourceLimits:
    def test_defaults_unbounded(self):
        limits = ResourceLimits()
        assert not limits.bounded

    def test_bounded_when_any_set(self):
        assert ResourceLimits(max_matches=5).bounded
        assert ResourceLimits(wall_clock_deadline=0.5).bounded
        assert ResourceLimits(max_stream_buffer=64).bounded

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceLimits(max_matches=-1)
        with pytest.raises(ValueError):
            ResourceLimits(wall_clock_deadline=-0.1)

    @pytest.mark.parametrize(
        "name",
        ["max_matches", "max_rows_scanned", "wall_clock_deadline",
         "max_stream_buffer"],
    )
    def test_nan_rejected(self, name):
        # NaN passes a ``< 0`` check, and no clock ever exceeds a NaN
        # deadline: it would silently mean "no limit".
        with pytest.raises(ValueError, match=f"{name} must be non-negative"):
            ResourceLimits(**{name: float("nan")})

    def test_bool_rejected(self):
        # True passes ``>= 0`` and would mean 1: a JSON ``true`` in a
        # request or --quota-json is no limit a caller means.
        for name in ("max_matches", "max_rows_scanned", "wall_clock_deadline",
                     "max_stream_buffer"):
            for value in (True, False):
                with pytest.raises(ValueError, match=f"{name} must be a number"):
                    ResourceLimits(**{name: value})


class TestDiagnostics:
    def test_clean_by_default(self):
        assert Diagnostics().ok

    def test_quarantine_and_summary(self):
        diag = Diagnostics()
        diag.quarantine("data.csv", 7, "bad date", ("x", "y"))
        diag.warn("something odd")
        diag.record_limit("max_matches (3) reached")
        assert not diag.ok
        assert diag.limit_hit
        text = diag.summary()
        assert "data.csv:7: bad date" in text
        assert "warning: something odd" in text
        assert "limit exceeded: max_matches" in text

    def test_merge(self):
        a, b = Diagnostics(), Diagnostics()
        b.quarantine("f", 1, "r")
        b.record_downgrade("fell back")
        a.merge(b)
        assert len(a.quarantined) == 1 and a.degraded


class TestBudget:
    def test_deadline_trips_via_step(self):
        clock = FakeClock(tick=0.01)
        budget = Budget(
            ResourceLimits(wall_clock_deadline=0.5), clock=clock, check_every=4
        )
        steps = 0
        while not budget.step():
            steps += 1
            assert steps < 10_000
        assert "wall_clock_deadline" in budget.tripped

    def test_step_is_cheap_between_checks(self):
        calls = []

        def clock():
            calls.append(None)
            return 0.0

        budget = Budget(
            ResourceLimits(wall_clock_deadline=10.0), clock=clock, check_every=100
        )
        baseline = len(calls)  # one call from the constructor
        for _ in range(99):
            budget.step()
        assert len(calls) == baseline
        budget.step()
        assert len(calls) == baseline + 1

    def test_match_cap_keeps_the_capping_match(self):
        budget = Budget(ResourceLimits(max_matches=2))
        assert not budget.add_match()
        assert budget.add_match()  # the second match trips but is kept
        assert budget.matches == 2

    def test_zero_match_cap_yields_nothing(self):
        budget = Budget(ResourceLimits(max_matches=0))
        assert budget.tripped is not None  # tripped up front, no work done

    def test_rows_cap(self):
        budget = Budget(ResourceLimits(max_rows_scanned=100))
        assert not budget.add_rows(100)
        assert budget.add_rows(1)
        assert "max_rows_scanned" in budget.tripped

    def test_trip_records_diagnostic_once(self):
        diag = Diagnostics()
        budget = Budget(ResourceLimits(max_matches=1), diag)
        budget.trip("reason")
        budget.trip("other")
        assert diag.limits_hit == ["reason"]


class TestMatcherBudgets:
    """Every matcher stops at the cap and returns partial results."""

    @pytest.mark.parametrize(
        "matcher",
        [NaiveMatcher(), OpsStarMatcher(), BacktrackingMatcher(), OpsMatcher()],
        ids=["naive", "ops-star", "backtracking", "ops-nonstar"],
    )
    def test_max_matches_partial(self, matcher):
        pattern = rise_fall_pattern()
        unlimited = matcher.find_matches(ZIGZAG, pattern)
        assert len(unlimited) > 3
        budget = Budget(ResourceLimits(max_matches=3))
        limited = matcher.find_matches(ZIGZAG, pattern, budget=budget)
        assert limited == unlimited[:3]
        assert "max_matches" in budget.tripped

    @pytest.mark.parametrize(
        "matcher",
        [NaiveMatcher(), OpsStarMatcher(), BacktrackingMatcher(), OpsMatcher()],
        ids=["naive", "ops-star", "backtracking", "ops-nonstar"],
    )
    def test_deadline_stops_scan(self, matcher):
        pattern = rise_fall_pattern()
        clock = FakeClock(tick=1.0)  # deadline passes on the first check
        budget = Budget(
            ResourceLimits(wall_clock_deadline=0.5), clock=clock, check_every=1
        )
        partial = matcher.find_matches(ZIGZAG, pattern, budget=budget)
        assert budget.tripped is not None
        assert len(partial) < len(matcher.find_matches(ZIGZAG, pattern))

    def test_star_pattern_budget(self):
        pattern = rise_fall_pattern(star_fall=True)
        rows = price_rows(*(10 + (i % 5) for i in range(50)))
        budget = Budget(ResourceLimits(max_matches=2))
        matches = OpsStarMatcher().find_matches(rows, pattern, budget=budget)
        assert len(matches) == 2


class TestStreamingBufferCap:
    def opaque_pattern(self):
        # A residual condition defeats static offset bounding, so the
        # stream matcher cannot trim its look-back window.
        residual = ElementPredicate(
            [ResidualCondition(lambda ctx: True, "always")]
        )
        return compile_pattern(
            PatternSpec(
                [
                    PatternElement("A", residual),
                    PatternElement("B", price_predicate(comparison(PRICE, "<", 0))),
                ]
            )
        )

    def test_opaque_pattern_overflows(self):
        matcher = OpsStreamMatcher(
            self.opaque_pattern(),
            limits=ResourceLimits(max_stream_buffer=8),
        )
        with pytest.raises(LimitExceeded) as excinfo:
            for price in range(100):
                matcher.push({"price": float(price)})
        assert excinfo.value.reason == "max_stream_buffer"
        assert matcher.diagnostics.limit_hit

    def test_restart_overflow_bounds_buffer(self):
        matcher = OpsStreamMatcher(
            self.opaque_pattern(),
            limits=ResourceLimits(max_stream_buffer=8),
            overflow="restart",
        )
        for price in range(100):
            matcher.push({"price": float(price)})
        assert matcher.buffered_rows <= 8
        assert matcher.diagnostics.limit_hit
        assert matcher.diagnostics.warnings

    def test_restart_still_finds_later_matches(self):
        # Pattern: a fall; matches keep appearing after overflow restarts.
        pattern = compile_pattern(
            PatternSpec(
                [
                    PatternElement(
                        "A",
                        ElementPredicate(
                            [ResidualCondition(lambda ctx: True, "always")]
                        ),
                    ),
                    PatternElement("B", FALL),
                ]
            )
        )
        matcher = OpsStreamMatcher(
            pattern,
            limits=ResourceLimits(max_stream_buffer=4),
            overflow="restart",
        )
        emitted = []
        for price in (1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1):
            emitted.extend(matcher.push({"price": float(price)}))
        emitted.extend(matcher.finish())
        assert emitted  # overflow restarts did not silence the stream
        assert matcher.buffered_rows <= 4

    def test_bounded_patterns_unaffected(self):
        pattern = rise_fall_pattern()
        matcher = OpsStreamMatcher(
            pattern, limits=ResourceLimits(max_stream_buffer=8)
        )
        for row in ZIGZAG:
            matcher.push(row)
        matches = matcher.matches + matcher.finish()
        assert matches == OpsStarMatcher().find_matches(ZIGZAG, pattern)

    def test_deadline_quiesces_push(self):
        pattern = rise_fall_pattern()
        matcher = OpsStreamMatcher(
            pattern, limits=ResourceLimits(wall_clock_deadline=0.5)
        )
        # Force immediate expiry: a fake clock already past the deadline,
        # consulted on every step.
        matcher._budget._clock = FakeClock(tick=1.0)
        matcher._budget._deadline = 0.5
        matcher._budget._stride = 1
        matcher._budget._countdown = 1
        for row in ZIGZAG:
            matcher.push(row)
        assert matcher.tripped is not None
        assert len(matcher.matches) < len(
            OpsStarMatcher().find_matches(ZIGZAG, pattern)
        )


def quote_table(rows):
    table = Table("quote", Schema([("name", "str"), ("day", "int"), ("price", "float")]))
    table.insert_many(rows)
    return table


def quote_row(name, day, price):
    return {"name": name, "day": day, "price": float(price)}


class TestClusterIntegrity:
    def shuffled_rows(self):
        return [
            quote_row("IBM", day, price)
            for day, price in [(3, 12.0), (1, 10.0), (2, 11.0)]
        ]

    def test_strict_policy_sorts_silently(self):
        diag = Diagnostics()
        table = quote_table(self.shuffled_rows())
        [(_, rows)] = clusters_of(
            table, ["name"], ["day"], policy="raise", diagnostics=diag
        )
        assert [row["day"] for row in rows] == [1, 2, 3]
        assert diag.ok

    def test_lenient_policy_warns_on_out_of_order(self):
        diag = Diagnostics()
        table = quote_table(self.shuffled_rows())
        [(_, rows)] = clusters_of(
            table, ["name"], ["day"], policy="collect", diagnostics=diag
        )
        assert [row["day"] for row in rows] == [1, 2, 3]
        assert any("out of order" in warning for warning in diag.warnings)

    def test_skip_drops_duplicate_keys(self):
        diag = Diagnostics()
        table = quote_table(
            [
                quote_row("IBM", 1, 10.0),
                quote_row("IBM", 2, 11.0),
                quote_row("IBM", 2, 99.0),
            ]
        )
        [(_, rows)] = clusters_of(
            table, ["name"], ["day"], policy="skip", diagnostics=diag
        )
        assert [row["price"] for row in rows] == [10.0, 11.0]  # first kept
        assert len(diag.quarantined) == 1
        assert "duplicate SEQUENCE BY key" in diag.quarantined[0].reason

    def test_collect_keeps_duplicates_with_warning(self):
        diag = Diagnostics()
        table = quote_table(
            [
                quote_row("IBM", 1, 10.0),
                quote_row("IBM", 1, 11.0),
            ]
        )
        [(_, rows)] = clusters_of(
            table, ["name"], ["day"], policy="collect", diagnostics=diag
        )
        assert len(rows) == 2
        assert any("duplicate" in warning for warning in diag.warnings)


STAR_QUERY = (
    "SELECT X.day FROM quote CLUSTER BY name SEQUENCE BY day "
    "AS (X, *Y, Z) "
    "WHERE Y.price < Y.previous.price AND Z.price > Z.previous.price"
)


def sawtooth_catalog(names=("IBM",)):
    prices = [10, 12, 11, 10, 9, 13, 12, 10, 14, 13, 15]
    return Catalog(
        [
            quote_table(
                [
                    quote_row(name, day, p)
                    for name in names
                    for day, p in enumerate(prices)
                ]
            )
        ]
    )


class TestGracefulDegradation:
    def test_strict_policy_still_raises(self):
        executor = Executor(sawtooth_catalog(), matcher="ops-nonstar")
        with pytest.raises(PlanningError):
            executor.execute(STAR_QUERY)

    def test_matcher_mismatch_falls_back(self):
        catalog = sawtooth_catalog(("IBM", "ACME", "INTC"))
        degraded = Executor(catalog, matcher="ops-nonstar", policy="collect")
        result, report = degraded.execute_with_report(STAR_QUERY)
        reference = Executor(catalog, matcher="naive").execute(STAR_QUERY)
        assert result.rows == reference.rows
        assert report.degraded and report.matcher == "naive"
        # The first cluster finds the mismatch; the rest start on naive.
        [downgrade] = result.diagnostics.downgrades
        assert "falling back" in downgrade

    def test_raise_surfaces_the_first_failing_cluster(self):
        def error(corrupt):
            # Corrupt after insert: schema validation passes, and the
            # matcher meets the bad cell in the middle of its cluster.
            catalog = sawtooth_catalog(("IBM", "ACME", "INTC"))
            for row in catalog.table("quote"):
                if row["day"] == 5 and row["name"] in corrupt:
                    row["price"] = corrupt[row["name"]]
            with pytest.raises(TypeError) as info:
                Executor(catalog, matcher="naive").execute(STAR_QUERY)
            return str(info.value)

        first = error({"ACME": "bogus"})
        assert error({"INTC": None}) != first
        assert error({"ACME": "bogus", "INTC": None}) == first

    def test_compile_failure_falls_back(self, monkeypatch):
        def broken_compile(spec, use_equivalence=True, codegen=True):
            raise PlanningError("synthetic compile failure")

        monkeypatch.setattr(
            "repro.engine.executor.compile_pattern", broken_compile
        )
        catalog = sawtooth_catalog()
        executor = Executor(catalog, policy="skip")
        result, report = executor.execute_with_report(STAR_QUERY)
        monkeypatch.undo()
        reference = Executor(catalog, matcher="naive").execute(STAR_QUERY)
        assert result.rows == reference.rows
        assert report.pattern.degraded
        assert report.matcher == "naive"
        assert any("OPS compilation failed" in d for d in result.diagnostics.downgrades)

    def test_compile_failure_raises_under_strict(self, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.executor.compile_pattern",
            lambda spec, use_equivalence=True, codegen=True: (_ for _ in ()).throw(
                PlanningError("synthetic")
            ),
        )
        executor = Executor(sawtooth_catalog())
        with pytest.raises(PlanningError):
            executor.execute(STAR_QUERY)

    def test_degraded_pattern_shape(self):
        spec = PatternSpec(
            [PatternElement("A", RISE), PatternElement("B", FALL, star=True)]
        )
        plan = degraded_pattern(spec)
        assert plan.degraded and plan.m == 2
        assert plan.shift_next.shift == (0, 1, 2)
        assert plan.shift_next.next_ == (0, 0, 0)


class TestExecutorLimits:
    def test_max_matches_truncates(self):
        catalog = sawtooth_catalog()
        full = Executor(catalog).execute(STAR_QUERY)
        assert len(full) >= 2
        limited = Executor(
            catalog, limits=ResourceLimits(max_matches=1)
        ).execute(STAR_QUERY)
        assert limited.rows == full.rows[:1]
        assert limited.diagnostics.limits_hit == ["max_matches (1) reached"]

    def test_max_rows_scanned_skips_clusters(self):
        table = quote_table(
            [quote_row(name, day, 10 + day % 3) for name in ("A", "B", "C") for day in range(10)]
        )
        catalog = Catalog([table])
        result, report = Executor(
            catalog, limits=ResourceLimits(max_rows_scanned=15)
        ).execute_with_report(
            "SELECT X.day FROM quote CLUSTER BY name SEQUENCE BY day "
            "AS (X, Y) WHERE Y.price > X.price"
        )
        assert report.rows_scanned <= 15
        assert result.diagnostics.limit_hit

    def test_unlimited_execution_is_clean(self):
        result, report = Executor(sawtooth_catalog()).execute_with_report(STAR_QUERY)
        assert result.diagnostics.ok
        assert not report.limit_hit


class TestAccountingAgreement:
    """Regression: budget and report row accounting must agree."""

    def test_add_rows_rejects_the_overflowing_batch(self):
        # Check-then-charge: the batch that would exceed the limit trips
        # the budget and is NOT charged (the caller skips it).  The old
        # charge-then-check order left rows_scanned at 20 here while the
        # executor's report counted 10.
        budget = Budget(ResourceLimits(max_rows_scanned=15))
        assert not budget.add_rows(10)
        assert budget.add_rows(10)
        assert budget.rows_scanned == 10
        assert "max_rows_scanned" in budget.tripped

    def test_report_rows_scanned_counts_whole_clusters(self):
        table = quote_table(
            [
                quote_row(name, day, 10 + day % 3)
                for name in ("A", "B", "C")
                for day in range(10)
            ]
        )
        result, report = Executor(
            Catalog([table]), limits=ResourceLimits(max_rows_scanned=15)
        ).execute_with_report(
            "SELECT X.day FROM quote CLUSTER BY name SEQUENCE BY day "
            "AS (X, Y) WHERE Y.price > X.price"
        )
        # One 10-row cluster fits under the 15-row cap; the second is
        # rejected whole.  Report and budget agree on exactly 10.
        assert report.rows_scanned == 10
        assert result.diagnostics.limit_hit


class TestExecuteWrapperPassthrough:
    """Regression: the one-shot execute() forwards fallback and codegen."""

    def test_fallback_none_disables_degradation(self):
        from repro.engine.executor import execute

        with pytest.raises(PlanningError):
            execute(
                STAR_QUERY,
                sawtooth_catalog(),
                matcher="ops-nonstar",
                policy="collect",
                fallback=None,
            )

    def test_fallback_choice_is_forwarded(self):
        from repro.engine.executor import execute

        result = execute(
            STAR_QUERY,
            sawtooth_catalog(),
            matcher="ops-nonstar",
            policy="collect",
            fallback="backtracking",
        )
        assert len(result) >= 2

    def test_codegen_flag_is_forwarded(self):
        from repro.engine.executor import execute

        fast = execute(STAR_QUERY, sawtooth_catalog())
        interpreted = execute(STAR_QUERY, sawtooth_catalog(), codegen=False)
        assert fast.rows == interpreted.rows


class TestMatcherNameNormalization:
    """Regression: instance-passed matchers report their registry key."""

    def test_instance_normalizes_to_registry_key(self):
        _, report = Executor(
            sawtooth_catalog(), matcher=OpsStarMatcher()
        ).execute_with_report(STAR_QUERY)
        assert report.matcher == "ops"

    def test_configured_instance_keeps_its_key(self):
        result, report = Executor(
            sawtooth_catalog(), matcher=NaiveMatcher(overlapping=True)
        ).execute_with_report(STAR_QUERY)
        assert report.matcher == "naive"
        # The search runs on the configured instance, not on a fresh one
        # built from its key: overlapping search finds more.
        default = Executor(sawtooth_catalog(), matcher="naive").execute(STAR_QUERY)
        assert len(result.rows) > len(default.rows)

    def test_subclass_keeps_its_own_name(self):
        from repro.engine.executor import resolve_matcher

        class TracingMatcher(NaiveMatcher):
            pass

        name, matcher = resolve_matcher(TracingMatcher())
        assert name == "TracingMatcher"
        assert isinstance(matcher, TracingMatcher)
        # It runs under the caller's limits, cancel hook and trace.
        executor = Executor(sawtooth_catalog(), matcher=matcher)
        calls = []
        traced = executor.execute(
            STAR_QUERY, cancel=lambda: calls.append(1), trace=Trace()
        )
        assert calls and traced.profile.matcher == "TracingMatcher"
        reference = Executor(sawtooth_catalog(), matcher="naive").execute(STAR_QUERY)
        assert traced.rows == reference.rows
        expired = executor.execute(
            STAR_QUERY, limits=ResourceLimits(wall_clock_deadline=0.0)
        )
        assert expired.rows == () and expired.diagnostics.limit_hit
