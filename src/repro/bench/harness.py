"""Run matchers side by side and collect the paper's metric.

"In order to measure performance, we count the number of times that an
element of input is tested against a pattern element" (Section 7).  The
harness runs the same workload under several matchers, records those
counts, and — crucially — asserts that every matcher produced the same
matches, so a speedup can never silently come from dropping answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from repro.engine.catalog import Catalog
from repro.engine.executor import Executor, resolve_matcher
from repro.engine.result import Result
from repro.errors import ExecutionError
from repro.match.base import Instrumentation, Match, Matcher
from repro.pattern.compiler import CompiledPattern
from repro.pattern.predicates import AttributeDomains


@dataclass(frozen=True)
class MatcherRun:
    """One matcher's outcome on one workload."""

    name: str
    predicate_tests: int
    matches: int
    result: Optional[Result] = None

    def speedup_over(self, other: "MatcherRun") -> float:
        """How many times fewer tests this run needed than ``other``."""
        if self.predicate_tests == 0:
            return float("inf")
        return other.predicate_tests / self.predicate_tests


def compare_matchers(
    catalog: Catalog,
    sql: str,
    matchers: Sequence[Union[str, Matcher]] = ("naive", "ops"),
    domains: Optional[AttributeDomains] = None,
    require_identical: bool = True,
) -> dict[str, MatcherRun]:
    """Execute one SQL-TS query under each matcher; return runs by name."""
    runs: dict[str, MatcherRun] = {}
    reference: Optional[Result] = None
    for entry in matchers:
        name, matcher = resolve_matcher(entry)
        instrumentation = Instrumentation()
        result = Executor(catalog, domains=domains, matcher=matcher).execute(
            sql, instrumentation
        )
        if require_identical:
            if reference is None:
                reference = result
            elif result != reference:
                raise AssertionError(
                    f"matcher {name!r} produced different results "
                    f"({len(result)} vs {len(reference)} rows)"
                )
        if name in runs:
            raise ExecutionError(f"matcher {name!r} listed twice")
        runs[name] = MatcherRun(
            name=name,
            predicate_tests=instrumentation.tests,
            matches=len(result),
            result=result,
        )
    return runs


def compare_on_rows(
    rows: Sequence[Mapping[str, object]],
    pattern: CompiledPattern,
    matchers: Sequence[Union[str, Matcher]] = ("naive", "ops"),
    require_identical: bool = True,
) -> dict[str, MatcherRun]:
    """Pattern-level comparison on a raw row sequence (no SQL layer)."""
    runs: dict[str, MatcherRun] = {}
    reference: Optional[list[Match]] = None
    for entry in matchers:
        name, matcher = resolve_matcher(entry)
        instrumentation = Instrumentation()
        matches = matcher.find_matches(rows, pattern, instrumentation)
        if require_identical:
            if reference is None:
                reference = matches
            elif matches != reference:
                raise AssertionError(
                    f"matcher {name!r} produced different matches "
                    f"({len(matches)} vs {len(reference)})"
                )
        if name in runs:
            raise ExecutionError(f"matcher {name!r} listed twice")
        runs[name] = MatcherRun(
            name=name, predicate_tests=instrumentation.tests, matches=len(matches)
        )
    return runs
