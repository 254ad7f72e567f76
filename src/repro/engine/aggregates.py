"""Streaming user-defined aggregates (UDAs).

Section 6 of the paper: "The runtime execution of SQL-TS is achieved via
user-defined aggregates that are capable of applying arbitrary SQL
statements on input streams" (Wang & Zaniolo, VLDB 2000).  This module
provides that substrate:

- the :class:`UserDefinedAggregate` protocol
  (``initialize`` / ``iterate`` / ``terminate``), applied per cluster by
  :func:`apply_aggregate`;
- standard aggregates (FIRST, LAST, COUNT, MIN, MAX, AVG) built on it;
- :class:`PatternSearchAggregate` — the SQL-TS matcher packaged as a UDA,
  which is exactly how the paper deploys OPS inside a host DBMS.  Tuples
  stream in via ``iterate``; matches stream out of ``terminate``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import ExecutionError
from repro.match.base import Instrumentation, Match, Matcher
from repro.pattern.compiler import CompiledPattern
from repro.resilience import Budget, Diagnostics, ResourceLimits


class UserDefinedAggregate:
    """The streaming aggregate protocol of Wang & Zaniolo [17].

    ``initialize`` resets state for a new group; ``iterate`` consumes one
    tuple and may emit early results; ``terminate`` flushes the rest.
    """

    def initialize(self) -> None:
        raise NotImplementedError

    def iterate(self, row: Mapping[str, object]) -> Iterable[object]:
        raise NotImplementedError

    def terminate(self) -> Iterable[object]:
        raise NotImplementedError


def apply_aggregate(
    aggregate: UserDefinedAggregate, rows: Iterable[Mapping[str, object]]
) -> list[object]:
    """Run one aggregate over one (already clustered/sorted) stream."""
    aggregate.initialize()
    output: list[object] = []
    for row in rows:
        output.extend(aggregate.iterate(row))
    output.extend(aggregate.terminate())
    return output


class _ColumnAggregate(UserDefinedAggregate):
    """Base for single-column aggregates emitting one value at terminate."""

    def __init__(self, column: str):
        self.column = column
        self._values: list[object] = []

    def initialize(self) -> None:
        self._values = []

    def iterate(self, row: Mapping[str, object]) -> Iterable[object]:
        if self.column not in row:
            raise ExecutionError(f"no column {self.column!r} in input row")
        self._values.append(row[self.column])
        return ()

    def terminate(self) -> Iterable[object]:
        raise NotImplementedError


class FirstAggregate(_ColumnAggregate):
    """FIRST(column): the first value in stream order."""

    def terminate(self) -> Iterable[object]:
        return [self._values[0]] if self._values else []


class LastAggregate(_ColumnAggregate):
    """LAST(column): the last value in stream order."""

    def terminate(self) -> Iterable[object]:
        return [self._values[-1]] if self._values else []


class CountAggregate(_ColumnAggregate):
    def terminate(self) -> Iterable[object]:
        return [len(self._values)]


class MinAggregate(_ColumnAggregate):
    def terminate(self) -> Iterable[object]:
        if not self._values:
            return []
        try:
            return [min(self._values)]  # type: ignore[type-var]
        except TypeError:
            raise ExecutionError(
                f"MIN({self.column}): column mixes incomparable types"
            ) from None


class MaxAggregate(_ColumnAggregate):
    def terminate(self) -> Iterable[object]:
        if not self._values:
            return []
        try:
            return [max(self._values)]  # type: ignore[type-var]
        except TypeError:
            raise ExecutionError(
                f"MAX({self.column}): column mixes incomparable types"
            ) from None


class AvgAggregate(_ColumnAggregate):
    def terminate(self) -> Iterable[object]:
        if not self._values:
            return []
        numbers = []
        for value in self._values:
            try:
                numbers.append(float(value))  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise ExecutionError(
                    f"AVG({self.column}): non-numeric value {value!r}"
                ) from None
        return [sum(numbers) / len(numbers)]


class PatternSearchAggregate(UserDefinedAggregate):
    """The SQL-TS pattern search expressed as a streaming UDA.

    Tuples arrive one at a time through ``iterate`` and are buffered;
    ``terminate`` runs the configured matcher over the buffered cluster
    and emits one :class:`~repro.match.base.Match` per occurrence.  (The
    OPS shift formulas index back into the current attempt, so a bounded
    look-back buffer is required in any case; buffering the cluster keeps
    this reference implementation simple while preserving the streaming
    interface the paper describes.  For the truly incremental deployment
    use :class:`StreamingPatternAggregate`.)
    """

    def __init__(
        self,
        pattern: CompiledPattern,
        matcher: Matcher,
        instrumentation: Optional[Instrumentation] = None,
        budget: Optional[Budget] = None,
        kernels=None,
    ):
        self._pattern = pattern
        self._matcher = matcher
        self._instrumentation = instrumentation
        self._budget = budget
        # Columnar truth arrays materialized from the cluster this
        # aggregate is about to buffer (see repro.engine.columnar); only
        # valid because the executor feeds the identical rows through
        # iterate().
        self._kernels = kernels
        self._buffer: list[Mapping[str, object]] = []

    def initialize(self) -> None:
        self._buffer = []

    def iterate(self, row: Mapping[str, object]) -> Iterable[Match]:
        self._buffer.append(row)
        return ()

    def terminate(self) -> Iterable[Match]:
        return self._matcher.find_matches(
            self._buffer, self._pattern, self._instrumentation,
            budget=self._budget, kernels=self._kernels,
        )

    @property
    def buffered(self) -> Sequence[Mapping[str, object]]:
        return self._buffer


class StreamingPatternAggregate(UserDefinedAggregate):
    """Incremental SQL-TS search: matches stream OUT of ``iterate``.

    Built on :class:`~repro.match.streaming.OpsStreamMatcher`, this UDA
    emits each match the moment its last tuple arrives and keeps only a
    bounded look-back window — the deployment the paper's "user-defined
    aggregates on input streams" sentence is really about.
    """

    def __init__(
        self,
        pattern: CompiledPattern,
        instrumentation: Optional[Instrumentation] = None,
        limits: Optional[ResourceLimits] = None,
        diagnostics: Optional[Diagnostics] = None,
        overflow: str = "raise",
    ):
        self._pattern = pattern
        self._instrumentation = instrumentation
        self._limits = limits
        self._diagnostics = diagnostics
        self._overflow = overflow
        self._matcher: Optional["OpsStreamMatcher"] = None
        self.initialize()

    def initialize(self) -> None:
        from repro.match.streaming import OpsStreamMatcher

        self._matcher = OpsStreamMatcher(
            self._pattern,
            self._instrumentation,
            limits=self._limits,
            diagnostics=self._diagnostics,
            overflow=self._overflow,
        )

    def iterate(self, row: Mapping[str, object]) -> Iterable[Match]:
        assert self._matcher is not None
        return self._matcher.push(row)

    def terminate(self) -> Iterable[Match]:
        assert self._matcher is not None
        return self._matcher.finish()

    @property
    def buffered_rows(self) -> int:
        assert self._matcher is not None
        return self._matcher.buffered_rows
