"""A statement session: CREATE TABLE, INSERT, and SQL-TS queries together.

:class:`Session` is the miniature-database front door: feed it statement
text (single statements or ``;``-separated scripts) and it maintains the
catalog, loads data, and executes pattern queries::

    session = Session(domains=AttributeDomains.prices())
    session.execute("CREATE TABLE quote (name Varchar(8), date Date, price Real)")
    session.execute("INSERT INTO quote VALUES ('IBM', '1999-01-25', 100.0)")
    result = session.execute("SELECT ... FROM quote ... AS (X, Y) WHERE ...")

A session carries an :class:`~repro.resilience.ErrorPolicy` and optional
:class:`~repro.resilience.ResourceLimits`: under ``SKIP``/``COLLECT``
bad INSERT rows and malformed CSV rows are quarantined into
``session.diagnostics`` instead of aborting, and scripts can continue
past failing statements, collecting per-statement errors.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.engine.catalog import Catalog
from repro.engine.csv_io import load_csv
from repro.engine.executor import Executor
from repro.engine.result import Result
from repro.engine.table import Schema, Table
from repro.errors import ExecutionError, ReproError, SchemaError, StatementError
from repro.match.base import Instrumentation, Matcher
from repro.pattern.predicates import AttributeDomains
from repro.resilience import Diagnostics, ErrorPolicy, ResourceLimits
from repro.sqlts.ddl import (
    coerce_value,
    parse_create_table,
    parse_insert,
    statement_kind,
)

#: Characters of a failing statement echoed into error context.
_SNIPPET_CHARS = 80


def _snippet(statement: str) -> str:
    text = " ".join(statement.split())
    return text[:_SNIPPET_CHARS]


class Session:
    """Holds a catalog and executes statements against it."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        domains: Optional[AttributeDomains] = None,
        matcher: Union[str, Matcher] = "ops",
        policy: Union[ErrorPolicy, str] = ErrorPolicy.RAISE,
        limits: Optional[ResourceLimits] = None,
    ):
        self.catalog = catalog if catalog is not None else Catalog()
        self.policy = ErrorPolicy.coerce(policy)
        self.limits = limits if limits is not None else ResourceLimits()
        self.diagnostics = Diagnostics()
        self._executor = Executor(
            self.catalog,
            domains=domains,
            matcher=matcher,
            policy=self.policy,
            limits=self.limits,
        )

    def execute(
        self,
        statement: str,
        instrumentation: Optional[Instrumentation] = None,
        *,
        limits: Optional[ResourceLimits] = None,
        cancel=None,
        trace=None,
    ) -> Optional[Result]:
        """Execute one statement; queries return a Result, DDL/DML None.

        ``limits`` and ``cancel`` override the session's executor
        configuration for this statement only (see
        :meth:`repro.engine.executor.Executor.execute_with_report`) —
        the serving layer uses them to apply per-tenant quotas and
        cooperative cancellation over one shared session.  ``trace``
        (a :class:`~repro.obs.Trace`) turns on the flight recorder for
        a query statement; the returned ``Result`` then carries a
        ``profile``.
        """
        kind = statement_kind(statement)
        if kind == "create":
            self._create(statement)
            return None
        if kind == "insert":
            self._insert(statement)
            return None
        result = self._executor.execute(
            statement,
            instrumentation,
            limits=limits,
            cancel=cancel,
            trace=trace,
        )
        self.diagnostics.merge(result.diagnostics)
        return result

    def run_script(
        self,
        script: str,
        *,
        continue_on_error: Optional[bool] = None,
    ) -> list[Result]:
        """Execute a ``;``-separated script; returns the query results.

        A failing statement raises :class:`~repro.errors.StatementError`
        carrying its 1-based index and leading text, with the original
        error chained.  With ``continue_on_error=True`` (the default
        under the ``COLLECT`` policy) failing statements are instead
        recorded in ``session.diagnostics.errors`` and execution
        proceeds with the next statement.
        """
        if continue_on_error is None:
            continue_on_error = self.policy is ErrorPolicy.COLLECT
        results = []
        for index, statement in enumerate(split_statements(script), start=1):
            try:
                result = self.execute(statement)
            except ReproError as error:
                if not continue_on_error:
                    raise StatementError(index, _snippet(statement), error) from error
                self.diagnostics.record_error(index, _snippet(statement), error)
                continue
            if result is not None:
                results.append(result)
        return results

    def stream(
        self,
        query: str,
        source_factory,
        *,
        store=None,
        checkpoints=None,
        retry=None,
        resume: bool = False,
        overflow: str = "raise",
        instrumentation: Optional[Instrumentation] = None,
        stop=None,
        trace=None,
    ):
        """Plan a crash-recoverable streaming query (see Executor.stream).

        ``source_factory(start_offset)`` yields ``(offset, row)`` pairs —
        :func:`repro.engine.csv_io.iter_csv` satisfies the contract for
        CSV files.  Stream diagnostics (checkpoints written/restored,
        retries, suppressed duplicates) accumulate into
        ``session.diagnostics``.
        """
        return self._executor.stream(
            query,
            source_factory,
            store=store,
            checkpoints=checkpoints,
            retry=retry,
            resume=resume,
            overflow=overflow,
            instrumentation=instrumentation,
            diagnostics=self.diagnostics,
            stop=stop,
            trace=trace,
        )

    def load_csv(
        self, path, name: str, schema: Union[Schema, object]
    ) -> Table:
        """Load a CSV file into a new table registered with the catalog.

        The session's error policy applies: lenient policies quarantine
        malformed rows into ``session.diagnostics``.
        """
        table = load_csv(
            path,
            name,
            schema if isinstance(schema, Schema) else Schema(schema),
            policy=self.policy,
            diagnostics=self.diagnostics,
        )
        self.catalog.register(table)
        return table

    # ------------------------------------------------------------------

    def _create(self, statement: str) -> None:
        parsed = parse_create_table(statement)
        self.catalog.register(Table(parsed.name, parsed.columns))

    def _insert(self, statement: str) -> None:
        parsed = parse_insert(statement)
        table = self.catalog.table(parsed.table)
        schema = table.schema
        columns = parsed.columns if parsed.columns is not None else schema.names
        for row_number, row_values in enumerate(parsed.rows, start=1):
            try:
                table.insert(
                    self._coerce_row(schema, columns, row_values)
                )
            except (ExecutionError, SchemaError) as error:
                if not self.policy.lenient:
                    raise
                self.diagnostics.quarantine(
                    f"INSERT INTO {parsed.table}",
                    row_number,
                    str(error),
                    tuple(row_values),
                )
                if self.policy is ErrorPolicy.COLLECT:
                    self.diagnostics.record_error(
                        row_number, f"INSERT INTO {parsed.table}", error
                    )

    @staticmethod
    def _coerce_row(
        schema: Schema, columns, row_values
    ) -> dict[str, object]:
        if len(row_values) != len(columns):
            raise ExecutionError(
                f"INSERT row has {len(row_values)} values for "
                f"{len(columns)} columns"
            )
        row: dict[str, object] = {}
        for column, value in zip(columns, row_values):
            type_name = schema.column(column).type
            try:
                row[column] = coerce_value(value, type_name)
            except (ValueError, TypeError) as error:
                raise ExecutionError(
                    f"column {column!r}: cannot coerce {value!r} "
                    f"to {type_name} ({error})"
                ) from error
        return row


def split_statements(script: str) -> list[str]:
    """Split a script on ``;`` outside string literals; drop blanks."""
    statements: list[str] = []
    current: list[str] = []
    in_string = False
    index = 0
    while index < len(script):
        char = script[index]
        if in_string:
            current.append(char)
            if char == "'":
                # '' is an escaped quote inside the literal.
                if index + 1 < len(script) and script[index + 1] == "'":
                    current.append("'")
                    index += 1
                else:
                    in_string = False
        elif char == "'":
            in_string = True
            current.append(char)
        elif char == ";":
            statements.append("".join(current))
            current = []
        else:
            current.append(char)
        index += 1
    statements.append("".join(current))
    return [statement for statement in statements if statement.strip()]
