"""Typed in-memory tables.

A :class:`Table` stores rows as plain dicts validated against a
:class:`Schema`.  Types are the small set the paper's examples need —
strings, integers, floats, and dates — with ``int`` acceptable wherever
``float`` is declared (SQL numeric widening).
"""

from __future__ import annotations

import datetime as _dt
import threading
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError

#: Supported column type names.
TYPES = ("str", "int", "float", "date")

_PYTHON_TYPES = {
    "str": (str,),
    "int": (int,),
    "float": (int, float),
    "date": (_dt.date,),
}

#: The same rule as exact ``type()`` sets, checked a whole column at a
#: time in C; a subclass falls back to the ``isinstance`` test.
_EXACT_TYPES = {name: frozenset(types) for name, types in _PYTHON_TYPES.items()}


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: str

    def __post_init__(self) -> None:
        if self.type not in TYPES:
            raise SchemaError(f"unknown column type {self.type!r} (choose from {TYPES})")
        if not self.name:
            raise SchemaError("column name must be non-empty")

    def validate(self, value: object) -> None:
        if isinstance(value, bool) or not isinstance(value, _PYTHON_TYPES[self.type]):
            raise SchemaError(
                f"column {self.name!r} expects {self.type}, got {value!r}"
            )

    def validate_all(self, values: Sequence[object]) -> None:
        """:meth:`validate` every value of a column."""
        if not set(map(type, values)) <= _EXACT_TYPES[self.type]:
            for value in values:
                self.validate(value)


class Schema:
    """An ordered collection of columns."""

    __slots__ = ("_columns", "_by_name")

    def __init__(self, columns: Iterable[Column | tuple[str, str]]):
        normalized = [
            column if isinstance(column, Column) else Column(*column)
            for column in columns
        ]
        names = [column.name for column in normalized]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names: {names}")
        if not normalized:
            raise SchemaError("a schema needs at least one column")
        self._columns = tuple(normalized)
        self._by_name = {column.name: column for column in normalized}

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self._columns)

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no column named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def validate_row(self, row: Mapping[str, object]) -> dict[str, object]:
        """Validate and normalize one row (extra keys are rejected)."""
        unknown = set(row) - set(self._by_name)
        if unknown:
            raise SchemaError(f"row has unknown columns: {sorted(unknown)}")
        validated: dict[str, object] = {}
        for column in self._columns:
            if column.name not in row:
                raise SchemaError(f"row is missing column {column.name!r}")
            value = row[column.name]
            column.validate(value)
            validated[column.name] = value
        return validated

    def __repr__(self) -> str:
        body = ", ".join(f"{c.name} {c.type}" for c in self._columns)
        return f"Schema({body})"


class Table:
    """An insert-ordered bag of schema-validated rows.

    The table also keeps the partitions its queries have asked for
    (:func:`repro.engine.cluster.clusters_of`): per (CLUSTER BY,
    SEQUENCE BY, error policy) triple, the cluster keys, each cluster's
    sorted rows and its kernel columns.  ``partition_lock`` guards
    building them.  Every mutation through the table (:meth:`insert`,
    :meth:`insert_many`, :meth:`extend_columns`) drops them.  They rely
    on rows not being mutated in place: a row dict is validated only at
    insert, and a later query may answer from cells an earlier one read.
    Changing rows before the first query, as fault-injection tests do,
    is fine.
    """

    __slots__ = ("name", "schema", "_rows", "partitions", "partition_lock")

    def __init__(self, name: str, schema: Schema | Iterable[Column | tuple[str, str]]):
        self.name = name
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self._rows: list[dict[str, object]] = []
        self.partitions: dict = {}
        self.partition_lock = threading.Lock()

    # Each mutation drops the partitions after its rows are in.  A query
    # reads the partition dict before it reads the rows, so one that
    # grouped the rows as they were before the append stores its
    # partition in the dict being dropped, never in its replacement.

    def insert(self, row: Mapping[str, object]) -> None:
        self._rows.append(self.schema.validate_row(row))
        self.partitions = {}

    def insert_many(self, rows: Iterable[Mapping[str, object]]) -> None:
        try:
            self._rows.extend(map(self.schema.validate_row, rows))
        finally:
            self.partitions = {}

    def extend_columns(self, columns: Sequence[Sequence[object]]) -> None:
        """Append rows given column-wise, one sequence per schema column.

        Every value is checked against its column's type before any row
        is appended, so a rejected value leaves the table unchanged.  The
        rows are the dicts :meth:`insert` builds: schema order, same
        values.
        """
        schema_columns = self.schema.columns
        if len(columns) != len(schema_columns):
            raise SchemaError(
                f"expected {len(schema_columns)} columns, got {len(columns)}"
            )
        if len(set(map(len, columns))) > 1:
            raise SchemaError("columns differ in length")
        for column, values in zip(schema_columns, columns):
            column.validate_all(values)
        names = self.schema.names
        self._rows.extend(map(dict, map(zip, repeat(names), zip(*columns))))
        self.partitions = {}

    @property
    def rows(self) -> list[dict[str, object]]:
        """The live row list (read-only: appending through it bypasses
        validation and leaves the partitions stale)."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict[str, object]]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows, {self.schema!r})"
