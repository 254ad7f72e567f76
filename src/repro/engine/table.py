"""Typed in-memory tables, stored by column.

A :class:`Table` keeps one list per :class:`Schema` column, validated
against the schema on the way in.  Types are the small set the paper's
examples need — strings, integers, floats, and dates — with ``int``
acceptable wherever ``float`` is declared (SQL numeric widening).

Row dicts are built only for a reader that asks for them
(:attr:`BaseTable.rows`, iteration); the engine groups, sorts, builds
kernels and projects from the columns (:mod:`repro.engine.cluster`).
"""

from __future__ import annotations

import datetime as _dt
import threading
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter
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


def float_array(values: Sequence[object], np):
    """``values`` as a read-only float64 array, or None unless every
    value is a ``float``: only a Python float converts to float64
    exactly, an int (arbitrary precision), a date or a string does not."""
    if not {float}.issuperset(map(type, values)):
        return None
    array = np.array(values, dtype=np.float64)
    array.flags.writeable = False
    return array


#: Keys in ``BaseTable._kept``: the row dicts, and ``(_FLOATS, name)``
#: for a column's float64 array.
_ROWS = "rows"
_FLOATS = "floats"


class BaseTable:
    """What the engine reads of a table: ``name``, ``schema``, its
    length, one column at a time (:meth:`column`), and what is derived
    from the columns and kept until the table changes.

    - :attr:`rows`: one dict per row, built on first use;
    - :meth:`float_column`: a column as float64, or the verdict that it
      is not all ``float``, decided once;
    - ``partitions``: the partitions its queries have asked for
      (:func:`repro.engine.cluster.clusters_of`), per (CLUSTER BY,
      SEQUENCE BY, error policy) triple, built under ``partition_lock``.

    A reader reads the dict a derivation is kept in before the columns,
    and a mutation replaces the dicts after its rows are in, so whatever
    is derived from older rows lands in a dropped dict, never in its
    replacement.
    """

    __slots__ = ("name", "schema", "_length", "_kept", "partitions", "partition_lock")

    def column(self, name: str) -> Sequence[object]:
        """Column ``name``, one value per row (read-only); KeyError for a
        name outside the schema."""
        raise NotImplementedError

    @property
    def rows(self) -> list[dict[str, object]]:
        """One dict per row, in schema order, built on first use and kept
        until the table changes (read-only: appending to it bypasses
        validation and the columns)."""
        kept = self._kept
        rows = kept.get(_ROWS)
        if rows is None:
            length = self._length
            names = self.schema.names
            cells = islice(zip(*map(self.column, names)), length)
            rows = kept.setdefault(_ROWS, list(map(dict, map(zip, repeat(names), cells))))
        return rows

    def float_column(self, name: str, np):
        """Column ``name`` as a read-only float64 array, or None where a
        value is not a ``float`` (:func:`float_array`); decided once and
        kept until the table changes."""
        kept = self._kept
        key = (_FLOATS, name)
        try:
            return kept[key]
        except KeyError:
            return kept.setdefault(key, self._float_array(name, np))

    def _float_array(self, name: str, np):
        return float_array(self.column(name), np)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[dict[str, object]]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {len(self)} rows, {self.schema!r})"


class Table(BaseTable):
    """An insert-ordered bag of schema-validated rows, one list per column.

    :meth:`insert`, :meth:`insert_many` and :meth:`extend_columns` check
    every new value before they append any, so a rejected row leaves the
    table unchanged.  Each of them then drops what was derived from the
    old rows: the row dicts, the float64 columns and the partitions.
    Those rely on cells not being changed in place: a cell is validated
    only at insert, and a later query may answer from what an earlier
    one derived.  Changing a cell through :meth:`column` before anything
    is derived from it, as fault-injection tests do, is fine.
    """

    __slots__ = ("_columns",)

    def __init__(self, name: str, schema: Schema | Iterable[Column | tuple[str, str]]):
        self.name = name
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self._columns: dict[str, list[object]] = {
            column.name: [] for column in self.schema.columns
        }
        self._length = 0
        self._kept: dict = {}
        self.partitions: dict = {}
        self.partition_lock = threading.Lock()

    def column(self, name: str) -> list[object]:
        """The live list of column ``name`` (read-only, see the class)."""
        return self._columns[name]

    def insert(self, row: Mapping[str, object]) -> None:
        values = self.schema.validate_row(row)
        for column, value in zip(self._columns.values(), values.values()):
            column.append(value)
        self._changed()

    def insert_many(self, rows: Iterable[Mapping[str, object]]) -> None:
        """Validate every row, then append them all."""
        validated = list(map(self.schema.validate_row, rows))
        if not validated:
            return
        for name, column in self._columns.items():
            column.extend(map(itemgetter(name), validated))
        self._changed()

    def extend_columns(self, columns: Sequence[Sequence[object]]) -> None:
        """Append rows given column-wise, one sequence per schema column.

        Every value is checked against its column's type before any is
        appended; the rows are those :meth:`insert` would append.
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
        if not columns[0]:
            return
        for stored, values in zip(self._columns.values(), columns):
            stored.extend(values)
        self._changed()

    def _changed(self) -> None:
        # The length is published once every column holds the new rows,
        # and the kept derivations are dropped after it (see BaseTable).
        self._length = len(next(iter(self._columns.values())))
        self._kept = {}
        self.partitions = {}
