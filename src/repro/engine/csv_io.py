"""CSV import/export for tables.

Values are converted according to the schema: ``int`` and ``float`` via
the obvious constructors, ``date`` via ISO-8601 (``YYYY-MM-DD``).  Files
are read as UTF-8, with or without a byte-order mark, and written as
UTF-8.

Parse failures carry full context (file path, 1-based line number,
column, offending value) as :class:`~repro.errors.SchemaError`, and
:func:`load_csv` accepts an :class:`~repro.resilience.ErrorPolicy`:
under ``SKIP``/``COLLECT`` malformed rows — unparseable values,
truncated rows, extra columns, non-finite floats — are quarantined into
a :class:`~repro.resilience.Diagnostics` record instead of aborting the
load.  The default ``RAISE`` policy keeps strict fail-fast behavior.

:func:`load_csv` converts and checks a block of records at a time, with
no Python function run per cell.  The first block that is not clean
hands the whole file to the per-row loader, the only code that formats
row-level errors and quarantine entries, so a malformed file loads, or
fails, exactly as it would row by row.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
from itertools import islice
from pathlib import Path
from typing import Iterator, Optional, Sequence, Tuple, Union

from repro.engine.table import Schema, Table
from repro.errors import SchemaError
from repro.resilience import Diagnostics, ErrorPolicy

#: Sentinel DictReader fills in for missing trailing cells.
_MISSING = object()
#: Key DictReader files extra trailing cells under.
_EXTRA = "__extra_cells__"

#: Data records :func:`load_csv` converts and checks at a time.  A
#: block's records are lists the collector tracks, and it starts a
#: collection every 700 net allocations: in 4096-record blocks, loading
#: the 64k-row panel ran 145 of them, in 512-record blocks 2, and the
#: cold panel query took 0.82x the time (docs/performance.md, "Storage").
BLOCK_ROWS = 512

#: How a CSV cell becomes a value of each schema type.
_CONVERTERS = {
    "str": str,
    "int": int,
    "float": float,
    "date": _dt.date.fromisoformat,
}


def _parse_cell(
    value: str, type_name: str, *, path: str, line: int, column: str
) -> object:
    """Convert one cell, wrapping failures in a contextual SchemaError."""
    try:
        return _CONVERTERS[type_name](value)
    except (ValueError, TypeError) as error:
        raise SchemaError(
            f"{path}:{line}: column {column!r}: "
            f"cannot parse {value!r} as {type_name} ({error})"
        ) from error


def _render(value: object) -> str:
    if isinstance(value, _dt.date):
        return value.isoformat()
    return str(value)


def load_csv(
    path: Union[str, Path],
    name: str,
    schema: Schema,
    *,
    policy: Union[ErrorPolicy, str] = ErrorPolicy.RAISE,
    diagnostics: Optional[Diagnostics] = None,
) -> Table:
    """Load a CSV file (with header row) into a new table.

    Under the default ``RAISE`` policy any malformed row aborts the load
    with a :class:`~repro.errors.SchemaError` naming the file, 1-based
    line, column, and offending value.  Under ``SKIP``/``COLLECT`` the
    row is quarantined into ``diagnostics`` (with the same context) and
    loading continues; ``COLLECT`` additionally retains the error object.
    A missing header or missing schema columns always raise — there is
    no row-level recovery from a broken header.
    """
    policy = ErrorPolicy.coerce(policy)
    table = Table(name, schema)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        records = csv.reader(handle)
        header = _checked_header(path, next(records, None), schema)
        if _load_blocks(table, records, header, policy.lenient):
            return table
    return _load_csv_rows(path, name, schema, policy=policy, diagnostics=diagnostics)


def _checked_header(
    path: Union[str, Path], header: Optional[Sequence[str]], schema: Schema
) -> Sequence[str]:
    """The header row, unless the file is empty or lacks a schema column."""
    if header is None:
        raise SchemaError(f"{path}: empty CSV file")
    missing = set(schema.names) - set(header)
    if missing:
        raise SchemaError(f"{path}: missing columns {sorted(missing)}")
    return header


def _load_blocks(
    table: Table, records: Iterator[list], header: Sequence[str], reject_non_finite: bool
) -> bool:
    """Append the data records to ``table`` a block at a time.

    Follows ``DictReader``: ``[]`` records are skipped, the last of
    duplicate header names wins, and non-schema columns are ignored.
    Returns False, leaving ``table`` part-filled, at the first block
    with a ragged record, an unparseable cell or a value the table or
    the policy rejects, so that the per-row loader can report the file
    row by row.
    """
    if _EXTRA in header:
        return False
    width = len(header)
    position = {column: index for index, column in enumerate(header)}
    columns = table.schema.columns
    picks = [(position[column.name], _CONVERTERS[column.type]) for column in columns]
    finite = [
        i for i, column in enumerate(columns) if reject_non_finite and column.type == "float"
    ]
    rows = filter(None, records)
    try:
        while block := list(islice(rows, BLOCK_ROWS)):
            if set(map(len, block)) != {width}:
                return False
            cells = list(zip(*block))
            values = [
                cells[index] if convert is str else list(map(convert, cells[index]))
                for index, convert in picks
            ]
            if not all(all(map(math.isfinite, values[i])) for i in finite):
                return False
            table.extend_columns(values)
    except (ValueError, TypeError, csv.Error, SchemaError):
        return False
    return True


def _load_csv_rows(
    path: Union[str, Path],
    name: str,
    schema: Schema,
    *,
    policy: ErrorPolicy,
    diagnostics: Optional[Diagnostics],
) -> Table:
    """:func:`load_csv` one row at a time: the reference, and the loader
    of files the block loader declines."""
    table = Table(name, schema)
    for _, row in iter_csv(path, schema, policy=policy, diagnostics=diagnostics):
        table.insert(row)
    return table


def _quarantine_row(
    sink: Diagnostics,
    policy: ErrorPolicy,
    record: dict,
    schema: Schema,
    path: Union[str, Path],
    line: int,
    error: SchemaError,
) -> None:
    """Record one malformed CSV row under a lenient policy."""
    values = tuple(
        record[column]
        for column in schema.names
        if record.get(column) is not _MISSING
    )
    # QuarantinedRow prepends source:line, so strip the
    # prefix the contextual message already carries.
    reason = str(error)
    prefix = f"{path}:{line}: "
    if reason.startswith(prefix):
        reason = reason[len(prefix) :]
    sink.quarantine(str(path), line, reason, values)
    if policy is ErrorPolicy.COLLECT:
        sink.record_error(line, f"{path}:{line}", error)


def iter_csv(
    path: Union[str, Path],
    schema: Schema,
    *,
    start_offset: int = 0,
    policy: Union[ErrorPolicy, str] = ErrorPolicy.RAISE,
    diagnostics: Optional[Diagnostics] = None,
) -> Iterator[Tuple[int, dict[str, object]]]:
    """Stream a CSV file as ``(offset, row)`` pairs, resumable by offset.

    Offsets number the *physical* data rows 0-based — quarantined rows
    consume an offset too, so a row's offset is independent of the error
    policy and stable across runs; that is what makes offsets safe to
    persist in checkpoints and resume from.  Rows before ``start_offset``
    are skipped without schema conversion (and without re-recording their
    quarantine entries), so resuming does not re-validate the replayed
    prefix.

    This is the offset-addressable source for
    :class:`~repro.recovery.RecoveringStreamRunner`:
    ``lambda start: iter_csv(path, schema, start_offset=start, ...)``.
    """
    if start_offset < 0:
        raise ValueError(f"start_offset must be non-negative, got {start_offset}")
    policy = ErrorPolicy.coerce(policy)
    sink = diagnostics if diagnostics is not None else Diagnostics()
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle, restkey=_EXTRA, restval=_MISSING)
        _checked_header(path, reader.fieldnames, schema)
        for offset, record in enumerate(reader):
            if offset < start_offset:
                continue
            line = reader.line_num
            try:
                row = _convert_record(
                    record,
                    schema,
                    str(path),
                    line,
                    reject_non_finite=policy.lenient,
                )
            except SchemaError as error:
                if not policy.lenient:
                    raise
                _quarantine_row(sink, policy, record, schema, path, line, error)
                continue
            yield offset, row


def _convert_record(
    record: dict,
    schema: Schema,
    path: str,
    line: int,
    *,
    reject_non_finite: bool = False,
) -> dict[str, object]:
    """Convert one DictReader record, rejecting short and long rows.

    ``reject_non_finite`` additionally treats NaN/inf floats as errors —
    the lenient policies quarantine such rows as dirty data, while the
    strict default keeps the seed's permissive float parsing.
    """
    if _EXTRA in record:
        extra = record[_EXTRA]
        raise SchemaError(
            f"{path}:{line}: row has {len(extra)} extra column(s): {extra!r}"
        )
    row: dict[str, object] = {}
    for column in schema.columns:
        raw = record[column.name]
        if raw is _MISSING or raw is None:
            raise SchemaError(
                f"{path}:{line}: truncated row is missing column {column.name!r}"
            )
        value = _parse_cell(
            raw, column.type, path=path, line=line, column=column.name
        )
        if (
            reject_non_finite
            and isinstance(value, float)
            and not math.isfinite(value)
        ):
            raise SchemaError(
                f"{path}:{line}: column {column.name!r}: "
                f"non-finite value {raw!r}"
            )
        row[column.name] = value
    return row


def save_csv(table: Table, path: Union[str, Path]) -> None:
    """Write a table to CSV with a header row."""
    names = table.schema.names
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for cells in zip(*map(table.column, names)):
            writer.writerow([_render(value) for value in cells])
