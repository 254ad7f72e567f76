"""Columnar storage and vectorized predicate kernels.

Two cooperating halves, both behind the existing engine API:

**Kernel materialization**: read each pattern element's
``predicate.conditions`` and turn them, for one cluster's rows, into a
per-element **truth array**: one byte per input position, 1 where the
element predicate holds.  Matchers substitute ``truth[i]`` for the
evaluator call, and the OPS scan advances star runs and mismatch
self-loops with C-speed ``bytes.find`` scans whose tests it charges as
one sum.  Because the truth value at every position equals what the row
evaluator would have returned there, matches, test counts, skip
accounting, and budget spend are those of the row path; the
differential suites (``tests/engine/test_columnar_equivalence.py``,
``tests/match/test_counted_runs.py``) hold both paths byte-identical,
and ``tests/pattern/test_kernels.py`` holds every truth byte to the
interpreted :meth:`~repro.pattern.predicates.ElementPredicate.test`.

:func:`plan_kernels` decides once per compiled pattern which elements
lower and which share one truth array.  An element lowers when each of
its conditions is a comparison, an OR of comparisons, or a residual
that carries an anchored program.  Any other element (a string
equality, say) keeps its row evaluator: fallback is per element, never
per query.

An element with anchored comparisons (a residual that compares the row
under test with an earlier element's boundary row, see
:class:`~repro.pattern.predicates.AnchoredCompare`) has no truth array: its
answer depends on the attempt.  Each side of such a comparison becomes
one Python list per cluster instead, with None where navigation leaves
the cluster, and the OPS scan compares ``lhs[i]`` with ``rhs[anchor]``.

Truth bytes and anchored sides are built with NumPy float64 only, and
only where that reproduces the interpreter's Python arithmetic bit for
bit: every column read is all-``float`` (a Python float *is* an IEEE
double) and every literal is exact in float64.  Anywhere else (an int,
date or string cell, a literal float64 cannot hold) building the
element raises, and so does anything else the batch evaluation trips
over; :func:`materialize_kernels` then leaves that element on its row
evaluator, which raises, or short-circuits past the cell, exactly where
the row path does.  The columns come from the cluster
(:meth:`~repro.engine.cluster.Cluster.floats`): ``np.take`` of the
table's float64 column, whose all-``float`` verdict is decided once per
table.  NumPy is a declared dependency, imported on the first
materialization (the stream path never materializes, so it never loads
it).

**Columnar files**: a single-file binary format (magic, JSON header,
CRC32-checksummed little-endian column blobs), written atomically.
:func:`load_columnar` reads a file whole into an ordinary
:class:`~repro.engine.table.Table`, as CSV ingest does.  Loading
validates magic, version, blob extents, checksums, string offsets and
each column's declared type against its stored kind — a torn write or
partial file raises :class:`~repro.errors.ColumnarFormatError` and
:func:`load_table` falls back to CSV ingest with a diagnostic, which is
what the failpoint-driven crash-consistency suite pins
(``tests/engine/test_columnar_file.py``).

See ``docs/performance.md`` ("Predicate tests") for flags and the
kernel spans emitted through :mod:`repro.obs`.
"""

from __future__ import annotations

import datetime as _dt
import json
import operator
import os
import struct
import zlib
from pathlib import Path
from typing import Optional, Sequence, Union

from repro import failpoints
from repro.engine.table import Schema, Table
from repro.errors import ColumnarFormatError
from repro.pattern.predicates import (
    AnchoredCompare,
    ComparisonCondition,
    Condition,
    LinearTerm,
    OrCondition,
    ResidualCondition,
)


# ----------------------------------------------------------------------
# Planning (once per compiled pattern)
# ----------------------------------------------------------------------


def plan_kernels(spec) -> tuple[tuple, tuple]:
    """Which elements of a pattern the kernels evaluate, and which share.

    Returns ``(shapes, slots)``.  ``shapes`` holds each distinct
    ``(conditions, anchored)`` pair once: an element's ordinary
    conditions, and the anchored programs of its residuals.
    ``slots[j - 1]`` is the index of element j's shape, or None where the
    element keeps its row evaluator.  Elements with equal shapes
    (Example 10 repeats its down, flat and up elements) share one slot,
    so a cluster builds their truth array once.  The compiled pattern
    keeps the plan (``CompiledPattern.kernel_plan``).
    """
    shapes: dict[tuple, int] = {}
    slots = []
    for element in spec:
        shape = _shape(element.predicate.conditions)
        slots.append(None if shape is None else shapes.setdefault(shape, len(shapes)))
    return tuple(shapes), tuple(slots)


def _shape(conditions: Sequence[Condition]) -> Optional[tuple]:
    ordinary: list[Condition] = []
    anchored: list[AnchoredCompare] = []
    for condition in conditions:
        if isinstance(condition, ResidualCondition):
            if condition.anchored is None:
                return None
            anchored.append(condition.anchored)
        elif _has_truth(condition):
            ordinary.append(condition)
        else:
            return None
    return tuple(ordinary), tuple(anchored)


def _has_truth(condition: Condition) -> bool:
    """True for a comparison or an OR of comparisons, the condition
    types :func:`_condition_truth` reads."""
    if isinstance(condition, OrCondition):
        return all(
            _has_truth(leaf) for branch in condition.branches for leaf in branch
        )
    return isinstance(condition, ComparisonCondition)


# ----------------------------------------------------------------------
# Truth materialization (per cluster)
# ----------------------------------------------------------------------


class ClusterKernels:
    """Per-element truth arrays and anchored comparisons for one cluster.

    ``truth[j - 1]`` is a ``bytes`` with one byte per row (1 where element
    j's predicate holds at that position) or None where the element has
    none.  ``anchored[j - 1]`` is None, or ``(gate, comparisons)`` for an
    element with anchored comparisons: ``gate`` is the truth bytes of its
    ordinary conditions (None when it has none), and each comparison is
    ``(lhs, holds, rhs, edge, delta)``: it holds at row i of an attempt
    at ``start`` with count array ``counts`` when ``lhs[i]`` and
    ``rhs[start + counts[edge] + delta]`` are not None and
    ``holds(lhs[i], rhs[...])``.  An element with neither fell back to
    the row evaluator.  Elements that share a shape share one entry
    (Example 10's repeated shapes).
    """

    __slots__ = ("truth", "anchored", "lowered")

    def __init__(self, truth: tuple, anchored: tuple):
        self.truth = truth
        self.anchored = anchored
        self.lowered = sum(
            1 for t, a in zip(truth, anchored) if t is not None or a is not None
        )


def materialize_kernels(compiled, columns) -> Optional[ClusterKernels]:
    """Build one cluster's truth arrays from a compiled pattern's plan.

    ``columns`` is the cluster (:class:`~repro.engine.cluster.Cluster`):
    its length, and ``columns.floats(name, np)``, a column over its rows
    as float64, which raises ValueError where the column is not all
    ``float``.  Returns None when nothing lowered (interpreted oracle
    plans, patterns whose every element keeps its evaluator, or every
    element declining here) — the caller then runs the plain row path.
    The truth arrays and anchored side lists are built per call: they
    depend on the query's constants.
    """
    shapes, slots = compiled.kernel_plan
    if not shapes:
        return None
    # Imported here, not per element inside the ``except`` below: NumPy
    # is a declared dependency, so a missing one must fail loudly, and a
    # module-level import would load it on the stream path, which never
    # materializes kernels.
    import numpy as np

    n = len(columns)
    built: list[tuple] = []
    for conditions, anchored in shapes:
        try:
            built.append(_shape_kernel(conditions, anchored, columns, n, np))
        except Exception:
            # A cell or literal float64 cannot hold exactly (ValueError),
            # or anything else the batch evaluation trips over, leaves
            # the element on its row evaluator, which raises — or
            # short-circuits past it — exactly as the row path does.
            built.append((None, None))
    truth = tuple(None if slot is None else built[slot][0] for slot in slots)
    anchored = tuple(None if slot is None else built[slot][1] for slot in slots)
    if all(t is None for t in truth) and all(a is None for a in anchored):
        return None
    return ClusterKernels(truth, anchored)


def _shape_kernel(
    conditions: tuple, anchored: tuple, columns, n: int, np
) -> tuple:
    """``(truth, None)`` for a shape without anchored comparisons,
    ``(None, (gate, comparisons))`` for one with them (see
    :class:`ClusterKernels`)."""
    if not anchored:
        return _conjunction_truth(conditions, columns, n, np), None
    comparisons = tuple(
        _anchored_comparison(compare, columns, n, np) for compare in anchored
    )
    gate = _conjunction_truth(conditions, columns, n, np) if conditions else None
    return None, (gate, comparisons)


def _anchored_comparison(
    compare: AnchoredCompare, columns, n: int, np
) -> tuple:
    """``(lhs, holds, rhs, edge, delta)`` of one anchored comparison."""
    if compare.last:
        edge, delta = compare.element, -1
    else:
        edge, delta = compare.element - 1, 0
    return (
        _side_values(compare.lhs, columns, n, np),
        compare.op.operator,
        _side_values(compare.rhs, columns, n, np),
        edge,
        delta,
    )


def _side_values(program: tuple, columns, n: int, np) -> list:
    """One side's value at every row ``i`` of the cluster, None where its
    navigation leaves the cluster.

    float64 arithmetic reproduces ``_require_number``'s, operation by
    operation in the same order.
    """
    offsets: list[int] = []
    _side_offsets(program, offsets)
    lo, hi = _valid_range(n, *offsets)
    lo, hi = min(lo, n), min(hi, n)
    with np.errstate(all="ignore"):
        values = _eval_side(
            program, lambda name, off: columns.floats(name, np)[lo + off : hi + off]
        ).tolist()
    return [None] * lo + values + [None] * (n - hi)


def _side_offsets(program: tuple, offsets: list[int]) -> None:
    kind = program[0]
    if kind == "col":
        offsets.append(program[2])
    elif kind != "num":
        for operand in program[1:]:
            _side_offsets(operand, offsets)


def _eval_side(program: tuple, read):
    kind = program[0]
    if kind == "col":
        return read(program[1], program[2])
    if kind == "num":
        return float(_exact(program[1]))
    if kind == "neg":
        return -_eval_side(program[1], read)
    left = _eval_side(program[1], read)
    right = _eval_side(program[2], read)
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    return left * right


def _conjunction_truth(
    conditions: Sequence[Condition], columns, n: int, np
) -> bytes:
    return _and_all(
        [_condition_truth(condition, columns, n, np) for condition in conditions], n
    )


def _condition_truth(condition: Condition, columns, n: int, np) -> bytes:
    if isinstance(condition, OrCondition):
        return _or_all(
            [_conjunction_truth(branch, columns, n, np) for branch in condition.branches],
            n,
        )
    # A ComparisonCondition: plan_kernels lets no other type through.
    return _comparison_truth(condition, columns, n, np)


def _and_all(truths: list[bytes], n: int) -> bytes:
    if not truths:
        return b"\x01" * n
    if len(truths) == 1:
        return truths[0]
    acc = int.from_bytes(truths[0], "big")
    for truth in truths[1:]:
        acc &= int.from_bytes(truth, "big")
    return acc.to_bytes(n, "big")


def _or_all(truths: list[bytes], n: int) -> bytes:
    if len(truths) == 1:
        return truths[0]
    acc = int.from_bytes(truths[0], "big")
    for truth in truths[1:]:
        acc |= int.from_bytes(truth, "big")
    return acc.to_bytes(n, "big")


def _valid_range(n: int, *offsets: int) -> tuple[int, int]:
    """Positions i where every ``i + off`` lands inside [0, n)."""
    lo = 0
    hi = n
    for off in offsets:
        lo = max(lo, -off)
        hi = min(hi, n - off)
    return lo, max(lo, hi)


def _exact(value):
    """``value``, where float64 arithmetic with it matches Python's;
    raises ValueError elsewhere (an int float64 cannot hold)."""
    if type(value) is float:
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            if float(value) == value:
                return value
        except OverflowError:
            pass
    raise ValueError(f"literal {value!r} is not exact in float64")


def _comparison_truth(
    condition: ComparisonCondition, columns, n: int, np
) -> bytes:
    """Truth bytes of ``left op right``.

    Each side is a constant or ``coefficient * column[i + offset] +
    constant``, computed as the interpreter computes it.
    """
    left, right = condition.left, condition.right
    holds = condition.op.operator
    if left.attr is None and right.attr is None:
        return b"\x01" * n if holds(left.constant, right.constant) else bytes(n)
    lo, hi = _valid_range(
        n, *(term.attr.offset for term in (left, right) if term.attr is not None)
    )
    with np.errstate(all="ignore"):
        lhs = _f8_term(left, columns, lo, hi, np)
        rhs = _f8_term(right, columns, lo, hi, np)
        out = np.zeros(n, dtype=np.uint8)
        out[lo:hi] = holds(lhs, rhs)
    return out.tobytes()


def _f8_term(term: LinearTerm, columns, lo: int, hi: int, np):
    """``term`` at rows ``lo..hi`` in float64 (a scalar for a constant)."""
    if term.attr is None:
        return _exact(term.constant)
    column = columns.floats(term.attr.name, np)
    off = term.attr.offset
    return (
        _exact(term.coefficient) * column[lo + off : hi + off]
        + _exact(term.constant)
    )


# ----------------------------------------------------------------------
# Columnar files
# ----------------------------------------------------------------------

#: File magic: 8 bytes, versioned via the header's ``version`` field.
MAGIC = b"RPROCOL1"

#: Current format version.
FORMAT_VERSION = 1

#: Epoch for date columns: proleptic-Gregorian ordinals (date.toordinal).
_DATE_KIND = "date"

_KIND_BY_TYPE = {"float": "f8", "int": "i8", "date": _DATE_KIND, "str": "str"}

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def write_columnar(table: Table, path: Union[str, Path]) -> None:
    """Serialize a table to the columnar format, atomically.

    The table is read column by column.  The payload is assembled fully,
    passed through the ``columnar.write`` failpoint (torn-write
    injection), written to ``<path>.tmp``, fsynced (``columnar.fsync``),
    and renamed into place (``columnar.rename``) — a crash at any point
    leaves either the old file or no file, never a half-written one the
    loader would trust.
    """
    path = str(path)
    payload = _serialize(table)
    payload = failpoints.mangle("columnar.write", payload)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            if not failpoints.maybe_fail("columnar.fsync"):
                os.fsync(handle.fileno())
        failpoints.maybe_fail("columnar.rename")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _serialize(table: Table) -> bytes:
    schema: Schema = table.schema
    rows = len(table)
    blobs: list[bytes] = []
    column_entries: list[dict] = []
    offset = 0

    def add_blob(blob: bytes) -> dict:
        nonlocal offset
        entry = {"offset": offset, "nbytes": len(blob), "crc32": zlib.crc32(blob)}
        blobs.append(blob)
        offset += len(blob)
        pad = (-len(blob)) % 8
        if pad:
            blobs.append(b"\x00" * pad)
            offset += pad
        return entry

    for column in schema.columns:
        values = table.column(column.name)[:rows]
        kind = _KIND_BY_TYPE[column.type]
        entry: dict = {"name": column.name, "type": column.type, "kind": kind}
        if kind == "f8":
            blob = struct.pack(f"<{rows}d", *(float(v) for v in values))
            entry.update(add_blob(blob))
        elif kind == "i8":
            for value in values:
                if not (_INT64_MIN <= value <= _INT64_MAX):
                    raise ColumnarFormatError(
                        f"column {column.name!r}: int value {value} does not "
                        "fit in 64 bits"
                    )
            blob = struct.pack(f"<{rows}q", *values)
            entry.update(add_blob(blob))
        elif kind == _DATE_KIND:
            blob = struct.pack(f"<{rows}q", *(v.toordinal() for v in values))
            entry.update(add_blob(blob))
        else:  # str: int64 offsets (rows + 1) + utf-8 blob
            encoded = [v.encode("utf-8") for v in values]
            offsets = [0]
            for chunk in encoded:
                offsets.append(offsets[-1] + len(chunk))
            entry["aux"] = add_blob(struct.pack(f"<{rows + 1}q", *offsets))
            entry.update(add_blob(b"".join(encoded)))
        column_entries.append(entry)

    header = json.dumps(
        {
            "version": FORMAT_VERSION,
            "name": table.name,
            "rows": rows,
            "columns": column_entries,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    prefix = MAGIC + struct.pack("<I", len(header)) + header
    pad = (-len(prefix)) % 8
    return prefix + b"\x00" * pad + b"".join(blobs)


def load_columnar(path: Union[str, Path], name: Optional[str] = None) -> Table:
    """Read a columnar file into a :class:`~repro.engine.table.Table`,
    validating structure and checksums.

    Every rejection — bad magic, unsupported version, truncated blobs,
    checksum mismatches, malformed headers, a column whose declared type
    does not match its stored kind — raises
    :class:`~repro.errors.ColumnarFormatError` naming the file and the
    failed check, so callers can distinguish "corrupt cache" (fall back
    to CSV) from I/O errors.  ``name``, when given, overrides the table
    name stored in the header.
    """
    path = str(path)
    with open(path, "rb") as handle:
        data = handle.read()
    size = len(data)
    if size < len(MAGIC) + 4:
        raise ColumnarFormatError(f"{path}: truncated (only {size} bytes)")
    if data[: len(MAGIC)] != MAGIC:
        raise ColumnarFormatError(f"{path}: bad magic (not a columnar file)")
    (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
    header_end = len(MAGIC) + 4 + header_len
    if header_end > size:
        raise ColumnarFormatError(
            f"{path}: truncated header (declares {header_len} bytes)"
        )
    try:
        header = json.loads(data[len(MAGIC) + 4 : header_end])
    except ValueError as error:
        raise ColumnarFormatError(f"{path}: malformed header ({error})") from None
    if not isinstance(header, dict):
        raise ColumnarFormatError(f"{path}: malformed header (not an object)")
    if header.get("version") != FORMAT_VERSION:
        raise ColumnarFormatError(
            f"{path}: unsupported format version {header.get('version')!r}"
        )
    rows = header.get("rows")
    if not isinstance(rows, int) or rows < 0:
        raise ColumnarFormatError(f"{path}: invalid row count {rows!r}")
    data_start = header_end + ((-header_end) % 8)
    view = memoryview(data)

    def checked_blob(entry: dict, what: str) -> memoryview:
        try:
            offset, nbytes, crc = entry["offset"], entry["nbytes"], entry["crc32"]
        except (KeyError, TypeError):
            raise ColumnarFormatError(f"{path}: {what}: malformed blob entry") from None
        start = data_start + offset
        end = start + nbytes
        if offset < 0 or nbytes < 0 or end > size:
            raise ColumnarFormatError(
                f"{path}: {what}: blob extends past end of file "
                f"(offset {offset}, {nbytes} bytes, file is {size})"
            )
        blob = view[start:end]
        if zlib.crc32(blob) != crc:
            raise ColumnarFormatError(f"{path}: {what}: checksum mismatch")
        return blob

    columns: list[list] = []
    schema_columns: list[tuple[str, str]] = []
    for entry in header.get("columns", []):
        if not isinstance(entry, dict):
            raise ColumnarFormatError(f"{path}: malformed column entry {entry!r}")
        column_name = entry.get("name")
        column_type = entry.get("type")
        kind = entry.get("kind")
        if kind not in ("f8", "i8", _DATE_KIND, "str"):
            raise ColumnarFormatError(
                f"{path}: column {column_name!r}: unknown kind {kind!r}"
            )
        what = f"column {column_name!r}"
        if column_type in _KIND_BY_TYPE and _KIND_BY_TYPE[column_type] != kind:
            # The header carries no checksum: a column must not load
            # values its declared type does not hold.
            raise ColumnarFormatError(
                f"{path}: {what}: type {column_type!r} is not stored as {kind!r}"
            )
        blob = checked_blob(entry, what)
        if kind == "str":
            aux_blob = checked_blob(entry.get("aux") or {}, f"{what} offsets")
            if len(aux_blob) != (rows + 1) * 8:
                raise ColumnarFormatError(f"{path}: {what}: offsets size mismatch")
            offsets = aux_blob.cast("q").tolist()
            if offsets[0] != 0:
                raise ColumnarFormatError(f"{path}: {what}: offsets must start at 0")
            if any(map(operator.gt, offsets, offsets[1:])):
                raise ColumnarFormatError(f"{path}: {what}: offsets not monotone")
            if offsets[rows] != len(blob):
                raise ColumnarFormatError(f"{path}: {what}: offsets/data mismatch")
            text = bytes(blob)
            try:
                values = [
                    text[start:end].decode("utf-8")
                    for start, end in zip(offsets, offsets[1:])
                ]
            except UnicodeDecodeError as error:
                raise ColumnarFormatError(f"{path}: {what}: {error}") from None
        else:
            if len(blob) != rows * 8:
                raise ColumnarFormatError(
                    f"{path}: {what}: expected {rows * 8} data bytes, "
                    f"found {len(blob)}"
                )
            values = blob.cast("d" if kind == "f8" else "q").tolist()
            if kind == _DATE_KIND:
                try:
                    values = list(map(_dt.date.fromordinal, values))
                except (ValueError, OverflowError) as error:
                    raise ColumnarFormatError(f"{path}: {what}: {error}") from None
        columns.append(values)
        schema_columns.append((column_name, column_type))
    try:
        schema = Schema(schema_columns)
    except Exception as error:
        raise ColumnarFormatError(f"{path}: invalid schema ({error})") from None
    table_name = header.get("name")
    if not isinstance(table_name, str) or not table_name:
        raise ColumnarFormatError(f"{path}: missing table name")
    table = Table(table_name if name is None else name, schema)
    table.extend_columns(columns)
    return table


def sidecar_path(csv_path: Union[str, Path]) -> str:
    """The columnar cache file conventionally paired with a CSV."""
    return str(csv_path) + ".rcol"


def load_table(
    path: Union[str, Path],
    name: str,
    schema: Schema,
    *,
    policy="raise",
    diagnostics=None,
):
    """Load a table, preferring columnar storage, falling back to CSV.

    - ``*.rcol`` paths load strictly through :func:`load_columnar`
      (schema must match; corruption raises);
    - CSV paths first probe the ``<path>.rcol`` sidecar: a valid,
      schema-matching sidecar is read; a rejected one (torn write,
      checksum mismatch, schema drift) records a warning on
      ``diagnostics`` and the CSV is ingested instead — the clean
      fallback the crash-consistency suite pins.
    """
    from repro.engine.csv_io import load_csv

    path = str(path)
    if path.endswith(".rcol"):
        table = load_columnar(path, name=name)
        _check_schema(path, table.schema, schema)
        return table
    sidecar = sidecar_path(path)
    if os.path.exists(sidecar):
        try:
            table = load_columnar(sidecar, name=name)
            _check_schema(sidecar, table.schema, schema)
            return table
        except ColumnarFormatError as error:
            if diagnostics is not None:
                diagnostics.warn(
                    f"columnar sidecar rejected ({error}); "
                    f"falling back to CSV ingest of {path}"
                )
    return load_csv(path, name, schema, policy=policy, diagnostics=diagnostics)


def _check_schema(path: str, found: Schema, expected: Schema) -> None:
    found_cols = [(c.name, c.type) for c in found.columns]
    expected_cols = [(c.name, c.type) for c in expected.columns]
    if found_cols != expected_cols:
        raise ColumnarFormatError(
            f"{path}: schema {found_cols} does not match expected "
            f"{expected_cols}"
        )


def _main(argv: Optional[list[str]] = None) -> int:
    """``python -m repro.engine.columnar``: convert a CSV to columnar."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Convert a CSV table to the columnar format."
    )
    parser.add_argument("csv", help="input CSV path")
    parser.add_argument(
        "output", nargs="?", default=None,
        help="output path (default: <csv>.rcol sidecar)",
    )
    parser.add_argument("--name", required=True, help="table name")
    parser.add_argument(
        "--schema", required=True,
        help="comma-separated col:type list (types: str,int,float,date)",
    )
    args = parser.parse_args(argv)
    columns = []
    for part in args.schema.split(","):
        column_name, _, column_type = part.strip().partition(":")
        columns.append((column_name, column_type))
    from repro.engine.csv_io import load_csv

    table = load_csv(args.csv, args.name, Schema(columns))
    output = args.output if args.output is not None else sidecar_path(args.csv)
    write_columnar(table, output)
    print(f"wrote {output} ({len(table)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
