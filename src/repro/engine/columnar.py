"""Columnar storage and vectorized predicate kernels.

Two cooperating halves, both behind the existing engine API:

**Kernel materialization** (stage 2 of the lowering started in
:mod:`repro.pattern.kernels`): bind a pattern's symbolic kernel programs
to one cluster's rows and produce per-element **truth arrays** — one
byte per input position, 1 where the element predicate holds.  Matchers
substitute ``truth[i]`` for the compiled closure call, and the OPS scan
advances star runs and mismatch self-loops with C-speed ``bytes.find``
scans whose tests it charges as one sum.  Because the truth value at
every position equals what the row evaluator would have returned there,
matches, test counts, skip accounting, and budget spend are those of
the row path; the differential suites
(``tests/engine/test_columnar_equivalence.py``,
``tests/match/test_counted_runs.py``) hold both paths byte-identical.

Each comparison's truth bytes come from one of two kernels:

- NumPy: whole-column float64 arithmetic, used only for columns whose
  every cell is a ``float`` — Python floats are IEEE doubles, so the
  results are bit-identical to the scalar computation;
- scalar Python, for every other column (ints, dates, strings, missing
  cells): it evaluates the *identical* expression the row closure
  evaluates (``op(a * value + b, c)``) on the identical cell objects,
  so parity is automatic for every value type.  ``backend="python"``
  forces it everywhere: the reference the bit-parity test holds the
  NumPy kernels to.

NumPy is a declared dependency, imported on the first materialization
(the stream path never materializes, so it never loads it).

Materialization is conservative: any exception while building one
element's truth (a non-numeric cell, an overflow, a pathological
``__mul__``) silently drops that element back to the row evaluator, so
errors surface — or don't — exactly where the row path surfaces them.

**Out-of-core columnar files**: a single-file binary format (magic,
JSON header, CRC32-checksummed little-endian column blobs) written
atomically and loaded through ``mmap``, so a table larger than memory
is paged in by the OS instead of materialized as row dicts.
:class:`ColumnarTable` exposes the mapped data through the same
``name`` / ``schema`` / iteration surface as
:class:`~repro.engine.table.Table`; each row is a lazy
:class:`RowView` mapping.  Loading validates magic, version, blob
extents, and checksums — a torn write or partial file raises
:class:`~repro.errors.ColumnarFormatError` and
:func:`load_table` falls back to CSV ingest with a diagnostic, which is
what the failpoint-driven crash-consistency suite pins
(``tests/engine/test_columnar_file.py``).

See ``docs/performance.md`` ("Columnar execution") for flags and the
kernel spans emitted through :mod:`repro.obs`.
"""

from __future__ import annotations

import datetime as _dt
import json
import mmap
import os
import struct
import zlib
from collections.abc import Mapping as _MappingABC
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from repro import failpoints
from repro.constraints.atoms import Op
from repro.engine.table import Schema
from repro.errors import ColumnarFormatError
from repro.pattern.kernels import (
    CompareConst,
    ComparePair,
    Disjunction,
    ElementKernel,
    Ground,
    StringEquality,
)

import operator

_OP_FUNCS = {
    Op.EQ: operator.eq,
    Op.NE: operator.ne,
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
}

#: Marks a (row, column) cell whose row has no such key.  The row
#: evaluators turn a missing column into False (KeyError caught); the
#: kernels do the same by leaving the truth byte 0.
_MISSING = object()


# ----------------------------------------------------------------------
# Column store (per-cluster, transient)
# ----------------------------------------------------------------------


class _Column:
    """One column's cells for a cluster, plus vectorization eligibility."""

    __slots__ = ("values", "floats_only", "_f8")

    def __init__(self, rows: Sequence, name: str):
        values = []
        floats_only = True
        for row in rows:
            try:
                value = row[name]
            except KeyError:
                value = _MISSING
                floats_only = False
            else:
                if type(value) is not float:
                    floats_only = False
            values.append(value)
        self.values = values
        self.floats_only = floats_only
        self._f8 = _MISSING

    def f8(self, np):
        """float64 ndarray of this column, or None when not exact.

        Only all-``float`` columns vectorize: a Python float *is* an
        IEEE double, so float64 arithmetic reproduces the scalar
        computation bit-for-bit.  Ints (arbitrary precision), dates,
        strings, and missing cells stay on the Python kernels.
        """
        if self._f8 is _MISSING:
            if np is None or not self.floats_only:
                self._f8 = None
            else:
                self._f8 = np.asarray(self.values, dtype=np.float64)
        return self._f8


class ColumnStore:
    """Lazily-built columns over one cluster's rows."""

    __slots__ = ("rows", "n", "_columns")

    def __init__(self, rows: Sequence):
        self.rows = rows
        self.n = len(rows)
        self._columns: dict[str, _Column] = {}

    def column(self, name: str) -> _Column:
        column = self._columns.get(name)
        if column is None:
            column = _Column(self.rows, name)
            self._columns[name] = column
        return column


# ----------------------------------------------------------------------
# Truth materialization (stage 2)
# ----------------------------------------------------------------------


class ClusterKernels:
    """Per-element truth arrays for one cluster.

    ``truth[j - 1]`` is a ``bytes`` with one byte per row (1 where element
    j's predicate holds at that position) or None where the element fell
    back to the row evaluator.  Identical element kernels share one
    truth object (Example 10's repeated shapes deduplicate).
    """

    __slots__ = ("truth", "backend", "lowered")

    def __init__(self, truth: tuple, backend: str):
        self.truth = truth
        self.backend = backend
        self.lowered = sum(1 for t in truth if t is not None)


def materialize_kernels(
    compiled, rows: Sequence, backend: str = "numpy"
) -> Optional[ClusterKernels]:
    """Build truth arrays for ``rows`` from a compiled pattern's plan.

    Returns None when nothing lowered (interpreted oracle plans, fully
    residual patterns, or every element failing materialization) — the
    caller then runs the plain row path.  ``backend`` is ``"numpy"``
    (whole-column float64 where exact, scalar Python otherwise) or
    ``"python"`` (scalar kernels only — the reference the bit-parity
    test holds the NumPy kernels to).
    """
    if backend not in ("numpy", "python"):
        raise ValueError(f"backend must be 'numpy' or 'python', got {backend!r}")
    plan = compiled.kernel_plan
    if plan.lowered == 0:
        return None
    # Imported here, not per element inside the ``except`` below: NumPy
    # is a declared dependency, so a missing one must fail loudly, and a
    # module-level import would load it on the stream path, which never
    # materializes kernels.
    import numpy

    np = numpy if backend == "numpy" else None
    store = ColumnStore(rows)
    n = store.n
    memo: dict[ElementKernel, Optional[bytes]] = {}
    truth: list[Optional[bytes]] = []
    used_numpy = False
    for kernel in plan.elements:
        if kernel is None:
            truth.append(None)
            continue
        if kernel in memo:
            truth.append(memo[kernel])
            continue
        try:
            built, vectorized = _element_truth(kernel, store, n, np)
        except Exception:
            # Anything the batch evaluation trips over (non-numeric
            # cells, overflow, exotic operators) is left to the row
            # evaluator, which raises — or short-circuits past it —
            # exactly as the row path always did.
            built, vectorized = None, False
        used_numpy = used_numpy or vectorized
        memo[kernel] = built
        truth.append(built)
    if all(t is None for t in truth):
        return None
    return ClusterKernels(
        tuple(truth), backend="numpy" if used_numpy else "python"
    )


def _element_truth(
    kernel: ElementKernel, store: ColumnStore, n: int, np
) -> tuple[bytes, bool]:
    """AND the kernel's step truths; returns (truth, used_numpy)."""
    if not kernel.steps:
        return b"\x01" * n, False
    truths = []
    used_numpy = False
    for step in kernel.steps:
        truth, vectorized = _step_truth(step, store, n, np)
        used_numpy = used_numpy or vectorized
        truths.append(truth)
    return _and_all(truths, n), used_numpy


def _and_all(truths: list[bytes], n: int) -> bytes:
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


def _step_truth(step, store: ColumnStore, n: int, np) -> tuple[bytes, bool]:
    if isinstance(step, CompareConst):
        return _compare_const_truth(step, store, n, np)
    if isinstance(step, ComparePair):
        return _compare_pair_truth(step, store, n, np)
    if isinstance(step, StringEquality):
        return _string_equality_truth(step, store, n), False
    if isinstance(step, Ground):
        return (b"\x01" * n if step.result else bytes(n)), False
    if isinstance(step, Disjunction):
        branch_truths = []
        used_numpy = False
        for branch in step.branches:
            leaf_truths = []
            for leaf in branch:
                truth, vectorized = _step_truth(leaf, store, n, np)
                used_numpy = used_numpy or vectorized
                leaf_truths.append(truth)
            branch_truths.append(_and_all(leaf_truths, n))
        return _or_all(branch_truths, n), used_numpy
    raise TypeError(f"unknown kernel step {type(step).__name__}")


def _valid_range(n: int, *offsets: int) -> tuple[int, int]:
    """Positions i where every ``i + off`` lands inside [0, n)."""
    lo = 0
    hi = n
    for off in offsets:
        lo = max(lo, -off)
        hi = min(hi, n - off)
    return lo, max(lo, hi)


def _np_exact(value) -> bool:
    """True when float64 arithmetic with ``value`` matches Python's."""
    if type(value) is float:
        return True
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value) == value
        except OverflowError:
            return False
    return False


def _compare_const_truth(
    step: CompareConst, store: ColumnStore, n: int, np
) -> tuple[bytes, bool]:
    column = store.column(step.name)
    lo, hi = _valid_range(n, step.off)
    holds = _OP_FUNCS[step.op]
    a, b, c = step.a, step.b, step.const
    if (
        np is not None
        and _np_exact(a)
        and _np_exact(b)
        and _np_exact(c)
    ):
        arr = column.f8(np)
        if arr is not None:
            out = np.zeros(n, dtype=np.uint8)
            if hi > lo:
                seg = arr[lo + step.off : hi + step.off]
                with np.errstate(all="ignore"):
                    term = a * seg + b
                    result = holds(c, term) if step.const_on_left else holds(term, c)
                out[lo:hi] = result
            return out.tobytes(), True
    out = bytearray(n)
    values = column.values
    off = step.off
    if step.const_on_left:
        for i in range(lo, hi):
            value = values[i + off]
            if value is not _MISSING and holds(c, a * value + b):
                out[i] = 1
    else:
        for i in range(lo, hi):
            value = values[i + off]
            if value is not _MISSING and holds(a * value + b, c):
                out[i] = 1
    return bytes(out), False


def _compare_pair_truth(
    step: ComparePair, store: ColumnStore, n: int, np
) -> tuple[bytes, bool]:
    left = store.column(step.left_name)
    right = store.column(step.right_name)
    lo, hi = _valid_range(n, step.left_off, step.right_off)
    holds = _OP_FUNCS[step.op]
    la, lb = step.left_a, step.left_b
    ra, rb = step.right_a, step.right_b
    if (
        np is not None
        and _np_exact(la)
        and _np_exact(lb)
        and _np_exact(ra)
        and _np_exact(rb)
    ):
        left_arr = left.f8(np)
        right_arr = right.f8(np)
        if left_arr is not None and right_arr is not None:
            out = np.zeros(n, dtype=np.uint8)
            if hi > lo:
                lhs = left_arr[lo + step.left_off : hi + step.left_off]
                rhs = right_arr[lo + step.right_off : hi + step.right_off]
                with np.errstate(all="ignore"):
                    out[lo:hi] = holds(la * lhs + lb, ra * rhs + rb)
            return out.tobytes(), True
    out = bytearray(n)
    left_values = left.values
    right_values = right.values
    left_off, right_off = step.left_off, step.right_off
    for i in range(lo, hi):
        left_value = left_values[i + left_off]
        if left_value is _MISSING:
            continue
        # Complete the left term before reading the right cell, exactly
        # like the row closure, so a non-numeric left value raises here
        # (and drops the element to the row path) regardless of the
        # right side.
        lhs = la * left_value + lb
        right_value = right_values[i + right_off]
        if right_value is _MISSING:
            continue
        if holds(lhs, ra * right_value + rb):
            out[i] = 1
    return bytes(out), False


def _string_equality_truth(
    step: StringEquality, store: ColumnStore, n: int
) -> bytes:
    column = store.column(step.name)
    lo, hi = _valid_range(n, step.off)
    out = bytearray(n)
    values = column.values
    off = step.off
    expected = step.value
    equals = step.equals
    for i in range(lo, hi):
        value = values[i + off]
        if value is _MISSING:
            continue
        if (value == expected) if equals else (value != expected):
            out[i] = 1
    return bytes(out)


# ----------------------------------------------------------------------
# Out-of-core columnar files
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


def write_columnar(table, path: Union[str, Path]) -> None:
    """Serialize a table to the columnar format, atomically.

    ``table`` is anything with ``name``, ``schema``, and row iteration —
    :class:`~repro.engine.table.Table` or :class:`ColumnarTable`.  The
    payload is assembled fully, passed through the ``columnar.write``
    failpoint (torn-write injection), written to ``<path>.tmp``, fsynced
    (``columnar.fsync``), and renamed into place (``columnar.rename``) —
    a crash at any point leaves either the old file or no file, never a
    half-written one the loader would trust.
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


def _serialize(table) -> bytes:
    schema: Schema = table.schema
    names = schema.names
    columns_values: dict[str, list] = {name: [] for name in names}
    rows = 0
    for row in table:
        rows += 1
        for name in names:
            columns_values[name].append(row[name])
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
        values = columns_values[column.name]
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


class _StoredColumn:
    """One mmap-backed column: typed view plus a value decoder."""

    __slots__ = ("kind", "data", "aux")

    def __init__(self, kind: str, data, aux=None):
        self.kind = kind
        self.data = data
        self.aux = aux

    def value(self, index: int):
        if self.kind == "f8" or self.kind == "i8":
            return self.data[index]
        if self.kind == _DATE_KIND:
            return _dt.date.fromordinal(self.data[index])
        start, end = self.aux[index], self.aux[index + 1]
        return bytes(self.data[start:end]).decode("utf-8")


class RowView(_MappingABC):
    """A lazy row over a :class:`ColumnarTable` position.

    Behaves like the plain dict rows of :class:`~repro.engine.table.Table`
    — ``row[name]`` decodes the cell on access (dates come back as
    ``datetime.date``, strings as ``str``), missing names raise
    ``KeyError``, and equality/iteration follow the Mapping protocol —
    so matchers, projection, and the kernels treat both storage layouts
    identically.
    """

    __slots__ = ("_table", "_index")

    def __init__(self, table: "ColumnarTable", index: int):
        self._table = table
        self._index = index

    def __getitem__(self, name: str):
        column = self._table._columns.get(name)
        if column is None:
            raise KeyError(name)
        return column.value(self._index)

    def __iter__(self) -> Iterator[str]:
        return iter(self._table.schema.names)

    def __len__(self) -> int:
        return len(self._table.schema.names)

    def __repr__(self) -> str:
        return f"RowView({dict(self)!r})"

    def __reduce__(self):
        # The mapping cannot cross a process boundary; the row's values can.
        return (dict, (dict(self),))


class ColumnarTable:
    """A table read from a columnar file via ``mmap``.

    Duck-compatible with :class:`~repro.engine.table.Table` everywhere
    the engine reads one: ``name``, ``schema``, ``__iter__`` /
    ``__len__`` over row mappings, and a ``rows`` list.  Column data
    stays in the mapping until a cell is touched.
    """

    __slots__ = ("name", "schema", "_columns", "_length", "_mmap", "_file", "_rows")

    def __init__(self, name, schema, columns, length, mapped, handle):
        self.name = name
        self.schema = schema
        self._columns = columns
        self._length = length
        self._mmap = mapped
        self._file = handle
        self._rows: Optional[list[RowView]] = None

    @property
    def rows(self) -> list[RowView]:
        if self._rows is None:
            self._rows = [RowView(self, i) for i in range(self._length)]
        return self._rows

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[RowView]:
        return iter(self.rows)

    def close(self) -> None:
        """Release the mapping (reads after close raise)."""
        self._rows = None
        self._columns = {}
        self._mmap.close()
        self._file.close()


def load_columnar(path: Union[str, Path], name: Optional[str] = None) -> ColumnarTable:
    """mmap a columnar file, validating structure and checksums.

    Every rejection — bad magic, unsupported version, truncated blobs,
    checksum mismatches, malformed headers — raises
    :class:`~repro.errors.ColumnarFormatError` naming the file and the
    failed check, so callers can distinguish "corrupt cache" (fall back
    to CSV) from I/O errors.  ``name``, when given, overrides the table
    name stored in the header.
    """
    path = str(path)
    handle = open(path, "rb")
    try:
        size = os.fstat(handle.fileno()).st_size
        if size < len(MAGIC) + 4:
            raise ColumnarFormatError(f"{path}: truncated (only {size} bytes)")
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            return _load_mapped(path, handle, mapped, size, name)
        except BaseException:
            mapped.close()
            raise
    except BaseException:
        handle.close()
        raise


def _load_mapped(path, handle, mapped, size, name) -> ColumnarTable:
    # Every memoryview over the mapping is tracked so the rejection path
    # can release them before the caller closes the mmap — the raised
    # exception's traceback keeps these frames (and their locals) alive,
    # and an un-released view makes mmap.close() raise BufferError.
    views: list[memoryview] = []

    def track(v: memoryview) -> memoryview:
        views.append(v)
        return v

    try:
        return _parse_mapped(path, handle, mapped, size, name, track)
    except BaseException:
        for v in views:
            v.release()
        raise


def _parse_mapped(path, handle, mapped, size, name, track) -> ColumnarTable:
    view = track(memoryview(mapped))
    if bytes(view[: len(MAGIC)]) != MAGIC:
        raise ColumnarFormatError(f"{path}: bad magic (not a columnar file)")
    (header_len,) = struct.unpack_from("<I", view, len(MAGIC))
    header_end = len(MAGIC) + 4 + header_len
    if header_end > size:
        raise ColumnarFormatError(
            f"{path}: truncated header (declares {header_len} bytes)"
        )
    try:
        header = json.loads(bytes(view[len(MAGIC) + 4 : header_end]))
    except ValueError as error:
        raise ColumnarFormatError(f"{path}: malformed header ({error})") from None
    if header.get("version") != FORMAT_VERSION:
        raise ColumnarFormatError(
            f"{path}: unsupported format version {header.get('version')!r}"
        )
    rows = header.get("rows")
    if not isinstance(rows, int) or rows < 0:
        raise ColumnarFormatError(f"{path}: invalid row count {rows!r}")
    data_start = header_end + ((-header_end) % 8)

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
        blob = track(view[start:end])
        if zlib.crc32(blob) != crc:
            raise ColumnarFormatError(f"{path}: {what}: checksum mismatch")
        return blob

    columns: dict[str, _StoredColumn] = {}
    schema_columns: list[tuple[str, str]] = []
    for entry in header.get("columns", []):
        column_name = entry.get("name")
        column_type = entry.get("type")
        kind = entry.get("kind")
        if kind not in ("f8", "i8", _DATE_KIND, "str"):
            raise ColumnarFormatError(
                f"{path}: column {column_name!r}: unknown kind {kind!r}"
            )
        what = f"column {column_name!r}"
        blob = checked_blob(entry, what)
        if kind == "str":
            aux_blob = checked_blob(entry.get("aux") or {}, f"{what} offsets")
            if len(aux_blob) != (rows + 1) * 8:
                raise ColumnarFormatError(f"{path}: {what}: offsets size mismatch")
            aux = track(aux_blob.cast("q"))
            if aux[0] != 0:
                raise ColumnarFormatError(f"{path}: {what}: offsets must start at 0")
            for i in range(rows):
                if aux[i] > aux[i + 1]:
                    raise ColumnarFormatError(
                        f"{path}: {what}: offsets not monotone"
                    )
            if aux[rows] != len(blob):
                raise ColumnarFormatError(f"{path}: {what}: offsets/data mismatch")
            columns[column_name] = _StoredColumn("str", blob, aux)
        else:
            width = 8
            if len(blob) != rows * width:
                raise ColumnarFormatError(
                    f"{path}: {what}: expected {rows * width} data bytes, "
                    f"found {len(blob)}"
                )
            code = "d" if kind == "f8" else "q"
            columns[column_name] = _StoredColumn(kind, track(blob.cast(code)))
        schema_columns.append((column_name, column_type))
    try:
        schema = Schema(schema_columns)
    except Exception as error:
        raise ColumnarFormatError(f"{path}: invalid schema ({error})") from None
    table_name = header.get("name")
    if not isinstance(table_name, str) or not table_name:
        raise ColumnarFormatError(f"{path}: missing table name")
    if name is not None:
        table_name = name
    return ColumnarTable(table_name, schema, columns, rows, mapped, handle)


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
      schema-matching sidecar is mmap'd; a rejected one (torn write,
      checksum mismatch, schema drift) records a warning on
      ``diagnostics`` and the CSV is ingested instead — the clean
      fallback the crash-consistency suite pins.
    """
    from repro.engine.csv_io import load_csv

    path = str(path)
    if path.endswith(".rcol"):
        table = load_columnar(path, name=name)
        try:
            _check_schema(path, table.schema, schema)
        except BaseException:
            table.close()
            raise
        return table
    sidecar = sidecar_path(path)
    if os.path.exists(sidecar):
        table = None
        try:
            table = load_columnar(sidecar, name=name)
            _check_schema(sidecar, table.schema, schema)
            return table
        except ColumnarFormatError as error:
            if table is not None:
                table.close()
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
        description="Convert a CSV table to the mmap-able columnar format."
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
    print(f"wrote {output} ({len(table.rows)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
