"""Crash consistency of the columnar file format.

The ``.rcol`` writer is atomic (tmp + fsync + rename) and the loader
validates magic, version, blob extents, CRCs, string-offset
monotonicity and each column's declared type against its stored kind —
so any torn, partial, or lost write must surface as
:class:`~repro.errors.ColumnarFormatError` on load, never as silently
wrong rows.  Failpoints (``columnar.write`` / ``columnar.fsync`` /
``columnar.rename``) drive each fault class deterministically, and
:func:`~repro.engine.columnar.load_table` must fall back to CSV ingest
with a diagnostic when a *sidecar* is damaged.  These fault classes run
in the CI fault matrix alongside the checkpoint ones.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import failpoints
from repro.engine import csv_io
from repro.engine.columnar import (
    MAGIC,
    load_columnar,
    load_table,
    sidecar_path,
    write_columnar,
)
from repro.engine.csv_io import save_csv
from repro.engine.table import Schema, Table
from repro.errors import ColumnarFormatError, FailpointError
from repro.resilience import Diagnostics

SCHEMA = [("name", "str"), ("date", "date"), ("price", "float"), ("volume", "int")]

#: A file written by the format's first writer, from :func:`golden_table`.
GOLDEN = Path(__file__).parent / "data" / "quote_v1.rcol"


def sample_table(rows=12) -> Table:
    table = Table("quote", SCHEMA)
    base = dt.date(2001, 3, 5)
    for index in range(rows):
        table.insert(
            {
                "name": "AAA" if index % 2 else "BBB",
                "date": base + dt.timedelta(days=index),
                "price": 50.0 + index * 0.5,
                "volume": 1000 + index,
            }
        )
    return table


def golden_table() -> Table:
    table = Table("quote", SCHEMA)
    table.extend_columns(
        [
            ["BBB", "", "Zürich ☃", "AAA"],
            [dt.date(1, 1, 1), dt.date(2001, 3, 5), dt.date(9999, 12, 31),
             dt.date(2001, 3, 6)],
            [-0.0, float("inf"), float("nan"), 50.5],
            [-(2**63), 2**63 - 1, 0, 1000],
        ]
    )
    return table


def cells(table):
    """Every cell as ``(type, repr)``, column by column: a NaN equals a
    NaN, and ``-0.0`` differs from ``0.0``."""
    return {
        name: [(type(value), repr(value)) for value in table.column(name)]
        for name in table.schema.names
    }


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


def test_round_trip_preserves_rows_and_schema(tmp_path):
    table = sample_table()
    path = str(tmp_path / "quote.rcol")
    write_columnar(table, path)
    loaded = load_columnar(path)
    assert isinstance(loaded, Table)
    assert loaded.name == table.name
    assert loaded.schema.columns == table.schema.columns
    assert len(loaded) == len(table.rows)
    assert loaded.rows == table.rows


def test_a_file_of_the_first_writer_loads_and_is_written_again(tmp_path):
    loaded = load_columnar(GOLDEN)
    assert loaded.schema.columns == Schema(SCHEMA).columns
    assert cells(loaded) == cells(golden_table())
    path = tmp_path / "quote.rcol"
    write_columnar(golden_table(), path)
    assert path.read_bytes() == GOLDEN.read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.text(),
            st.dates(),
            st.floats(),
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
        ),
        max_size=12,
    )
)
@example(
    [
        ("", dt.date.min, float("nan"), -(2**63)),
        ("é☃", dt.date.max, -0.0, 2**63 - 1),
        ("x", dt.date(2001, 3, 5), float("inf"), 0),
        ("", dt.date(2001, 3, 5), float("-inf"), -1),
    ]
)
def test_round_trip_keeps_schema_values_and_types(rows):
    table = Table("quote", SCHEMA)
    table.insert_many(dict(zip(table.schema.names, row)) for row in rows)
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "quote.rcol")
        write_columnar(table, path)
        loaded = load_columnar(path)
    assert (loaded.name, loaded.schema.columns) == (table.name, table.schema.columns)
    assert len(loaded) == len(rows)
    assert cells(loaded) == cells(table)


def test_empty_table_round_trips(tmp_path):
    table = Table("quote", SCHEMA)
    path = str(tmp_path / "empty.rcol")
    write_columnar(table, path)
    loaded = load_columnar(path)
    assert len(loaded) == 0 and list(loaded) == []


# ----------------------------------------------------------------------
# Fault classes (mirrored in the CI fault matrix)
# ----------------------------------------------------------------------


def test_torn_write_rejected_on_load(tmp_path):
    """A write torn mid-payload must fail validation, not load."""
    path = str(tmp_path / "quote.rcol")
    with failpoints.scoped("columnar.write=torn:40"):
        write_columnar(sample_table(), path)
    assert os.path.exists(path)  # the rename completed; content is torn
    with pytest.raises(ColumnarFormatError):
        load_columnar(path)


def test_partial_file_truncated_rejected(tmp_path):
    """A file truncated after the fact (a partial copy) fails extents."""
    path = str(tmp_path / "quote.rcol")
    write_columnar(sample_table(), path)
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size // 2)
    with pytest.raises(ColumnarFormatError):
        load_columnar(path)


def test_rename_crash_leaves_no_file(tmp_path):
    """A crash between tmp write and rename leaves nothing behind —
    neither the final file nor the tmp."""
    path = str(tmp_path / "quote.rcol")
    with failpoints.scoped("columnar.rename=raise"):
        with pytest.raises(FailpointError):
            write_columnar(sample_table(), path)
    assert not os.path.exists(path)
    assert os.listdir(tmp_path) == []


def test_fsync_loss_is_tolerated_when_content_survives(tmp_path):
    """A skipped fsync alone (no crash) still produces a valid file —
    durability is at risk, consistency is not."""
    path = str(tmp_path / "quote.rcol")
    with failpoints.scoped("columnar.fsync=skip"):
        write_columnar(sample_table(), path)
    assert len(load_columnar(path)) == 12


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "quote.rcol")
    write_columnar(sample_table(), path)
    with open(path, "r+b") as handle:
        handle.write(b"NOTMAGIC")
    with pytest.raises(ColumnarFormatError):
        load_columnar(path)


def test_crc_bit_flip_rejected(tmp_path):
    path = str(tmp_path / "quote.rcol")
    write_columnar(sample_table(), path)
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.seek(size - 3)
        byte = handle.read(1)
        handle.seek(size - 3)
        handle.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(ColumnarFormatError):
        load_columnar(path)


def rewrite(path, column, data=None, **fields):
    """Rewrite ``path`` so that ``column``'s header entry has ``fields``
    and, given ``data``, its blob holds ``data`` (of the same size) under
    a matching checksum; every other byte keeps what the writer wrote."""
    raw = Path(path).read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    header_end = len(MAGIC) + 4 + header_len
    header = json.loads(raw[len(MAGIC) + 4 : header_end])
    blobs = bytearray(raw[header_end + (-header_end) % 8 :])
    for entry in header["columns"]:
        if entry["name"] == column:
            entry.update(fields)
            if data is not None:
                blobs[entry["offset"] : entry["offset"] + entry["nbytes"]] = data
                entry["crc32"] = zlib.crc32(data)
    write_header(path, header, bytes(blobs))


def write_header(path, header, blobs=b""):
    encoded = json.dumps(header).encode()
    prefix = MAGIC + struct.pack("<I", len(encoded)) + encoded
    Path(path).write_bytes(prefix + bytes((-len(prefix)) % 8) + blobs)


#: A header that declares a type its column's blob does not hold (an
#: int column over float64, a date column over int64, a float column
#: over int64, which validation alone would widen), and a value of the
#: declared type for row ``i``.
TYPE_DRIFT = [
    pytest.param("price", "int", lambda i: 50 + i, id="int-over-f8"),
    pytest.param(
        "volume", "date", lambda i: dt.date(2001, 1, 1) + dt.timedelta(days=i),
        id="date-over-i8",
    ),
    pytest.param("volume", "float", lambda i: 1000.5 + i, id="float-over-i8"),
]


@pytest.mark.parametrize("column, declared, _", TYPE_DRIFT)
def test_a_type_its_blob_does_not_hold_is_rejected(tmp_path, column, declared, _):
    path = str(tmp_path / "quote.rcol")
    write_columnar(sample_table(), path)
    rewrite(path, column, type=declared)
    with pytest.raises(ColumnarFormatError) as info:
        load_columnar(path)
    assert path in str(info.value) and f"column {column!r}" in str(info.value)


@pytest.mark.parametrize("column, declared, value", TYPE_DRIFT)
def test_a_sidecar_with_a_type_its_blob_does_not_hold_falls_back_to_csv(
    tmp_path, column, declared, value
):
    # The CSV holds the declared type, so the sidecar matches the
    # expected schema and only its blob is wrong.
    schema = Schema([(name, declared if name == column else kind) for name, kind in SCHEMA])
    table = Table("quote", schema)
    table.insert_many(
        dict(row, **{column: value(i)}) for i, row in enumerate(sample_table().rows)
    )
    csv_path = str(tmp_path / "quote.csv")
    save_csv(table, csv_path)
    write_columnar(sample_table(), sidecar_path(csv_path))
    rewrite(sidecar_path(csv_path), column, type=declared)
    diagnostics = Diagnostics()
    loaded = load_table(csv_path, "quote", schema, diagnostics=diagnostics)
    assert cells(loaded) == cells(table)
    (warning,) = diagnostics.warnings
    assert warning.startswith(f"columnar sidecar rejected ({sidecar_path(csv_path)}: ")
    assert warning.endswith(f"; falling back to CSV ingest of {csv_path}")


def test_a_well_checksummed_file_with_bad_contents_is_rejected(tmp_path):
    path = str(tmp_path / "quote.rcol")
    table = sample_table()
    write_columnar(table, path)
    # Day 0 is before date.min; 0xff never starts a UTF-8 character.
    rewrite(path, "volume", data=bytes(8 * len(table)), type="date", kind="date")
    with pytest.raises(ColumnarFormatError, match="column 'volume'"):
        load_columnar(path)
    write_columnar(table, path)
    rewrite(path, "name", data=b"\xff" * 3 * len(table))
    with pytest.raises(ColumnarFormatError, match="column 'name'"):
        load_columnar(path)
    write_header(path, ["not", "an", "object"])
    with pytest.raises(ColumnarFormatError, match="malformed header"):
        load_columnar(path)
    write_header(path, {"version": 1, "name": "quote", "rows": 0, "columns": ["name"]})
    with pytest.raises(ColumnarFormatError, match="malformed column entry"):
        load_columnar(path)


def test_garbage_file_rejected(tmp_path):
    path = str(tmp_path / "quote.rcol")
    with open(path, "wb") as handle:
        handle.write(b"\x00" * 7)
    with pytest.raises(ColumnarFormatError):
        load_columnar(path)


# ----------------------------------------------------------------------
# load_table: strict .rcol vs sidecar-with-fallback
# ----------------------------------------------------------------------


def test_load_table_serves_rcol_directly(tmp_path):
    table = sample_table()
    path = str(tmp_path / "quote.rcol")
    write_columnar(table, path)
    assert load_table(path, "quote", Schema(SCHEMA)).rows == table.rows


def test_load_table_rcol_schema_mismatch_raises(tmp_path):
    path = str(tmp_path / "quote.rcol")
    write_columnar(sample_table(), path)
    with pytest.raises(ColumnarFormatError):
        load_table(path, "quote", Schema([("name", "str"), ("price", "float")]))


def test_damaged_sidecar_falls_back_to_csv(tmp_path):
    """A CSV with a torn .rcol sidecar loads from the CSV, with a
    diagnostic — never an error, never wrong rows."""
    table = sample_table()
    csv_path = str(tmp_path / "quote.csv")
    save_csv(table, csv_path)
    with failpoints.scoped("columnar.write=torn:40"):
        write_columnar(table, sidecar_path(csv_path))
    diagnostics = Diagnostics()
    loaded = load_table(
        csv_path, "quote", Schema(SCHEMA), diagnostics=diagnostics
    )
    assert loaded.rows == table.rows
    assert any("sidecar" in warning for warning in diagnostics.warnings)


def test_intact_sidecar_is_preferred(tmp_path, monkeypatch):
    table = sample_table()
    csv_path = str(tmp_path / "quote.csv")
    save_csv(table, csv_path)
    write_columnar(table, sidecar_path(csv_path))

    def no_csv_ingest(*args, **kwargs):
        raise AssertionError("an intact sidecar must not ingest the CSV")

    monkeypatch.setattr(csv_io, "load_csv", no_csv_ingest)
    diagnostics = Diagnostics()
    loaded = load_table(
        csv_path, "quote", Schema(SCHEMA), diagnostics=diagnostics
    )
    assert loaded.rows == table.rows
    assert not diagnostics.warnings


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("sidecar", [False, True], ids=["rcol", "sidecar"])
def test_a_loaded_table_holds_no_file_descriptor(tmp_path, sidecar):
    table = sample_table()
    if sidecar:
        path = str(tmp_path / "quote.csv")
        save_csv(table, path)
        write_columnar(table, sidecar_path(path))
    else:
        path = str(tmp_path / "quote.rcol")
        write_columnar(table, path)
    before = open_fds()
    loaded = load_table(path, "quote", Schema(SCHEMA))
    assert open_fds() == before
    assert loaded.rows == table.rows


def test_conversion_cli_round_trips(tmp_path, capsys):
    from repro.engine.columnar import _main

    table = sample_table()
    csv_path = str(tmp_path / "quote.csv")
    out_path = str(tmp_path / "quote.rcol")
    save_csv(table, csv_path)
    schema_spec = ",".join(f"{name}:{kind}" for name, kind in SCHEMA)
    exit_code = _main(
        [csv_path, out_path, "--name", "quote", "--schema", schema_spec]
    )
    assert exit_code == 0
    assert load_columnar(out_path).rows == table.rows
