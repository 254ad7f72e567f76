"""Crash consistency of the out-of-core columnar file format.

The ``.rcol`` writer is atomic (tmp + fsync + rename) and the mmap
loader validates magic, version, blob extents, CRCs, and string-offset
monotonicity — so any torn, partial, or lost write must surface as
:class:`~repro.errors.ColumnarFormatError` on load, never as silently
wrong rows.  Failpoints (``columnar.write`` / ``columnar.fsync`` /
``columnar.rename``) drive each fault class deterministically, and
:func:`~repro.engine.columnar.load_table` must fall back to CSV ingest
with a diagnostic when a *sidecar* is damaged.  These fault classes run
in the CI fault matrix alongside the checkpoint ones.
"""

from __future__ import annotations

import datetime as dt
import os
import pickle

import pytest

from repro import failpoints
from repro.engine.catalog import Catalog
from repro.engine.columnar import (
    ColumnarTable,
    load_columnar,
    load_table,
    sidecar_path,
    write_columnar,
)
from repro.engine.csv_io import save_csv
from repro.engine.executor import Executor
from repro.engine.table import Schema, Table
from repro.errors import ColumnarFormatError, ExecutionError, FailpointError
from repro.resilience import Diagnostics

SCHEMA = [("name", "str"), ("date", "date"), ("price", "float"), ("volume", "int")]


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
    try:
        assert isinstance(loaded, ColumnarTable)
        assert loaded.name == table.name
        assert loaded.schema.columns == table.schema.columns
        assert len(loaded) == len(table.rows)
        assert [dict(row) for row in loaded] == table.rows
        # A row pickles as the dict of its values, not as the mapping.
        assert pickle.loads(pickle.dumps(loaded.rows[3])) == table.rows[3]
    finally:
        loaded.close()


def test_a_closed_table_refuses_iteration_and_queries(tmp_path):
    path = str(tmp_path / "quote.rcol")
    write_columnar(sample_table(), path)
    loaded = load_columnar(path)
    executor = Executor(Catalog([loaded]))
    query = (
        "SELECT X.date FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) "
        "WHERE Y.price > X.price"
    )
    assert len(executor.execute(query).rows) == 6
    assert loaded.partitions
    loaded.close()
    # The partition went with the mapping: nothing answers from it.
    assert not loaded.partitions
    with pytest.raises(ExecutionError, match="table 'quote' is closed"):
        executor.execute(query)
    with pytest.raises(ExecutionError, match="table 'quote' is closed"):
        list(loaded)


def test_empty_table_round_trips(tmp_path):
    table = Table("quote", SCHEMA)
    path = str(tmp_path / "empty.rcol")
    write_columnar(table, path)
    loaded = load_columnar(path)
    try:
        assert len(loaded) == 0 and list(loaded) == []
    finally:
        loaded.close()


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


def test_partial_mmap_truncated_file_rejected(tmp_path):
    """A file truncated after the fact (partial mmap) fails extents."""
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
    loaded = load_columnar(path)
    try:
        assert len(loaded) == 12
    finally:
        loaded.close()


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
    loaded = load_table(path, "quote", Schema(SCHEMA))
    try:
        assert [dict(row) for row in loaded] == table.rows
    finally:
        loaded.close()


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
    assert isinstance(loaded, Table)  # CSV ingest, not the mmap path
    assert loaded.rows == table.rows
    assert any("sidecar" in warning for warning in diagnostics.warnings)


def test_intact_sidecar_is_preferred(tmp_path):
    table = sample_table()
    csv_path = str(tmp_path / "quote.csv")
    save_csv(table, csv_path)
    write_columnar(table, sidecar_path(csv_path))
    diagnostics = Diagnostics()
    loaded = load_table(
        csv_path, "quote", Schema(SCHEMA), diagnostics=diagnostics
    )
    try:
        assert isinstance(loaded, ColumnarTable)
        assert [dict(row) for row in loaded] == table.rows
        assert not diagnostics.warnings
    finally:
        loaded.close()


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
    loaded = load_columnar(out_path)
    try:
        assert [dict(row) for row in loaded] == table.rows
    finally:
        loaded.close()
