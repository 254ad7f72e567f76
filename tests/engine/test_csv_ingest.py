"""CSV ingest: the block loader against the per-row reference loader.

``load_csv`` converts and checks whole blocks of records and hands any
file it cannot load cleanly to ``_load_csv_rows``, the per-row loader.
The properties here hold the two to the same rows (values, types, key
order), the same ``SchemaError`` text and the same ``Diagnostics`` under
every error policy, on files that span many blocks.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import csv_io
from repro.engine.csv_io import _load_csv_rows, iter_csv, load_csv
from repro.engine.table import Schema, Table
from repro.resilience import Diagnostics, ErrorPolicy

SCHEMA = Schema([("name", "str"), ("day", "int"), ("price", "float"), ("when", "date")])
HEADER = "name,day,price,when\n"


def _outcome(loader, path, policy):
    """What one loader does with a file: rows or error, plus diagnostics."""
    diagnostics = Diagnostics()
    try:
        table = loader(path, "t", SCHEMA, policy=policy, diagnostics=diagnostics)
    except Exception as error:  # compared, never swallowed: see assert_same_load
        loaded = ("error", type(error), str(error))
    else:
        loaded = (
            "rows",
            [[(key, type(value), repr(value)) for key, value in row.items()] for row in table],
        )
    return (
        loaded,
        [(row.source, row.line, row.reason, row.values) for row in diagnostics.quarantined],
        [(failure.index, failure.snippet, type(failure.error), str(failure.error))
         for failure in diagnostics.errors],
        diagnostics.warnings,
    )


def assert_same_load(path):
    for policy in ErrorPolicy:
        got = _outcome(load_csv, path, policy)
        want = _outcome(_load_csv_rows, path, policy)
        assert got == want, policy


def _write(directory, text, name="t.csv"):
    path = Path(directory) / name
    path.write_bytes(text.encode("utf-8"))
    return path


# -- generated files ---------------------------------------------------------

clean_cells = {
    "name": st.one_of(
        st.sampled_from(["IBM", "a,b", "line\nbreak", 'say "hi"', "", " x ", "é"]),
        st.text(max_size=4),
    ),
    "day": st.sampled_from(["0", "7", "-12", " 3", "+4", "1_000"]),
    "price": st.sampled_from(["1.5", "2", "-0.0", "1e3", " 4.25 ", "10"]),
    "when": st.sampled_from(["1999-01-25", "2000-02-29", "1987-10-19"]),
    "note": st.sampled_from(["", "x", "n,1"]),
}
bad_cells = {
    "day": st.sampled_from(["1.5", "x", "", "1e3"]),
    "price": st.sampled_from(["nan", "inf", "-inf", "NaN", "abc", ""]),
    "when": st.sampled_from(["1999-13-99", "", "99-01-01", "x"]),
}


@st.composite
def csv_files(draw):
    """A CSV text over SCHEMA: header variants, clean rows, a few faults."""
    names = draw(st.permutations(["name", "day", "price", "when"]))
    extras = draw(st.lists(st.sampled_from(["note", "name", "day", "price"]), max_size=2))
    header = list(names)
    for extra in extras:
        header.insert(draw(st.integers(0, len(header))), extra)
    if draw(st.integers(0, 19)) == 0:
        header.remove(draw(st.sampled_from(["name", "day", "price", "when"])))
    rows = [
        [draw(clean_cells.get(column, clean_cells["note"])) for column in header]
        for _ in range(draw(st.integers(0, 30)))
    ]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        position = draw(st.integers(0, len(rows)))
        fault = draw(st.sampled_from(["cell", "short", "long", "blank", "blank"]))
        if fault == "blank" or not rows:
            rows.insert(position, [])
            continue
        row = rows[min(position, len(rows) - 1)]
        if fault == "long":
            row.append("extra")
        elif row and fault == "short":
            del row[draw(st.integers(0, len(row) - 1)) :]
        elif row:
            index = draw(st.integers(0, len(row) - 1))
            if index < len(header) and header[index] in bad_cells:
                row[index] = draw(bad_cells[header[index]])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    writer.writerows(rows)
    bom = "\ufeff" if draw(st.integers(0, 9)) == 0 else ""
    return bom + out.getvalue()


@settings(max_examples=300, deadline=None)
@given(text=csv_files(), block_rows=st.integers(1, 6))
def test_block_loader_matches_per_row_loader(text, block_rows):
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, text)
        with mock.patch.object(csv_io, "BLOCK_ROWS", block_rows):
            assert_same_load(path)


# -- fixed cases ---------------------------------------------------------------

ROW = "IBM,1,100.5,1999-01-25\n"

FIXED = {
    "empty file": "",
    "header only": HEADER,
    "blank first line": "\n" + HEADER + ROW,
    "blank lines between rows": HEADER + ROW + "\n\n" + ROW + "\n" + ROW,
    "quoted commas and newlines": (
        HEADER + '"A, Inc.",1,2.5,1999-01-25\n"two\nlines",2,3,1999-01-26\n'
    ),
    "duplicate header column": "name,day,price,when,price\nIBM,1,junk,1999-01-25,4.5\n",
    "duplicate column, last cell missing": "name,day,price,when,price\nIBM,1,2.5,1999-01-25\n",
    "extra header columns": "note,name,day,other,price,when\nx,IBM,1,y,2.5,1999-01-25\n",
    "short row missing only non-schema columns": (
        "name,day,price,when,note,more\nIBM,1,2.5,1999-01-25,n,m\nIBM,2,2.5,1999-01-26\n"
    ),
    "short row": HEADER + ROW + "IBM,2,2.5\n",
    "long row": HEADER + ROW + "IBM,2,2.5,1999-01-26,extra\n",
    "nan and inf": HEADER + "IBM,1,nan,1999-01-25\nIBM,2,inf,1999-01-26\nIBM,3,-inf,1999-01-27\n",
    "bad int": HEADER + ROW + "IBM,1.0,2.5,1999-01-26\n",
    "bad float": HEADER + ROW + "IBM,2,2.5.1,1999-01-26\n",
    "bad date": HEADER + ROW + "IBM,2,2.5,1999-02-30\n",
    "byte-order mark": "\ufeff" + HEADER + ROW,
    "missing schema column": "name,day,price\nIBM,1,2.5\n",
    "header named like the extra-cells key": (
        "name,day,price,when,__extra_cells__\nIBM,1,100.5,1999-01-25,x\n"
    ),
}


@pytest.mark.parametrize("text", list(FIXED.values()), ids=list(FIXED))
def test_fixed_case_matches_per_row_loader(tmp_path, text):
    assert_same_load(_write(tmp_path, text))


def test_last_duplicate_header_column_wins(tmp_path):
    path = _write(tmp_path, FIXED["duplicate header column"])
    [row] = load_csv(path, "t", SCHEMA).rows
    assert row == {"name": "IBM", "day": 1, "price": 4.5, "when": dt.date(1999, 1, 25)}


def test_short_row_missing_only_non_schema_columns_loads(tmp_path):
    path = _write(tmp_path, FIXED["short row missing only non-schema columns"])
    assert [row["day"] for row in load_csv(path, "t", SCHEMA)] == [1, 2]


# -- the block path engages ------------------------------------------------------


def _panel_text(rows, bad_line=None):
    lines = [HEADER]
    for day in range(rows):
        lines.append(f"T{day % 7},{day},{100 + day % 13 / 4},1999-01-{1 + day % 28:02d}\n")
    if bad_line is not None:
        lines[bad_line - 1] = "T0,1,not-a-price,1999-01-01\n"
    return "".join(lines) + "\n\n"  # blank lines, which DictReader skips


@pytest.fixture
def counted(monkeypatch):
    """Count the per-row loader's conversion and insert calls."""
    calls = {"convert": 0, "insert": 0}
    convert, insert = csv_io._convert_record, Table.insert

    def counting_convert(*args, **kwargs):
        calls["convert"] += 1
        return convert(*args, **kwargs)

    def counting_insert(self, row):
        calls["insert"] += 1
        return insert(self, row)

    monkeypatch.setattr(csv_io, "_convert_record", counting_convert)
    monkeypatch.setattr(Table, "insert", counting_insert)
    return calls


def test_clean_multi_block_file_never_takes_the_per_row_path(tmp_path, counted):
    rows = 2 * csv_io.BLOCK_ROWS + 17
    path = _write(tmp_path, _panel_text(rows))
    for policy in ErrorPolicy:
        table = load_csv(path, "t", SCHEMA, policy=policy)
        assert len(table) == rows
        assert counted == {"convert": 0, "insert": 0}
    reference = _load_csv_rows(path, "t", SCHEMA, policy=ErrorPolicy.RAISE, diagnostics=None)
    assert counted == {"convert": rows, "insert": rows}
    assert table.rows == reference.rows


def test_bad_row_in_the_last_block_gives_the_per_row_result(tmp_path, counted):
    rows = 2 * csv_io.BLOCK_ROWS + 17
    bad_line = rows - 3  # data rows start on line 2; this one is in block 3
    path = _write(tmp_path, _panel_text(rows, bad_line=bad_line))
    assert_same_load(path)
    assert counted["convert"] > 0
    diagnostics = Diagnostics()
    table = load_csv(path, "t", SCHEMA, policy="skip", diagnostics=diagnostics)
    assert len(table) == rows - 1
    assert [row.line for row in diagnostics.quarantined] == [bad_line]


# -- encodings -----------------------------------------------------------------


def test_load_csv_accepts_a_byte_order_mark(tmp_path):
    path = _write(tmp_path, "\ufeff" + HEADER + ROW)
    [row] = load_csv(path, "t", SCHEMA).rows
    assert row["name"] == "IBM"


def test_iter_csv_accepts_a_byte_order_mark(tmp_path):
    path = _write(tmp_path, "\ufeff" + HEADER + ROW)
    [(offset, row)] = list(iter_csv(path, SCHEMA))
    assert (offset, row["name"]) == (0, "IBM")


def test_utf8_whatever_the_locale(tmp_path):
    # An ASCII locale, and EncodingWarning (raised only under -X
    # warn_default_encoding) as an error: every read and write must name
    # its encoding.
    source = _write(tmp_path, "\ufeffname,day\nZ\u00fcrich,1\n", "in.csv")
    script = f"""
from repro.engine.csv_io import iter_csv, load_csv, save_csv
from repro.engine.result import Result
from repro.engine.table import Schema
schema = Schema([("name", "str"), ("day", "int")])
save_csv(load_csv({str(source)!r}, "t", schema), {str(tmp_path / "table.csv")!r})
[(_, row)] = iter_csv({str(tmp_path / "table.csv")!r}, schema)
Result(["name"], [(row["name"],)]).to_csv({str(tmp_path / "result.csv")!r})
"""
    subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", script],
        check=True,
        env={
            **os.environ,
            "PYTHONPATH": str(Path(csv_io.__file__).parents[2]),
            "LC_ALL": "C",
            "PYTHONCOERCECLOCALE": "0",
            "PYTHONUTF8": "0",
        },
    )
    assert (tmp_path / "table.csv").read_bytes() == b"name,day\r\nZ\xc3\xbcrich,1\r\n"
    assert (tmp_path / "result.csv").read_bytes() == b"name\r\nZ\xc3\xbcrich\r\n"
