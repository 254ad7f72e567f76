"""The rows a loaded table builds from its columns are the per-row
loader's rows.

``load_csv`` appends converted columns and builds no row dict;
``Table.rows`` builds them on demand.  Over every file of the CSV ingest
equivalence suite (``test_csv_ingest.py``: the generated files, the
fixed cases and the multi-block panels), under every error policy, the
rows must equal the dicts ``_load_csv_rows`` builds and inserts one at
a time, as ``iter_csv`` yields them: the same values, types and key
order.
"""

from __future__ import annotations

import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import csv_io
from repro.engine.csv_io import iter_csv, load_csv
from repro.resilience import Diagnostics, ErrorPolicy
from tests.engine.test_csv_ingest import FIXED, SCHEMA, _panel_text, _write, csv_files


def _shape(rows):
    return [[(key, type(value), repr(value)) for key, value in row.items()] for row in rows]


def assert_rows_are_the_per_row_rows(path):
    for policy in ErrorPolicy:
        try:
            built = [
                row
                for _, row in iter_csv(path, SCHEMA, policy=policy, diagnostics=Diagnostics())
            ]
        except Exception:
            # A file the per-row loader refuses; the ingest suite holds
            # load_csv to the same error.
            continue
        table = load_csv(path, "t", SCHEMA, policy=policy, diagnostics=Diagnostics())
        assert _shape(table.rows) == _shape(built), policy
        assert len(table) == len(built)


@settings(max_examples=300, deadline=None)
@given(text=csv_files(), block_rows=st.integers(1, 6))
def test_generated_files(text, block_rows):
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, text)
        with mock.patch.object(csv_io, "BLOCK_ROWS", block_rows):
            assert_rows_are_the_per_row_rows(path)


@pytest.mark.parametrize("text", list(FIXED.values()), ids=list(FIXED))
def test_fixed_cases(tmp_path, text):
    assert_rows_are_the_per_row_rows(_write(tmp_path, text))


@pytest.mark.parametrize(
    "bad_line", [None, 2, 2 * csv_io.BLOCK_ROWS + 9], ids=["clean", "first", "last"]
)
def test_multi_block_panels(tmp_path, bad_line):
    rows = 2 * csv_io.BLOCK_ROWS + 17
    assert_rows_are_the_per_row_rows(_write(tmp_path, _panel_text(rows, bad_line=bad_line)))
