"""Result relations, catalog, and CSV round-trips."""

import datetime as dt

import pytest

from repro.engine.catalog import Catalog
from repro.engine.csv_io import load_csv, save_csv
from repro.engine.result import Result
from repro.engine.table import Schema, Table
from repro.errors import ExecutionError, SchemaError


class TestResult:
    def test_width_validation(self):
        with pytest.raises(ValueError):
            Result(["a", "b"], [(1,)])

    def test_width_error_names_the_first_bad_row(self):
        rows = [(1, "x"), (2,), (3, "z", "extra")]
        with pytest.raises(ValueError, match=r"^row width 1 != column count 2$"):
            Result(["a", "b"], rows)
        with pytest.raises(ValueError, match=r"^row width 3 != column count 2$"):
            Result(["a", "b"], reversed(rows[::2]))

    def test_rows_become_tuples(self):
        result = Result(["a", "b"], iter([[1, "x"], (2, "y")]))
        assert result.rows == ((1, "x"), (2, "y"))
        assert all(type(row) is tuple for row in result.rows)

    def test_to_dicts(self):
        result = Result(["a", "b"], [(1, "x"), (2, "y")])
        assert result.to_dicts() == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]

    def test_column_accessor(self):
        result = Result(["a", "b"], [(1, "x"), (2, "y")])
        assert result.column("b") == ["x", "y"]
        with pytest.raises(KeyError):
            result.column("z")

    def test_equality(self):
        assert Result(["a"], [(1,)]) == Result(["a"], [(1,)])
        assert Result(["a"], [(1,)]) != Result(["a"], [(2,)])

    def test_pretty_truncation(self):
        result = Result(["n"], [(i,) for i in range(30)])
        text = result.pretty(max_rows=5)
        assert "10 more rows" not in text  # 25 hidden
        assert "25 more rows" in text
        assert result.pretty(max_rows=None).count("\n") >= 30

    def test_pretty_formats_null_and_floats(self):
        text = Result(["v"], [(None,), (1.5,)]).pretty()
        assert "NULL" in text and "1.50" in text


class TestCatalog:
    def test_register_and_lookup(self):
        table = Table("t", [("a", "int")])
        catalog = Catalog([table])
        assert catalog.table("t") is table
        assert "t" in catalog and len(catalog) == 1

    def test_duplicate_rejected(self):
        table = Table("t", [("a", "int")])
        catalog = Catalog([table])
        with pytest.raises(ExecutionError):
            catalog.register(Table("t", [("a", "int")]))

    def test_drop(self):
        catalog = Catalog([Table("t", [("a", "int")])])
        catalog.drop("t")
        assert "t" not in catalog
        with pytest.raises(ExecutionError):
            catalog.drop("t")

    def test_missing_lookup(self):
        with pytest.raises(ExecutionError):
            Catalog([]).table("nope")


class TestCsvRoundTrip:
    SCHEMA = Schema(
        [("name", "str"), ("date", "date"), ("price", "float"), ("lot", "int")]
    )

    def _table(self):
        table = Table("quote", self.SCHEMA)
        table.insert_many(
            [
                {"name": "IBM", "date": dt.date(1999, 1, 25), "price": 81.0, "lot": 100},
                {"name": "O'Neil", "date": dt.date(1999, 1, 26), "price": 80.5, "lot": 200},
            ]
        )
        return table

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "quotes.csv"
        original = self._table()
        save_csv(original, path)
        loaded = load_csv(path, "quote", self.SCHEMA)
        assert loaded.rows == original.rows

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,price\nIBM,81\n")
        with pytest.raises(SchemaError):
            load_csv(path, "quote", self.SCHEMA)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            load_csv(path, "quote", self.SCHEMA)

    def test_type_conversion(self, tmp_path):
        path = tmp_path / "typed.csv"
        path.write_text("name,date,price,lot\nIBM,1999-01-25,81.5,100\n")
        table = load_csv(path, "quote", self.SCHEMA)
        (row,) = table.rows
        assert row["date"] == dt.date(1999, 1, 25)
        assert row["price"] == 81.5
        assert row["lot"] == 100


class TestResultCsv:
    def test_to_csv_roundtrip_text(self, tmp_path):
        import datetime as dt

        path = tmp_path / "result.csv"
        result = Result(
            ["name", "when", "price"],
            [("IBM", dt.date(1999, 1, 25), 81.5), ("GE", None, 10.0)],
        )
        result.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "name,when,price"
        assert lines[1] == "IBM,1999-01-25,81.5"
        assert lines[2] == "GE,,10.0"
