"""Tables and schemas: typing, validation, errors."""

import datetime as dt

import pytest

from repro.engine.table import Column, Schema, Table
from repro.errors import SchemaError


class TestColumn:
    def test_valid_types(self):
        for type_name in ("str", "int", "float", "date"):
            Column("c", type_name)

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            Column("c", "varchar")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", "int")

    def test_validate_values(self):
        Column("c", "int").validate(5)
        Column("c", "float").validate(5)  # int widens to float
        Column("c", "float").validate(5.5)
        Column("c", "str").validate("x")
        Column("c", "date").validate(dt.date(2000, 1, 1))

    @pytest.mark.parametrize(
        "type_name, bad",
        [("int", 5.5), ("int", "5"), ("float", "5"), ("str", 5), ("date", "2000-01-01"), ("int", True)],
    )
    def test_validate_rejects(self, type_name, bad):
        with pytest.raises(SchemaError):
            Column("c", type_name).validate(bad)


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema([("a", "int"), ("a", "str")])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_tuple_shorthand(self):
        schema = Schema([("a", "int"), ("b", "str")])
        assert schema.names == ("a", "b")
        assert schema.column("a").type == "int"

    def test_contains(self):
        schema = Schema([("a", "int")])
        assert "a" in schema and "b" not in schema

    def test_unknown_column_lookup(self):
        with pytest.raises(SchemaError):
            Schema([("a", "int")]).column("b")

    def test_validate_row(self):
        schema = Schema([("a", "int"), ("b", "str")])
        row = schema.validate_row({"a": 1, "b": "x"})
        assert row == {"a": 1, "b": "x"}

    def test_validate_row_missing_column(self):
        schema = Schema([("a", "int"), ("b", "str")])
        with pytest.raises(SchemaError):
            schema.validate_row({"a": 1})

    def test_validate_row_extra_column(self):
        schema = Schema([("a", "int")])
        with pytest.raises(SchemaError):
            schema.validate_row({"a": 1, "z": 2})


class TestTable:
    def _table(self):
        return Table("t", [("name", "str"), ("price", "float")])

    def test_insert_and_iterate(self):
        table = self._table()
        table.insert({"name": "IBM", "price": 80.0})
        table.insert_many([{"name": "IBM", "price": 81.0}])
        assert len(table) == 2
        assert [row["price"] for row in table] == [80.0, 81.0]

    def test_insert_validates(self):
        table = self._table()
        with pytest.raises(SchemaError):
            table.insert({"name": "IBM", "price": "eighty"})
        assert len(table) == 0

    def test_insert_many_with_a_bad_row_inserts_nothing(self):
        table = self._table()
        table.insert({"name": "IBM", "price": 80.0})
        with pytest.raises(SchemaError):
            table.insert_many([{"name": "a", "price": 1.0}, {"name": "b", "price": "x"}])
        assert table.rows == [{"name": "IBM", "price": 80.0}]

    def test_extend_columns_builds_the_rows_insert_builds(self):
        by_columns, by_rows = self._table(), self._table()
        by_columns.extend_columns([("IBM", "GE"), [80.0, 81]])
        by_rows.insert_many([{"price": 80.0, "name": "IBM"}, {"name": "GE", "price": 81}])
        assert [list(row.items()) for row in by_columns] == [
            list(row.items()) for row in by_rows
        ]

    @pytest.mark.parametrize(
        "columns",
        [
            [("IBM",), [True]],  # bool is never a number
            [("IBM",), ["80"]],
            [("IBM", "GE"), [80.0]],
            [("IBM",)],
        ],
    )
    def test_extend_columns_rejects_without_appending(self, columns):
        table = self._table()
        with pytest.raises(SchemaError):
            table.extend_columns(columns)
        assert len(table) == 0

    def test_extend_columns_takes_subclasses_as_insert_does(self):
        table = Table("t", [("day", "date")])
        noon = dt.datetime(2000, 1, 1, 12)
        table.extend_columns([[noon]])
        table.insert({"day": noon})
        assert table.rows == [{"day": noon}, {"day": noon}]

    def test_repr(self):
        assert "t" in repr(self._table())
