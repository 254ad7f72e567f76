"""The statement session: DDL + DML + queries end to end."""

import datetime as dt

import pytest

from repro.engine.session import Session, split_statements
from repro.errors import ExecutionError, SchemaError, SqlTsSyntaxError
from repro.pattern.predicates import AttributeDomains
from repro.sqlts.ddl import (
    CreateTable,
    coerce_value,
    parse_create_table,
    parse_insert,
    statement_kind,
)

DOMAINS = AttributeDomains.prices()

#: The paper's own DDL, verbatim (Section 2) — price widened to Real so
#: the example data below can carry cents.
PAPER_DDL = "CREATE TABLE quote ( name Varchar(8), date Date, price Real )"


class TestDdlParsing:
    def test_paper_create_table(self):
        parsed = parse_create_table(PAPER_DDL)
        assert parsed == CreateTable(
            "quote", (("name", "str"), ("date", "date"), ("price", "float"))
        )

    def test_integer_types(self):
        parsed = parse_create_table("CREATE TABLE t (a Integer, b BigInt)")
        assert parsed.columns == (("a", "int"), ("b", "int"))

    def test_unknown_type_rejected(self):
        with pytest.raises(SqlTsSyntaxError):
            parse_create_table("CREATE TABLE t (a Blob)")

    def test_missing_paren_rejected(self):
        with pytest.raises(SqlTsSyntaxError):
            parse_create_table("CREATE TABLE t (a Integer")

    def test_error_names_the_token_and_its_position(self):
        with pytest.raises(SqlTsSyntaxError) as info:
            parse_create_table("CREATE TABLE t\n  (a Integer) extra")
        assert str(info.value) == (
            "unexpected trailing input (found 'extra') at line 2, column 15"
        )
        assert (info.value.line, info.value.column) == (2, 15)

    def test_case_insensitive_keywords(self):
        parsed = parse_create_table("create table T (x real)")
        assert parsed.name == "T"


class TestInsertParsing:
    def test_positional_values(self):
        parsed = parse_insert("INSERT INTO quote VALUES ('IBM', '1999-01-25', 81.5)")
        assert parsed.table == "quote"
        assert parsed.columns is None
        assert parsed.rows == (("IBM", "1999-01-25", 81.5),)

    def test_named_columns_and_multirow(self):
        parsed = parse_insert(
            "INSERT INTO t (a, b) VALUES (1, 2), (3, -4)"
        )
        assert parsed.columns == ("a", "b")
        assert parsed.rows == ((1, 2), (3, -4))

    def test_integer_vs_float_literals(self):
        parsed = parse_insert("INSERT INTO t VALUES (1, 1.5, 1e2)")
        assert parsed.rows == ((1, 1.5, 100.0),)

    def test_garbage_rejected(self):
        with pytest.raises(SqlTsSyntaxError):
            parse_insert("INSERT INTO t VALUES (a)")


class TestStatementKind:
    @pytest.mark.parametrize(
        "text, kind",
        [
            (PAPER_DDL, "create"),
            ("INSERT INTO t VALUES (1)", "insert"),
            ("SELECT X.a FROM t AS (X) WHERE X.a > 1", "query"),
            ("  select X.a from t as (X) where X.a > 1", "query"),
        ],
    )
    def test_kinds(self, text, kind):
        assert statement_kind(text) == kind

    def test_empty_statement(self):
        with pytest.raises(SqlTsSyntaxError):
            statement_kind("   ")


class TestCoercion:
    def test_iso_string_to_date(self):
        assert coerce_value("1999-01-25", "date") == dt.date(1999, 1, 25)

    def test_int_widens_to_float(self):
        assert coerce_value(81, "float") == 81.0

    def test_whole_float_narrows_to_int(self):
        assert coerce_value(81.0, "int") == 81

    def test_passthrough(self):
        assert coerce_value("IBM", "str") == "IBM"


class TestSession:
    def test_paper_workflow(self):
        session = Session(domains=DOMAINS)
        session.execute(PAPER_DDL)
        session.execute(
            "INSERT INTO quote VALUES "
            "('IBM', '1999-01-25', 100.0), "
            "('IBM', '1999-01-26', 120.0), "
            "('IBM', '1999-01-27', 90.0)"
        )
        result = session.execute(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
            "AS (X, Y, Z) WHERE Y.price > 1.15 * X.price "
            "AND Z.price < 0.80 * Y.price"
        )
        assert result is not None
        assert result.rows == (("IBM",),)

    def test_ddl_returns_none(self):
        session = Session()
        assert session.execute(PAPER_DDL) is None

    def test_insert_into_missing_table(self):
        session = Session()
        with pytest.raises(ExecutionError):
            session.execute("INSERT INTO nosuch VALUES (1)")

    def test_insert_validates_types(self):
        session = Session()
        session.execute("CREATE TABLE t (a Integer)")
        with pytest.raises(SchemaError):
            session.execute("INSERT INTO t VALUES ('not a number')")

    def test_insert_arity_mismatch(self):
        session = Session()
        session.execute("CREATE TABLE t (a Integer, b Integer)")
        with pytest.raises(ExecutionError):
            session.execute("INSERT INTO t VALUES (1)")

    def test_a_strict_insert_with_a_bad_row_inserts_nothing(self):
        session = Session()
        session.execute("CREATE TABLE q (name Varchar(8), price Real)")
        with pytest.raises(SchemaError):
            session.execute("INSERT INTO q VALUES ('a', 1.0), ('b', 'oops')")
        assert session.catalog.table("q").rows == []
        assert not session.diagnostics.quarantined

    @pytest.mark.parametrize("policy", ["skip", "collect"])
    def test_a_lenient_insert_keeps_the_good_rows_and_quarantines_each_bad_one(
        self, policy
    ):
        session = Session(policy=policy)
        session.execute("CREATE TABLE q (name Varchar(8), price Real)")
        session.execute(
            "INSERT INTO q VALUES ('a', 1.0), ('b', 'oops'), ('c', 2.0), ('d')"
        )
        assert session.catalog.table("q").rows == [
            {"name": "a", "price": 1.0},
            {"name": "c", "price": 2.0},
        ]
        quarantined = session.diagnostics.quarantined
        assert [(row.source, row.line, row.values) for row in quarantined] == [
            ("INSERT INTO q", 2, ("b", "oops")),
            ("INSERT INTO q", 4, ("d",)),
        ]
        assert len(session.diagnostics.errors) == (2 if policy == "collect" else 0)

    def test_named_column_insert(self):
        session = Session()
        session.execute("CREATE TABLE t (a Integer, b Varchar(4))")
        session.execute("INSERT INTO t (b, a) VALUES ('x', 7)")
        assert session.catalog.table("t").rows == [{"a": 7, "b": "x"}]

    def test_run_script(self):
        session = Session(domains=DOMAINS)
        results = session.run_script(
            f"""
            {PAPER_DDL};
            INSERT INTO quote VALUES ('IBM', '1999-01-25', 100.0);
            INSERT INTO quote VALUES ('IBM', '1999-01-26', 120.0);
            INSERT INTO quote VALUES ('IBM', '1999-01-27', 90.0);
            SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date
            AS (X, Y, Z)
            WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price
            """
        )
        assert len(results) == 1
        assert results[0].rows == (("IBM",),)

    def test_a_query_sees_rows_inserted_after_an_earlier_query(self):
        # The first query leaves the table partitioned; INSERT INTO must
        # drop that partition, or the repeat would miss the new rows.
        session = Session(domains=DOMAINS)
        session.execute(PAPER_DDL)
        session.execute(
            "INSERT INTO quote VALUES "
            "('IBM', '1999-01-25', 100.0), ('IBM', '1999-01-26', 120.0), "
            "('INTC', '1999-01-25', 50.0)"
        )
        query = (
            "SELECT X.name, Y.date FROM quote CLUSTER BY name SEQUENCE BY date "
            "AS (X, Y) WHERE Y.price > 1.15 * X.price"
        )
        assert session.execute(query).rows == (("IBM", dt.date(1999, 1, 26)),)
        session.execute(
            "INSERT INTO quote VALUES "
            "('INTC', '1999-01-26', 60.0), ('IBM', '1999-01-24', 80.0)"
        )
        assert session.execute(query).rows == (
            ("IBM", dt.date(1999, 1, 25)),
            ("INTC", dt.date(1999, 1, 26)),
        )


class TestSplitStatements:
    def test_semicolon_inside_string_preserved(self):
        parts = split_statements("INSERT INTO t VALUES ('a;b'); SELECT 1")
        assert len(parts) == 2
        assert "'a;b'" in parts[0]

    def test_escaped_quote_inside_string(self):
        parts = split_statements("INSERT INTO t VALUES ('it''s;fine'); X")
        assert len(parts) == 2

    def test_blank_statements_dropped(self):
        assert split_statements(";;  ;") == []
