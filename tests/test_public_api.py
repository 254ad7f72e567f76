"""The public surface: top-level exports, errors, core value types."""

import pytest

import repro
from repro.errors import (
    ConstraintError,
    ExecutionError,
    PlanningError,
    ReproError,
    SchemaError,
    SemanticError,
    SqlTsSyntaxError,
)
from repro.match.base import Instrumentation, Match, Span


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_docstring_pattern_compiles(self):
        """The README/docstring quickstart must actually run."""
        import datetime as dt

        table = repro.Table(
            "quote", [("name", "str"), ("date", "date"), ("price", "float")]
        )
        day = dt.date(1999, 1, 25)
        for offset, price in enumerate([100.0, 120.0, 90.0]):
            table.insert(
                {"name": "IBM", "date": day + dt.timedelta(days=offset), "price": price}
            )
        executor = repro.Executor(
            repro.Catalog([table]), domains=repro.AttributeDomains.prices()
        )
        result = executor.execute(
            """
            SELECT X.name, Y.date AS spike_day
            FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
            WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price
            """
        )
        assert result.rows == (("IBM", day + dt.timedelta(days=1)),)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_cls",
        [
            SqlTsSyntaxError,
            SemanticError,
            PlanningError,
            ExecutionError,
            SchemaError,
            ConstraintError,
        ],
    )
    def test_all_derive_from_repro_error(self, error_cls):
        assert issubclass(error_cls, ReproError)

    def test_syntax_error_location_formatting(self):
        error = SqlTsSyntaxError("boom", line=3, column=7)
        assert "line 3" in str(error) and "column 7" in str(error)
        assert (error.line, error.column) == (3, 7)

    def test_syntax_error_without_location(self):
        assert str(SqlTsSyntaxError("boom")) == "boom"

    def test_one_except_catches_everything(self):
        caught = 0
        for error in (SemanticError("a"), SchemaError("b"), PlanningError("c")):
            try:
                raise error
            except ReproError:
                caught += 1
        assert caught == 3


class TestSpanAndMatch:
    def test_span_validation(self):
        with pytest.raises(ValueError):
            Span(3, 2)
        assert Span(2, 2).length == 1
        assert Span(2, 5).length == 4

    def test_match_bindings_roundtrip(self):
        match = Match(0, 3, (Span(0, 1), Span(2, 3)), ("A", "B"))
        assert match.bindings() == {"A": Span(0, 1), "B": Span(2, 3)}
        assert match.span_of("A") == Span(0, 1)

    def test_constructor_and_boundary_forms_are_one_match(self):
        spans = (Span(4, 4), Span(5, 7), Span(8, 8))
        built = Match(4, 8, spans, ("X", "Y", "Z"))
        bounded = Match.from_bounds((4, 5, 8, 9), ("X", "Y", "Z"))
        assert built == bounded
        assert hash(built) == hash(bounded)
        assert built.bounds == (4, 5, 8, 9)
        assert len({built, bounded}) == 1
        assert bounded != Match.from_bounds((4, 6, 8, 9), ("X", "Y", "Z"))
        assert bounded != Match.from_bounds((4, 5, 8, 9), ("X", "Y", "W"))
        assert repr(bounded) == (
            "Match(start=4, end=8, spans=(Span(start=4, end=4), "
            "Span(start=5, end=7), Span(start=8, end=8)), names=('X', 'Y', 'Z'))"
        )

    def test_spans_bindings_and_span_of_derive_from_the_bounds(self):
        match = Match.from_bounds((2, 3, 6, 7), ("X", "Y", "Z"))
        assert (match.start, match.end) == (2, 6)
        assert match.spans == (Span(2, 2), Span(3, 5), Span(6, 6))
        assert match.bindings() == {
            "X": Span(2, 2), "Y": Span(3, 5), "Z": Span(6, 6)
        }
        assert match.span_of("Y") == Span(3, 5)
        assert match.span_of("Y").length == 3
        with pytest.raises(KeyError):
            match.span_of("Q")

    def test_match_is_immutable_and_pickles(self):
        import pickle

        match = Match.from_bounds((0, 2, 3), ("A", "B"))
        with pytest.raises(AttributeError):
            match.bounds = (0, 1, 3)
        assert pickle.loads(pickle.dumps(match)) == match

    @pytest.mark.parametrize(
        "start,end,spans,names",
        [
            (0, 3, (Span(0, 1), Span(3, 3)), ("A", "B")),  # gap
            (0, 3, (Span(0, 2), Span(2, 3)), ("A", "B")),  # overlap
            (1, 3, (Span(0, 1), Span(2, 3)), ("A", "B")),  # not from start
            (0, 4, (Span(0, 1), Span(2, 3)), ("A", "B")),  # not to end
            (0, 3, (Span(0, 1), Span(2, 3)), ("A",)),  # a name short
            (0, 0, (), ()),  # no element
        ],
    )
    def test_spans_that_do_not_tile_the_match_are_rejected(
        self, start, end, spans, names
    ):
        with pytest.raises(ValueError):
            Match(start, end, spans, names)

    def test_instrumentation_repr(self):
        inst = Instrumentation(record_trace=True)
        inst.record(0, 1)
        assert "tests=1" in repr(inst)
        assert "trace[1]" in repr(inst)
        bare = Instrumentation()
        bare.record(5, 2)
        assert "trace" not in repr(bare)
