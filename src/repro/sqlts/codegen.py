"""Lowering WHERE residuals to anchored programs and the SELECT list to
row gathers (the SQL-TS half of codegen).

The semantic analyzer turns every WHERE conjunct it cannot express as a
fixed-offset comparison into a
:class:`~repro.pattern.predicates.ResidualCondition`, which the
interpreter evaluates by walking the condition AST through
:func:`repro.sqlts.expressions.evaluate_condition`.

:func:`lower_anchored` lowers such a residual when it is one comparison
between the row under test and one earlier element's boundary row: to
an :class:`~repro.pattern.predicates.AnchoredCompare` program, which the
columnar kernels evaluate with two list lookups per test.  Wherever the
kernels cannot reproduce the interpreter exactly, and on the row path
and in the stream, the residual runs interpreted.

:func:`lower_select` lowers the SELECT list once per plan, into one
function per item of a match's element boundaries (see
:class:`~repro.match.base.Match`).  A column reference ``V.attr``
projects a cluster's matches as one comprehension over their
boundaries, each value one index computation and two list lookups
(the cluster's index, then the table's column); any other item runs
the interpreted oracle, :func:`~repro.sqlts.expressions.evaluate_expr`,
over the cluster's rows and the match's spans.  Either gives the
oracle's NULLs, errors and error order (match order, then SELECT
order).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from repro.constraints.atoms import Op
from repro.errors import ExecutionError
from repro.pattern.predicates import AnchoredCompare
from repro.sqlts import ast
from repro.sqlts.expressions import evaluate_expr

#: (rows, bounds) -> value of one SELECT item for the match with element
#: boundaries ``bounds``; None (NULL) where navigation leaves the rows.
LoweredItem = Callable[[Sequence[Mapping[str, object]], tuple[int, ...]], object]


def lower_anchored(
    condition: ast.Cond, element_var: str, positions: Mapping[str, int]
) -> Optional[AnchoredCompare]:
    """The anchored-comparison program of a residual, or None.

    The residual must be one comparison.  One side reads only
    ``element_var``, the element under test: every accessor resolves to
    the cursor row, as the interpreter binds it.  The other reads only
    one earlier variable, all through its start (a bare reference or
    ``FIRST``) or all through its end (``LAST``).  Both may navigate and
    use numeric literals, ``+``, ``-``, ``*`` and unary minus; a
    division or a string makes this return None.  ``positions`` maps
    each pattern variable to its 1-based element position.
    """
    if not isinstance(condition, ast.Comparison):
        return None
    sides = []
    for expr in (condition.left, condition.right):
        refs: set[tuple[str, bool]] = set()
        program = _anchored_side(expr, element_var, refs)
        if program is None or len(refs) != 1:
            return None
        sides.append((program, refs.pop()))
    (left, (left_var, left_last)), (right, (right_var, right_last)) = sides
    op = Op(condition.op)
    if left_var == element_var and right_var != element_var:
        return AnchoredCompare(left, op, right, positions[right_var], right_last)
    if right_var == element_var and left_var != element_var:
        # Floats compare the same either way round, NaN included.
        return AnchoredCompare(
            right, op.flipped, left, positions[left_var], left_last
        )
    return None


def _anchored_side(
    expr: ast.Expr, element_var: str, refs: set[tuple[str, bool]]
) -> Optional[tuple]:
    """One side as an :class:`AnchoredCompare` expression program, adding
    each ``(variable, reads its end)`` it references to ``refs``."""
    if isinstance(expr, ast.NumberLit):
        return ("num", expr.value)
    if isinstance(expr, ast.VarPath):
        offset = sum(-1 if step == "previous" else 1 for step in expr.navigation)
        current = expr.var == element_var
        refs.add((expr.var, not current and expr.accessor == "last"))
        return ("col", expr.attr, offset)
    if isinstance(expr, ast.Neg):
        operand = _anchored_side(expr.operand, element_var, refs)
        return None if operand is None else ("neg", operand)
    if isinstance(expr, ast.BinOp) and expr.op in ("+", "-", "*"):
        left = _anchored_side(expr.left, element_var, refs)
        right = _anchored_side(expr.right, element_var, refs)
        if left is None or right is None:
            return None
        return (expr.op, left, right)
    return None


class LoweredSelect:
    """A query's SELECT list as one :data:`LoweredItem` per column.

    ``gathers[k]`` is ``(edge, offset, attr)`` where item k is a column
    reference, which reads ``attr`` of row ``bounds[edge] + offset`` (see
    :func:`_gather`), and None for any other item.
    """

    __slots__ = ("items", "gathers")

    def __init__(self, items: tuple[LoweredItem, ...], gathers: tuple):
        self.items = items
        self.gathers = gathers

    def rows(self, cluster, all_bounds: Sequence[tuple[int, ...]]) -> list[tuple]:
        """The output tuples of a cluster's matches, given by their
        boundaries, in match order.

        ``cluster`` is a :class:`~repro.engine.cluster.Cluster`.  Values
        are gathered column by column; a column reference is one
        comprehension over the boundaries, reading the table's column
        through the cluster's ``index``, and any other item reads the
        cluster's rows.  If one raises, the tuples are rebuilt match by
        match over the rows, which raises again, so the error that
        escapes is the interpreter's first: in match order, then in
        SELECT order.
        """
        items = self.items
        try:
            columns = [
                _column(cluster, all_bounds, item, gather)
                for item, gather in zip(items, self.gathers)
            ]
        except Exception:
            rows = cluster.rows
            return [
                tuple([item(rows, bounds) for item in items]) for bounds in all_bounds
            ]
        return list(zip(*columns))


def _column(cluster, all_bounds, item: LoweredItem, gather) -> list:
    """One SELECT item's values for every match; a column the table
    lacks raises KeyError, which sends :meth:`LoweredSelect.rows` to the
    item's own error."""
    if gather is None:
        rows = cluster.rows
        return [item(rows, bounds) for bounds in all_bounds]
    edge, offset, attr = gather
    index = cluster.index
    values = cluster.column(attr)
    n = len(index)
    return [
        values[index[position]] if 0 <= (position := bounds[edge] + offset) < n else None
        for bounds in all_bounds
    ]


def lower_select(
    select: Sequence[ast.SelectItem], names: tuple[str, ...]
) -> LoweredSelect:
    """Lower SELECT items over the pattern variables ``names`` (in
    pattern order) to functions of a match's boundaries."""
    items = []
    gathers = []
    for item in select:
        expr = item.expr
        if isinstance(expr, ast.VarPath):
            gather = _gather_at(expr, names)
            items.append(_gather(*gather))
            gathers.append(gather)
        else:
            items.append(_interpreted_item(expr, names))
            gathers.append(None)
    return LoweredSelect(tuple(items), tuple(gathers))


def _interpreted_item(expr: ast.Expr, names: tuple[str, ...]) -> LoweredItem:
    """The item that runs ``evaluate_expr`` over the match's spans."""
    return lambda rows, bounds: evaluate_expr(expr, rows, _bindings_of(names, bounds))


def _gather_at(path: ast.VarPath, names: tuple[str, ...]) -> tuple[int, int, str]:
    """``(edge, offset, attr)``: ``V.attr`` and ``FIRST(V).attr`` read row
    ``bounds[t-1] + offset``, ``LAST(V).attr`` reads ``bounds[t] - 1 +
    offset``, for V the t-th pattern variable."""
    t = names.index(path.var) + 1
    offset = sum(-1 if step == "previous" else 1 for step in path.navigation)
    if path.accessor == "last":
        return t, offset - 1, path.attr
    return t - 1, offset, path.attr


def _gather(edge: int, offset: int, attr: str) -> LoweredItem:
    """The item that reads ``attr`` of row ``bounds[edge] + offset``:
    None off the rows, an error for a row without the attribute."""

    def gather(rows, bounds):
        position = bounds[edge] + offset
        if position < 0 or position >= len(rows):
            return None
        row = rows[position]
        if attr not in row:
            raise ExecutionError(f"unknown attribute {attr!r}")
        return row[attr]

    return gather


def _bindings_of(
    names: tuple[str, ...], bounds: tuple[int, ...]
) -> dict[str, tuple[int, int]]:
    """Name -> ``(start, end)`` of each element, the interpreter's bindings."""
    return {name: (bounds[t], bounds[t + 1] - 1) for t, name in enumerate(names)}
