"""Lowering WHERE residuals and the SELECT list to closures (the SQL-TS
half of codegen).

The semantic analyzer turns every WHERE conjunct it cannot express as a
fixed-offset comparison into a
:class:`~repro.pattern.predicates.ResidualCondition` that re-walks the
condition AST through :func:`repro.sqlts.expressions.evaluate_condition`
on every predicate test.  :func:`lower_residual` compiles the same AST
once, at analysis time, into a closure

    evaluate(rows, index, bindings) -> bool

with variable spans, navigation offsets, and arithmetic operators
resolved ahead of time.  The closure is attached to the residual's
``fast`` slot and picked up by :mod:`repro.pattern.codegen`.

The contract is exact observational equivalence with the interpreted
walk, including its error behavior:

- off-end navigation makes a comparison **False** (``_OffEnd``);
- an unbound pattern variable, an unknown attribute, arithmetic on
  non-numeric values, and division by zero raise the same
  :class:`~repro.errors.ExecutionError` with the same message — the
  lowered code calls the interpreter's own ``_require_number`` /
  ``_compare`` helpers rather than reimplementing them;
- the current element is bound to the tuple under test, mirroring
  ``semantic._residual``.

Any AST node outside the supported fragment makes the lowering return
``None``; the residual then simply has no fast form and the element falls
back to interpreted evaluation.

:func:`lower_anchored` lowers the same AST a second way, when the residual
is one comparison between the row under test and one earlier element's
boundary row: to an :class:`~repro.pattern.predicates.AnchoredCompare`
program, which the columnar kernels evaluate with two list lookups per
test.  The closure above stays the fallback wherever the kernels cannot
reproduce it exactly.

:func:`lower_select` lowers the SELECT list once per plan, into one
function per item of a match's element boundaries (see
:class:`~repro.match.base.Match`).  A column reference ``V.attr`` is one
index computation and one row lookup, and projects a cluster's matches
as one comprehension over their boundaries; any other item goes through
the same lowered expressions as the residuals.  The interpreted oracle is
:func:`~repro.sqlts.expressions.evaluate_expr` over the match's spans,
with the same NULLs, errors and error order (match order, then SELECT
order).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from repro.constraints.atoms import Op
from repro.errors import ExecutionError
from repro.pattern.predicates import AnchoredCompare
from repro.sqlts import ast
from repro.sqlts.expressions import (
    _compare,
    _OffEnd,
    _require_number,
    evaluate_expr,
)

#: (rows, index, bindings) -> bool, matching the pattern-codegen signature.
LoweredResidual = Callable[
    [Sequence[Mapping[str, object]], int, Mapping[str, tuple[int, int]]], bool
]

#: (rows, index, bindings) -> value; raises _OffEnd on off-end navigation.
_LoweredExpr = Callable[
    [Sequence[Mapping[str, object]], int, Mapping[str, tuple[int, int]]], object
]

#: (rows, bounds) -> value of one SELECT item for the match with element
#: boundaries ``bounds``; None (NULL) where navigation leaves the rows.
LoweredItem = Callable[[Sequence[Mapping[str, object]], tuple[int, ...]], object]


def lower_residual(
    condition: ast.Cond, element_var: str
) -> Optional[LoweredResidual]:
    """Compile a residual WHERE conjunct, or None if any node is foreign."""
    try:
        return _lower_cond(condition, element_var)
    except _Unsupported:
        return None


def lower_anchored(
    condition: ast.Cond, element_var: str, positions: Mapping[str, int]
) -> Optional[AnchoredCompare]:
    """The anchored-comparison program of a residual, or None.

    The residual must be one comparison.  One side reads only
    ``element_var``, the element under test: every accessor resolves to
    the cursor row, as in :func:`lower_residual`.  The other reads only
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

    def rows(
        self, rows: Sequence[Mapping[str, object]], all_bounds: Sequence[tuple[int, ...]]
    ) -> list[tuple]:
        """The output tuples of a cluster's matches, given by their
        boundaries, in match order.

        Values are gathered column by column; a column reference is one
        comprehension over the boundaries.  If one raises, the tuples are
        rebuilt match by match, which raises again, so the error that
        escapes is the interpreter's first: in match order, then in
        SELECT order.
        """
        items = self.items
        try:
            columns = [
                _column(rows, all_bounds, item, gather)
                for item, gather in zip(items, self.gathers)
            ]
        except Exception:
            return [
                tuple([item(rows, bounds) for item in items]) for bounds in all_bounds
            ]
        return list(zip(*columns))


def _column(rows, all_bounds, item: LoweredItem, gather) -> list:
    """One SELECT item's values for every match; a row without the
    attribute raises KeyError, which sends :meth:`LoweredSelect.rows` to
    the item's own error."""
    if gather is None:
        return [item(rows, bounds) for bounds in all_bounds]
    edge, offset, attr = gather
    n = len(rows)
    return [
        rows[position][attr] if 0 <= (position := bounds[edge] + offset) < n else None
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
            items.append(_lower_item(expr, names))
            gathers.append(None)
    return LoweredSelect(tuple(items), tuple(gathers))


def _lower_item(expr: ast.Expr, names: tuple[str, ...]) -> LoweredItem:
    try:
        lowered = _lower_expr(expr, None)
    except _Unsupported:
        return lambda rows, bounds: evaluate_expr(expr, rows, _bindings_of(names, bounds))

    def evaluate(rows, bounds):
        try:
            return lowered(rows, 0, _bindings_of(names, bounds))
        except _OffEnd:
            return None

    return evaluate


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


class _Unsupported(Exception):
    """Internal: the condition contains a node codegen does not cover."""


def _lower_cond(condition: ast.Cond, element_var: str) -> LoweredResidual:
    if isinstance(condition, ast.Comparison):
        left = _lower_expr(condition.left, element_var)
        right = _lower_expr(condition.right, element_var)
        op = condition.op

        def evaluate(rows, index, bindings):
            try:
                left_value = left(rows, index, bindings)
                right_value = right(rows, index, bindings)
            except _OffEnd:
                return False
            return _compare(op, left_value, right_value)

        return evaluate
    if isinstance(condition, ast.And):
        first = _lower_cond(condition.left, element_var)
        second = _lower_cond(condition.right, element_var)
        return lambda rows, index, bindings: (
            first(rows, index, bindings) and second(rows, index, bindings)
        )
    if isinstance(condition, ast.Or):
        first = _lower_cond(condition.left, element_var)
        second = _lower_cond(condition.right, element_var)
        return lambda rows, index, bindings: (
            first(rows, index, bindings) or second(rows, index, bindings)
        )
    if isinstance(condition, ast.Not):
        inner = _lower_cond(condition.operand, element_var)
        return lambda rows, index, bindings: not inner(rows, index, bindings)
    raise _Unsupported(condition)


def _lower_expr(expr: ast.Expr, element_var: Optional[str]) -> _LoweredExpr:
    if isinstance(expr, (ast.NumberLit, ast.StringLit)):
        value = expr.value
        return lambda rows, index, bindings: value
    if isinstance(expr, ast.VarPath):
        return _lower_var_path(expr, element_var)
    if isinstance(expr, ast.Neg):
        operand = _lower_expr(expr.operand, element_var)
        return lambda rows, index, bindings: -_require_number(
            operand(rows, index, bindings)
        )
    if isinstance(expr, ast.BinOp):
        return _lower_binop(expr, element_var)
    raise _Unsupported(expr)


def _lower_var_path(path: ast.VarPath, element_var: Optional[str]) -> _LoweredExpr:
    var, attr = path.var, path.attr
    offset = sum(-1 if step == "previous" else 1 for step in path.navigation)
    use_last = path.accessor == "last"
    current = var == element_var

    def evaluate(rows, index, bindings):
        if current:
            # semantic._residual binds the element under test to
            # (index, index), so every accessor resolves to the cursor.
            base = index
        else:
            try:
                span = bindings[var]
            except KeyError:
                raise ExecutionError(
                    f"pattern variable {var!r} is not bound"
                ) from None
            base = span[1] if use_last else span[0]
        position = base + offset
        if position < 0 or position >= len(rows):
            raise _OffEnd()
        row = rows[position]
        if attr not in row:
            raise ExecutionError(f"unknown attribute {attr!r}")
        return row[attr]

    return evaluate


def _lower_binop(expr: ast.BinOp, element_var: Optional[str]) -> _LoweredExpr:
    left = _lower_expr(expr.left, element_var)
    right = _lower_expr(expr.right, element_var)
    op = expr.op
    if op == "+":
        return lambda rows, index, bindings: _require_number(
            left(rows, index, bindings)
        ) + _require_number(right(rows, index, bindings))
    if op == "-":
        return lambda rows, index, bindings: _require_number(
            left(rows, index, bindings)
        ) - _require_number(right(rows, index, bindings))
    if op == "*":
        return lambda rows, index, bindings: _require_number(
            left(rows, index, bindings)
        ) * _require_number(right(rows, index, bindings))
    if op == "/":

        def divide(rows, index, bindings):
            numerator = _require_number(left(rows, index, bindings))
            denominator = _require_number(right(rows, index, bindings))
            if denominator == 0:
                raise ExecutionError("division by zero in expression")
            return numerator / denominator

        return divide
    raise _Unsupported(expr)
