"""Runtime evaluation of SQL-TS expressions.

Two evaluation situations share this module:

- **WHERE residuals** — conditions the semantic analyzer could not express
  over the current tuple and its neighbour (cross-element references such
  as ``Z.previous.price < 0.5 * X.price``).  They are evaluated against an
  :class:`~repro.pattern.predicates.EvalContext` whose ``bindings`` hold
  the spans of the pattern elements matched so far.

- **SELECT items** — evaluated after a match completes, when every
  pattern variable is bound.

Variable resolution rules (Section 2 semantics):

- a bare non-starred variable denotes its single matched tuple;
- a bare *starred* variable denotes the **first** tuple of its run (the
  paper writes ``SELECT X.name`` with ``*X`` in Example 8 — ``name`` is
  cluster-constant so any representative works; first is the convention);
- ``FIRST(X)`` / ``LAST(X)`` denote the run's endpoints;
- ``previous`` / ``next`` navigate one tuple at a time through the whole
  cluster sequence — across element boundaries, exactly like the paper's
  "two additional fields that refer to the previous and the next tuple in
  the sequence".  Navigating off either end of the cluster makes a WHERE
  condition false and a SELECT item NULL (None).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.errors import ExecutionError
from repro.sqlts import ast


class _OffEnd(Exception):
    """Internal: navigation walked off the cluster."""


def _base_index(path: ast.VarPath, bindings: Mapping[str, tuple[int, int]]) -> int:
    """The 0-based cluster index the path's variable resolves to."""
    try:
        span = bindings[path.var]
    except KeyError:
        raise ExecutionError(f"pattern variable {path.var!r} is not bound") from None
    if path.accessor == "last":
        return span[1]
    # FIRST(X), or a bare variable: the single tuple, or the first of a run.
    return span[0]


def _navigate(index: int, navigation: tuple[str, ...], n: int) -> int:
    for step in navigation:
        index = index - 1 if step == "previous" else index + 1
    if index < 0 or index >= n:
        raise _OffEnd()
    return index


def evaluate_expr(
    expr: ast.Expr,
    rows: Sequence[Mapping[str, object]],
    bindings: Mapping[str, tuple[int, int]],
) -> Optional[object]:
    """Evaluate an expression; None signals an off-end navigation (NULL)."""
    try:
        return _eval(expr, rows, bindings)
    except _OffEnd:
        return None


def _eval(
    expr: ast.Expr,
    rows: Sequence[Mapping[str, object]],
    bindings: Mapping[str, tuple[int, int]],
) -> object:
    if isinstance(expr, ast.NumberLit):
        return expr.value
    if isinstance(expr, ast.StringLit):
        return expr.value
    if isinstance(expr, ast.VarPath):
        index = _navigate(_base_index(expr, bindings), expr.navigation, len(rows))
        row = rows[index]
        if expr.attr not in row:
            raise ExecutionError(f"unknown attribute {expr.attr!r}")
        return row[expr.attr]
    if isinstance(expr, ast.Neg):
        value = _eval(expr.operand, rows, bindings)
        return -_require_number(value)
    if isinstance(expr, ast.BinOp):
        left = _require_number(_eval(expr.left, rows, bindings))
        right = _require_number(_eval(expr.right, rows, bindings))
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            if right == 0:
                raise ExecutionError("division by zero in expression")
            return left / right
        raise ExecutionError(f"unknown arithmetic operator {expr.op!r}")
    raise ExecutionError(f"cannot evaluate expression node {expr!r}")


def _require_number(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExecutionError(f"arithmetic on non-numeric value {value!r}")
    return float(value)


def evaluate_condition(
    condition: ast.Cond,
    rows: Sequence[Mapping[str, object]],
    bindings: Mapping[str, tuple[int, int]],
) -> bool:
    """Three-valued-free boolean evaluation: off-end navigation is False."""
    if isinstance(condition, ast.Comparison):
        try:
            left = _eval(condition.left, rows, bindings)
            right = _eval(condition.right, rows, bindings)
        except _OffEnd:
            return False
        return _compare(condition.op, left, right)
    if isinstance(condition, ast.And):
        return evaluate_condition(condition.left, rows, bindings) and (
            evaluate_condition(condition.right, rows, bindings)
        )
    if isinstance(condition, ast.Or):
        return evaluate_condition(condition.left, rows, bindings) or (
            evaluate_condition(condition.right, rows, bindings)
        )
    if isinstance(condition, ast.Not):
        return not evaluate_condition(condition.operand, rows, bindings)
    raise ExecutionError(f"cannot evaluate condition node {condition!r}")


def _compare(op: str, left: object, right: object) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    try:
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        if op == ">=":
            return left >= right  # type: ignore[operator]
    except TypeError as exc:
        raise ExecutionError(f"incomparable values {left!r} and {right!r}") from exc
    raise ExecutionError(f"unknown comparison operator {op!r}")
