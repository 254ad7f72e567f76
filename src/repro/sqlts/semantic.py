"""Semantic analysis: from a parsed SQL-TS query to a PatternSpec.

The analyzer performs the paper's (implicit) query-compilation front half:

1. **Validation** — pattern variables are unique; every WHERE/SELECT
   reference names a declared variable; ``FIRST``/``LAST`` are only
   applied to starred variables that are already bound when the condition
   runs.

2. **Cluster-filter hoisting** — a conjunct whose attribute references
   are all CLUSTER BY attributes (constant within a cluster, e.g.
   ``X.name = 'IBM'`` under ``CLUSTER BY name``) is hoisted out of the
   pattern and applied once per cluster.  This reproduces the paper's
   treatment of Example 4/9, whose theta/phi matrices ignore the
   ``name = 'IBM'`` selection.

3. **Conjunct assignment** — each remaining WHERE conjunct is attached to
   the *latest* pattern variable it mentions (the element whose matching
   triggers its evaluation).

4. **Symbolization** — each conjunct is translated, when possible, into a
   :class:`~repro.pattern.predicates.ComparisonCondition` over the
   current tuple and fixed sequence offsets, which is what feeds the
   theta/phi analysis.  A reference to an earlier variable ``W`` from
   element ``V``'s condition becomes a fixed negative offset exactly when
   every element from ``W`` through ``V`` is star-free (otherwise the
   distance is variable and the conjunct stays a *residual*: enforced at
   runtime through the element bindings, treated as ``U`` at compile
   time).  OR/NOT conjuncts likewise stay residuals at this surface level
   (the DNF reasoning of :mod:`repro.constraints.dnf` is available to
   programmatic pattern builders).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.constraints.atoms import Op
from repro.errors import SemanticError
from repro.pattern.predicates import (
    Attr,
    AttributeDomains,
    ComparisonCondition,
    Condition,
    EvalContext,
    ElementPredicate,
    LinearTerm,
    ResidualCondition,
    StringEqualityCondition,
)
from repro.pattern.spec import PatternElement, PatternSpec
from repro.sqlts import ast
from repro.sqlts.codegen import LoweredSelect, lower_anchored, lower_select
from repro.sqlts.expressions import evaluate_condition


@dataclass(frozen=True)
class AnalyzedQuery:
    """The result of semantic analysis, ready for pattern compilation.

    ``projection`` is the SELECT list lowered once, at analysis time, to
    row gathers over a match's boundaries (:func:`~repro.sqlts.codegen.
    lower_select`); it lives as long as the plan that holds it.
    """

    query: ast.Query
    spec: PatternSpec
    cluster_filter: tuple[ast.Cond, ...]
    projection: LoweredSelect = field(compare=False, repr=False)

    @property
    def select(self) -> tuple[ast.SelectItem, ...]:
        return self.query.select

    @property
    def table(self) -> str:
        return self.query.table

    @property
    def cluster_by(self) -> tuple[str, ...]:
        return self.query.cluster_by

    @property
    def sequence_by(self) -> tuple[str, ...]:
        return self.query.sequence_by


def analyze(query: ast.Query, domains: Optional[AttributeDomains] = None) -> AnalyzedQuery:
    """Run semantic analysis on a parsed query."""
    domains = domains if domains is not None else AttributeDomains.none()
    positions: dict[str, int] = {}
    stars: dict[str, bool] = {}
    for index, var in enumerate(query.pattern, start=1):
        if var.name in positions:
            raise SemanticError(f"duplicate pattern variable {var.name!r}")
        positions[var.name] = index
        stars[var.name] = var.star

    _validate_references(query, positions, stars)

    cluster_filter: list[ast.Cond] = []
    assigned: dict[str, list[ast.Cond]] = {name: [] for name in positions}
    # Normalize NOT away first, so e.g. NOT (a OR b) splits into two
    # analyzable conjuncts instead of one opaque residual.
    where = _push_negation(query.where) if query.where is not None else None
    for conjunct in ast.conjuncts(where):
        mentioned = _vars_in_condition(conjunct)
        if not mentioned:
            raise SemanticError(f"condition references no pattern variable: {conjunct}")
        if _is_cluster_invariant(conjunct, query.cluster_by):
            cluster_filter.append(conjunct)
            continue
        latest = max(mentioned, key=positions.__getitem__)
        assigned[latest].append(conjunct)

    elements = []
    for var in query.pattern:
        conditions = [
            _convert_conjunct(conjunct, var.name, positions, stars, domains)
            for conjunct in assigned[var.name]
        ]
        predicate = ElementPredicate(conditions, domains=domains, label=var.name)
        elements.append(PatternElement(var.name, predicate, star=var.star))
    spec = PatternSpec(elements)
    return AnalyzedQuery(
        query=query,
        spec=spec,
        cluster_filter=tuple(cluster_filter),
        projection=lower_select(query.select, spec.names),
    )


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def _validate_references(
    query: ast.Query, positions: dict[str, int], stars: dict[str, bool]
) -> None:
    for item in query.select:
        for path in _paths_in_expr(item.expr):
            _check_path(path, positions, stars)
    for conjunct in ast.conjuncts(query.where):
        for path in _paths_in_condition(conjunct):
            _check_path(path, positions, stars)


def _check_path(path: ast.VarPath, positions: dict[str, int], stars: dict[str, bool]) -> None:
    if path.var not in positions:
        raise SemanticError(f"unknown pattern variable {path.var!r} in {path}")
    if path.accessor and not stars[path.var]:
        raise SemanticError(
            f"{path.accessor.upper()}() applies to starred variables only: {path}"
        )


# ----------------------------------------------------------------------
# Condition traversal helpers
# ----------------------------------------------------------------------


def _paths_in_expr(expr: ast.Expr) -> list[ast.VarPath]:
    if isinstance(expr, ast.VarPath):
        return [expr]
    if isinstance(expr, ast.BinOp):
        return _paths_in_expr(expr.left) + _paths_in_expr(expr.right)
    if isinstance(expr, ast.Neg):
        return _paths_in_expr(expr.operand)
    return []


def _paths_in_condition(condition: ast.Cond) -> list[ast.VarPath]:
    if isinstance(condition, ast.Comparison):
        return _paths_in_expr(condition.left) + _paths_in_expr(condition.right)
    if isinstance(condition, (ast.And, ast.Or)):
        return _paths_in_condition(condition.left) + _paths_in_condition(condition.right)
    if isinstance(condition, ast.Not):
        return _paths_in_condition(condition.operand)
    raise SemanticError(f"unsupported condition node: {condition!r}")


def _vars_in_condition(condition: ast.Cond) -> set[str]:
    return {path.var for path in _paths_in_condition(condition)}


def _is_cluster_invariant(condition: ast.Cond, cluster_by: tuple[str, ...]) -> bool:
    """True when every reference is a bare CLUSTER BY attribute."""
    paths = _paths_in_condition(condition)
    return bool(cluster_by) and all(
        not path.navigation and path.accessor is None and path.attr in cluster_by
        for path in paths
    )


# ----------------------------------------------------------------------
# Conjunct -> Condition conversion
# ----------------------------------------------------------------------


def _convert_conjunct(
    conjunct: ast.Cond,
    element_var: str,
    positions: dict[str, int],
    stars: dict[str, bool],
    domains: AttributeDomains,
) -> Condition:
    conjunct = _push_negation(conjunct)
    if isinstance(conjunct, ast.Comparison):
        converted = _convert_comparison(conjunct, element_var, positions, stars)
        if converted is not None:
            return converted
    if isinstance(conjunct, ast.Or):
        disjunctive = _convert_disjunction(conjunct, element_var, positions, stars)
        if disjunctive is not None:
            return disjunctive
    return _residual(conjunct, element_var, positions)


_NEGATED_OP = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def _push_negation(condition: ast.Cond) -> ast.Cond:
    """Eliminate NOT by De Morgan / operator negation where possible.

    ``NOT (a < b)`` becomes ``a >= b``; ``NOT (p AND q)`` becomes
    ``NOT p OR NOT q`` and so on, recursively — so negated conditions
    reach the symbolizer in positive form and stay analyzable.
    """
    if isinstance(condition, ast.Not):
        inner = _push_negation(condition.operand)
        if isinstance(inner, ast.Comparison):
            return ast.Comparison(_NEGATED_OP[inner.op], inner.left, inner.right)
        if isinstance(inner, ast.And):
            return ast.Or(
                _push_negation(ast.Not(inner.left)),
                _push_negation(ast.Not(inner.right)),
            )
        if isinstance(inner, ast.Or):
            return ast.And(
                _push_negation(ast.Not(inner.left)),
                _push_negation(ast.Not(inner.right)),
            )
        if isinstance(inner, ast.Not):
            return _push_negation(inner.operand)
        return ast.Not(inner)
    if isinstance(condition, ast.And):
        return ast.And(_push_negation(condition.left), _push_negation(condition.right))
    if isinstance(condition, ast.Or):
        return ast.Or(_push_negation(condition.left), _push_negation(condition.right))
    return condition


def _convert_disjunction(
    conjunct: ast.Or,
    element_var: str,
    positions: dict[str, int],
    stars: dict[str, bool],
) -> Optional[Condition]:
    """Translate an OR conjunct into an analyzable OrCondition.

    The Section 8 disjunction extension: each OR branch is a conjunction
    of comparisons; when every leaf symbolizes over the current tuple,
    the whole conjunct contributes a DNF to the element predicate and the
    theta/phi analysis reasons about it.  Any untranslatable leaf makes
    the caller fall back to a residual (still enforced at runtime).
    """
    from repro.pattern.predicates import OrCondition

    branches: list[list[Condition]] = []
    for disjunct in _flatten_or(conjunct):
        branch: list[Condition] = []
        for leaf in ast.conjuncts(disjunct):
            if not isinstance(leaf, ast.Comparison):
                return None
            converted = _convert_comparison(leaf, element_var, positions, stars)
            if converted is None:
                return None
            branch.append(converted)
        branches.append(branch)
    return OrCondition(branches)


def _flatten_or(condition: ast.Cond) -> list[ast.Cond]:
    if isinstance(condition, ast.Or):
        return _flatten_or(condition.left) + _flatten_or(condition.right)
    return [condition]


def _convert_comparison(
    comparison: ast.Comparison,
    element_var: str,
    positions: dict[str, int],
    stars: dict[str, bool],
) -> Optional[Condition]:
    op = Op(comparison.op)
    # String equality against an attribute resolvable to a fixed offset.
    for lhs, rhs, effective in (
        (comparison.left, comparison.right, op),
        (comparison.right, comparison.left, op),
    ):
        if isinstance(rhs, ast.StringLit) and isinstance(lhs, ast.VarPath):
            attr = _fixed_offset_attr(lhs, element_var, positions, stars)
            if attr is not None and effective in (Op.EQ, Op.NE):
                return StringEqualityCondition(attr, effective, rhs.value)
            return None
    left = _linear_term(comparison.left, element_var, positions, stars)
    right = _linear_term(comparison.right, element_var, positions, stars)
    if left is None or right is None:
        return None
    return ComparisonCondition(left, op, right)


def _fixed_offset_attr(
    path: ast.VarPath,
    element_var: str,
    positions: dict[str, int],
    stars: dict[str, bool],
) -> Optional[Attr]:
    """Resolve a path to a fixed sequence offset from the current tuple.

    Returns None when the distance is variable (stars in between, starred
    endpoints, or FIRST/LAST accessors) — the caller falls back to a
    residual condition.
    """
    if path.accessor is not None:
        return None
    offset = sum(-1 if step == "previous" else 1 for step in path.navigation)
    if path.var == element_var:
        return Attr(path.attr, offset)
    v = positions[element_var]
    q = positions[path.var]
    if q > v:
        raise SemanticError(
            f"condition on {element_var!r} references the later variable {path.var!r}"
        )
    if stars[path.var] or stars[element_var]:
        return None
    if any(stars[name] for name, pos in positions.items() if q < pos < v):
        return None
    return Attr(path.attr, offset - (v - q))


def _linear_term(
    expr: ast.Expr,
    element_var: str,
    positions: dict[str, int],
    stars: dict[str, bool],
) -> Optional[LinearTerm]:
    """Fold an expression into ``coefficient * attr + constant`` if possible."""
    if isinstance(expr, ast.NumberLit):
        return LinearTerm(0.0, None, expr.value)
    if isinstance(expr, ast.VarPath):
        attr = _fixed_offset_attr(expr, element_var, positions, stars)
        return None if attr is None else LinearTerm(1.0, attr, 0.0)
    if isinstance(expr, ast.Neg):
        inner = _linear_term(expr.operand, element_var, positions, stars)
        if inner is None:
            return None
        return LinearTerm(-inner.coefficient, inner.attr, -inner.constant)
    if isinstance(expr, ast.BinOp):
        left = _linear_term(expr.left, element_var, positions, stars)
        right = _linear_term(expr.right, element_var, positions, stars)
        if left is None or right is None:
            return None
        if expr.op in ("+", "-"):
            sign = 1.0 if expr.op == "+" else -1.0
            if left.attr is not None and right.attr is not None:
                return None  # two attributes on one side: not linear-in-one
            if left.attr is not None:
                return LinearTerm(
                    left.coefficient, left.attr, left.constant + sign * right.constant
                )
            return LinearTerm(
                sign * right.coefficient, right.attr, left.constant + sign * right.constant
            )
        if expr.op == "*":
            if left.attr is not None and right.attr is not None:
                return None
            if left.attr is None:
                scale, term = left.constant, right
            else:
                scale, term = right.constant, left
            return LinearTerm(term.coefficient * scale, term.attr, term.constant * scale)
        if expr.op == "/":
            if right.attr is not None or right.constant == 0:
                return None
            return LinearTerm(
                left.coefficient / right.constant, left.attr, left.constant / right.constant
            )
    return None


def _residual(
    conjunct: ast.Cond, element_var: str, positions: dict[str, int]
) -> ResidualCondition:
    """Wrap a conjunct for generic runtime evaluation via bindings.

    The current element is temporarily bound to the tuple under test, so
    references to it (bare or via previous/next) resolve against the
    cursor position, while earlier elements resolve through their spans.
    A comparison with an earlier element's boundary row also gets an
    anchored program for the columnar kernels (see
    :mod:`repro.sqlts.codegen`).
    """

    def evaluate(ctx: EvalContext) -> bool:
        bindings = dict(ctx.bindings)
        bindings[element_var] = (ctx.index, ctx.index)
        return evaluate_condition(conjunct, ctx.rows, bindings)

    return ResidualCondition(
        evaluate,
        description=str(conjunct),
        anchored=lower_anchored(conjunct, element_var, positions),
    )
