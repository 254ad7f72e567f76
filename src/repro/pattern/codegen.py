"""Compiled predicate evaluation: lowering comparisons to closures.

The paper's whole contribution is minimizing *how many* predicate tests a
pattern search performs; this module minimizes what each test *costs*
where no truth bytes exist: on the row path (``evaluator="row"``), in
the stream, and for an element the columnar kernels decline.  The
interpreted path (:meth:`~repro.pattern.predicates.ElementPredicate.test`)
allocates a fresh :class:`~repro.pattern.predicates.EvalContext` and walks
the condition objects through dynamic dispatch for every (tuple, element)
pair.  :func:`lower_predicate` instead specializes an element predicate
whose every condition is a comparison once, at pattern-compile time,
into a plain Python closure

    evaluator(rows, index, bindings) -> bool

with attribute names, sequence offsets, comparison operators, and linear
coefficients pre-bound as cell variables — no context allocation, no
``isinstance`` dispatch, no :class:`~repro.pattern.predicates.Attr`
traffic on the hot path.

Semantics contract (held by the differential test-suite, which runs the
interpreted evaluator as the oracle):

- off-end navigation and missing row columns make a condition **False**,
  exactly like ``EvalContext.attr_value`` raising ``LookupError``;
- arithmetic on non-numeric values raises the same ``TypeError`` the
  interpreted ``LinearTerm.value`` raises — the lowered code performs the
  identical ``coefficient * value + constant`` computation rather than
  shortcutting it, so type errors surface on the same inputs;
- conditions are evaluated in declaration order with the same
  short-circuiting as ``all()``.

Coverage and fallback: an element lowers when every condition is a
comparison.  Any other element (a string equality, a Section 8
disjunction, a WHERE residual, an opaque lambda) makes
:func:`lower_predicate` return ``None``, and
:class:`~repro.pattern.compiler.CompiledPattern` gives that element a
wrapper around the interpreted ``predicate.test`` instead.  Fallback is
per-element, never per-query.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from repro.pattern.predicates import ComparisonCondition, ElementPredicate

#: The evaluator signature every matcher calls:
#: (rows, index, bindings) -> bool.
CompiledEvaluator = Callable[
    [Sequence[Mapping[str, object]], int, Mapping[str, tuple[int, int]]], bool
]


def lower_predicate(predicate: ElementPredicate) -> Optional[CompiledEvaluator]:
    """Lower an element predicate whose every condition is a comparison,
    or return None: the element then runs interpreted."""
    conditions = predicate.conditions
    if not all(isinstance(condition, ComparisonCondition) for condition in conditions):
        return None
    if len(conditions) == 2:
        # Band predicates (lo < t.price AND t.price < hi over the same
        # cells) are common enough to deserve a fused closure that
        # fetches each input cell once for both comparisons.
        fused = _fuse_comparisons(*conditions)
        if fused is not None:
            return fused
    evaluators = tuple(lower_comparison(condition) for condition in conditions)
    if not evaluators:
        return _always_true
    if len(evaluators) == 1:
        return evaluators[0]

    def evaluate(rows, index, bindings):
        for conjunct in evaluators:
            if not conjunct(rows, index, bindings):
                return False
        return True

    return evaluate


def _always_true(rows, index, bindings):
    return True


def lower_comparison(condition: ComparisonCondition) -> CompiledEvaluator:
    """The closure of one comparison."""
    left, right = condition.left, condition.right
    holds = condition.op.operator
    if left.attr is None and right.attr is None:
        # Ground comparison: the answer is input-independent.
        result = condition.op.holds(left.constant, right.constant)
        return lambda rows, index, bindings: result
    if right.attr is None:
        name, off = left.attr.name, left.attr.offset  # type: ignore[union-attr]
        a, b = left.coefficient, left.constant
        c = right.constant

        def evaluate(rows, index, bindings):
            position = index + off
            if position < 0 or position >= len(rows):
                return False
            try:
                value = rows[position][name]
            except KeyError:
                return False
            return holds(a * value + b, c)

        return evaluate
    if left.attr is None:
        c = left.constant
        name, off = right.attr.name, right.attr.offset
        a, b = right.coefficient, right.constant

        def evaluate(rows, index, bindings):
            position = index + off
            if position < 0 or position >= len(rows):
                return False
            try:
                value = rows[position][name]
            except KeyError:
                return False
            return holds(c, a * value + b)

        return evaluate
    left_name, left_off = left.attr.name, left.attr.offset
    left_a, left_b = left.coefficient, left.constant
    right_name, right_off = right.attr.name, right.attr.offset
    right_a, right_b = right.coefficient, right.constant

    def evaluate(rows, index, bindings):
        n = len(rows)
        left_pos = index + left_off
        if left_pos < 0 or left_pos >= n:
            return False
        try:
            left_value = rows[left_pos][left_name]
        except KeyError:
            return False
        # Complete the left term before touching the right one so a
        # non-numeric left value raises exactly where the interpreted
        # LinearTerm.value would.
        lhs = left_a * left_value + left_b
        right_pos = index + right_off
        if right_pos < 0 or right_pos >= n:
            return False
        try:
            right_value = rows[right_pos][right_name]
        except KeyError:
            return False
        return holds(lhs, right_a * right_value + right_b)

    return evaluate


def _fuse_comparisons(
    first: ComparisonCondition, second: ComparisonCondition
) -> Optional[CompiledEvaluator]:
    """Fuse two attr-vs-attr comparisons over the same pair of cells.

    Both conditions must read exactly the cells (name, offset) that the
    first condition reads; the fused closure then fetches each cell once
    and applies both comparisons.  Evaluation order is preserved — first
    condition fully, short-circuit, then the second — so bounds misses,
    missing columns, and non-numeric ``TypeError``s surface exactly as
    the condition-at-a-time path (re-reading a dict cell has no
    observable effect, so the reuse is invisible).
    """
    if first.left.attr is None or first.right.attr is None:
        return None
    if second.left.attr is None or second.right.attr is None:
        return None
    cell_a = (first.left.attr.name, first.left.attr.offset)
    cell_b = (first.right.attr.name, first.right.attr.offset)
    cells = {cell_a, cell_b}
    second_left = (second.left.attr.name, second.left.attr.offset)
    second_right = (second.right.attr.name, second.right.attr.offset)
    if second_left not in cells or second_right not in cells:
        return None
    name_a, off_a = cell_a
    name_b, off_b = cell_b
    holds_1 = first.op.operator
    holds_2 = second.op.operator
    la_1, lb_1 = first.left.coefficient, first.left.constant
    ra_1, rb_1 = first.right.coefficient, first.right.constant
    la_2, lb_2 = second.left.coefficient, second.left.constant
    ra_2, rb_2 = second.right.coefficient, second.right.constant
    left_2_is_a = second_left == cell_a
    right_2_is_a = second_right == cell_a

    def evaluate(rows, index, bindings):
        n = len(rows)
        pos_a = index + off_a
        if pos_a < 0 or pos_a >= n:
            return False
        try:
            value_a = rows[pos_a][name_a]
        except KeyError:
            return False
        lhs_1 = la_1 * value_a + lb_1
        pos_b = index + off_b
        if pos_b < 0 or pos_b >= n:
            return False
        try:
            value_b = rows[pos_b][name_b]
        except KeyError:
            return False
        if not holds_1(lhs_1, ra_1 * value_b + rb_1):
            return False
        lhs_2 = la_2 * (value_a if left_2_is_a else value_b) + lb_2
        rhs_2 = ra_2 * (value_a if right_2_is_a else value_b) + rb_2
        return holds_2(lhs_2, rhs_2)

    # Marker the flight recorder reads to attribute band fusion per
    # element in query profiles; no effect on evaluation.
    evaluate.band_fused = True
    return evaluate
