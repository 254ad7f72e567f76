"""Batch-kernel plans: lowering element predicates to column programs.

:mod:`repro.pattern.codegen` lowers each element predicate to a closure
evaluated once per (tuple, element) pair.  This module lowers the *same*
predicates one level further, to small symbolic **kernel programs** that
a columnar backend (:mod:`repro.engine.columnar`) can evaluate over a
whole column slice per call, producing a per-position truth array the
matchers consume instead of calling the closure.

The split is deliberate:

- **stage 1 (here, per query)** — walk the condition objects once at
  pattern-compile time and emit data-only programs
  (:class:`CompareConst`, :class:`ComparePair`, :class:`StringEquality`,
  :class:`Ground`, :class:`Disjunction`, :class:`AnchoredCompare`)
  naming the columns, sequence offsets, linear coefficients, and
  comparison operators involved.  The
  programs are frozen and hashable, so identical element predicates
  (Example 10 repeats its down/up shapes across seven starred elements)
  deduplicate to one shared kernel;
- **stage 2 (columnar, per cluster)** — bind the programs to actual
  column data and materialize truth bytes (and, for anchored
  comparisons, one value list per side).

Coverage mirrors codegen, with one kind of residual on top.  A residual
condition reads other elements' *bindings*, which vary across match
attempts, so it has no truth array.  The one shape that still lowers is
an **anchored comparison** (:class:`AnchoredCompare`): one side reads
only the row under test, the other only one earlier element's boundary
row (its *anchor*).  Each side becomes one value per position, and the
OPS scan compares ``lhs[i]`` with ``rhs[anchor]`` per test.  An element
whose predicate holds any other residual (or an unknown condition type)
gets no kernel and stays on the per-row evaluator — fallback is
per-element, never per-query, exactly like codegen's contract.

Semantics note: a truth array has no evaluation *order*, so an element
lowers only when every one of its conditions does, and the columnar
backend falls back to the row evaluator for the whole element whenever
materialization raises — preserving the row path's short-circuit and
``TypeError`` surfacing behaviour (see ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.constraints.atoms import Op
from repro.pattern.predicates import (
    ComparisonCondition,
    Condition,
    ElementPredicate,
    OrCondition,
    ResidualCondition,
    StringEqualityCondition,
)


@dataclass(frozen=True)
class Ground:
    """An input-independent comparison: constant truth at every position."""

    result: bool


@dataclass(frozen=True)
class CompareConst:
    """``op(a * column[i + off] + b, const)`` — one attr vs a constant.

    ``const_on_left`` flips the operand order (``op(const, a*v + b)``),
    matching the two attr-vs-constant closures codegen emits.
    """

    name: str
    off: int
    a: float
    b: float
    op: Op
    const: float
    const_on_left: bool = False


@dataclass(frozen=True)
class ComparePair:
    """``op(a1*left[i+off1] + b1, a2*right[i+off2] + b2)`` — attr vs attr."""

    left_name: str
    left_off: int
    left_a: float
    left_b: float
    right_name: str
    right_off: int
    right_a: float
    right_b: float
    op: Op


@dataclass(frozen=True)
class StringEquality:
    """``column[i + off] == value`` (or ``!=``) — never raises, any kind."""

    name: str
    off: int
    value: str
    equals: bool


@dataclass(frozen=True)
class Disjunction:
    """OR of AND-branches, each branch a tuple of leaf programs."""

    branches: tuple[tuple[object, ...], ...]


@dataclass(frozen=True)
class AnchoredCompare:
    """``op(lhs(i), rhs(anchor))`` — a residual comparison on kernels.

    ``lhs`` reads only the row under test ``i``, ``rhs`` only the
    *anchor*: the start of pattern element ``element`` (1-based), or its
    end when ``last`` (a ``LAST(V)`` reference).  Each side is an
    expression program over one row, as nested tuples:
    ``("col", name, offset)`` reads ``column[row + offset]``,
    ``("num", value)`` is a literal, ``("neg", operand)`` negates, and
    ``("+" | "-" | "*", left, right)`` is arithmetic.  There is no
    division: Python raises on a zero divisor, NumPy does not.

    At run time the anchor is ``attempt_start + counts[element - 1]``, or
    ``attempt_start + counts[element] - 1`` for the end (see
    :mod:`repro.match.ops_star`).  Navigation off either end makes the
    comparison False for every operator, as in the residual closure.
    """

    lhs: tuple
    op: Op
    rhs: tuple
    element: int
    last: bool = False


@dataclass(frozen=True)
class ElementKernel:
    """The full conjunction program for one pattern element.

    ``steps`` are the per-condition programs in declaration order (order
    is informational only — a truth array is order-free).  ``band_fused``
    marks the two-comparison shape codegen fuses into one closure, so
    profiles can attribute fusion identically on both paths.
    ``anchored`` are the element's anchored comparisons; the element
    holds at a row where every step's truth byte is 1 and every anchored
    comparison holds for the attempt's anchor.
    """

    steps: tuple[object, ...]
    band_fused: bool = False
    anchored: tuple[AnchoredCompare, ...] = ()

    @property
    def columns(self) -> frozenset[str]:
        """Every column name any step of this kernel reads."""
        names: set[str] = set()
        _collect_columns(self.steps, names)
        for compare in self.anchored:
            _collect_side_columns(compare.lhs, names)
            _collect_side_columns(compare.rhs, names)
        return frozenset(names)


@dataclass(frozen=True)
class KernelPlan:
    """Per-element kernels for one compiled pattern (None = row fallback)."""

    elements: tuple[Optional[ElementKernel], ...]

    @property
    def lowered(self) -> int:
        """How many elements have a batch kernel, anchored ones included."""
        return sum(1 for kernel in self.elements if kernel is not None)

    @property
    def columns(self) -> frozenset[str]:
        names: set[str] = set()
        for kernel in self.elements:
            if kernel is not None:
                names.update(kernel.columns)
        return frozenset(names)


def _collect_columns(steps, names: set[str]) -> None:
    for step in steps:
        if isinstance(step, (CompareConst, StringEquality)):
            names.add(step.name)
        elif isinstance(step, ComparePair):
            names.add(step.left_name)
            names.add(step.right_name)
        elif isinstance(step, Disjunction):
            for branch in step.branches:
                _collect_columns(branch, names)


def _collect_side_columns(program: tuple, names: set[str]) -> None:
    kind = program[0]
    if kind == "col":
        names.add(program[1])
    elif kind != "num":
        for operand in program[1:]:
            _collect_side_columns(operand, names)


def plan_element(predicate: ElementPredicate) -> Optional[ElementKernel]:
    """Lower one element predicate to a kernel, or None to fall back.

    Every condition must be an ordinary kernel step or a residual that
    carries an anchored comparison (attached by the SQL-TS analyzer).
    """
    steps: list[object] = []
    anchored: list[AnchoredCompare] = []
    for condition in predicate.conditions:
        if isinstance(condition, ResidualCondition):
            if condition.anchored is None:
                return None
            anchored.append(condition.anchored)
            continue
        step = _plan_condition(condition)
        if step is None:
            return None
        steps.append(step)
    return ElementKernel(
        steps=tuple(steps),
        band_fused=_is_band_fused(predicate.conditions),
        anchored=tuple(anchored),
    )


def _plan_condition(condition: Condition) -> Optional[object]:
    if isinstance(condition, ComparisonCondition):
        return _plan_comparison(condition)
    if isinstance(condition, StringEqualityCondition):
        return StringEquality(
            name=condition.attr.name,
            off=condition.attr.offset,
            value=condition.value,
            equals=condition.op is Op.EQ,
        )
    if isinstance(condition, OrCondition):
        branches: list[tuple[object, ...]] = []
        for branch in condition.branches:
            lowered_branch: list[object] = []
            for leaf in branch:
                lowered = _plan_condition(leaf)
                if lowered is None:
                    return None
                lowered_branch.append(lowered)
            branches.append(tuple(lowered_branch))
        return Disjunction(branches=tuple(branches))
    # Unknown condition types never batch-lower; the element stays on
    # the row evaluator.
    return None


def _plan_comparison(condition: ComparisonCondition) -> object:
    left, right = condition.left, condition.right
    if left.attr is None and right.attr is None:
        return Ground(result=condition.op.holds(left.constant, right.constant))
    if right.attr is None:
        return CompareConst(
            name=left.attr.name,
            off=left.attr.offset,
            a=left.coefficient,
            b=left.constant,
            op=condition.op,
            const=right.constant,
            const_on_left=False,
        )
    if left.attr is None:
        return CompareConst(
            name=right.attr.name,
            off=right.attr.offset,
            a=right.coefficient,
            b=right.constant,
            op=condition.op,
            const=left.constant,
            const_on_left=True,
        )
    return ComparePair(
        left_name=left.attr.name,
        left_off=left.attr.offset,
        left_a=left.coefficient,
        left_b=left.constant,
        right_name=right.attr.name,
        right_off=right.attr.offset,
        right_a=right.coefficient,
        right_b=right.constant,
        op=condition.op,
    )


def _is_band_fused(conditions) -> bool:
    """Mirror codegen's band-fusion eligibility test exactly.

    Two attr-vs-attr comparisons over the same pair of (name, offset)
    cells — codegen fuses their closure; kernels mark the element so
    both paths report the same ``band_fused`` attribution.
    """
    if len(conditions) != 2:
        return False
    first, second = conditions
    if not (
        isinstance(first, ComparisonCondition)
        and isinstance(second, ComparisonCondition)
    ):
        return False
    if first.left.attr is None or first.right.attr is None:
        return False
    if second.left.attr is None or second.right.attr is None:
        return False
    cells = {
        (first.left.attr.name, first.left.attr.offset),
        (first.right.attr.name, first.right.attr.offset),
    }
    return (
        (second.left.attr.name, second.left.attr.offset) in cells
        and (second.right.attr.name, second.right.attr.offset) in cells
    )
