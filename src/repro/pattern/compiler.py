"""End-to-end pattern compilation: PatternSpec -> CompiledPattern.

This is the "query compilation" step of the paper (end of Section 4.2):
build theta and phi from the element predicates, then derive shift/next —
through the S matrix for star-free patterns (Section 4) or through the
implication graphs for patterns with stars (Section 5).  The result is
immutable and reusable across any number of input sequences, "computed
once as part of the query compilation, and then used repeatedly to search
the database, and its time-varying content".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from repro.logic.matrix import TriangularMatrix
from repro.pattern.analysis import build_phi, build_theta
from repro.pattern.predicates import ElementPredicate, EvalContext
from repro.pattern.shift_next import ShiftNext, compute_shift_next
from repro.pattern.spec import PatternSpec
from repro.pattern.star_graph import ImplicationGraph
from repro.pattern.star_shift_next import compute_star_shift_next


@dataclass(frozen=True)
class CompiledPattern:
    """A pattern together with everything OPS precomputes about it.

    ``s_matrix`` is populated only for star-free patterns; ``graph`` only
    when the pattern has stars (it is how shift/next were derived).
    """

    spec: PatternSpec
    theta: TriangularMatrix
    phi: TriangularMatrix
    shift_next: ShiftNext
    s_matrix: Optional[TriangularMatrix]
    graph: Optional[ImplicationGraph]
    #: True for plans built by :func:`degraded_pattern` after an OPS
    #: compilation failure: shift/next are placeholders, only safe for
    #: restart-based matchers (naive / backtracking).
    degraded: bool = False
    #: False pins every element to the interpreted evaluator — the
    #: differential-testing oracle (see ``docs/performance.md``).
    use_codegen: bool = True
    #: The OPS scan's programs for this plan, each built on the first
    #: scan that needs it: how the cluster's kernels hold each element
    #: -> :class:`~repro.match.ops_star.ScanProgram`.
    scan_programs: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def m(self) -> int:
        return len(self.spec)

    @cached_property
    def evaluators(self) -> tuple[Callable, ...]:
        """Per-element ``(rows, index, bindings) -> bool`` evaluators,
        lazily lowered and cached.

        Entry ``j - 1`` is the element's compiled closure (see
        :mod:`repro.pattern.codegen`).  With ``use_codegen=False``, or for
        a predicate with any condition other than a comparison, it wraps
        the interpreted ``predicate.test`` instead.
        """
        from repro.pattern.codegen import lower_predicate

        evaluators = []
        for element in self.spec:
            lowered = lower_predicate(element.predicate) if self.use_codegen else None
            evaluators.append(
                lowered if lowered is not None else _interpreted(element.predicate)
            )
        return tuple(evaluators)

    @cached_property
    def kernel_plan(self) -> tuple[tuple, tuple]:
        """Which elements the columnar kernels evaluate, decided once.

        ``(shapes, slots)`` as :func:`repro.engine.columnar.plan_kernels`
        returns it: ``slots[j - 1]`` indexes element j's shape, or is
        None where the element stays on its per-row evaluator.  With
        ``use_codegen=False`` — the interpreted differential oracle —
        nothing lowers, keeping the oracle path entirely kernel-free.
        """
        if not self.use_codegen:
            return (), (None,) * self.m
        from repro.engine.columnar import plan_kernels

        return plan_kernels(self.spec)

    @property
    def has_star(self) -> bool:
        return self.spec.has_star

    def shift(self, j: int) -> int:
        return self.shift_next.shift[j]

    def next(self, j: int) -> int:
        return self.shift_next.next_[j]

    def stars(self) -> tuple[bool, ...]:
        """0-based star flags, one per element."""
        return tuple(e.star for e in self.spec)

    def describe(self) -> str:
        """A human-readable compilation report (used by examples/docs)."""
        lines = [f"pattern: {self.spec!r}", "theta:"]
        lines += ["  " + " ".join(row) for row in self.theta.to_rows()]
        lines.append("phi:")
        lines += ["  " + " ".join(row) for row in self.phi.to_rows()]
        if self.s_matrix is not None:
            lines.append("S:")
            lines += ["  " + (" ".join(row) or "-") for row in self.s_matrix.to_rows()]
        m = self.m
        lines.append("shift: " + " ".join(str(self.shift(j)) for j in range(1, m + 1)))
        lines.append("next:  " + " ".join(str(self.next(j)) for j in range(1, m + 1)))
        return "\n".join(lines)


def compile_pattern(
    spec: PatternSpec, use_equivalence: bool = True, codegen: bool = True
) -> CompiledPattern:
    """Run the full OPS compile-time analysis on a pattern.

    ``use_equivalence=False`` disables the equivalent-star-pair graph
    refinement (see :class:`~repro.pattern.star_graph.ImplicationGraph`),
    giving the paper's literal rule set — kept switchable for the
    ablation benchmarks.  ``codegen=False`` disables the compiled
    predicate fast path, pinning the plan to the interpreted evaluators
    (the differential-testing oracle).
    """
    theta = build_theta(spec)
    phi = build_phi(spec)
    if spec.has_star:
        equivalent = (
            _equivalent_pairs(spec, theta) if use_equivalence else frozenset()
        )
        graph = ImplicationGraph(theta, phi, [e.star for e in spec], equivalent)
        shift_next = compute_star_shift_next(graph)
        return CompiledPattern(
            spec=spec,
            theta=theta,
            phi=phi,
            shift_next=shift_next,
            s_matrix=None,
            graph=graph,
            use_codegen=codegen,
        )
    shift_next, s_matrix = compute_shift_next(theta, phi)
    return CompiledPattern(
        spec=spec,
        theta=theta,
        phi=phi,
        shift_next=shift_next,
        s_matrix=s_matrix,
        graph=None,
        use_codegen=codegen,
    )


def degraded_pattern(spec: PatternSpec, codegen: bool = True) -> CompiledPattern:
    """A fallback plan for patterns OPS analysis cannot compile.

    theta/phi are left all-UNKNOWN and shift/next are the no-skip
    placeholders (``shift = j``, ``next = 0``), which restart-based
    matchers (:class:`~repro.match.naive.NaiveMatcher`,
    :class:`~repro.match.backtracking.BacktrackingMatcher`) never read.
    The plan is tagged ``degraded=True`` so the executor refuses to hand
    it to an OPS runtime, whose skip arithmetic would be unsound with
    placeholder arrays.
    """
    m = len(spec)
    return CompiledPattern(
        spec=spec,
        theta=TriangularMatrix(m),
        phi=TriangularMatrix(m),
        shift_next=ShiftNext(
            shift=(0, *range(1, m + 1)), next_=(0,) * (m + 1)
        ),
        s_matrix=None,
        graph=None,
        degraded=True,
        use_codegen=codegen,
    )


def _interpreted(predicate: ElementPredicate) -> Callable:
    """An evaluator that runs the interpreted ``predicate.test``."""
    test = predicate.test

    def evaluate(rows, index, bindings):
        return test(EvalContext(rows, index, bindings))

    return evaluate


def _equivalent_pairs(spec: PatternSpec, theta) -> frozenset[tuple[int, int]]:
    """Starred pairs (j, k), j > k, whose predicates are provably equivalent.

    Equivalence requires theta[j, k] = 1 (p_j => p_k with p_j satisfiable),
    the reverse implication, and both predicates residual-free (a residual
    hides part of the predicate, so equivalence cannot be claimed).
    """
    from repro.logic.tribool import TRUE

    elements = spec.elements
    pairs = set()
    for j in range(2, len(elements) + 1):
        pj = elements[j - 1]
        if not pj.star or pj.predicate.has_residual:
            continue
        for k in range(1, j):
            pk = elements[k - 1]
            if not pk.star or pk.predicate.has_residual:
                continue
            if theta[j, k] is TRUE and pk.predicate.symbolic.implies(
                pj.predicate.symbolic
            ):
                pairs.add((j, k))
    return frozenset(pairs)
