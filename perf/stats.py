"""Order statistics and the regression rule shared by runs and ``compare``.

Percentiles use the nearest-rank rule.  A percentile is *supported* by a
sample when at least :data:`MIN_BEYOND` samples lie beyond it; fewer
than that and the value is an extreme order statistic, not a percentile
anyone can repeat.

Between two sets of runs (the parent and the change), a metric is:

- ``better``     — every run of the change beats every run of the parent;
- ``unresolved`` — otherwise, when either side's quartile spread is wider
  than the metric's bound (the runs cannot tell a change of that size
  from noise), except for the metrics in :data:`MEDIAN_ONLY`;
- ``regression`` — otherwise, when the change's median is worse than the
  parent's by more than the bound;
- ``ok``         — otherwise.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a percentile for it to count as measured.
MIN_BEYOND = 10
#: Metrics judged by their medians alone, never "unresolved".  A run's
#: set-up time is the median of a few fresh-interpreter starts, whose
#: spread follows the host's scheduling more than the program; the
#: median still catches work moved into set-up.
MEDIAN_ONLY = ("setup_s",)


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile in a sample of n."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    # The epsilon keeps q * n / 100 that is integral in exact arithmetic
    # (90 * 10 / 100) from rounding up past itself in floating point.
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank q-th percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie above the q-th percentile's rank."""
    return n - _rank(n, q)


def supported(n: int, q: float) -> bool:
    """True when n samples put at least MIN_BEYOND beyond percentile q."""
    return beyond(n, q) >= MIN_BEYOND


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def worsening(parent: float, change: float, better: str) -> float:
    """By what share of ``parent`` the change is worse (negative: better)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if parent == 0:
        return 0.0 if change == parent else math.inf
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(
    name: str, parent: Sequence[float], change: Sequence[float], bound: float, better: str
) -> str:
    """Classify metric ``name`` of one workload; see the module docstring."""
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if all_better:
        return "better"
    if name not in MEDIAN_ONLY and max(spread(parent), spread(change)) > bound:
        return "unresolved"
    if worsening(quartiles(parent)[1], quartiles(change)[1], better) > bound:
        return "regression"
    return "ok"
