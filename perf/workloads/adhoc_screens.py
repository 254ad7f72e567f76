"""adhoc_screens: distinct pattern texts, closed loop, one client.

Every operation is a new seeded SQL-TS screen over the quote table
(8 tickers x 500 days): 3 to 6 pattern elements, the last of them
starred in 70% of screens, some residual conditions that reference
``X``, and a hoisted
``X.name='...'`` filter that leaves one cluster to scan.  No text
repeats, so the plan cache never hits and each operation pays for
parsing, semantic analysis and OPS compilation (GSW theta/phi,
shift/next, codegen).  It uses the planning layers the opposite way to
``paper_mix``: a planning gain shows here and not there, a match gain
there and not here.

Latency is one ``execute_with_report`` call.  A seeded 10% of the
operations are checked against the interpreted oracle.
"""

from __future__ import annotations

import random
import time
from typing import Iterator

from perf.workloads import Sample, oracle, seeded_quote
from repro import AttributeDomains, Catalog, Executor, Instrumentation
from repro.data.quotes import DEFAULT_TICKERS

#: Share of operations checked against the interpreted oracle.
ORACLE_SHARE = 0.10
#: Share of screens whose last element is starred.  No other element
#: is: with a starred element before a plain one, OpsStarMatcher can
#: report a wrong match start (see perf/README.md, known limits).
STARRED_SHARE = 0.7

VARIABLES = ("X", "Y", "Z", "T", "U", "V")


def screen(rng: random.Random) -> str:
    """One random screen; see the module docstring for its shape."""
    n = rng.randint(3, 6)
    stars = [False] * (n - 1) + [rng.random() < STARRED_SHARE]
    conditions = []
    for position, var in enumerate(VARIABLES[:n]):
        kind = rng.random()
        if kind < 0.35:
            conditions.append(f"{var}.price {rng.choice('<>')} {var}.previous.price")
        elif kind < 0.7:
            factor = rng.choice((0.97, 0.98, 0.99, 1.01, 1.02, 1.03))
            op = ">" if factor > 1 else "<"
            conditions.append(f"{var}.price {op} {factor} * {var}.previous.price")
        else:
            low = rng.choice((0.97, 0.98, 0.99))
            high = rng.choice((1.01, 1.02, 1.03))
            conditions.append(
                f"{low} * {var}.previous.price < {var}.price "
                f"AND {var}.price < {high} * {var}.previous.price"
            )
        if position > 0 and rng.random() < 0.25:
            factor = rng.choice((0.9, 0.95, 1.05, 1.1))
            op = ">" if factor > 1 else "<"
            conditions.append(f"{var}.price {op} {factor} * X.price")
    conditions.append(f"X.name = '{rng.choice(DEFAULT_TICKERS)}'")
    last = VARIABLES[n - 1]
    first_date = "FIRST(X).date" if stars[0] else "X.date"
    last_date = f"LAST({last}).date" if stars[-1] else f"{last}.date"
    pattern = ", ".join(
        ("*" if star else "") + var for var, star in zip(VARIABLES, stars)
    )
    return (
        f"SELECT X.name, {first_date} AS sdate, {last_date} AS edate "
        f"FROM quote CLUSTER BY name SEQUENCE BY date AS ({pattern}) "
        f"WHERE " + " AND ".join(conditions)
    )


def distinct_screens(rng: random.Random, seen: set) -> Iterator[str]:
    while True:
        text = screen(rng)
        if text not in seen:
            seen.add(text)
            yield text


class State:
    def __init__(self, seed: int, catalog: Catalog, executor: Executor, seen: set):
        self.catalog = catalog
        self.executor = executor
        self.texts = distinct_screens(random.Random(seed), seen)
        self.checked = random.Random(f"oracle-{seed}")


def make_inputs(seed: int, workdir) -> dict:
    return {"seed": seed}


def setup(inputs: dict) -> State:
    seed = inputs["seed"]
    catalog = Catalog([seeded_quote(seed)])
    executor = Executor(catalog, domains=AttributeDomains.prices())
    seen: set = set()
    # Warm-up: one screen from a separate stream, never measured.
    executor.execute(next(distinct_screens(random.Random(f"warm-up-{seed}"), seen)))
    return State(seed, catalog, executor, seen)


def measure(state: State, seconds: float, tracer=None) -> Sample:
    sample = Sample()
    hits, misses = state.executor.plan_cache_hits, state.executor.plan_cache_misses
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        text = next(state.texts)
        instrumentation = Instrumentation()
        outcome = sample.timed(
            "screen",
            lambda: state.executor.execute_with_report(text, instrumentation),
            tracer,
        )
        if outcome is None:
            continue
        result, report = outcome
        sample.add_report(report, instrumentation)
        if state.checked.random() < ORACLE_SHARE:
            sample.kept.append((text, result.rows))
    sample.counts["plan_cache.hits"] = state.executor.plan_cache_hits - hits
    sample.counts["plan_cache.misses"] = state.executor.plan_cache_misses - misses
    return sample


def verify(state: State, sample: Sample) -> None:
    reference = oracle(state.catalog)
    for text, rows in sample.kept:
        if reference.execute(text).rows != rows:
            sample.fail(f"rows differ from the interpreted oracle: {text}")
