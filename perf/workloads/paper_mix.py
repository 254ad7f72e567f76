"""paper_mix: the paper's own queries, closed loop, one client.

Each round runs the seven ``ALL_EXAMPLES`` queries plus the two DJIA
queries of the served mix, in a seeded shuffled order, over a seeded
DJIA series (6.5k rows) and quote table (8 tickers x 500 days).  The
plan cache is warm after set-up, so the time goes to clustering,
kernels, matching and projection: this is the workload where a change
to the match layer shows, and it pins the paper's metric.

Latency is one ``execute_with_report`` call.  Every result must equal the first result of the same text, and each
first result must equal the interpreted oracle's.  At seed 1 Example 10
must find the 11 matches with 8143 OPS predicate tests that
BENCH_pr3.json records.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from perf.workloads import Sample, oracle, seeded_djia, seeded_quote
from repro import AttributeDomains, Catalog, Executor, Instrumentation
from repro.data.workloads import ALL_EXAMPLES, EXAMPLE_10

#: The two DJIA queries of the served mix (BENCH_serve's request mix).
DJIA_QUERIES = {
    "example_10_djia": (
        "SELECT X.NEXT.date FROM djia SEQUENCE BY date AS (X, *Y, S) "
        "WHERE Y.price < 0.98 * Y.previous.price "
        "AND S.price > S.previous.price"
    ),
    "rising_pair_djia": (
        "SELECT X.date FROM djia SEQUENCE BY date AS (X, Y) "
        "WHERE Y.price > X.price"
    ),
}

QUERIES = {**ALL_EXAMPLES, **DJIA_QUERIES}

#: Example 10 on the seed-1 DJIA series, as BENCH_pr3.json records it.
PINNED_MATCHES = 11
PINNED_OPS_TESTS = 8143


class State:
    def __init__(self, seed: int, catalog: Catalog, executor: Executor, first: dict):
        self.seed = seed
        self.catalog = catalog
        self.executor = executor
        self.first = first
        self.order = random.Random(seed)


def make_inputs(seed: int, workdir) -> dict:
    return {"seed": seed}


def setup(inputs: dict) -> State:
    seed = inputs["seed"]
    catalog = Catalog([seeded_djia(seed), seeded_quote(seed)])
    executor = Executor(catalog, domains=AttributeDomains.prices())
    first = {name: executor.execute(text).rows for name, text in QUERIES.items()}
    return State(seed, catalog, executor, first)


def measure(state: State, seconds: float, tracer=None) -> Sample:
    sample = Sample()
    hits, misses = state.executor.plan_cache_hits, state.executor.plan_cache_misses
    names = list(QUERIES)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        state.order.shuffle(names)
        for name in names:
            instrumentation = Instrumentation()
            outcome = sample.timed(
                name,
                lambda: state.executor.execute_with_report(
                    QUERIES[name], instrumentation
                ),
                tracer,
            )
            if outcome is None:
                continue
            result, report = outcome
            sample.kept.append(name)
            sample.add_report(report, instrumentation)
            if result.rows != state.first[name]:
                sample.fail(f"{name}: rows differ from its first execution")
    sample.counts["plan_cache.hits"] = state.executor.plan_cache_hits - hits
    sample.counts["plan_cache.misses"] = state.executor.plan_cache_misses - misses
    return sample


def verify(state: State, sample: Sample) -> None:
    ops_by_query = Counter(sample.kept)
    reference = oracle(state.catalog)
    for name, text in QUERIES.items():
        if reference.execute(text).rows != state.first[name]:
            sample.fail(
                f"{name}: rows differ from the interpreted oracle",
                count=max(1, ops_by_query[name]),
            )
    if state.seed == 1:
        _, report = state.executor.execute_with_report(EXAMPLE_10, Instrumentation())
        if (report.matches, report.predicate_tests) != (PINNED_MATCHES, PINNED_OPS_TESTS):
            sample.fail(
                f"example_10: {report.matches} matches / {report.predicate_tests} "
                f"tests, BENCH_pr3 records {PINNED_MATCHES} / {PINNED_OPS_TESTS}",
                count=max(1, ops_by_query["example_10"]),
            )

