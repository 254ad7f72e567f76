"""Randomized differential test: snapshot/restore never changes matches.

Streams random price series through :class:`OpsStreamMatcher` in random
chunk sizes, injecting a full snapshot → durable checkpoint → restore
cycle at randomized (seeded) points, and asserts the emitted match
sequence is identical to the batch :class:`OpsStarMatcher` on the same
rows — for both the compiled and the interpreted evaluator, which must
also accept each other's checkpoints (the fingerprint excludes the
evaluator mode).  The pool holds an OR and a string equality, which the
stream runs interpreted under either mode, and SQL texts with a
residual, an OR and a string equality stream through
``Executor.stream``, crash, and resume from a checkpoint to the batch
rows.
"""

import dataclasses
import random

import pytest

from repro.constraints.atoms import Op
from repro.data.quotes import quote_table
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.match.ops_star import OpsStarMatcher
from repro.match.streaming import OpsStreamMatcher
from repro.pattern.compiler import compile_pattern
from repro.pattern.predicates import (
    Attr,
    AttributeDomains,
    OrCondition,
    StringEqualityCondition,
    comparison,
)
from repro.pattern.spec import PatternElement, PatternSpec
from repro.recovery import CheckpointPolicy, CheckpointStore
from tests.conftest import PREV, PRICE, price_predicate

RISE = price_predicate(comparison(PRICE, ">", PREV), label="rise")
FALL = price_predicate(comparison(PRICE, "<", PREV), label="fall")
LOW = price_predicate(comparison(PRICE, "<", 10), label="low")
MID = price_predicate(
    comparison(5, "<", PRICE), comparison(PRICE, "<", 40), label="mid"
)
#: An OR and a string equality: no closure, the interpreter runs them.
SWING = price_predicate(
    OrCondition([[comparison(PRICE, "<", 8)], [comparison(PRICE, ">", 42)]]),
    label="swing",
)
LISTED = price_predicate(
    StringEqualityCondition(Attr("venue"), Op.EQ, "NYSE"), label="listed"
)

#: Element pools the random patterns draw from.
_PREDICATES = [RISE, FALL, LOW, MID, SWING, LISTED]


def random_pattern(rng: random.Random):
    length = rng.randint(2, 4)
    elements = []
    for position in range(length):
        predicate = rng.choice(_PREDICATES)
        star = rng.random() < 0.4
        elements.append(
            PatternElement(f"E{position}", predicate, star=star)
        )
    # At least one non-star element keeps the pattern satisfiable in the
    # usual sense (all-star patterns are legal but degenerate).
    if all(element.star for element in elements):
        elements[-1] = PatternElement(
            elements[-1].name, elements[-1].predicate, star=False
        )
    return PatternSpec(elements)


@pytest.mark.parametrize("codegen", [True, False], ids=["compiled", "interpreted"])
@pytest.mark.parametrize("seed", range(8))
def test_random_streams_with_restore_match_batch(seed, codegen, tmp_path):
    rng = random.Random(seed)
    spec = random_pattern(rng)
    pattern = compile_pattern(spec, codegen=codegen)
    rows = [
        {"price": float(rng.randint(1, 50)), "venue": rng.choice(("NYSE", "LSE"))}
        for _ in range(rng.randint(50, 300))
    ]
    expected = OpsStarMatcher().find_matches(rows, pattern)

    store = CheckpointStore(tmp_path / f"ck-{seed}")
    matcher = OpsStreamMatcher(pattern)
    emitted = []
    index = 0
    while index < len(rows):
        chunk = rng.randint(1, 7)
        for row in rows[index : index + chunk]:
            emitted.extend(matcher.push(row))
        index += chunk
        if rng.random() < 0.3:
            store.save(matcher.snapshot())
            # Restore under the *other* evaluator half the time: the
            # fingerprint guarantees checkpoints are interchangeable.
            restore_pattern = pattern
            if rng.random() < 0.5:
                restore_pattern = dataclasses.replace(
                    pattern, use_codegen=not pattern.use_codegen
                )
            matcher = OpsStreamMatcher.restore(store.load(), restore_pattern)
    emitted.extend(matcher.finish())
    assert emitted == expected


@pytest.mark.parametrize("codegen", [True, False], ids=["compiled", "interpreted"])
def test_restore_every_row_matches_batch(codegen, tmp_path):
    """The brutal case: checkpoint + restore after every single push."""
    rng = random.Random(99)
    pattern = compile_pattern(
        PatternSpec(
            [
                PatternElement("Y", RISE, star=True),
                PatternElement("Z", FALL),
            ]
        ),
        codegen=codegen,
    )
    rows = [{"price": float(rng.randint(1, 30))} for _ in range(120)]
    expected = OpsStarMatcher().find_matches(rows, pattern)
    store = CheckpointStore(tmp_path / "ck")
    matcher = OpsStreamMatcher(pattern)
    emitted = []
    for row in rows:
        emitted.extend(matcher.push(row))
        store.save(matcher.snapshot())
        matcher = OpsStreamMatcher.restore(store.load(), pattern)
    emitted.extend(matcher.finish())
    assert emitted == expected


#: Texts whose elements the stream interprets: a residual, an OR and a
#: string equality, over one quote ticker.
INTERPRETED_TEXTS = {
    "residual": (
        "SELECT X.date, Z.date FROM ibm SEQUENCE BY date AS (X, *Y, Z) "
        "WHERE Y.price < Y.previous.price AND Z.previous.price < 0.9 * X.price"
    ),
    "or": (
        "SELECT X.date FROM ibm SEQUENCE BY date AS (X, Y) "
        "WHERE (Y.price < 0.99 * Y.previous.price "
        "OR Y.price > 1.01 * Y.previous.price)"
    ),
    "string_equality": (
        "SELECT X.date FROM ibm SEQUENCE BY date AS (X, Y) "
        "WHERE X.name = 'IBM' AND Y.price > Y.previous.price"
    ),
}


class _Crash(Exception):
    """The source dies at a planted offset."""


@pytest.mark.parametrize("codegen", [True, False], ids=["compiled", "interpreted"])
@pytest.mark.parametrize("text", sorted(INTERPRETED_TEXTS))
def test_interpreted_elements_stream_and_resume_to_the_batch_rows(
    text, codegen, tmp_path
):
    table = quote_table(tickers=("IBM",), name="ibm")
    executor = Executor(
        Catalog([table]), domains=AttributeDomains.prices(), codegen=codegen
    )
    query = INTERPRETED_TEXTS[text]
    expected = list(executor.execute(query).rows)
    assert expected
    rows = sorted(table.rows, key=lambda row: row["date"])

    def source(crash_at=None):
        def factory(start):
            for offset in range(start, len(rows)):
                if offset == crash_at:
                    raise _Crash(offset)
                yield offset, rows[offset]

        return factory

    store = CheckpointStore(tmp_path / "ck")
    checkpoints = CheckpointPolicy(every_rows=40)
    emitted = []
    with pytest.raises(_Crash):
        for row in executor.stream(
            query, source(crash_at=len(rows) // 2), store=store,
            checkpoints=checkpoints,
        ).rows:
            emitted.append(row)
    resumed = executor.stream(
        query, source(), store=store, checkpoints=checkpoints, resume=True
    )
    emitted.extend(resumed.rows)
    assert resumed.diagnostics.checkpoints_restored == 1
    assert emitted == expected
