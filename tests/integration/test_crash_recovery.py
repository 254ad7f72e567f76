"""Kill-and-resume fault injection for the recovery subsystem.

Simulates a process crash mid-stream (the source raises at a planted
offset), restarts a fresh runner from the durable checkpoint, and
asserts the combined emission equals an uninterrupted run — no
duplicates, no losses — under both the compiled and interpreted
evaluators.  Also covers retry/backoff, checkpoint-corruption fallback,
and cross-query fingerprint rejection end to end.
"""

from __future__ import annotations

import dataclasses
import os
import random

import pytest

from repro.data.djia import djia_table
from repro.data.workloads import EXAMPLE_10
from repro.engine.catalog import Catalog
from repro.engine.csv_io import iter_csv, save_csv
from repro.engine.executor import Executor
from repro.engine.table import Schema, Table
from repro.errors import ExecutionError, RecoveryError, TransientSourceError
from repro.pattern.predicates import AttributeDomains
from repro.recovery import (
    CheckpointPolicy,
    CheckpointStore,
    RecoveringStreamRunner,
    RetryPolicy,
)
from repro.resilience import Diagnostics

QUERY = """
SELECT FIRST(Y).price, LAST(Z).price
FROM walk
  SEQUENCE BY t
  AS (X, *Y, *Z)
WHERE Y.price > Y.previous.price
  AND Z.price < Z.previous.price
"""


class PlannedCrash(Exception):
    """Simulated process death at a planted offset."""


def walk_rows(n=600, seed=11):
    rng = random.Random(seed)
    return [
        {"t": index, "price": float(rng.randint(1, 60))}
        for index in range(n)
    ]


def make_factory(rows, crash_at=None, transient_at=()):
    """An offset-addressable source with planted faults.

    ``crash_at`` raises :class:`PlannedCrash` (not retryable — the
    simulated process death).  ``transient_at`` is a set of offsets that
    raise :class:`TransientSourceError` once each (retryable).
    """
    fired = set()

    def factory(start):
        for offset in range(start, len(rows)):
            if crash_at is not None and offset == crash_at:
                raise PlannedCrash(f"crash at offset {offset}")
            if offset in transient_at and offset not in fired:
                fired.add(offset)
                raise TransientSourceError(f"hiccup at offset {offset}")
            yield offset, rows[offset]

    return factory


def make_executor(codegen=True):
    catalog = Catalog()
    catalog.register(
        Table("walk", Schema([("t", "int"), ("price", "float")]))
    )
    return Executor(
        catalog, domains=AttributeDomains.prices(), codegen=codegen
    )


@pytest.mark.parametrize("codegen", [True, False], ids=["compiled", "interpreted"])
@pytest.mark.parametrize("crash_at", [37, 150, 421])
def test_kill_and_resume_equals_uninterrupted(tmp_path, codegen, crash_at):
    rows = walk_rows()
    executor = make_executor(codegen)

    uninterrupted = list(
        executor.stream(QUERY, make_factory(rows)).rows
    )
    assert uninterrupted  # the workload must actually produce matches

    store = CheckpointStore(tmp_path / "ck")
    checkpoints = CheckpointPolicy(every_rows=25)
    first = executor.stream(
        QUERY, make_factory(rows, crash_at=crash_at),
        store=store, checkpoints=checkpoints,
    )
    combined = []
    with pytest.raises(PlannedCrash):
        for row in first.rows:
            combined.append(row)
    second = executor.stream(
        QUERY, make_factory(rows),
        store=store, checkpoints=checkpoints, resume=True,
    )
    combined.extend(second.rows)
    assert combined == uninterrupted
    assert second.diagnostics.checkpoints_restored == 1


@pytest.mark.parametrize("codegen", [True, False], ids=["compiled", "interpreted"])
def test_example_10_crashed_halfway_still_emits_its_11_matches_once(
    tmp_path, codegen
):
    """The paper's DJIA double bottom as a stream, crashed halfway and
    resumed from its checkpoint: each of its 11 matches arrives once."""
    table = djia_table()
    rows = list(table)
    executor = Executor(
        Catalog([table]), domains=AttributeDomains.prices(), codegen=codegen
    )
    _, pattern = executor.prepare(EXAMPLE_10)
    store = CheckpointStore(tmp_path / "ck")
    checkpoints = CheckpointPolicy(every_rows=100)
    first = RecoveringStreamRunner(
        pattern, make_factory(rows, crash_at=len(rows) // 2),
        store=store, checkpoints=checkpoints,
    )
    emitted = []
    with pytest.raises(PlannedCrash):
        emitted.extend(match for _, match in first.run())
    second = RecoveringStreamRunner(
        pattern, make_factory(rows), store=store, checkpoints=checkpoints
    )
    emitted.extend(match for _, match in second.run(resume=True))
    assert second.diagnostics.checkpoints_restored == 1
    positions = [(match.start, match.end) for match in emitted]
    assert len(set(positions)) == len(positions) == 11


@pytest.mark.parametrize("codegen", [True, False], ids=["compiled", "interpreted"])
def test_resume_under_other_evaluator(tmp_path, codegen):
    """A checkpoint written by one evaluator resumes under the other."""
    rows = walk_rows(300)
    expected = list(make_executor(codegen).stream(QUERY, make_factory(rows)).rows)

    store = CheckpointStore(tmp_path / "ck")
    first = make_executor(codegen).stream(
        QUERY, make_factory(rows, crash_at=140),
        store=store, checkpoints=CheckpointPolicy(every_rows=20),
    )
    combined = []
    with pytest.raises(PlannedCrash):
        combined.extend(first.rows)
    second = make_executor(not codegen).stream(
        QUERY, make_factory(rows), store=store, resume=True
    )
    combined.extend(second.rows)
    assert combined == expected


def test_exactly_once_no_duplicates_across_many_crashes(tmp_path):
    """Crash repeatedly at different offsets; every match arrives once."""
    rows = walk_rows(400)
    executor = make_executor()
    expected = list(executor.stream(QUERY, make_factory(rows)).rows)

    store = CheckpointStore(tmp_path / "ck")
    checkpoints = CheckpointPolicy(every_rows=10)
    combined = []
    crash_offsets = iter([60, 130, 230, 350, None])
    resume = False
    for crash_at in crash_offsets:
        streaming = executor.stream(
            QUERY, make_factory(rows, crash_at=crash_at),
            store=store, checkpoints=checkpoints, resume=resume,
        )
        resume = True
        try:
            combined.extend(streaming.rows)
        except PlannedCrash:
            continue
        break
    assert combined == expected


def test_retry_backoff_recovers_transient_errors(tmp_path):
    rows = walk_rows(200)
    executor = make_executor()
    expected = list(executor.stream(QUERY, make_factory(rows)).rows)

    # Offset 50 fails twice in a row (both reopen attempts), offset 120
    # once; a successful row in between resets the attempt counter.
    remaining = {50: 2, 120: 1}

    def flaky_factory(start):
        for offset in range(start, len(rows)):
            if remaining.get(offset, 0) > 0:
                remaining[offset] -= 1
                raise TransientSourceError(f"hiccup at offset {offset}")
            yield offset, rows[offset]

    sleeps = []
    diagnostics = Diagnostics()
    runner_query = executor.stream(
        QUERY,
        flaky_factory,
        retry=RetryPolicy(max_retries=3, backoff=0.5),
        diagnostics=diagnostics,
    )
    runner_query.runner._sleep = sleeps.append
    out = list(runner_query.rows)
    assert out == expected
    assert diagnostics.retries == 3
    # Consecutive failures back off geometrically; the successful rows
    # between 50 and 120 reset the attempt counter back to the base delay.
    assert sleeps == [0.5, 1.0, 0.5]


def test_retries_exhausted_propagates_then_resumes(tmp_path):
    rows = walk_rows(300)
    executor = make_executor()
    expected = list(executor.stream(QUERY, make_factory(rows)).rows)

    class Dying:
        """A source that fails transiently at one offset, forever."""

        def factory(self, start):
            for offset in range(start, len(rows)):
                if offset == 150:
                    raise TransientSourceError("persistent fault")
                yield offset, rows[offset]

    store = CheckpointStore(tmp_path / "ck")
    first = executor.stream(
        QUERY, Dying().factory,
        store=store, checkpoints=CheckpointPolicy(every_rows=20),
        retry=RetryPolicy(max_retries=2, backoff=0.0),
    )
    first.runner._sleep = lambda _: None
    combined = []
    with pytest.raises(TransientSourceError, match="persistent fault"):
        combined.extend(first.rows)
    assert first.diagnostics.retries == 2
    second = executor.stream(
        QUERY, make_factory(rows), store=store, resume=True
    )
    combined.extend(second.rows)
    assert combined == expected


def test_corrupted_checkpoint_falls_back_to_previous(tmp_path):
    rows = walk_rows(300)
    executor = make_executor()
    expected = list(executor.stream(QUERY, make_factory(rows)).rows)

    store = CheckpointStore(tmp_path / "ck")
    first = executor.stream(
        QUERY, make_factory(rows, crash_at=220),
        store=store, checkpoints=CheckpointPolicy(every_rows=15),
    )
    combined = []
    with pytest.raises(PlannedCrash):
        combined.extend(first.rows)
    # Corrupt the latest checkpoint; .prev must carry the resume.
    with open(store.path, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        handle.write(b"\x00")
    second = executor.stream(
        QUERY, make_factory(rows), store=store, resume=True
    )
    resumed = list(second.rows)
    assert any("corrupt" in w for w in second.diagnostics.warnings)
    # Falling back one checkpoint weakens exactly-once to at-least-once:
    # every expected match arrives, duplicates are possible but bounded.
    assert set(combined + resumed) == set(expected)
    assert len(combined + resumed) >= len(expected)


def test_cross_query_checkpoint_rejected(tmp_path):
    rows = walk_rows(100)
    executor = make_executor()
    store = CheckpointStore(tmp_path / "ck")
    first = executor.stream(
        QUERY, make_factory(rows),
        store=store, checkpoints=CheckpointPolicy(every_rows=10),
    )
    list(first.rows)
    other_query = QUERY.replace("Y.price > Y.previous.price",
                                "Y.price < Y.previous.price")
    second = executor.stream(
        other_query, make_factory(rows), store=store, resume=True
    )
    with pytest.raises(RecoveryError, match="different pattern"):
        list(second.rows)


def test_resume_without_checkpoint_starts_fresh(tmp_path):
    rows = walk_rows(150)
    executor = make_executor()
    expected = list(executor.stream(QUERY, make_factory(rows)).rows)
    streaming = executor.stream(
        QUERY, make_factory(rows),
        store=CheckpointStore(tmp_path / "never-written"), resume=True,
    )
    assert list(streaming.rows) == expected
    assert any(
        "no checkpoint" in w for w in streaming.diagnostics.warnings
    )


def test_out_of_order_stream_rejected():
    rows = walk_rows(50)
    rows[20], rows[21] = rows[21], rows[20]  # break SEQUENCE BY t
    executor = make_executor()
    streaming = executor.stream(QUERY, make_factory(rows))
    with pytest.raises(ExecutionError, match="not ordered by SEQUENCE BY"):
        list(streaming.rows)


def test_csv_source_resumes_by_offset(tmp_path):
    """iter_csv + runner: kill mid-file, resume, identical output."""
    rows = walk_rows(250)
    schema = Schema([("t", "int"), ("price", "float")])
    table = Table("walk", schema)
    for row in rows:
        table.insert(row)
    csv_path = tmp_path / "walk.csv"
    save_csv(table, csv_path)

    executor = make_executor()
    expected = list(executor.stream(QUERY, make_factory(rows)).rows)

    crash = {"armed": True}

    def csv_factory(start):
        for offset, row in iter_csv(csv_path, schema, start_offset=start):
            if crash["armed"] and offset == 125:
                raise PlannedCrash("crash at 125")
            yield offset, row

    store = CheckpointStore(tmp_path / "ck")
    first = executor.stream(
        QUERY, csv_factory,
        store=store, checkpoints=CheckpointPolicy(every_rows=20),
    )
    combined = []
    with pytest.raises(PlannedCrash):
        combined.extend(first.rows)
    crash["armed"] = False
    second = executor.stream(QUERY, csv_factory, store=store, resume=True)
    combined.extend(second.rows)
    assert combined == expected
