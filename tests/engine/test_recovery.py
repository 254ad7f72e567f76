"""Checkpoint store, pattern fingerprints, and snapshot/restore units."""

import dataclasses
import os

import pytest

from repro import failpoints
from repro.errors import CheckpointCorrupt, FailpointError, RecoveryError
from repro.match.streaming import OpsStreamMatcher
from repro.pattern.compiler import compile_pattern
from repro.pattern.predicates import comparison
from repro.pattern.spec import PatternElement, PatternSpec
from repro.recovery import (
    CheckpointStore,
    MatcherSnapshot,
    pattern_fingerprint,
    restore_matcher,
    snapshot_matcher,
)
from repro.resilience import Diagnostics, ResourceLimits
from tests.conftest import PREV, PRICE, price_predicate, price_rows

RISE = price_predicate(comparison(PRICE, ">", PREV), label="rise")
FALL = price_predicate(comparison(PRICE, "<", PREV), label="fall")


def compiled(*defs):
    return compile_pattern(
        PatternSpec([PatternElement(n, p, star=s) for n, p, s in defs])
    )


PATTERN = compiled(("Y", RISE, True), ("Z", FALL, False))


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save({"offset": 42, "payload": [1, 2, 3]})
        assert store.load() == {"offset": 42, "payload": [1, 2, 3]}

    def test_exists(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        assert not store.exists()
        store.save("state")
        assert store.exists()

    def test_missing_checkpoint_raises_recovery_error(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        with pytest.raises(RecoveryError, match="no checkpoint"):
            store.load()

    def test_rotation_keeps_previous(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save("first")
        store.save("second")
        assert os.path.exists(store.previous_path)
        assert store.load() == "second"

    def test_corrupt_latest_falls_back_to_previous(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save("first")
        store.save("second")
        with open(store.path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\xff")
        diagnostics = Diagnostics()
        assert store.load(diagnostics=diagnostics) == "first"
        assert any("corrupt" in w for w in diagnostics.warnings)
        assert any("at-least-once" in w for w in diagnostics.warnings)

    def test_all_corrupt_raises(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save("first")
        store.save("second")
        for path in (store.path, store.previous_path):
            with open(path, "r+b") as handle:
                handle.seek(-1, os.SEEK_END)
                handle.write(b"\xff")
        with pytest.raises(CheckpointCorrupt, match="checksum"):
            store.load()

    def test_truncated_file(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save("state")
        with open(store.path, "rb") as handle:
            data = handle.read()
        with open(store.path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with pytest.raises(CheckpointCorrupt, match="truncated"):
            store.load()

    def test_bad_magic(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save("state")
        with open(store.path, "r+b") as handle:
            handle.write(b"XXXX")
        with pytest.raises(CheckpointCorrupt, match="magic"):
            store.load()

    def test_unsupported_version(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save("state")
        with open(store.path, "r+b") as handle:
            handle.seek(4)
            handle.write(b"\xff\xff")
        with pytest.raises(CheckpointCorrupt, match="version"):
            store.load()

    def test_save_leaves_no_temp_file(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save("state")
        assert not os.path.exists(store.path + ".tmp")


class TestCrashConsistency:
    """Failpoint-driven 'kill -9 at the worst moment' races, made
    deterministic: every interrupted save must leave a loadable store."""

    @pytest.fixture(autouse=True)
    def _clean_failpoints(self):
        failpoints.reset()
        yield
        failpoints.reset()

    def test_torn_temp_write_falls_back_to_previous(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save("first")
        with failpoints.scoped("checkpoint.write=torn*1"):
            store.save("second")  # frame truncated on disk
        diagnostics = Diagnostics()
        assert store.load(diagnostics=diagnostics) == "first"
        assert any("truncated" in w or "corrupt" in w for w in diagnostics.warnings)
        # A later healthy save fully recovers the store.
        store.save("third")
        assert store.load() == "third"

    def test_lost_fsync_is_silent_when_no_crash_follows(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        with failpoints.scoped("checkpoint.fsync=skip"):
            store.save("state")
            assert failpoints.fires("checkpoint.fsync") == 1
        assert store.load() == "state"

    def test_crash_between_rotation_and_final_rename(self, tmp_path):
        # The .prev rotation happened but the new file never landed: the
        # current path is GONE, and recovery must come from .prev.
        store = CheckpointStore(tmp_path / "ck")
        store.save("first")
        store.save("second")
        with failpoints.scoped("checkpoint.rename=raise"):
            with pytest.raises(FailpointError):
                store.save("third")
        assert not os.path.exists(store.path)
        assert os.path.exists(store.previous_path)
        diagnostics = Diagnostics()
        assert store.load(diagnostics=diagnostics) == "second"
        assert any("fallback" in w for w in diagnostics.warnings)
        # The interrupted store accepts and serves subsequent saves.
        store.save("fourth")
        assert store.load() == "fourth"

    def test_torn_first_ever_save_raises_cleanly(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        with failpoints.scoped("checkpoint.write=torn*1"):
            store.save("only")
        with pytest.raises(CheckpointCorrupt):
            store.load()


class TestPatternFingerprint:
    CONFIG = dict(
        trim=True, overflow="raise", max_stream_buffer=None, extra_lookback=0
    )

    def test_stable_across_recompiles(self):
        again = compiled(("Y", RISE, True), ("Z", FALL, False))
        assert pattern_fingerprint(
            PATTERN, **self.CONFIG
        ) == pattern_fingerprint(again, **self.CONFIG)

    def test_codegen_mode_excluded(self):
        interpreted = dataclasses.replace(PATTERN, use_codegen=False)
        assert pattern_fingerprint(
            PATTERN, **self.CONFIG
        ) == pattern_fingerprint(interpreted, **self.CONFIG)

    def test_different_pattern_diverges(self):
        other = compiled(("Y", FALL, True), ("Z", RISE, False))
        assert pattern_fingerprint(
            PATTERN, **self.CONFIG
        ) != pattern_fingerprint(other, **self.CONFIG)

    def test_different_config_diverges(self):
        base = pattern_fingerprint(PATTERN, **self.CONFIG)
        changed = dict(self.CONFIG, overflow="restart")
        assert base != pattern_fingerprint(PATTERN, **changed)


class TestSnapshotRestore:
    def test_mid_stream_round_trip_continues_identically(self):
        rows = price_rows(1, 2, 3, 2, 1, 2, 3, 4, 2, 5, 6, 1)
        reference = OpsStreamMatcher(PATTERN)
        out_ref = []
        for row in rows:
            out_ref.extend(reference.push(row))
        out_ref.extend(reference.finish())

        matcher = OpsStreamMatcher(PATTERN)
        out = []
        for index, row in enumerate(rows):
            out.extend(matcher.push(row))
            if index == 5:
                matcher = OpsStreamMatcher.restore(matcher.snapshot(), PATTERN)
        out.extend(matcher.finish())
        assert out == out_ref

    def test_fingerprint_mismatch_rejected(self):
        matcher = OpsStreamMatcher(PATTERN)
        matcher.push({"price": 5.0})
        snapshot = matcher.snapshot()
        other = compiled(("Y", FALL, True), ("Z", RISE, False))
        with pytest.raises(RecoveryError, match="different pattern"):
            OpsStreamMatcher.restore(snapshot, other)

    def test_config_mismatch_rejected(self):
        matcher = OpsStreamMatcher(PATTERN, overflow="raise")
        snapshot = matcher.snapshot()
        with pytest.raises(RecoveryError, match="different pattern"):
            OpsStreamMatcher.restore(snapshot, PATTERN, overflow="restart")

    def test_unsupported_snapshot_version(self):
        matcher = OpsStreamMatcher(PATTERN)
        snapshot = dataclasses.replace(matcher.snapshot(), version=99)
        with pytest.raises(RecoveryError, match="version 99"):
            OpsStreamMatcher.restore(snapshot, PATTERN)

    def test_budget_spend_carries_over(self):
        limits = ResourceLimits(max_matches=2)
        matcher = OpsStreamMatcher(PATTERN, limits=limits)
        emitted = []
        for row in price_rows(1, 2, 1):
            emitted.extend(matcher.push(row))
        assert len(emitted) == 1
        restored = OpsStreamMatcher.restore(
            matcher.snapshot(), PATTERN, limits=limits
        )
        for row in price_rows(2, 1, 2, 1, 2, 1):
            emitted.extend(restored.push(row))
        emitted.extend(restored.finish())
        # max_matches=2 spans the restore: one before, one after, capped.
        assert len(emitted) == 2
        assert restored.tripped is not None

    def test_pending_matches_survive_restore(self):
        matcher = OpsStreamMatcher(PATTERN)
        rows = price_rows(1, 2, 1)
        fresh = []
        for row in rows:
            fresh.extend(matcher.push(row))
        assert fresh  # the match completed and was drained
        # Simulate a crash after the match was recorded but before the
        # runner delivered it: rebuild the snapshot with _emitted rolled
        # back so the match is pending again.
        matcher2 = OpsStreamMatcher(PATTERN)
        for row in rows:
            matcher2.push(row)
        matcher2._emitted = 0
        snapshot = snapshot_matcher(matcher2)
        assert len(snapshot.pending_matches) == 1
        restored = restore_matcher(snapshot, PATTERN)
        redelivered = restored.finish()
        assert redelivered == fresh

    def test_high_water_mark_preserved(self):
        matcher = OpsStreamMatcher(PATTERN)
        emitted = []
        for row in price_rows(1, 2, 1, 5, 6, 2):
            emitted.extend(matcher.push(row))
        assert matcher.emitted_high_water == emitted[-1].end
        restored = OpsStreamMatcher.restore(matcher.snapshot(), PATTERN)
        assert restored.emitted_high_water == matcher.emitted_high_water

    def test_diagnostics_travel_with_snapshot(self):
        matcher = OpsStreamMatcher(PATTERN)
        matcher.diagnostics.warn("pre-crash warning")
        restored = OpsStreamMatcher.restore(matcher.snapshot(), PATTERN)
        assert "pre-crash warning" in restored.diagnostics.warnings

    def test_snapshot_is_plain_data(self):
        matcher = OpsStreamMatcher(PATTERN)
        matcher.push({"price": 5.0})
        snapshot = matcher.snapshot()
        assert isinstance(snapshot, MatcherSnapshot)
        import pickle

        assert pickle.loads(pickle.dumps(snapshot)) == snapshot
