"""CheckpointStore replicas: quorum writes, repair-on-load, generations,
and the one-replica default reading pre-generation flat frames."""

import hashlib
import os
import pickle
import struct

import pytest

from repro import failpoints
from repro.errors import RecoveryError
from repro.recovery import CheckpointPolicy, CheckpointStore
from repro.resilience import Diagnostics


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


def three_replicas(tmp_path):
    return [str(tmp_path / f"replica{i}" / "ck") for i in range(3)]


def corrupt(path):
    with open(path, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        handle.write(b"\xff")


def write_flat_frame(path, state):
    """A checkpoint as written before saves were generation-stamped:
    "RPCK", version 1, payload length, sha256, then the bare pickled
    state."""
    payload = pickle.dumps(state)
    with open(path, "wb") as handle:
        handle.write(struct.pack(">4sHI", b"RPCK", 1, len(payload)))
        handle.write(hashlib.sha256(payload).digest())
        handle.write(payload)


class TestConstruction:
    def test_requires_at_least_one_path(self):
        with pytest.raises(TypeError):
            CheckpointStore()

    def test_rejects_duplicate_paths(self, tmp_path):
        path = str(tmp_path / "ck")
        with pytest.raises(ValueError, match="distinct"):
            CheckpointStore(path, path)

    def test_quorum_defaults_to_majority(self, tmp_path):
        store = CheckpointStore(*three_replicas(tmp_path))
        assert store.quorum == 2
        assert CheckpointStore(tmp_path / "ck").quorum == 1


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        store = CheckpointStore(*three_replicas(tmp_path))
        assert not store.exists()
        store.save({"offset": 7})
        assert store.exists()
        assert store.load() == {"offset": 7}

    def test_every_replica_is_written(self, tmp_path):
        paths = three_replicas(tmp_path)
        CheckpointStore(*paths).save("state")
        for path in paths:
            assert os.path.exists(path)

    def test_generation_increments_per_save(self, tmp_path):
        store = CheckpointStore(*three_replicas(tmp_path))
        assert store.generation is None
        store.save("a")
        assert store.generation == 1
        store.save("b")
        assert store.generation == 2

    def test_fresh_process_continues_above_on_disk_generation(self, tmp_path):
        paths = three_replicas(tmp_path)
        first = CheckpointStore(*paths)
        first.save("a")
        first.save("b")
        second = CheckpointStore(*paths)
        second.save("c")
        assert second.generation == 3
        assert second.load() == "c"


class TestRepairOnLoad:
    def test_corrupt_replica_is_outvoted_and_repaired(self, tmp_path):
        paths = three_replicas(tmp_path)
        store = CheckpointStore(*paths)
        store.save("good")
        corrupt(paths[1])
        diagnostics = Diagnostics()
        fresh = CheckpointStore(*paths)
        assert fresh.load(diagnostics=diagnostics) == "good"
        assert fresh.repairs == 1
        assert diagnostics.replicas_repaired == 1
        # The repaired replica now reads clean on its own.
        assert CheckpointStore(paths[1]).load() == "good"

    def test_wiped_replica_directory_is_repaired(self, tmp_path):
        paths = three_replicas(tmp_path)
        store = CheckpointStore(*paths)
        store.save("good")
        os.remove(paths[2])
        fresh = CheckpointStore(*paths)
        assert fresh.load() == "good"
        assert os.path.exists(paths[2])
        assert fresh.repairs == 1

    def test_stale_replica_loses_to_newer_generation(self, tmp_path):
        paths = three_replicas(tmp_path)
        store = CheckpointStore(*paths)
        store.save("old")
        # Write a newer generation to replicas 0 and 1 only, simulating a
        # crash mid-fan-out that left replica 2 behind.
        partial = CheckpointStore(*paths[:2])
        partial.save("new")
        fresh = CheckpointStore(*paths)
        assert fresh.load() == "new"
        assert fresh.repairs == 1  # replica 2 caught up
        assert CheckpointStore(paths[2]).load() == "new"

    def test_all_replicas_missing_raises(self, tmp_path):
        store = CheckpointStore(*three_replicas(tmp_path))
        with pytest.raises(RecoveryError, match="no checkpoint"):
            store.load()

    def test_legacy_unstamped_file_adopted_as_generation_zero(self, tmp_path):
        paths = three_replicas(tmp_path)
        os.makedirs(os.path.dirname(paths[0]), exist_ok=True)
        write_flat_frame(paths[0], "legacy-state")
        store = CheckpointStore(*paths)
        assert store.load() == "legacy-state"
        # The next save supersedes the adopted generation everywhere.
        store.save("upgraded")
        assert CheckpointStore(*paths).load() == "upgraded"


class TestQuorumWrites:
    def test_minority_write_failure_is_tolerated(self, tmp_path):
        paths = three_replicas(tmp_path)
        store = CheckpointStore(*paths)
        failpoints.activate_spec("checkpoint.replica_write=raise:OSError*1")
        store.save("state")  # first replica write fails, quorum still met
        assert store.write_failures == 1
        assert store.load() == "state"

    def test_losing_quorum_raises_recovery_error(self, tmp_path):
        paths = three_replicas(tmp_path)
        store = CheckpointStore(*paths)
        failpoints.activate_spec("checkpoint.replica_write=raise:OSError*2")
        with pytest.raises(RecoveryError, match="quorum"):
            store.save("state")

    def test_write_failures_reach_diagnostics(self, tmp_path):
        diagnostics = Diagnostics()
        store = CheckpointStore(
            *three_replicas(tmp_path), diagnostics=diagnostics
        )
        failpoints.activate_spec("checkpoint.replica_write=raise:OSError*1")
        store.save("state")
        assert diagnostics.replica_write_failures == 1
        assert any("replica write failed" in w for w in diagnostics.warnings)


class TestOneReplica:
    """The default store: one path, its ``.prev`` fallback, and the flat
    frames written before saves were generation-stamped."""

    def test_save_load_and_fall_back_to_prev(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save("first")
        store.save("second")
        assert store.replica_paths == (str(tmp_path / "ck"),)
        assert sorted(os.listdir(tmp_path)) == ["ck", "ck.prev"]
        assert CheckpointStore(tmp_path / "ck").load() == "second"
        corrupt(store.path)
        diagnostics = Diagnostics()
        fresh = CheckpointStore(tmp_path / "ck")
        assert fresh.load(diagnostics=diagnostics) == "first"
        assert fresh.generation == 1 and fresh.repairs == 0
        assert any("at-least-once" in w for w in diagnostics.warnings)

    def test_write_failure_escapes_unwrapped(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        failpoints.activate_spec("checkpoint.replica_write=raise:OSError*1")
        with pytest.raises(OSError) as excinfo:
            store.save("state")
        assert not isinstance(excinfo.value, RecoveryError)
        assert store.write_failures == 1 and not store.exists()

    def test_flat_frame_loads_as_generation_zero(self, tmp_path):
        write_flat_frame(tmp_path / "ck", {"offset": 7})
        store = CheckpointStore(tmp_path / "ck")
        assert store.load() == {"offset": 7}
        assert store.generation == 0
        store.save({"offset": 8})
        assert store.generation == 1
        assert CheckpointStore(tmp_path / "ck").load() == {"offset": 8}

    def test_stream_resumes_from_a_flat_frame(self, tmp_path):
        from tests.integration.test_crash_recovery import (
            QUERY,
            PlannedCrash,
            make_executor,
            make_factory,
            walk_rows,
        )

        rows = walk_rows(300)
        executor = make_executor()
        expected = list(executor.stream(QUERY, make_factory(rows)).rows)
        stamped = CheckpointStore(tmp_path / "stamped")
        first = executor.stream(
            QUERY,
            make_factory(rows, crash_at=140),
            store=stamped,
            checkpoints=CheckpointPolicy(every_rows=20),
        )
        combined = []
        with pytest.raises(PlannedCrash):
            combined.extend(first.rows)
        write_flat_frame(tmp_path / "flat", stamped.load())
        second = executor.stream(
            QUERY,
            make_factory(rows),
            store=CheckpointStore(tmp_path / "flat"),
            resume=True,
        )
        combined.extend(second.rows)
        assert combined == expected
        assert second.diagnostics.checkpoints_restored == 1
