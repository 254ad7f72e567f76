"""Failpoint-driven chaos matrix for the failure-domain hardening PR.

Each fault class gets a deterministic injection (no kill -9 roulette)
and the same acceptance bar: the *healthy* observer's results must be
byte-identical to an undisturbed run.  CI runs these one class at a
time (``-k torn_write`` etc.) so a regression names its fault class:

- ``torn_write``          — a checkpoint frame truncated mid-write;
- ``fsync_loss``          — the checkpoint fsync silently skipped;
- ``frame_drop``          — a server→client frame dies on the wire;
- ``replica_corruption``  — a checkpoint replica corrupted/wiped on disk.

``TestChaosStorm`` is the PR's headline gate: all of the above at once
plus a forced server restart, with the replica-repair and request-dedup
counters visible through the ``metrics`` op afterwards.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro import failpoints
from repro.engine.catalog import Catalog
from repro.pattern.predicates import AttributeDomains
from repro.recovery import CheckpointStore
from repro.serve import (
    FailoverPolicy,
    QueryServer,
    ServeClient,
    ServerThread,
)

from tests.serve.conftest import RISING_QUERY, price_table


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


@pytest.fixture
def catalog() -> Catalog:
    return Catalog([price_table(rows=90)])


#: Real-time failover patient enough to outlast a server restart.
PATIENT = FailoverPolicy(max_retries=20, backoff=0.05, max_backoff=0.5)


def _metric_value(metrics_text: str, name: str) -> float:
    """Sum every sample of a counter, across label sets."""
    total = 0.0
    for line in metrics_text.splitlines():
        if line.startswith(name):
            total += float(line.rsplit(" ", 1)[1])
    return total


def make_server(catalog, checkpoint_dir, **kwargs) -> ServerThread:
    return ServerThread(
        QueryServer(
            catalog,
            domains=AttributeDomains.prices(),
            checkpoint_dir=checkpoint_dir,
            subscription_checkpoint_every=1,
            **kwargs,
        )
    ).start()


def reference_rows(catalog, tmp_path) -> list:
    """The undisturbed subscription output every fault run must match."""
    handle = make_server(catalog, str(tmp_path / "reference_ckpt"))
    try:
        with ServeClient(*handle.address) as client:
            return [
                (row.seq, row.values)
                for row in client.subscribe(RISING_QUERY, "reference")
            ]
    finally:
        handle.stop(grace=2.0)


def run_subscription_with_restart(
    catalog, checkpoint_dir, *, restart_after=2, between_sessions=None, **server_kwargs
):
    """Consume a subscription, force-restart the server mid-stream, let
    client failover finish the job.  Returns (delivered, final_handle,
    client) — caller closes both."""
    handle = make_server(catalog, checkpoint_dir, **server_kwargs)
    host, port = handle.address
    state = {"handle": handle}
    delivered: list = []
    client = ServeClient(host, port, failover=PATIENT)
    for row in client.subscribe(RISING_QUERY, "durable"):
        delivered.append((row.seq, row.values))
        if len(delivered) == restart_after:
            state["handle"].force_stop()
            if between_sessions is not None:
                between_sessions()
            state["handle"] = make_server(
                catalog, checkpoint_dir, port=port, **server_kwargs
            )
    return delivered, state["handle"], client


class TestTornWrite:
    def test_torn_write_of_checkpoint_replica_is_survived(
        self, catalog, tmp_path
    ):
        expected = reference_rows(catalog, tmp_path)
        # The 2nd replica write of the first replicated save is torn.
        failpoints.activate_spec("checkpoint.write=torn@2*1")
        delivered, handle, client = run_subscription_with_restart(
            catalog, str(tmp_path / "ckpt"), checkpoint_replicas=3
        )
        try:
            assert failpoints.fires("checkpoint.write") == 1
            seqs = [seq for seq, _ in delivered]
            assert len(seqs) == len(set(seqs)), "duplicate delivery"
            assert delivered == expected
        finally:
            client.close()
            handle.stop(grace=2.0)


class TestFsyncLoss:
    def test_fsync_loss_without_a_crash_changes_nothing(
        self, catalog, tmp_path
    ):
        expected = reference_rows(catalog, tmp_path)
        failpoints.activate_spec("checkpoint.fsync=skip")
        handle = make_server(catalog, str(tmp_path / "ckpt"))
        try:
            with ServeClient(*handle.address) as client:
                delivered = [
                    (row.seq, row.values)
                    for row in client.subscribe(RISING_QUERY, "durable")
                ]
            assert failpoints.fires("checkpoint.fsync") > 0
            assert delivered == expected
        finally:
            handle.stop(grace=2.0)


class TestFrameDrop:
    def test_frame_drop_mid_subscription_resumes_exactly_once(
        self, catalog, tmp_path
    ):
        expected = reference_rows(catalog, tmp_path)
        # begin + two rows arrive, then the 4th frame dies on the wire.
        failpoints.activate_spec("serve.send_frame=raise:BrokenPipeError@4*1")
        handle = make_server(catalog, str(tmp_path / "ckpt"))
        try:
            with ServeClient(*handle.address, failover=PATIENT) as client:
                delivered = [
                    (row.seq, row.values)
                    for row in client.subscribe(RISING_QUERY, "durable")
                ]
                assert client.reconnects >= 1
            seqs = [seq for seq, _ in delivered]
            assert len(seqs) == len(set(seqs)), "duplicate delivery"
            assert delivered == expected
        finally:
            handle.stop(grace=2.0)


class TestReplicaCorruption:
    def test_replica_corruption_is_repaired_on_reload(self, catalog, tmp_path):
        expected = reference_rows(catalog, tmp_path)
        checkpoint_dir = str(tmp_path / "ckpt")

        def corrupt_one_replica():
            # Flip the tail byte of every checkpoint in replica1: its
            # checksums no longer verify, so quorum reads must outvote
            # and repair it.
            replica_dir = os.path.join(checkpoint_dir, "replica1")
            for name in os.listdir(replica_dir):
                path = os.path.join(replica_dir, name)
                with open(path, "r+b") as handle:
                    handle.seek(-1, os.SEEK_END)
                    last = handle.read(1)
                    handle.seek(-1, os.SEEK_END)
                    handle.write(bytes([last[0] ^ 0xFF]))

        delivered, handle, client = run_subscription_with_restart(
            catalog,
            checkpoint_dir,
            checkpoint_replicas=3,
            between_sessions=corrupt_one_replica,
        )
        try:
            seqs = [seq for seq, _ in delivered]
            assert len(seqs) == len(set(seqs)), "duplicate delivery"
            assert delivered == expected
            # The repair shows up in the restarted server's registry.
            metrics = client.metrics()
            assert _metric_value(
                metrics, "repro_checkpoint_replica_repairs_total"
            ) >= 1
        finally:
            client.close()
            handle.stop(grace=2.0)


class TestChaosStorm:
    def test_storm_torn_write_wiped_replica_forced_restart(
        self, catalog, tmp_path
    ):
        """The PR's acceptance gate, end to end: a torn checkpoint
        write, a whole replica directory wiped, and a forced server
        restart mid-stream — the subscriber's output is byte-identical
        to the undisturbed run, exactly-once, and the repair/dedup
        counters are visible through the metrics op."""
        expected = reference_rows(catalog, tmp_path)
        checkpoint_dir = str(tmp_path / "ckpt")
        failpoints.activate_spec("checkpoint.write=torn@2*1")

        def wipe_replica():
            shutil.rmtree(os.path.join(checkpoint_dir, "replica2"))

        delivered, handle, client = run_subscription_with_restart(
            catalog,
            checkpoint_dir,
            checkpoint_replicas=3,
            between_sessions=wipe_replica,
        )
        try:
            # Byte-identical, exactly-once.
            seqs = [seq for seq, _ in delivered]
            assert len(seqs) == len(set(seqs)), "duplicate delivery"
            assert delivered == expected
            assert client.reconnects >= 1

            # Now lose the query-response frame too: the retry must be
            # answered from the request ledger, not re-executed.
            failpoints.activate_spec(
                "serve.send_frame=raise:ConnectionResetError*1"
            )
            reply = client.query(RISING_QUERY)
            assert reply.deduplicated is True
            assert reply.rows == [values for _, values in expected]

            metrics = client.metrics()
            assert _metric_value(
                metrics, "repro_checkpoint_replica_repairs_total"
            ) >= 1
            assert (
                'repro_serve_request_dedup_total{tenant="default"} 1'
                in metrics
            )
        finally:
            client.close()
            handle.stop(grace=2.0)


class TestFailpointsOff:
    def test_disarmed_registry_is_byte_identical(self, catalog, tmp_path):
        """Arming and clearing every site must leave zero trace: the
        off-path is one boolean check, not a changed code path."""
        baseline = reference_rows(catalog, tmp_path)

        failpoints.activate_spec(
            "checkpoint.write=torn;checkpoint.fsync=skip;"
            "checkpoint.rename=raise;serve.send_frame=raise;"
            "recovery.restore=raise;parallel.worker_start=raise"
        )
        failpoints.reset()
        assert failpoints.armed() is False

        handle = make_server(
            catalog, str(tmp_path / "off_ckpt"), checkpoint_replicas=3
        )
        try:
            with ServeClient(*handle.address) as client:
                delivered = [
                    (row.seq, row.values)
                    for row in client.subscribe(RISING_QUERY, "durable")
                ]
                query_rows = client.query(RISING_QUERY).rows
        finally:
            handle.stop(grace=2.0)
        assert delivered == baseline
        assert query_rows == [values for _, values in baseline]

    def test_replicated_store_with_failpoints_off_round_trips(self, tmp_path):
        store = CheckpointStore(
            *(str(tmp_path / f"r{i}" / "ck") for i in range(3))
        )
        store.save({"offset": 1})
        assert store.load() == {"offset": 1}
        assert store.repairs == 0
        assert store.write_failures == 0
