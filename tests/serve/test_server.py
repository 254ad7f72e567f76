"""End-to-end tests of the query server over real sockets.

Each test starts a live :class:`QueryServer` on an ephemeral port and
drives it through :class:`ServeClient` — the same path production
traffic takes, minus only the network between two processes.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.engine.executor import Executor
from repro.pattern.predicates import AttributeDomains
from repro.resilience import ResourceLimits
from repro.serve import ServeClient, TenantQuota
from repro.serve.client import ServeError
from repro.serve.protocol import decode_frame, encode_frame

from tests.serve.conftest import CROSSING_QUERY, RISING_QUERY


class TestQueries:
    def test_query_matches_serial_execution(self, run_server, catalog):
        serial = Executor(
            catalog, domains=AttributeDomains.prices()
        ).execute(RISING_QUERY)
        handle = run_server()
        with ServeClient(*handle.address) as client:
            reply = client.query(RISING_QUERY)
        assert reply.columns == list(serial.columns)
        assert reply.rows == [list(row) for row in serial.rows]
        assert reply.matches == len(serial.rows)
        assert not reply.limit_hit

    def test_plan_cache_is_shared_across_connections(self, run_server):
        handle = run_server()
        for _ in range(3):
            with ServeClient(*handle.address) as client:
                client.query(RISING_QUERY)
        with ServeClient(*handle.address) as client:
            stats = client.stats()
        assert stats["plan_cache"]["misses"] == 1
        assert stats["plan_cache"]["hits"] == 2
        assert stats["tables"] == ["quote"]

    def test_concurrent_clients_identical_results(self, run_server, catalog):
        serial = Executor(
            catalog, domains=AttributeDomains.prices()
        ).execute(CROSSING_QUERY)
        expected = [list(row) for row in serial.rows]
        handle = run_server(pool_workers=4)
        results: list = [None] * 8

        def worker(slot: int) -> None:
            with ServeClient(*handle.address, tenant=f"t{slot % 3}") as client:
                results[slot] = client.query(CROSSING_QUERY).rows

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert all(rows == expected for rows in results)

    def test_syntax_error_is_structured(self, run_server):
        handle = run_server()
        with ServeClient(*handle.address) as client:
            with pytest.raises(ServeError) as info:
                client.query("SELEKT nonsense")
            assert info.value.code == "syntax"
            # The connection survives a failed request.
            assert client.query(RISING_QUERY).rows

    def test_unknown_table_is_structured(self, run_server):
        handle = run_server()
        with ServeClient(*handle.address) as client:
            with pytest.raises(ServeError) as info:
                client.query(RISING_QUERY.replace("quote", "nope"))
            assert info.value.code == "execution"

    def test_ping_and_unknown_op(self, run_server):
        handle = run_server()
        with ServeClient(*handle.address) as client:
            assert client.ping()["pong"] is True
            with pytest.raises(ServeError) as info:
                client.request("frobnicate")
            assert info.value.code == "unknown_op"

    def test_bad_request_fields(self, run_server):
        handle = run_server()
        with ServeClient(*handle.address) as client:
            for fields in (
                {"sql": 42},
                {"sql": RISING_QUERY, "timeout": "soon"},
                {"sql": RISING_QUERY, "max_matches": -1},
            ):
                with pytest.raises(ServeError) as info:
                    client.request("query", **fields)
                assert info.value.code == "bad_request"

    def test_a_workers_field_changes_nothing(self, run_server):
        # Every query runs serially: like any field the server does not
        # read, a worker count is ignored, whatever its value.
        handle = run_server()
        with ServeClient(*handle.address) as client:
            plain = client.request("query", sql=RISING_QUERY)
            for workers in (2, 0, True):
                reply = client.request("query", sql=RISING_QUERY, workers=workers)
                assert reply["ok"] and reply["rows"] == plain["rows"]
                assert reply["matches"] == plain["matches"]

    @pytest.mark.parametrize(
        "op, field",
        [
            ("query", "timeout"),
            ("query", "max_matches"),
            ("subscribe", "after_seq"),
        ],
    )
    def test_bool_field_is_a_bad_request(self, run_server, op, field):
        # JSON true/false decode to bool, an int subclass: taken as a
        # number, `true` meant 1 and a `false` timeout an expired deadline.
        handle = run_server()
        fields = {"sql": CROSSING_QUERY}
        if op == "subscribe":
            fields["subscription"] = "s1"
        with ServeClient(*handle.address, tenant="acme") as client:
            for value in (True, False):
                with pytest.raises(ServeError) as info:
                    client.request(op, **fields, **{field: value})
                assert info.value.code == "bad_request"
            tenants = client.stats()["admission"]["tenants"]
        assert "deadline" not in tenants.get("acme", {}).get("rejections", {})


class TestLimitsAndDeadlines:
    def test_nan_timeout_is_a_bad_request_and_frees_its_slot(self, run_server):
        # json.loads accepts the NaN token; a NaN deadline would never
        # trip, so the request must be refused, not run unbounded.
        handle = run_server()
        with ServeClient(*handle.address, tenant="acme") as client:
            assert client.query(RISING_QUERY).rows
            with pytest.raises(ServeError) as info:
                client.request("query", sql=RISING_QUERY, timeout=float("nan"))
            assert info.value.code == "bad_request"
            tenant = client.stats()["admission"]["tenants"]["acme"]
        assert tenant["running"] == 0
        assert tenant["queries"] == 1

    def test_expired_deadline_refused_up_front(self, run_server):
        handle = run_server()
        with ServeClient(*handle.address) as client:
            with pytest.raises(ServeError) as info:
                client.query(RISING_QUERY, timeout=0)
            assert info.value.code == "deadline"

    def test_request_max_matches_caps_the_result(self, run_server):
        handle = run_server()
        with ServeClient(*handle.address) as client:
            reply = client.query(RISING_QUERY, max_matches=3)
        assert reply.matches == 3
        assert reply.limit_hit
        assert any("max_matches" in reason for reason in reply.limits_hit)

    def test_tenant_limits_apply_without_request_limits(self, run_server):
        handle = run_server(
            default_quota=TenantQuota(
                limits=ResourceLimits(max_matches=2)
            )
        )
        with ServeClient(*handle.address) as client:
            reply = client.query(RISING_QUERY)
        assert reply.matches == 2
        assert reply.limit_hit

    def test_request_cannot_widen_tenant_limits(self, run_server):
        handle = run_server(
            default_quota=TenantQuota(limits=ResourceLimits(max_matches=2))
        )
        with ServeClient(*handle.address) as client:
            reply = client.query(RISING_QUERY, max_matches=1000)
        assert reply.matches == 2


class TestAdmission:
    def test_quota_exhausted_carries_retry_after(self, run_server):
        handle = run_server(
            quotas={
                "poor": TenantQuota(rows_per_second=5.0, burst_rows=30.0)
            }
        )
        with ServeClient(*handle.address, tenant="poor") as client:
            client.query(RISING_QUERY)  # charges 60 scanned rows
            with pytest.raises(ServeError) as info:
                client.query(RISING_QUERY)
            assert info.value.code == "quota_exhausted"
            assert info.value.retry_after > 0
            assert info.value.retryable
        # Another tenant is unaffected.
        with ServeClient(*handle.address, tenant="rich") as client:
            assert client.query(RISING_QUERY).rows

    def test_backpressure_when_tenant_queue_full(self, run_server):
        release = threading.Event()
        entered = threading.Event()

        def slow_fault(op, tenant, sql):
            if tenant == "busy":
                entered.set()
                release.wait(timeout=30.0)

        handle = run_server(
            quotas={"busy": TenantQuota(max_concurrent=1, max_queued=0)},
            fault_injector=slow_fault,
        )
        blocker = ServeClient(*handle.address, tenant="busy")
        result: dict = {}

        def blocked_query():
            try:
                result["reply"] = blocker.query(RISING_QUERY)
            except ServeError as error:
                result["error"] = error

        thread = threading.Thread(target=blocked_query)
        thread.start()
        assert entered.wait(timeout=10.0)  # first query holds the slot
        try:
            with ServeClient(*handle.address, tenant="busy") as second:
                with pytest.raises(ServeError) as info:
                    second.query(RISING_QUERY)
                assert info.value.code == "backpressure"
                assert info.value.retry_after is not None
        finally:
            release.set()
            thread.join(timeout=10.0)
            blocker.close()
        assert "reply" in result  # the admitted query still finished


class TestProtocolFaults:
    def test_corrupt_frame_answered_and_connection_survives(self, run_server):
        handle = run_server()
        host, port = handle.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            reply = decode_frame(reader.readline())
            assert reply["ok"] is False
            assert reply["error"]["code"] == "corrupt_frame"
            # Same connection still serves valid requests.
            sock.sendall(
                encode_frame(
                    {"id": 1, "op": "query", "sql": RISING_QUERY}
                )
            )
            reply = decode_frame(reader.readline())
            assert reply["ok"] is True

    def test_non_object_frame_rejected(self, run_server):
        handle = run_server()
        host, port = handle.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"[1,2,3]\n")
            reply = decode_frame(reader.readline())
            assert reply["error"]["code"] == "corrupt_frame"

    def test_blank_lines_ignored(self, run_server):
        handle = run_server()
        host, port = handle.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"\n\n" + encode_frame({"id": 5, "op": "ping"}))
            reply = decode_frame(reader.readline())
            assert reply == {
                "id": 5,
                "ok": True,
                "pong": True,
                "draining": False,
            }


class TestSubscriptions:
    def test_subscription_delivers_all_matches(self, run_server, catalog):
        serial = Executor(
            catalog, domains=AttributeDomains.prices()
        ).execute(CROSSING_QUERY)
        handle = run_server()
        with ServeClient(*handle.address) as client:
            rows = list(client.subscribe(CROSSING_QUERY, "s1"))
        assert [row.values for row in rows] == [
            list(row) for row in serial.rows
        ]
        seqs = [row.seq for row in rows]
        assert seqs == sorted(seqs)
        assert client.last_end["rows"] == len(rows)
        assert client.last_end["last_seq"] == seqs[-1]

    def test_after_seq_suppresses_delivered_prefix(self, run_server):
        handle = run_server()
        with ServeClient(*handle.address) as client:
            rows = list(client.subscribe(CROSSING_QUERY, "s1"))
            assert len(rows) >= 3
            cut = rows[1].seq
            tail = list(client.subscribe(CROSSING_QUERY, "s1", after_seq=cut))
        assert [row.seq for row in tail] == [
            row.seq for row in rows if row.seq > cut
        ]

    def test_duplicate_subscription_id_rejected_while_active(
        self, run_server
    ):
        release = threading.Event()

        def slow_fault(op, tenant, sql):
            if op == "subscribe":
                release.wait(timeout=30.0)

        handle = run_server(fault_injector=slow_fault)
        first = ServeClient(*handle.address)
        first._send(
            {
                "id": 1,
                "op": "subscribe",
                "tenant": "default",
                "sql": CROSSING_QUERY,
                "subscription": "dup",
                "after_seq": -1,
            }
        )
        try:
            # The first subscription is admitted and begins (its begin
            # frame arrives) while its producer blocks in the injector.
            begin = first._check(first._recv())
            assert begin["event"] == "begin"
            with ServeClient(*handle.address) as second:
                with pytest.raises(ServeError) as info:
                    list(second.subscribe(CROSSING_QUERY, "dup"))
                assert info.value.code == "subscription_busy"
        finally:
            release.set()
            first.close()

    def test_subscription_checkpoints_persist(self, run_server, tmp_path):
        handle = run_server(checkpoint_dir=str(tmp_path / "ckpt"))
        with ServeClient(*handle.address) as client:
            first = list(client.subscribe(CROSSING_QUERY, "durable"))
            assert first
            # A client that acknowledges everything resumes to silence.
            acked = list(
                client.subscribe(
                    CROSSING_QUERY, "durable", after_seq=first[-1].seq
                )
            )
            assert acked == []
            # A client that declares no state (after_seq=-1) is behind
            # the checkpoint's high-water mark, so the server replays
            # from scratch rather than silently dropping its history.
            replay = list(client.subscribe(CROSSING_QUERY, "durable"))
        assert [(r.seq, r.values) for r in replay] == [
            (r.seq, r.values) for r in first
        ]

    def test_streaming_unsupported_query_is_structured(self, run_server):
        handle = run_server()
        cluster_query = (
            "SELECT X.day FROM quote CLUSTER BY name SEQUENCE BY day "
            "AS (X, Y) WHERE Y.price > X.price"
        )
        with ServeClient(*handle.address) as client:
            with pytest.raises(ServeError) as info:
                list(client.subscribe(cluster_query, "s1"))
            assert info.value.code == "execution"
            assert "CLUSTER BY" in info.value.message

    def test_unknown_sequence_by_column_is_structured(self, run_server):
        handle = run_server()
        bad_query = (
            "SELECT X.serial FROM quote SEQUENCE BY serial "
            "AS (X, Y) WHERE Y.price > X.price"
        )
        with ServeClient(*handle.address) as client:
            with pytest.raises(ServeError) as info:
                list(client.subscribe(bad_query, "s1"))
            assert info.value.code == "execution"
            assert "'serial'" in info.value.message


class TestLifecycle:
    def test_drain_refuses_new_requests(self, run_server):
        handle = run_server()
        client = ServeClient(*handle.address)
        try:
            assert client.query(RISING_QUERY).rows
            handle.stop(grace=2.0)
            with pytest.raises((ServeError, ConnectionError, OSError)):
                client.query(RISING_QUERY)
        finally:
            client.close()

    def test_remote_shutdown_gated(self, run_server):
        handle = run_server()
        with ServeClient(*handle.address) as client:
            with pytest.raises(ServeError) as info:
                client.shutdown()
            assert info.value.code == "unauthorized"

    def test_remote_shutdown_drains_when_allowed(self, run_server):
        handle = run_server(allow_remote_shutdown=True)
        with ServeClient(*handle.address) as client:
            assert client.shutdown()["draining"] is True
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if handle.server.draining:
                break
            time.sleep(0.02)
        assert handle.server.draining

    def test_drain_waits_for_inflight_queries(self, run_server):
        release = threading.Event()
        entered = threading.Event()

        def slow_fault(op, tenant, sql):
            entered.set()
            release.wait(timeout=5.0)

        handle = run_server(fault_injector=slow_fault)
        result: dict = {}
        client = ServeClient(*handle.address)

        def query():
            try:
                result["reply"] = client.query(RISING_QUERY)
            except Exception as error:  # noqa: BLE001
                result["error"] = error

        thread = threading.Thread(target=query)
        thread.start()
        try:
            assert entered.wait(timeout=10.0)
            stopper = threading.Thread(
                target=lambda: handle.stop(grace=10.0)
            )
            stopper.start()
            time.sleep(0.1)
            release.set()  # in-flight query finishes inside the grace
            stopper.join(timeout=30.0)
            thread.join(timeout=10.0)
        finally:
            release.set()
            client.close()
        assert "reply" in result
        assert result["reply"].rows
