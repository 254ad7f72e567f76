"""Open-loop latency runs from the due time; generator lateness is kept;
the served workload's rounds wait for other processes to go quiet."""

import asyncio
import time

import pytest

from perf import use_checkout_source
from perf.loadgen import Connection, closed_loop, fixed_rate, open_loop

SERVICE_S = 0.05


async def _serial_server():
    """A localhost NDJSON server answering each line after SERVICE_S,
    one request at a time per connection (as ``repro serve`` does)."""

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            await asyncio.sleep(SERVICE_S)
            writer.write(b'{"ok": true, "echo": ' + line.strip() + b"}\n")
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def _requests():
    counter = iter(range(1000))

    def request():
        number = next(counter)
        return f"q{number}", f"{number}\n".encode()

    return request


def test_fixed_rate_schedule():
    assert fixed_rate(10.0, 0.35) == [0.0, 0.1, 0.2]
    assert len(fixed_rate(10.0, 0.85 * 12)) == 102


def test_open_loop_counts_queueing_from_the_due_time():
    async def scenario():
        server = await _serial_server()
        port = server.sockets[0].getsockname()[1]
        connection = await Connection.open("127.0.0.1", port)
        try:
            # Three requests due 10 ms apart on one connection that takes
            # 50 ms each: the third waits behind the first two.
            return await open_loop([connection], [0.0, 0.01, 0.02], _requests())
        finally:
            await connection.close()
            server.close()
            await server.wait_closed()

    exchanges = asyncio.run(scenario())
    assert [e.name for e in exchanges] == ["q0", "q1", "q2"]
    assert [e.reply for e in exchanges] == [
        b'{"ok": true, "echo": 0}\n', b'{"ok": true, "echo": 1}\n', b'{"ok": true, "echo": 2}\n'
    ]
    for exchange in exchanges:
        assert exchange.late < 0.02
    third = exchanges[2]
    # Sent on time, answered after three service times from the start.
    assert third.latency >= 3 * SERVICE_S - 0.02 - 0.005
    assert third.latency > third.received - third.sent - 0.005
    assert exchanges[0].latency < exchanges[1].latency < exchanges[2].latency


def test_open_loop_reports_a_late_generator():
    async def scenario():
        server = await _serial_server()
        port = server.sockets[0].getsockname()[1]
        connection = await Connection.open("127.0.0.1", port)
        base = _requests()
        stalled = []

        def request():
            if not stalled:
                stalled.append(True)
                time.sleep(0.06)  # blocks the generator's event loop
            return base()

        try:
            return await open_loop([connection], [0.0, 0.02, 0.04], request)
        finally:
            await connection.close()
            server.close()
            await server.wait_closed()

    exchanges = asyncio.run(scenario())
    assert exchanges[1].late >= 0.03
    assert exchanges[2].late >= 0.01
    # Latency still runs from the due time, so the stall is counted.
    assert exchanges[1].latency >= exchanges[1].late + SERVICE_S - 0.005


class ScriptedLoad:
    """Other processes' CPUs, as :class:`served_mix.OtherLoad` reports them."""

    def __init__(self, readings):
        self._readings = iter(readings)

    def since_mark(self) -> float:
        return next(self._readings)


def test_quiet_gate_waits_for_quiet_within_its_budget(monkeypatch):
    use_checkout_source()
    from perf.workloads import served_mix

    monkeypatch.setattr(served_mix, "QUIET_CHECK_S", 0.01)
    # Each check sets a mark, then reads the load since it.
    busy_then_quiet = ScriptedLoad([0.0, 1.5, 0.0, 1.2, 0.0, 0.1])
    waited = asyncio.run(served_mix._quiet(busy_then_quiet, budget_s=10.0))
    assert 0.03 <= waited < 1.0
    never_quiet = ScriptedLoad([0.0, 2.0] * 1000)
    waited = asyncio.run(served_mix._quiet(never_quiet, budget_s=0.05))
    assert 0.05 <= waited < 0.5


def test_closed_loop_keeps_one_request_in_flight():
    async def scenario():
        server = await _serial_server()
        port = server.sockets[0].getsockname()[1]
        connections = [await Connection.open("127.0.0.1", port) for _ in range(2)]
        try:
            return await closed_loop(connections, 0.3, _requests())
        finally:
            for connection in connections:
                await connection.close()
            server.close()
            await server.wait_closed()

    exchanges, wall = asyncio.run(scenario())
    assert wall >= 0.3
    # Two connections, one request each at a time, 50 ms per request.
    assert 6 <= len(exchanges) <= 2 * (int(wall / SERVICE_S) + 1)
    assert all(e.reply is not None for e in exchanges)
    assert all(e.latency == pytest.approx(e.received - e.sent) for e in exchanges)
