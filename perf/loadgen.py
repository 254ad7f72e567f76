"""Load generation against ``repro serve``: open and closed loops.

One asyncio thread drives a few NDJSON connections.  A connection may
carry several requests at once (the server answers them in order), so
the open loop sends every request at its due time no matter how many
are still unanswered: a stall makes later requests wait, and that wait
is counted because latency runs from the due time, not the send time.
How late the generator itself sent each request is kept as well.

The closed loop keeps one request outstanding per connection and sends
the next as soon as the reply arrives; its completion rate is the
server's capacity at that concurrency.
"""

from __future__ import annotations

import asyncio
import collections
import time
from dataclasses import dataclass
from typing import Callable, Optional


def fixed_rate(rate: float, duration: float) -> list[float]:
    """Due times (seconds from the phase start) ``1/rate`` apart within
    ``duration`` seconds.  Evenly spaced rather than Poisson: with about a
    hundred requests per run, Poisson bursts alone moved the p90 by a
    quarter from one seed to the next."""
    return [index / rate for index in range(int(rate * duration + 1e-9))]


@dataclass
class Exchange:
    """One request and its reply (None if the connection closed first),
    timed on the generator's clock."""

    name: str
    due: float
    sent: float
    received: Optional[float] = None
    reply: Optional[bytes] = None

    @property
    def late(self) -> float:
        """How far behind its due time the generator sent the request."""
        return self.sent - self.due

    @property
    def latency(self) -> float:
        """Due time to reply, the wait the caller saw."""
        return self.received - self.due


class Connection:
    """One NDJSON connection; replies resolve requests in send order."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, clock):
        self._reader = reader
        self._writer = writer
        self._clock = clock
        self._pending: collections.deque = collections.deque()
        self._task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, host: str, port: int, clock=time.perf_counter) -> "Connection":
        # Replies carry whole result sets: lift the 64 KiB line limit.
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 23)
        return cls(reader, writer, clock)

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def send(self, exchange: Exchange, frame: bytes) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self._pending.append((exchange, future))
        self._writer.write(frame)
        return future

    async def _read(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                received = self._clock()
                exchange, future = self._pending.popleft()
                exchange.received = received
                exchange.reply = line
                future.set_result(exchange)
        finally:
            # Unanswered requests resolve with no reply: the caller counts
            # them as failed instead of losing the whole phase.
            while self._pending:
                exchange, future = self._pending.popleft()
                if not future.done():
                    future.set_result(exchange)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except OSError:
            pass
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


async def open_loop(
    connections: list[Connection],
    due: list[float],
    request: Callable[[], tuple[str, bytes]],
    clock=time.perf_counter,
) -> list[Exchange]:
    """Send the next ``request()`` at each ``start + due[i]`` on the
    least-loaded connection; return every exchange once all replies are
    in."""
    start = clock()
    futures = []
    for offset in due:
        delay = start + offset - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        name, frame = request()
        exchange = Exchange(name=name, due=start + offset, sent=clock())
        connection = min(connections, key=lambda c: c.outstanding)
        futures.append(connection.send(exchange, frame))
    return list(await asyncio.gather(*futures))


async def closed_loop(
    connections: list[Connection],
    duration: float,
    request: Callable[[], tuple[str, bytes]],
    clock=time.perf_counter,
) -> tuple[list[Exchange], float]:
    """Keep one request in flight per connection for ``duration``
    seconds; return the exchanges and the measured wall time."""
    start = clock()
    deadline = start + duration

    async def client(connection: Connection) -> list[Exchange]:
        done = []
        while clock() < deadline:
            name, frame = request()
            now = clock()
            exchange = await connection.send(Exchange(name=name, due=now, sent=now), frame)
            done.append(exchange)
            if exchange.reply is None:
                break
        return done

    per_client = await asyncio.gather(*(client(c) for c in connections))
    wall = clock() - start
    return [exchange for done in per_client for exchange in done], wall
