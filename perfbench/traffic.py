"""The benchmark's own load generator: open and closed loops over a few
connections, requests multiplexed by id.

Latency is timed from when a request was *due*, not from when it was
sent, so a stall of the generator or the server shows up in every
request it delays.  How late the generator itself ran is recorded per
request (``lag``) so a run whose generator fell behind can be thrown out.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any

#: Response statuses of the v1 protocol, plus the client's own timeout.
OUTCOMES = ("ok", "rejected", "deadline_exceeded", "error", "timeout")


@dataclass
class Op:
    """One request and what happened to it."""

    id: str
    kind: str  # "exact" | "repeat" | "estimate"
    spec: dict[str, Any]
    root_seed: int
    phase: str = ""
    #: For a repeat, the id of the earlier request it repeats.
    origin: str | None = None
    due: float = 0.0
    sent: float = 0.0
    done: float = math.inf
    response: dict[str, Any] | None = field(default=None, repr=False)

    @property
    def mode(self) -> str:
        return "estimate" if self.kind == "estimate" else "exact"

    def wire(self) -> bytes:
        msg = {
            "v": 1,
            "op": "run",
            "id": self.id,
            "spec": self.spec,
            "root_seed": self.root_seed,
            "mode": self.mode,
        }
        return json.dumps(msg, separators=(",", ":")).encode() + b"\n"

    @property
    def outcome(self) -> str:
        if self.response is None:
            return "timeout"
        status = self.response.get("status")
        return status if status in OUTCOMES else "error"

    @property
    def latency_ms(self) -> float:
        """From due time to response; infinite unless answered ``ok``."""
        if self.outcome != "ok":
            return math.inf
        return (self.done - self.due) * 1000.0

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


class Mux:
    """A few connections to one server; responses matched by ``id``."""

    def __init__(self) -> None:
        self._writers: list[asyncio.StreamWriter] = []
        self._readers: list[asyncio.Task] = []
        self._pending: dict[str, tuple[Op, asyncio.Future]] = {}
        self._outstanding: list[int] = []

    @classmethod
    async def open(cls, host: str, port: int, connections: int) -> "Mux":
        mux = cls()
        for i in range(connections):
            reader, writer = await asyncio.open_connection(host, port, limit=1 << 20)
            mux._writers.append(writer)
            mux._outstanding.append(0)
            mux._readers.append(
                asyncio.create_task(mux._read(i, reader), name=f"perfbench-conn{i}")
            )
        return mux

    @property
    def connections(self) -> int:
        return len(self._writers)

    def least_loaded(self, turn: int) -> int:
        """The connection with the fewest requests outstanding; ties go
        round-robin by ``turn``."""
        n = len(self._writers)
        return min(range(n), key=lambda c: (self._outstanding[c], (c - turn) % n))

    async def _read(self, conn: int, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            now = time.perf_counter()
            if not line:
                return
            msg = json.loads(line)
            entry = self._pending.pop(msg.get("id"), None)
            if entry is None:
                continue
            op, fut = entry
            self._outstanding[conn] -= 1
            op.done = now
            op.response = msg
            if not fut.done():
                fut.set_result(op)

    def send(self, op: Op, conn: int) -> asyncio.Future:
        fut = asyncio.get_running_loop().create_future()
        self._pending[op.id] = (op, fut)
        self._outstanding[conn] += 1
        op.sent = time.perf_counter()
        self._writers[conn].write(op.wire())
        return fut

    async def call(self, msg: dict[str, Any], timeout_s: float = 30.0) -> dict[str, Any]:
        """One control request (``stats``/``health``) on connection 0."""
        op = Op(id=str(msg["id"]), kind="control", spec={}, root_seed=0)
        fut = asyncio.get_running_loop().create_future()
        self._pending[op.id] = (op, fut)
        self._outstanding[0] += 1
        self._writers[0].write(json.dumps({"v": 1, **msg}).encode() + b"\n")
        await asyncio.wait_for(fut, timeout_s)
        return op.response

    async def close(self) -> None:
        for writer in self._writers:
            writer.close()
        for writer in self._writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)


async def _settle(futures: list[asyncio.Future], timeout_s: float) -> None:
    """Wait for responses; whatever is still missing counts as timed out."""
    if futures:
        await asyncio.wait(futures, timeout=timeout_s)


async def open_loop(
    mux: Mux, ops: list[Op], offsets: list[float], *, timeout_s: float
) -> float:
    """Send ``ops[i]`` at ``start + offsets[i]``; returns the phase span.

    Each request goes to the connection with the fewest outstanding
    requests; nothing waits for a response before the next arrival is due.
    """
    loop_start = time.perf_counter()
    futures = []
    for i, (op, offset) in enumerate(zip(ops, offsets)):
        op.due = loop_start + offset
        delay = op.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        futures.append(mux.send(op, mux.least_loaded(i)))
    await _settle(futures, timeout_s)
    return time.perf_counter() - loop_start


async def closed_loop(
    mux: Mux, make_op, *, in_flight: int, duration_s: float, timeout_s: float
) -> tuple[list[Op], float]:
    """Keep ``in_flight`` requests pipelined for ``duration_s`` seconds.

    ``make_op(i)`` builds the ``i``-th request.  Each completion sends the
    next request on the same connection until the window closes; returns
    every request sent and the window length.
    """
    ops: list[Op] = []
    futures: list[asyncio.Future] = []
    start = time.perf_counter()
    end = start + duration_s
    counter = 0

    def issue(conn: int) -> None:
        nonlocal counter
        op = make_op(counter)
        counter += 1
        op.due = time.perf_counter()
        ops.append(op)
        fut = mux.send(op, conn)
        futures.append(fut)
        fut.add_done_callback(lambda _f, c=conn: _next(c))

    def _next(conn: int) -> None:
        if time.perf_counter() < end:
            issue(conn)

    for slot in range(in_flight):
        issue(slot % mux.connections)
    while time.perf_counter() < end:
        await asyncio.sleep(min(0.05, max(0.0, end - time.perf_counter())))
    await _settle(list(futures), timeout_s)
    return ops, duration_s
