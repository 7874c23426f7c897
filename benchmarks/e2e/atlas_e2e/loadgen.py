"""Closed-loop load generators: threads, or coroutines on one loop.

Closed loop because explorers wait for each answer before asking the
next question: a client sends its next op only when the previous one
has completed, so a slower system receives less load.  The client count
is the workload's (at most two, matching the two cores this runs on).

A phase ends after a fixed number of ops per client (warm-up) or once a
deadline has passed (the timed phase); the op in flight at the deadline
is completed and counted.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
from typing import Awaitable, Callable, Iterator, Sequence


@dataclasses.dataclass(frozen=True)
class OpRecord:
    """One completed (or failed) operation, as the client saw it."""

    client: int
    #: Position in this client's stream, counted across phases.
    index: int
    op: object
    start_ns: int
    end_ns: int
    #: ``"Type: message"`` when the op raised; a raised op has no note.
    error: str | None
    #: What the workload kept of the answer for its checks.
    note: object

    @property
    def latency_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class ClientStream:
    """One client's endless op stream, numbering the ops it hands out."""

    def __init__(self, client: int, ops: Iterator[object]):
        self.client = client
        self._ops = ops
        self._next_index = 0

    def take(self) -> tuple[int, object]:
        index = self._next_index
        self._next_index += 1
        return index, next(self._ops)


class _Phase:
    """When a phase ends: after so many ops per client, or at a deadline."""

    def __init__(self, seconds: float | None, ops_per_client: int | None):
        self._ops_per_client = ops_per_client
        self._deadline = None if seconds is None else time.perf_counter_ns() + int(seconds * 1e9)

    def over(self, done: int, now_ns: int) -> bool:
        if self._ops_per_client is not None and done >= self._ops_per_client:
            return True
        return self._deadline is not None and now_ns >= self._deadline


def run_threads(
    streams: Sequence[ClientStream],
    do: Callable[[int, int, object], object],
    *,
    seconds: float | None = None,
    ops_per_client: int | None = None,
) -> list[OpRecord]:
    """Drive ``do(client, index, op)`` from one thread per client.

    A single client runs on the calling thread.  Returns the records of
    all clients, ordered by completion time.
    """
    phase = _Phase(seconds, ops_per_client)
    records: list[OpRecord] = []

    def loop(stream: ClientStream) -> None:
        done = 0
        end = 0
        while not phase.over(done, end):
            index, op = stream.take()
            error = note = None
            start = time.perf_counter_ns()
            try:
                note = do(stream.client, index, op)
            except Exception as exc:  # the loop outlives a failed op
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter_ns()
            records.append(OpRecord(stream.client, index, op, start, end, error, note))
            done += 1

    if len(streams) == 1:
        loop(streams[0])
    else:
        threads = [
            threading.Thread(target=loop, args=(stream,), name=f"e2e-client-{stream.client}")
            for stream in streams
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return sorted(records, key=lambda r: r.end_ns)


async def run_coroutines(
    streams: Sequence[ClientStream],
    do: Callable[[int, int, object], Awaitable[object]],
    *,
    seconds: float | None = None,
    ops_per_client: int | None = None,
) -> list[OpRecord]:
    """The same loop with one coroutine per client on the running loop."""
    phase = _Phase(seconds, ops_per_client)
    records: list[OpRecord] = []

    async def loop(stream: ClientStream) -> None:
        done = 0
        end = 0
        while not phase.over(done, end):
            index, op = stream.take()
            error = note = None
            start = time.perf_counter_ns()
            try:
                note = await do(stream.client, index, op)
            except Exception as exc:  # the loop outlives a failed op
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter_ns()
            records.append(OpRecord(stream.client, index, op, start, end, error, note))
            done += 1

    tasks = [asyncio.ensure_future(loop(stream)) for stream in streams]
    await asyncio.gather(*tasks)
    return sorted(records, key=lambda r: r.end_ns)
