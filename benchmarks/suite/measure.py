"""Measurement helpers shared by the suite's workloads and layer ladder.

Nothing here imports ``repro``: the helpers time things, count operations
and drive the open-loop poller, so they work for any layer under test.
"""

from __future__ import annotations

import asyncio
import math
import resource
import statistics
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence

#: An operation that has not answered after this long counts as failed.
OP_TIMEOUT_S = 30.0


def clock() -> float:
    return time.perf_counter()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def peak_rss_mb() -> float:
    """max(peak RSS of this process, of its largest reaped child), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class OpLog:
    """Attempted and failed operation counts, with the first few errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.reject(reason)

    def reject(self, reason: str) -> None:
        """Fail an op already counted as attempted (e.g. a wrong estimate)."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)

    def absorb(self, other: "OpLog") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors)

    async def call(self, awaitable: Awaitable[Any]) -> Optional[Any]:
        """Await one request; an error reply, exception or timeout fails it."""
        try:
            result = await asyncio.wait_for(awaitable, OP_TIMEOUT_S)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - every failure mode is a failed op
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        self.ok()
        return result


class LiveSessions:
    """Sessions a poller may target; retiring one waits out its polls.

    The feeder retires a session before closing it, so a poll never
    reaches a closed session and turns into a spurious error reply.
    """

    def __init__(self, pick: Callable[[int], int]) -> None:
        self._pick = pick  # pick(n) -> index in [0, n)
        self._ids: List[str] = []
        self._where: Dict[str, int] = {}
        self._inflight: Dict[str, int] = {}

    def add(self, session_id: str) -> None:
        self._where[session_id] = len(self._ids)
        self._ids.append(session_id)

    def choose(self) -> Optional[str]:
        if not self._ids:
            return None
        session_id = self._ids[self._pick(len(self._ids))]
        self._inflight[session_id] = self._inflight.get(session_id, 0) + 1
        return session_id

    def done(self, session_id: str) -> None:
        self._inflight[session_id] -= 1

    async def retire(self, session_id: str) -> None:
        index = self._where.pop(session_id, None)
        if index is not None:
            last = self._ids.pop()
            if last != session_id:
                self._ids[index] = last
                self._where[last] = index
        while self._inflight.get(session_id, 0) > 0:
            await asyncio.sleep(0.001)
        self._inflight.pop(session_id, None)


class OpenLoopPoller:
    """Polls live sessions on a fixed schedule, whatever the replies do.

    Latency is timed from each poll's *due* time, so a stall also charges
    the polls queued behind it; ``lags`` records how late the generator
    itself sent each poll (a rising lag means the load generator, not the
    system, is the bottleneck).
    """

    def __init__(self, poll: Callable[[str], Awaitable[Any]], live: LiveSessions,
                 hz: float, ops: OpLog) -> None:
        self._poll = poll
        self._live = live
        self._period = 1.0 / hz
        self._ops = ops
        self._stop = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._pending: set = set()
        self.latencies: List[float] = []
        self.dues: List[float] = []  # the due time of each latency, in the same order
        self.lags: List[float] = []

    def start(self) -> None:
        self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        self._stop.set()
        if self._task is not None:
            await self._task
        if self._pending:
            await asyncio.gather(*self._pending)

    async def _run(self) -> None:
        begin = clock()
        tick = 0
        while not self._stop.is_set():
            due = begin + tick * self._period
            tick += 1
            delay = due - clock()
            if delay > 0:
                try:
                    await asyncio.wait_for(self._stop.wait(), delay)
                    return
                except asyncio.TimeoutError:
                    pass
            session_id = self._live.choose()
            if session_id is None:
                continue
            self.lags.append(max(0.0, clock() - due))
            task = asyncio.ensure_future(self._one(session_id, due))
            self._pending.add(task)
            task.add_done_callback(self._pending.discard)

    async def _one(self, session_id: str, due: float) -> None:
        try:
            if await self._ops.call(self._poll(session_id)) is not None:
                self.latencies.append(clock() - due)
                self.dues.append(due)
        finally:
            self._live.done(session_id)
