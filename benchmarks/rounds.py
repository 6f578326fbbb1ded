"""Warmed, alternating, paired rounds: the one clock behind every ratio gate.

Every ratio a ``BENCH_*.json`` file gates on, and every rate that feeds
one, is timed here.  A :class:`Rounds` runs named arms:

1. one untimed call per arm first (pools start, memos fill, lazy
   imports load);
2. then ``rounds`` rounds of one call per arm, in the arms' order on even
   rounds and in reverse order on odd ones, so drift in the host's speed
   reaches every arm alike;
3. while the rounds run, the objects alive before them (the benchmark's
   graphs and streams) are frozen out of the cyclic garbage collector: a
   full collection would otherwise walk them all and charge tens of
   milliseconds to whichever call happened to trigger it.  An untimed
   collection before every call empties the young generations, so each
   call pays for collecting its own objects and none of the last call's.

Wall time and process CPU time are recorded for every timed call.  An
arm's time is its median; a ratio is the median of the rounds' own
ratios, reported with its spread (the smallest and largest round), so
one slow round cannot decide a gate.

The caller iterates the schedule and times the body of each call with
:meth:`Rounds.timed`, which works the same around an ``await``::

    rounds = Rounds(("kernel", "session"), 9)
    for arm in rounds:
        work = prepare(arm)          # untimed set-up
        with rounds.timed(arm):
            run(work)                # or: await run(work)
    row = rounds.ratio("session_over_kernel", "session", "kernel")
"""

from __future__ import annotations

import contextlib
import gc
import statistics
from time import perf_counter, process_time
from typing import Any, Dict, Iterator, List, Sequence

__all__ = ["Rounds"]


class Rounds:
    """The warm-up and the alternating paired rounds of ``arms``."""

    def __init__(self, arms: Sequence[str], rounds: int) -> None:
        self.arms = tuple(arms)
        self.rounds = rounds
        #: Per arm, the wall / process-CPU seconds of each timed round.
        self.wall: Dict[str, List[float]] = {arm: [] for arm in self.arms}
        self.cpu: Dict[str, List[float]] = {arm: [] for arm in self.arms}
        self._warm_up = True

    def __iter__(self) -> Iterator[str]:
        yield from self.arms
        self._warm_up = False
        gc.collect()
        gc.freeze()
        try:
            for index in range(self.rounds):
                yield from self.arms if index % 2 == 0 else self.arms[::-1]
        finally:
            gc.unfreeze()

    @contextlib.contextmanager
    def timed(self, arm: str) -> Iterator[None]:
        """Time the block as one call of ``arm`` (untimed during warm-up)."""
        gc.collect()
        wall, cpu = perf_counter(), process_time()
        yield
        if not self._warm_up:
            self.wall[arm].append(perf_counter() - wall)
            self.cpu[arm].append(process_time() - cpu)

    def median(self, arm: str, cpu: bool = False) -> float:
        """The arm's median wall (or process-CPU) seconds over the rounds."""
        return statistics.median((self.cpu if cpu else self.wall)[arm])

    def ratio(
        self, key: str, numerator: str, denominator: str, cpu: bool = False
    ) -> Dict[str, Any]:
        """The paired ratio of two arms' wall (or process-CPU) times.

        ``key`` is the median of the rounds' own ``numerator /
        denominator`` ratios, ``key_spread`` their ``[smallest,
        largest]`` and ``key_rounds`` the number of rounds.
        """
        times = self.cpu if cpu else self.wall
        ratios = [n / d for n, d in zip(times[numerator], times[denominator])]
        return {
            key: statistics.median(ratios),
            f"{key}_spread": [min(ratios), max(ratios)],
            f"{key}_rounds": self.rounds,
        }
