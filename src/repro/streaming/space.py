"""Space accounting for streaming algorithms.

The paper's bounds are stated in machine words (edges sampled, counters,
flags), up to ``O(log n)``-bit word size, as the peak an algorithm holds.
:class:`SpaceMeter` tracks that peak, and the mean, over a run's
readings: the multi-pass runner records a reading after every adjacency
list, so peaks inside a pass are captured, not just end-of-pass state (a
run of lists hands its readings over in one
:meth:`SpaceMeter.observe_many` call).  The meter holds four numbers —
the last reading, the peak, the running sum and the count — so it never
adds to the space it measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Sequence


@dataclass
class SpaceMeter:
    """Tracks current and peak space usage, in machine words."""

    current_words: int = 0
    peak_words: int = 0
    _sum: int = field(default=0, repr=False)
    _count: int = field(default=0, repr=False)

    def observe(self, words: int) -> None:
        """Record an instantaneous space reading."""
        if words < 0:
            raise ValueError("space cannot be negative")
        self.current_words = words
        if words > self.peak_words:
            self.peak_words = words
        self._sum += words
        self._count += 1

    def observe_many(self, readings: Sequence[int]) -> None:
        """Record ``readings`` in order, leaving the meter exactly as one
        :meth:`observe` call each would.  A negative reading raises
        before anything is recorded."""
        if not readings:
            return
        if min(readings) < 0:
            raise ValueError("space cannot be negative")
        self.current_words = readings[-1]
        peak = max(readings)
        if peak > self.peak_words:
            self.peak_words = peak
        self._sum += sum(readings)
        self._count += len(readings)

    @property
    def mean_words(self) -> float:
        """Exact mean over all readings (0 when never observed)."""
        if self._count == 0:
            return 0.0
        return self._sum / self._count

    @property
    def n_observations(self) -> int:
        """Total readings observed."""
        return self._count

    def state_dict(self) -> Dict[str, Any]:
        """Serialisable snapshot of the meter (for checkpoints)."""
        return {
            "current_words": self.current_words,
            "peak_words": self.peak_words,
            "sum": self._sum,
            "count": self._count,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore the meter from :meth:`state_dict` output.  Keys outside
        those four (a profile buffer written by older versions) are
        ignored."""
        self.current_words = int(state["current_words"])
        self.peak_words = int(state["peak_words"])
        self._sum = int(state["sum"])
        self._count = int(state["count"])
