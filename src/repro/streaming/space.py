"""Space accounting for streaming algorithms.

The paper's bounds are stated in machine words (edges sampled, counters,
flags), up to ``O(log n)``-bit word size.  :class:`SpaceMeter` tracks the
peak word count an algorithm reports over a run; the multi-pass runner
records a reading after every adjacency list so peaks inside a pass are
captured, not just end-of-pass state (a run of short lists hands its
readings over in one :meth:`SpaceMeter.observe_many` call).

The meter itself must not dominate the space it measures: the raw sample
buffer is **bounded** (``max_samples``, default 4096).  When it fills, it
is thinned to every other entry and the keep stride doubles, so the
buffer always holds an evenly strided subsequence of the readings —
enough to plot a space profile at bounded resolution.  Peak, mean and
count are tracked exactly regardless (running max / sum / count), so
thinning never perturbs reported statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple


@dataclass
class SpaceMeter:
    """Tracks current and peak space usage, in machine words.

    ``max_samples`` bounds the retained profile buffer; ``0`` disables
    retention entirely (exact peak/mean statistics only).
    """

    current_words: int = 0
    peak_words: int = 0
    max_samples: int = 4096
    _samples: List[int] = field(default_factory=list, repr=False)
    _sum: int = field(default=0, repr=False)
    _count: int = field(default=0, repr=False)
    _stride: int = field(default=1, repr=False)
    _since_kept: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.max_samples < 0:
            raise ValueError("max_samples must be non-negative")

    def observe(self, words: int) -> None:
        """Record an instantaneous space reading."""
        if words < 0:
            raise ValueError("space cannot be negative")
        self.current_words = words
        if words > self.peak_words:
            self.peak_words = words
        self._sum += words
        self._count += 1
        if self.max_samples == 0:
            return
        self._since_kept += 1
        if self._since_kept >= self._stride:
            self._samples.append(words)
            self._since_kept = 0
            if len(self._samples) >= self.max_samples:
                self._thin()

    def observe_many(self, readings: Sequence[int]) -> None:
        """Record ``readings`` in order, as one :meth:`observe` call each.

        Leaves the meter in exactly the state the per-reading calls would
        (peak, sum, count, retained samples, stride and the keep phase),
        but updates the running statistics in bulk and keeps samples by
        slicing every ``stride``-th reading between thinnings.  A negative
        reading raises before anything is recorded.
        """
        if not readings:
            return
        if min(readings) < 0:
            raise ValueError("space cannot be negative")
        count = len(readings)
        self.current_words = readings[-1]
        peak = max(readings)
        if peak > self.peak_words:
            self.peak_words = peak
        self._sum += sum(readings)
        self._count += count
        if self.max_samples == 0:
            return
        pos = 0  # readings[:pos] are recorded in the keep phase
        while True:
            stride = self._stride
            first = pos + max(0, stride - self._since_kept - 1)
            if first >= count:
                self._since_kept += count - pos
                return
            room = max(1, self.max_samples - len(self._samples))
            kept = readings[first : min(count, first + room * stride) : stride]
            self._samples.extend(kept)
            self._since_kept = 0
            pos = first + (len(kept) - 1) * stride + 1
            if len(self._samples) >= self.max_samples:
                self._thin()

    def _thin(self) -> None:
        """Thin the full buffer to every other retained reading.

        The survivors are exactly the readings at the doubled stride.
        When the buffer's last entry is dropped (even length), the stream
        is already one old stride past the last survivor.
        """
        dropped_tail = (len(self._samples) - 1) % 2 == 1
        self._samples = self._samples[::2]
        if dropped_tail:
            self._since_kept = self._stride
        self._stride *= 2

    @property
    def mean_words(self) -> float:
        """Exact mean over *all* readings (0 when never observed).

        Computed from a running sum and count, so it is unaffected by
        sample-buffer thinning.
        """
        if self._count == 0:
            return 0.0
        return self._sum / self._count

    @property
    def n_observations(self) -> int:
        """Total readings observed (≥ the retained sample count)."""
        return self._count

    @property
    def sample_stride(self) -> int:
        """Stride between retained samples (1 until the buffer first fills)."""
        return self._stride

    def samples(self) -> Tuple[int, ...]:
        """The retained (possibly strided) space profile, oldest first."""
        return tuple(self._samples)

    def state_dict(self) -> Dict[str, Any]:
        """Serialisable snapshot of the meter (for checkpoints)."""
        return {
            "current_words": self.current_words,
            "peak_words": self.peak_words,
            "max_samples": self.max_samples,
            "samples": list(self._samples),
            "sum": self._sum,
            "count": self._count,
            "stride": self._stride,
            "since_kept": self._since_kept,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore the meter from :meth:`state_dict` output."""
        self.current_words = int(state["current_words"])
        self.peak_words = int(state["peak_words"])
        self.max_samples = int(state["max_samples"])
        self._samples = [int(s) for s in state["samples"]]
        self._sum = int(state["sum"])
        self._count = int(state["count"])
        self._stride = int(state["stride"])
        self._since_kept = int(state["since_kept"])

    def reset(self) -> None:
        """Forget all readings."""
        self.current_words = 0
        self.peak_words = 0
        self._samples.clear()
        self._sum = 0
        self._count = 0
        self._stride = 1
        self._since_kept = 0
