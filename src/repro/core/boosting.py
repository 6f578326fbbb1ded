"""Median-of-copies probability amplification (the ``log 1/δ`` factor).

Theorems 3.7 and 4.6 both finish the same way: run ``Θ(log 1/δ)``
independent copies of a constant-success-probability estimator in parallel
and return the median of their outputs.  :class:`MedianBoosted` packages
that construction as a single streaming algorithm whose state is the union
of the copies' states.
"""

from __future__ import annotations

import math
from typing import Callable, List

from repro.streaming.algorithm import FanOut, StreamingAlgorithm
from repro.util.rng import SeedLike, resolve_rng, spawn_rng
from repro.util.stats import median


def copies_for_confidence(delta: float, constant: float = 12.0) -> int:
    """Return an odd number of copies sufficient for failure probability δ.

    Standard Chernoff argument: each copy errs with probability at most
    1/3, so the median of ``c · ln(1/δ)`` copies errs with probability at
    most δ.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    count = max(1, math.ceil(constant * math.log(1.0 / delta)))
    return count if count % 2 == 1 else count + 1


class MedianBoosted(FanOut):
    """Run independent copies of a streaming estimator; report the median.

    Parameters
    ----------
    factory:
        Callable producing a fresh estimator from a seed.  Copies receive
        independent seeds derived from ``seed``.
    copies:
        Number of parallel copies (use :func:`copies_for_confidence`).
    seed:
        Master randomness.
    """

    def __init__(
        self,
        factory: Callable[[SeedLike], StreamingAlgorithm],
        copies: int,
        seed: SeedLike = None,
    ):
        if copies < 1:
            raise ValueError("need at least one copy")
        rng = resolve_rng(seed)
        self.copies: List[StreamingAlgorithm] = [
            factory(spawn_rng(rng, stream=i)) for i in range(copies)
        ]
        self.parts = self.copies
        passes = {algo.n_passes for algo in self.copies}
        if len(passes) != 1:
            raise ValueError("all copies must use the same number of passes")
        self.n_passes = passes.pop()
        self.requires_same_order = any(a.requires_same_order for a in self.copies)

    def estimates(self) -> List[float]:
        """Return each copy's individual estimate."""
        return [algo.result() for algo in self.copies]

    def result(self) -> float:
        return median(self.estimates())
