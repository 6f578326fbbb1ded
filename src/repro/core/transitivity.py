"""Transitivity (global clustering coefficient) estimation.

The adjacency-list model makes the wedge count ``P2 = Σ_v C(deg(v), 2)``
computable *exactly* with a single counter: each adjacency list reveals its
vertex's full degree.  Combining that counter with the two-pass triangle
estimator of Theorem 3.7 yields a (1 ± ε) estimate of the transitivity
``κ = 3T / P2`` in the same space — the application the paper's
introduction motivates (clustering analysis of social networks).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.graph.graph import Vertex
from repro.streaming.algorithm import FanOut, StreamingAlgorithm
from repro.util.rng import SeedLike


class WedgeCounter(StreamingAlgorithm):
    """Exact one-pass wedge (length-2 path) counter; O(1) words.

    Counts in the first pass only, so a multi-pass host can run it as a
    part next to its other parts.
    """

    n_passes = 1

    def __init__(self):
        self._wedges = 0
        self._pass = 0

    def begin_pass(self, pass_index: int) -> None:
        self._pass = pass_index

    def end_list(self, vertex: Vertex, neighbors: Sequence[Vertex]) -> None:
        if self._pass == 0:
            d = len(neighbors)
            self._wedges += d * (d - 1) // 2

    def process_run(
        self,
        run: List[Tuple[Vertex, Sequence[Vertex]]],
        columns: Optional[List[np.ndarray]],
    ) -> List[int]:
        for vertex, neighbors in run:
            self.end_list(vertex, neighbors)
        return [1] * len(run)

    def result(self) -> float:
        return float(self._wedges)

    def space_words(self) -> int:
        return 1


class TransitivityEstimator(FanOut):
    """Two-pass (1 ± ε) transitivity estimation: ``κ̂ = 3 T̂ / P2``.

    Fans the stream out to a :class:`TwoPassTriangleCounter` (estimating
    ``T``) and an exact wedge counter (measuring ``P2`` in pass 1).
    """

    n_passes = 2
    requires_same_order = True

    def __init__(self, sample_size: int, seed: SeedLike = None):
        self._triangles = TwoPassTriangleCounter(sample_size, seed=seed)
        self._wedges = WedgeCounter()
        self.parts = [self._triangles, self._wedges]

    def triangle_estimate(self) -> float:
        """The underlying triangle count estimate ``T̂``."""
        return self._triangles.result()

    def wedge_count(self) -> int:
        """The exact wedge count ``P2`` measured in pass 1."""
        return int(self._wedges.result())

    def result(self) -> float:
        """The transitivity estimate ``3 T̂ / P2`` (0 when no wedges)."""
        wedges = self._wedges.result()
        if wedges == 0:
            return 0.0
        return 3.0 * self._triangles.result() / wedges

