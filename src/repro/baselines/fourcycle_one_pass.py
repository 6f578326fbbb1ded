"""A one-pass 4-cycle *heuristic* — doomed by Theorem 5.3, by design.

Theorem 5.3 proves no sublinear one-pass algorithm can even distinguish 0
from T 4-cycles in adjacency-list streams.  This module implements the
natural attempt anyway: sample edges on the fly, assemble wedges from
sampled edges, and count closings that arrive *after* the wedge is
assembled.  On benign (random) orderings it detects a constant fraction of
cycles; on the INDEX-gadget ordering of Figure 1c it detects essentially
none, because each cycle's closing lists all precede the lists revealing
its wedge.  The contrast is exactly the content of the lower bound, and
the ``figure1/c_one_pass_fourcycle`` experiment demonstrates it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.graph.graph import Edge, Vertex, canonical_edge
from repro.graph.wedges import Wedge
from repro.streaming.algorithm import StreamingAlgorithm
from repro.util.rng import SeedLike
from repro.util.sampling import ThresholdSampler


class OnePassFourCycleHeuristic(StreamingAlgorithm):
    """Order-sensitive one-pass 4-cycle detection from sampled wedges.

    ``result()`` reports the raw number of distinct 4-cycles detected; the
    scaled estimate ``detected / p²`` is available via :meth:`estimate`.
    No distributional guarantee exists (that is the point); the detection
    probability depends on the stream order.
    """

    n_passes = 1

    def __init__(self, sample_rate: float, seed: SeedLike = None):
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must lie in (0, 1]")
        self.sample_rate = sample_rate
        self._sampler: ThresholdSampler[Edge] = ThresholdSampler(sample_rate, seed=seed)
        self._incident: Dict[Vertex, List[Vertex]] = {}
        self._wedges: List[Wedge] = []
        self._detected: Set[frozenset] = set()

    def _add_sampled_edge(self, u: Vertex, v: Vertex) -> None:
        for a, b in ((u, v), (v, u)):
            others = self._incident.setdefault(a, [])
            for c in others:
                if c != b:
                    self._wedges.append(Wedge.make(a, b, c))
            others.append(b)

    def process(self, source: Vertex, neighbor: Vertex) -> None:
        edge = canonical_edge(source, neighbor)
        if edge not in self._sampler and self._sampler.offer(edge):
            self._add_sampled_edge(*edge)

    def end_list(self, vertex: Vertex, neighbors: Sequence[Vertex]) -> None:
        nset = set(neighbors)
        for wedge in self._wedges:
            if wedge.u in nset and wedge.v in nset and vertex != wedge.center:
                key = frozenset(
                    (frozenset((wedge.u, wedge.v)), frozenset((wedge.center, vertex)))
                )
                self._detected.add(key)

    @property
    def detected_cycles(self) -> int:
        """Distinct 4-cycles whose closing list arrived after their wedge."""
        return len(self._detected)

    def estimate(self) -> float:
        """Optimistically scaled estimate ``detected / p²`` (no guarantee)."""
        return self.detected_cycles / self.sample_rate**2

    def result(self) -> float:
        return float(self.detected_cycles)

    def space_words(self) -> int:
        incident = sum(len(v) for v in self._incident.values())
        return incident + 3 * len(self._wedges) + 4 * len(self._detected)
