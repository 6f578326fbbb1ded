"""The naive edge-sampling triangle estimator (Section 2.1's strawman).

Pass 1 samples ``m'`` edges; pass 2 counts *all* triangles on sampled
edges, with multiplicity.  The estimate ``(m / m') · X / 3`` is unbiased
(each triangle is counted once per sampled edge, three chances), but its
variance is ``Θ(k · Σ_e T_e²)``, which a single heavy edge can blow up to
``Θ(k T²)`` — the failure mode the paper's lightest-edge rule ρ(τ)
eliminates.  Kept as the baseline of the ``ablation/lightest_edge``
experiment.
"""

from __future__ import annotations

from typing import Sequence

from repro.graph.graph import Edge, Vertex, canonical_edge
from repro.streaming.algorithm import StreamingAlgorithm
from repro.util.rng import SeedLike
from repro.util.sampling import BottomKSampler


class NaiveSamplingTriangleCounter(StreamingAlgorithm):
    """Two-pass unbiased but heavy-edge-fragile triangle estimation."""

    n_passes = 2

    def __init__(self, sample_size: int, seed: SeedLike = None):
        if sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        self.sample_size = sample_size
        self._sampler: BottomKSampler[Edge] = BottomKSampler(sample_size, seed=seed)
        self._pass = 0
        self._pair_count = 0
        self._hits = 0

    def begin_pass(self, pass_index: int) -> None:
        self._pass = pass_index

    def process(self, source: Vertex, neighbor: Vertex) -> None:
        if self._pass == 0:
            self._pair_count += 1
            self._sampler.offer(canonical_edge(source, neighbor))

    def end_list(self, vertex: Vertex, neighbors: Sequence[Vertex]) -> None:
        if self._pass != 1:
            return
        nset = set(neighbors)
        for edge in self._sampler.members():
            if edge[0] in nset and edge[1] in nset:
                self._hits += 1

    @property
    def edge_count(self) -> int:
        """``m`` as measured during pass 1."""
        return self._pair_count // 2

    @property
    def raw_hits(self) -> int:
        """``Σ_{e ∈ S} T(e)`` — triangle incidences on sampled edges."""
        return self._hits

    def result(self) -> float:
        """Unbiased estimate ``(m / m') · X / 3``."""
        m = self.edge_count
        sampled = min(self.sample_size, m)
        if sampled == 0:
            return 0.0
        return (m / sampled) * self._hits / 3.0

    def current_estimate(self) -> float:
        """Anytime estimate: the unbiased formula on the hits so far."""
        return self.result()

    def space_words(self) -> int:
        return self._sampler.space_words() + 2
