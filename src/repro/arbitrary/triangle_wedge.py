"""One-pass triangle counting in arbitrary-order edge streams.

The Jha–Seshadhri–Pinar-inspired wedge-closure estimator the paper's
Section 1.1 reviews: sample each edge independently with probability
``p``; wedges formed by two sampled edges are watched, and a watched
wedge is *closed* when its missing edge arrives later in the stream.

For every triangle exactly one wedge is closable — the one whose missing
edge arrives last — so ``E[closed] = p²·T`` in *every* order, and

    ``T̂ = closed / p²``

is unbiased.  The random-order model's role (as in [17]) is to make each
of the three wedges equally likely to be the closable one, which the
variance analysis uses; the adjacency-list model removes the issue
entirely (closure is visible on a full list regardless of edge order),
which is what the ``models/adjacency_vs_arbitrary`` experiment demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.arbitrary.algorithm import EdgeStreamAlgorithm
from repro.graph.graph import Edge, Vertex, canonical_edge
from repro.util.rng import SeedLike
from repro.util.sampling import ThresholdSampler


@dataclass(eq=False)
class _WatchedWedge:
    """A wedge of two sampled edges waiting for its closing edge."""

    u: Vertex
    center: Vertex
    w: Vertex
    closed: bool = False

    @property
    def missing_edge(self) -> Edge:
        return canonical_edge(self.u, self.w)


class EdgeStreamWedgeCounter(EdgeStreamAlgorithm):
    """One-pass unbiased triangle estimation on arbitrary-order edge streams.

    Parameters
    ----------
    sample_rate:
        Per-edge inclusion probability ``p``; expected space is
        ``O(p·m + (p·Δ)²)`` words (sampled edges plus their wedges).
    seed:
        Randomness for the hash-based edge sampler.
    """

    n_passes = 1

    def __init__(self, sample_rate: float, seed: SeedLike = None):
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must lie in (0, 1]")
        self.sample_rate = sample_rate
        self._sampler: ThresholdSampler[Edge] = ThresholdSampler(sample_rate, seed=seed)
        self._incident: Dict[Vertex, List[Vertex]] = {}
        self._by_missing_edge: Dict[Edge, List[_WatchedWedge]] = {}
        self._wedges: List[_WatchedWedge] = []

    def _add_wedges_for(self, u: Vertex, v: Vertex) -> None:
        """Watch every wedge the new sampled edge forms with older ones."""
        for a, b in ((u, v), (v, u)):
            for c in self._incident.get(a, ()):
                if c == b:
                    continue
                wedge = _WatchedWedge(u=b, center=a, w=c)
                self._wedges.append(wedge)
                self._by_missing_edge.setdefault(wedge.missing_edge, []).append(wedge)
        self._incident.setdefault(u, []).append(v)
        self._incident.setdefault(v, []).append(u)

    def process_edge(self, u: Vertex, v: Vertex) -> None:
        edge = canonical_edge(u, v)
        # Close any watched wedge whose missing edge just arrived.  Closure
        # first: an edge cannot close a wedge it is itself part of.
        for wedge in self._by_missing_edge.get(edge, ()):
            wedge.closed = True
        if self._sampler.offer(edge):
            self._add_wedges_for(*edge)

    @property
    def watched_wedges(self) -> int:
        """Number of wedges formed by pairs of sampled edges."""
        return len(self._wedges)

    @property
    def closed_wedges(self) -> int:
        """Watched wedges whose missing edge arrived after both wedge edges."""
        return sum(1 for wedge in self._wedges if wedge.closed)

    def result(self) -> float:
        """Unbiased estimate ``closed / p²``."""
        return self.closed_wedges / self.sample_rate**2

    def space_words(self) -> int:
        incident = sum(len(v) for v in self._incident.values())
        return incident + 4 * len(self._wedges)


class ExactEdgeStreamCounter(EdgeStreamAlgorithm):
    """Store-everything exact cycle counter for edge streams (O(m) space)."""

    n_passes = 1

    def __init__(self, length: int = 3):
        if length < 3:
            raise ValueError("cycles have at least 3 vertices")
        self.length = length
        from repro.graph.graph import Graph

        self._graph = Graph()

    def process_edge(self, u: Vertex, v: Vertex) -> None:
        self._graph.add_edge(u, v)

    def result(self) -> float:
        from repro.graph.counting import count_cycles, count_four_cycles, count_triangles

        if self.length == 3:
            return float(count_triangles(self._graph))
        if self.length == 4:
            return float(count_four_cycles(self._graph))
        return float(count_cycles(self._graph, self.length))

    def space_words(self) -> int:
        return 2 * self._graph.m + self._graph.n


class EdgeStreamWedgeCountEstimator(EdgeStreamAlgorithm):
    """One-pass P2 (wedge count) *estimation* for edge streams.

    Counts wedges among a Bernoulli edge sample and scales by ``1/p²``.
    Exists for the model comparison: the adjacency-list model computes P2
    *exactly* with a single counter (:class:`repro.core.WedgeCounter`),
    while the edge model can only estimate it — one concrete measure of
    what the adjacency-list promise is worth.
    """

    n_passes = 1

    def __init__(self, sample_rate: float, seed: SeedLike = None):
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must lie in (0, 1]")
        self.sample_rate = sample_rate
        self._sampler: ThresholdSampler[Edge] = ThresholdSampler(sample_rate, seed=seed)
        self._degree: Dict[Vertex, int] = {}
        self._wedge_pairs = 0

    def process_edge(self, u: Vertex, v: Vertex) -> None:
        if self._sampler.offer(canonical_edge(u, v)):
            for x in (u, v):
                d = self._degree.get(x, 0)
                self._wedge_pairs += d  # new edge pairs with each older one
                self._degree[x] = d + 1

    def result(self) -> float:
        """Estimate ``P2 ≈ sampled_wedges / p²``."""
        return self._wedge_pairs / self.sample_rate**2

    def space_words(self) -> int:
        return 2 * len(self._degree) + 1
