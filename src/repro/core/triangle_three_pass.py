"""Three-pass triangle counting with the *exact* lightest-edge rule (§2.1).

This is the paper's motivating algorithm — the stepping stone to
Theorem 3.7.  It attributes each triangle to the edge that globally
participates in the fewest triangles (``argmin_{e ∈ τ} T(e)``), which
needs a dedicated pass to measure the loads ``T(e)`` exactly:

* **Pass 1** samples a uniform size-``m'`` edge set ``S`` and counts ``m``.
* **Pass 2** collects (a size-``m'`` reservoir ``Q`` of) the candidate
  pairs ``{(e, τ) : e ∈ S, τ ∈ L(e)}`` — every candidate is visible in a
  full pass — and measures the total candidate count ``T'``.
* **Pass 3** measures, for each collected triangle and each of its three
  edges ``f``, the exact load ``T(f)`` (two flag bits per watched edge).
* A pair ``(e, τ)`` is counted iff ``e = argmin_{f ∈ τ} (T(f), f)``, and
  the count is scaled by ``k · T'/|Q|``.

The two-pass algorithm of Theorem 3.7 replaces ``T(f)`` with the
stream-order statistic ``H_{f,τ}`` to save the third pass; this class
exists to validate that replacement empirically (the two estimators'
accuracy should be indistinguishable — see the ``ablation/h_vs_exact``
experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.triangle_two_pass import Triangle, triangle_edges, triangle_key
from repro.graph.graph import Edge, Vertex, canonical_edge
from repro.streaming.algorithm import StreamingAlgorithm
from repro.util.rng import SeedLike, resolve_rng, spawn_rng
from repro.util.sampling import BottomKSampler, ReservoirSampler


@dataclass(eq=False)
class _Pair:
    """A collected candidate pair (e, τ)."""

    edge: Edge
    triangle: Triangle


class ThreePassTriangleCounter(StreamingAlgorithm):
    """Section 2.1's three-pass estimator with exact edge loads.

    Same (1 ± ε) guarantee and Õ(m/T^{2/3}) space as Theorem 3.7, at the
    cost of one extra pass.
    """

    n_passes = 3
    requires_same_order = False  # the exact loads are order-independent

    def __init__(self, sample_size: int, seed: SeedLike = None):
        if sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        rng = resolve_rng(seed)
        self.sample_size = sample_size
        self._sampler: BottomKSampler[Edge] = BottomKSampler(
            sample_size, seed=spawn_rng(rng), on_evict=self._edge_evicted
        )
        self._reservoir: ReservoirSampler[_Pair] = ReservoirSampler(
            sample_size, seed=spawn_rng(rng)
        )
        self._pass = 0
        self._pair_count = 0
        self._candidate_total = 0
        self._edge_loads: Dict[Edge, int] = {}

    def _edge_evicted(self, edge: Edge) -> None:
        self._reservoir.discard(lambda pair: pair.edge == edge)

    # -- streaming interface ---------------------------------------------------

    def begin_pass(self, pass_index: int) -> None:
        self._pass = pass_index
        if pass_index == 2:
            # Watch every edge of every collected triangle.
            self._edge_loads = {
                f: 0
                for pair in self._reservoir.items()
                for f in triangle_edges(pair.triangle)
            }

    def process(self, source: Vertex, neighbor: Vertex) -> None:
        if self._pass == 0:
            self._pair_count += 1
            self._sampler.offer(canonical_edge(source, neighbor))

    def end_list(self, vertex: Vertex, neighbors: Sequence[Vertex]) -> None:
        if self._pass == 1:
            nset = set(neighbors)
            for edge in self._sampler.members():
                if edge[0] in nset and edge[1] in nset:
                    self._candidate_total += 1
                    tri = triangle_key(edge[0], edge[1], vertex)
                    self._reservoir.offer(_Pair(edge=edge, triangle=tri))
        elif self._pass == 2:
            nset = set(neighbors)
            for edge in self._edge_loads:
                if edge[0] in nset and edge[1] in nset:
                    self._edge_loads[edge] += 1

    # -- results -----------------------------------------------------------------

    @property
    def edge_count(self) -> int:
        """``m`` as measured during pass 1."""
        return self._pair_count // 2

    @property
    def scale_factor(self) -> float:
        """``k = max(m / m', 1)``."""
        return max(self.edge_count / self.sample_size, 1.0)

    @property
    def candidate_total(self) -> int:
        """``T' = Σ_{e ∈ S} T(e)``, measured exactly during pass 2."""
        return self._candidate_total

    def edge_load(self, edge: Edge) -> int:
        """Exact ``T(edge)`` for any watched edge (valid after pass 3)."""
        return self._edge_loads[edge]

    def counted_pairs(self) -> int:
        """Pairs whose edge is the exact lightest edge of their triangle."""
        count = 0
        for pair in self._reservoir.items():
            lightest = min(
                triangle_edges(pair.triangle), key=lambda f: (self._edge_loads[f], f)
            )
            if lightest == pair.edge:
                count += 1
        return count

    def result(self) -> float:
        q_size = len(self._reservoir)
        if q_size == 0 or self._candidate_total == 0:
            return 0.0
        subsample_scale = max(self._candidate_total / q_size, 1.0)
        return self.scale_factor * subsample_scale * self.counted_pairs()

    def space_words(self) -> int:
        return (
            self._sampler.space_words()
            + 5 * len(self._reservoir)
            + 3 * len(self._edge_loads)
            + 3
        )
