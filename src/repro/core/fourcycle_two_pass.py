"""Two-pass O(1)-approximate 4-cycle counting — Theorem 4.6.

The algorithm (Section 4.2):

1. Pass 1 keeps a uniform size-``m'`` edge sample ``S`` and measures ``m``.
2. ``Q`` is the set of wedges both of whose edges lie in ``S``.
3. Pass 2 counts, for the wedges in ``Q``, the 4-cycles of the graph that
   contain them: the wedge ``u - c - v`` is completed by every vertex
   ``z ∉ {u, c, v}`` adjacent to both ``u`` and ``v``, which is visible on
   ``z``'s adjacency list.
4. The count is scaled by the inverse wedge-sampling probability
   ``≈ k² = (m/m')²``.

Correctness (Section 4.3.2 and Appendix A) rests on Lemma 4.2: a constant
fraction of 4-cycles contain a *good* wedge — one not contained in too many
4-cycles and with neither edge too heavy — so sampling at rate
``m' = Θ(m / T^{3/8})`` finds a constant fraction of cycles while the
variance contributed by bad wedges stays ``O(T²)``.

Two counting modes are provided, reflecting the two readings of the
paper's estimator (its pseudocode accumulates wedge counts with
multiplicity, while its analysis counts distinct cycles hit by ``Q``; the
two differ by at most the factor 4 absorbed into the O(1) guarantee):

* ``"multiplicity"`` (default, matches the pseudocode; constant space
  beyond ``Q``): accumulate ``Σ_{w ∈ Q} T_w`` and divide by 4 (each cycle
  has 4 wedges), making the estimator unbiased whenever wedge inclusions
  are uncorrelated — empirically well calibrated.
* ``"distinct"`` (matches the analysis): count distinct 4-cycles containing
  at least one wedge of ``Q``, i.e. ``f_G + f_B``; overestimates by a
  factor between 1 and 4 (a cycle is hit when *any* of its wedges is
  sampled) — exactly the slack Theorem 4.6's O(1) guarantee absorbs.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.graph import Edge, Vertex, canonical_edge
from repro.graph.wedges import Wedge
from repro.sketch.state import SketchState
from repro.streaming.algorithm import StreamingAlgorithm
from repro.util import vectorized
from repro.util.rng import SeedLike, resolve_rng, spawn_rng
from repro.util.sampling import BottomKSampler

#: Cycle identity used for distinct counting: the unordered vertex pair of
#: one diagonal plus the pair of the other.  Two 4-cycles coincide iff both
#: diagonals match.
CycleKey = FrozenSet[FrozenSet[Vertex]]


def cycle_key(u: Vertex, c: Vertex, v: Vertex, z: Vertex) -> CycleKey:
    """Canonical identity of the 4-cycle ``u - c - v - z``.

    ``{u, v}`` and ``{c, z}`` are the two diagonals; the frozenset of
    diagonals identifies the cycle independent of traversal.
    """
    return frozenset((frozenset((u, v)), frozenset((c, z))))


def _encode_cycle_key(key: CycleKey) -> Tuple:
    """Canonical serialisable form of a cycle key (sorted diagonal pairs)."""
    return tuple(
        sorted((tuple(sorted(diag, key=repr)) for diag in key), key=repr)
    )


def _decode_cycle_key(blob: Any) -> CycleKey:
    """Invert :func:`_encode_cycle_key`."""
    return frozenset(frozenset(diag) for diag in blob)


class TwoPassFourCycleCounter(StreamingAlgorithm):
    """Theorem 4.6: 2-pass O(1)-approx 4-cycle counting in Õ(m/T^{3/8}) space.

    Parameters
    ----------
    sample_size:
        ``m'``, the first-pass edge sample size.  For the O(1) guarantee
        with probability 4/5 choose ``m' = c · m / T^{3/8}``
        (:func:`recommended_sample_size`).
    mode:
        ``"distinct"`` or ``"multiplicity"`` — see the module docstring.
    seed:
        Randomness for the hash-based edge sampler.
    """

    n_passes = 2
    requires_same_order = False

    STATE_KIND = "fourcycle-two-pass"
    STATE_VERSION = 1

    def __init__(
        self,
        sample_size: int,
        mode: str = "multiplicity",
        wedge_cap: int = None,
        seed: SeedLike = None,
    ):
        if sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        if mode not in ("distinct", "multiplicity"):
            raise ValueError(f"unknown mode {mode!r}")
        if wedge_cap is not None and wedge_cap < 1:
            raise ValueError("wedge_cap must be positive")
        rng = resolve_rng(seed)
        self.sample_size = sample_size
        self.mode = mode
        #: Optional bound on |Q|.  The paper stores every wedge of S, but a
        #: sampled hub can make |Q| quadratic in m'; capping subsamples Q
        #: uniformly and rescales, trading constant-factor variance for a
        #: hard space bound.
        self.wedge_cap = wedge_cap
        self._wedge_rng = spawn_rng(rng)
        self._sampler: BottomKSampler[Edge] = BottomKSampler(
            sample_size, seed=spawn_rng(rng), on_evict=self._edge_evicted
        )
        self._pass = 0
        self._pair_count = 0
        self._wedges: List[Wedge] = []
        self._wedge_population = 0
        self._multiplicity_total = 0
        self._distinct_cycles: Set[CycleKey] = set()
        # Telemetry-only churn tallies (observables); deliberately NOT part
        # of the snapshot payload — resumed runs restart them at zero.
        self._evictions = 0
        # Columnar wedge-endpoint view for the vectorized pass-2 scan,
        # payload the wedge, plus each centre's wedge indices; derived
        # from _wedges (fixed after _build_wedges), built lazily.
        self._wedge_cols = vectorized.EndpointColumns()
        self._wedges_at: Dict[Vertex, List[int]] = {}
        # Hash view of Q for short lists: endpoint pair (u, v) -> centres
        # of the wedges u - c - v.  Derived from _wedges, built lazily.
        self._wedge_index: Optional[Dict[Edge, List[Vertex]]] = None

    def _edge_evicted(self, edge: Edge) -> None:
        self._evictions += 1

    # -- streaming interface ---------------------------------------------------

    def begin_pass(self, pass_index: int) -> None:
        # Q is formed once: a repeated begin_pass(1) keeps it (rebuilding
        # would draw the capping reservoir's RNG again).
        if pass_index == 1 and self._pass != 1:
            self._build_wedges()
        self._pass = pass_index

    def process(self, source: Vertex, neighbor: Vertex) -> None:
        if self._pass == 0:
            self._pair_count += 1
            self._sampler.offer(canonical_edge(source, neighbor))

    def process_list(self, source: Vertex, neighbors: Sequence[Vertex]) -> None:
        # Batched per-list hook, the scalar reference: same offers in the
        # same order (and the same accepted tally) as the per-pair loop,
        # minus per-pair dispatch (pass 2 does all work in end_list).
        if self._pass == 0:
            self._pair_count += len(neighbors)
            self._sampler.offer_many(
                [(source, nbr) if source <= nbr else (nbr, source) for nbr in neighbors]
            )

    def end_list(self, vertex: Vertex, neighbors: Sequence[Vertex]) -> None:
        if self._pass != 1:
            return
        nset = set(neighbors)
        for wedge in self._wedges:
            if wedge.u in nset and wedge.v in nset and vertex != wedge.center:
                self._multiplicity_total += 1
                if self.mode == "distinct":
                    self._distinct_cycles.add(cycle_key(wedge.u, wedge.center, wedge.v, vertex))

    def process_run(
        self,
        run: List[Tuple[Vertex, Sequence[Vertex]]],
        columns: Optional[List[np.ndarray]],
    ) -> List[int]:
        """Run a stretch of lists of one length class at once (the
        runner's run route, and the counter's one columnar route).

        Pass 1 hashes every pair of the run in one batch
        (:class:`~repro.util.vectorized.RunOffers`, over the long run's
        ``columns``); while the sample fills, each list is offered on
        its own so its reading ``2·|S|`` plus the rest is exact, and once
        it is full the remaining lists go in one ``offer_array`` call and
        every reading is the same.  Where :meth:`RunOffers.of
        <repro.util.vectorized.RunOffers.of>` returns None the run goes
        through the per-list hooks instead.  Pass 2 probes each short
        list's neighbour pairs, and tests a long run's lists against Q
        with one :class:`~repro.util.vectorized.RunMask`; the reading
        moves only with the distinct-cycle set.
        """
        if self._pass == 0:
            offers = vectorized.RunOffers.of(self._sampler, run, columns)
            if offers is None:
                return super().process_run(run, columns)  # the per-list hooks
            self._pair_count += offers.pairs
            return offers.offer_all(self.space_words() - self._sampler.space_words())
        rest = self.space_words() - 4 * len(self._distinct_cycles)
        if columns is not None:
            return self._complete_run(run, columns, rest)
        if self.mode == "multiplicity":
            self._complete_probe(run)
            return [rest] * len(run)
        readings = []
        distinct = self._distinct_cycles
        for entry in run:
            self._complete_probe((entry,))
            readings.append(rest + 4 * len(distinct))
        return readings

    def _complete_run(
        self, run: List[Tuple[Vertex, Sequence[Vertex]]], columns: list, rest: int
    ) -> List[int]:
        """Completion test of a long run: every list against Q at once.

        Q is fixed in pass 2, so one table over the run's lists finds the
        same (wedge, list) matches as ``end_list`` per list.  Wedge columns
        a non-``uint64`` label turned off send the run to the per-list
        hooks.
        """
        distinct = self._distinct_cycles
        cols = self._wedge_columns()
        if cols is None:
            return super().process_run(run, columns)
        mask = vectorized.RunMask.of(columns, cols[3])
        wu, wv, wedges, _ = cols
        hit = mask.both(wu, wv)
        wedges_at = self._wedges_at
        for row, (vertex, _) in enumerate(run):
            own = wedges_at.get(vertex)
            if own:
                hit[own, row] = False
        if self.mode == "multiplicity":
            self._multiplicity_total += int(np.count_nonzero(hit))
            return [rest] * len(run)
        readings = []
        for (vertex, _), found in zip(run, mask.by_row(hit)):
            self._multiplicity_total += len(found)
            for i in found:
                wedge = wedges[i]
                distinct.add(cycle_key(wedge.u, wedge.center, wedge.v, vertex))
            readings.append(rest + 4 * len(distinct))
        return readings

    def _complete_probe(self, run: Sequence[Tuple[Vertex, Sequence[Vertex]]]) -> None:
        """Completion test of short lists: look up each neighbour pair.

        A wedge is completed by a list iff its endpoint pair is one of
        the list's neighbour pairs, so probing the d(d-1)/2 pairs against
        the wedge index finds exactly the scalar scan's matches; the
        multiplicity count and the distinct-cycle set do not depend on
        the order they are found in.
        """
        index = self._wedge_index
        if index is None:
            index = {}
            for wedge in self._wedges:
                index.setdefault((wedge.u, wedge.v), []).append(wedge.center)
            self._wedge_index = index
        if not index:
            return
        distinct = self.mode == "distinct"
        hits = 0
        for vertex, neighbors in run:
            if len(neighbors) < 2:
                continue
            for u, v in itertools.combinations(sorted(set(neighbors)), 2):
                for center in index.get((u, v), ()):
                    if center != vertex:
                        hits += 1
                        if distinct:
                            self._distinct_cycles.add(cycle_key(u, center, v, vertex))
        self._multiplicity_total += hits

    def _wedge_columns(self) -> Optional[tuple]:
        """Endpoint columns over Q, payload the wedge (built once)."""
        cols = self._wedge_cols
        if cols.stale():
            wedges = self._wedges
            cols.build([(w.u, w.v) for w in wedges], wedges)
            self._wedges_at = {}
            for i, wedge in enumerate(wedges):
                self._wedges_at.setdefault(wedge.center, []).append(i)
        return cols.view()

    def _build_wedges(self) -> None:
        """Form Q: wedges with both edges sampled (reservoir-capped)."""
        from repro.util.sampling import ReservoirSampler

        self._wedge_cols = vectorized.EndpointColumns()
        self._wedge_index = None

        wedges: List[Wedge] = []
        population = 0
        reservoir: ReservoirSampler[Wedge] = None
        if self.wedge_cap is not None:
            reservoir = ReservoirSampler(self.wedge_cap, seed=self._wedge_rng)
        # Canonical member order: the membership dict's iteration order
        # encodes insertion history, which snapshot/restore does not
        # preserve; sorting makes the wedge list (and any capping
        # reservoir's RNG consumption) a pure function of the sample.
        by_vertex: Dict[Vertex, List[Vertex]] = {}
        for u, v in sorted(self._sampler.members()):
            by_vertex.setdefault(u, []).append(v)
            by_vertex.setdefault(v, []).append(u)
        for center, others in by_vertex.items():
            others.sort()
            for i, a in enumerate(others):
                for b in others[i + 1 :]:
                    population += 1
                    wedge = Wedge.make(center, a, b)
                    if reservoir is None:
                        wedges.append(wedge)
                    else:
                        reservoir.offer(wedge)
        self._wedges = wedges if reservoir is None else reservoir.items()
        self._wedge_population = population

    # -- sketch state protocol -------------------------------------------------

    def snapshot(self) -> SketchState:
        """Full live state: sampler, wedge set, counters, RNG states."""
        return SketchState(
            self.STATE_KIND,
            self.STATE_VERSION,
            {
                "sample_size": self.sample_size,
                "mode": self.mode,
                "wedge_cap": self.wedge_cap,
                "pass": self._pass,
                "pair_count": self._pair_count,
                "wedge_population": self._wedge_population,
                "multiplicity_total": self._multiplicity_total,
                "wedge_rng_state": self._wedge_rng.getstate(),
                "sampler": self._sampler.state_dict(),
                "wedges": [[w.center, w.u, w.v] for w in self._wedges],
                "distinct": sorted(
                    (_encode_cycle_key(k) for k in self._distinct_cycles), key=repr
                ),
            },
        )

    def restore(self, state: SketchState) -> None:
        """Rebuild live state from a snapshot."""
        state.require(self.STATE_KIND, self.STATE_VERSION)
        payload = state.payload
        self.sample_size = int(payload["sample_size"])
        self.mode = str(payload["mode"])
        cap = payload["wedge_cap"]
        self.wedge_cap = None if cap is None else int(cap)
        self._pass = int(payload["pass"])
        self._pair_count = int(payload["pair_count"])
        self._wedge_population = int(payload["wedge_population"])
        self._multiplicity_total = int(payload["multiplicity_total"])
        rng_state = payload["wedge_rng_state"]
        self._wedge_rng.setstate(
            (int(rng_state[0]), tuple(int(x) for x in rng_state[1]), rng_state[2])
        )
        self._sampler.load_state_dict(payload["sampler"])
        self._wedges = [
            Wedge(center=c, u=u, v=v) for c, u, v in payload["wedges"]
        ]
        self._distinct_cycles = {
            _decode_cycle_key(blob) for blob in payload["distinct"]
        }
        self._evictions = 0
        self._wedge_cols = vectorized.EndpointColumns()
        self._wedges_at = {}
        self._wedge_index = None

    @classmethod
    def from_state(cls, state: SketchState) -> "TwoPassFourCycleCounter":
        """Construct a counter directly from a snapshot."""
        state.require(cls.STATE_KIND, cls.STATE_VERSION)
        payload = state.payload
        cap = payload["wedge_cap"]
        algorithm = cls(
            int(payload["sample_size"]),
            mode=str(payload["mode"]),
            wedge_cap=None if cap is None else int(cap),
            seed=0,
        )
        algorithm.restore(state)
        return algorithm

    # -- results -----------------------------------------------------------------

    @property
    def edge_count(self) -> int:
        """``m`` as measured during pass 1."""
        return self._pair_count // 2

    @property
    def wedge_sample_size(self) -> int:
        """``|Q|`` — number of sampled wedges (valid from pass 2)."""
        return len(self._wedges)

    @property
    def inverse_inclusion_probability(self) -> float:
        """Exact ``1 / P[a fixed wedge has both edges sampled]`` (≈ k²)."""
        m = self.edge_count
        s = min(self.sample_size, m)
        if m <= 1 or s >= m:
            return 1.0
        if s < 2:
            return float(m * (m - 1))  # a wedge can never be sampled; degenerate
        return (m * (m - 1)) / (s * (s - 1))

    @property
    def wedge_population(self) -> int:
        """Total wedges of S before any capping (valid from pass 2)."""
        return self._wedge_population

    @property
    def wedge_keep_fraction(self) -> float:
        """Fraction of S's wedges retained in Q (1.0 without a cap)."""
        if self._wedge_population == 0:
            return 1.0
        return len(self._wedges) / self._wedge_population

    def raw_hits(self) -> int:
        """Unscaled count: distinct cycles hit, or Σ T_w by mode."""
        if self.mode == "distinct":
            return len(self._distinct_cycles)
        return self._multiplicity_total

    def result(self) -> float:
        """The 4-cycle estimate ``T̂`` (valid after pass 2)."""
        scale = self.inverse_inclusion_probability
        keep = self.wedge_keep_fraction
        if keep == 0.0:
            return 0.0
        scale /= keep
        if self.mode == "distinct":
            return scale * len(self._distinct_cycles)
        return scale * self._multiplicity_total / 4.0

    def current_estimate(self) -> float:
        """Anytime estimate: ``result()`` is well defined on partial state.

        Zero until wedges are collected; converges to the final value as
        pass 2 resolves cycle completions.
        """
        return self.result()

    def observables(self) -> Dict[str, float]:
        """Occupancy and churn gauges for the instrumented runner."""
        return {
            "edge_sample_occupancy": len(self._sampler),
            "edge_sample_capacity": self.sample_size,
            "edge_sample_evictions": self._evictions,
            "edge_offers_total": self._sampler.offers,
            "edge_offers_accepted": self._sampler.accepted,
            "wedge_set_occupancy": len(self._wedges),
            "wedge_population": self._wedge_population,
            "distinct_cycles_tracked": len(self._distinct_cycles),
        }

    def space_words(self) -> int:
        """Live state: sampler slots, wedge triples, dedup keys, counters."""
        return (
            self._sampler.space_words()
            + 3 * len(self._wedges)
            + 4 * len(self._distinct_cycles)
            + 3
        )


def recommended_sample_size(m: int, cycle_count: int, constant: float = 4.0) -> int:
    """Return ``m' = c · m / T^{3/8}`` (at least 2), per Theorem 4.6.

    At least 2 because a wedge needs two sampled edges.
    """
    if m < 0 or cycle_count < 0:
        raise ValueError("m and cycle_count must be non-negative")
    if cycle_count == 0:
        return max(m, 2)
    size = constant * m / cycle_count**0.375
    return max(2, int(round(size)))
