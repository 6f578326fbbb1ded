"""Two-pass (1 ± ε) triangle counting — Theorem 3.7, the paper's main result.

The algorithm (Section 3.2):

1. Pass 1 keeps a uniform size-``m'`` edge sample ``S`` (bottom-k hashing:
   an edge belonging to the final sample is in the running sample from its
   first stream occurrence onward) and counts ``m``.
2. Across both passes it collects ``Q``, a uniform size-``m'`` subsample of
   the candidate pairs ``{(e, τ) : e ∈ S, τ ∈ L(e)}``, where ``L(e)`` is
   the set of triangles containing ``e``.  A candidate is detected at the
   adjacency list of the triangle's third vertex: both endpoints of the
   sampled edge appear in that list.
3. Pass 2 computes, for every collected pair and every edge ``f`` of its
   triangle ``τ``, the order statistic

       ``H_{f,τ} = |{σ ∈ L(f) : σ^{-f} arrives after τ^{-f}}|``

   where ``x^{-f}`` is the vertex of triangle ``x`` not on ``f`` and
   "arrives" refers to the position of that vertex's adjacency list (the
   second pass replays the first pass's order).
4. A collected pair ``(e, τ)`` is *counted* iff ``e = ρ(τ)``, the edge of
   ``τ`` minimising ``H_{f,τ}`` (ties broken by canonical edge key).  Since
   exactly one edge of each triangle wins, every triangle contributes
   through exactly one edge — killing the heavy-edge variance that plagues
   naive edge sampling — and the scaled count

       ``T̂ = k · (T' / |Q|) · |{(e, τ) ∈ Q : ρ(τ) = e}|``

   (``k = max(m/m', 1)``, ``T'`` = total number of candidate pairs) is an
   unbiased estimator of the triangle count with relative variance
   ``O(k / T^{2/3})`` (Lemmas 3.1–3.6).

Setting ``m' = Θ(m / (ε² T^{2/3}))`` yields a (1 ± ε)-approximation with
probability 2/3; see :mod:`repro.core.boosting` for the median
amplification to probability ``1 - δ``.

Detection bookkeeping (faithful to Section 3.3.1):

* A pair detectable in pass 1 (the apex list arrives after the edge's
  first occurrence) is offered to the reservoir there; in pass 2 it is
  recognised as already-considered because the edge has already appeared
  in pass 2 by the time the apex list arrives.  A pair *not* detectable in
  pass 1 is offered in pass 2, where the same test (edge not yet seen)
  identifies it.  Every candidate is therefore considered exactly once.
* ``H`` counters: each collected pair installs three *watchers*, one per
  triangle edge ``f``, holding the apex ``x = τ^{-f}``.  When an adjacency
  list closes a triangle on a watched edge, the watcher increments iff
  ``x``'s list has already arrived in pass 2 — that is exactly the
  "arrives after" order.  Section 3.3.1 proves all relevant closings occur
  after the pair is collected, so mid-stream installation loses nothing.

The per-list hooks do this list by list and are the scalar oracle.  The
run route (``process_run``) does the same for a long run of lists on one
:class:`~repro.util.vectorized.RunMask` per pass, whatever the size of its
``uint64`` labels (a run holding a label with no ``uint64`` value, or in
pass 2 one source twice, takes the per-list hooks):

* Pass 1 offers the whole run to the edge sampler first, noting each
  list's evicted edges; the sampler never reads the reservoir.  Under
  bottom-k an evicted key is never admitted again, so each key is a
  member over one interval of the run's lists, and one table answers
  every list's detection.  The lists are then replayed in order: each
  drops the pairs of the edges it evicted, then offers its matches that
  were members at that list.
* Pass 2 tests the frozen sample once per run for the seen-edge scan and
  detection, replays the lists' offers, then counts the run's ``H``
  increments in one gather: the watchers are columns of edge endpoints,
  apex and count slot, each counting the lists after the row it starts
  from (before the run, or the list that installed it).

Every watcher's count and apex flag live in one store of slots
(``_HCounts``): a ``_Watcher`` reads and writes its own slot, and the run
route adds a run's counts into many slots at once through numpy views of
the same buffers, so there is one copy of every ``h`` and snapshots keep
their exact per-pair ``watchers`` lists.
"""

from __future__ import annotations

import bisect
import itertools
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.graph import Edge, Vertex, canonical_edge
from repro.sketch.state import SketchState
from repro.streaming.algorithm import StreamingAlgorithm
from repro.util import vectorized
from repro.util.hashing import MixHash64
from repro.util.rng import SeedLike, resolve_rng, spawn_rng
from repro.util.sampling import BottomKSampler, ReservoirSampler

Triangle = Tuple[Vertex, Vertex, Vertex]


def triangle_key(a: Vertex, b: Vertex, c: Vertex) -> Triangle:
    """Canonical (sorted) form of a triangle's vertex set."""
    return tuple(sorted((a, b, c)))


def triangle_edges(tri: Triangle) -> Tuple[Edge, Edge, Edge]:
    """The three edges of a triangle, canonically oriented."""
    a, b, c = tri
    return (canonical_edge(a, b), canonical_edge(a, c), canonical_edge(b, c))


def apex(tri: Triangle, edge: Edge) -> Vertex:
    """Return ``τ^{-e}``: the vertex of ``tri`` not on ``edge``."""
    if edge[0] not in tri or edge[1] not in tri:
        raise ValueError(f"{edge} is not an edge of triangle {tri}")
    for v in tri:
        if v != edge[0] and v != edge[1]:
            return v
    raise ValueError(f"{edge} has no opposite vertex in {tri}")


class _HCounts:
    """The H watchers' counts and apex flags, one slot per watcher.

    Plain ``array`` and ``bytearray`` buffers: the per-list hooks update
    one slot at a time through :class:`_Watcher`, and the run route
    updates many at once through numpy views of the same memory
    (:meth:`views`; a view must be gone before the next :meth:`add`).
    An unregistered watcher leaves its slot dead; the counter moves the
    live watchers to a new store once more than half the slots are dead.
    """

    __slots__ = ("h", "arrived", "dead")

    def __init__(self) -> None:
        self.h = array("q")
        self.arrived = bytearray()
        self.dead = 0

    def add(self, arrived: bool, h: int) -> int:
        """A new slot holding ``arrived`` and ``h``."""
        self.h.append(h)
        self.arrived.append(arrived)
        return len(self.h) - 1

    def views(self) -> Tuple[np.ndarray, np.ndarray]:
        """Writable numpy views of the counts and the flags."""
        return np.frombuffer(self.h, dtype=np.int64), np.frombuffer(self.arrived, dtype=bool)


#: Dead slots an ``_HCounts`` may hold beyond half its size before the
#: live watchers move to a new one.
_H_SLACK = 64


class _Watcher:
    """H-counter for one (collected pair, triangle edge) combination: the
    watched edge ``f`` and the apex ``x`` of the pair's triangle opposite
    it.  Its count ``h`` and flag ``x_arrived`` live in ``store`` at
    ``slot``."""

    __slots__ = ("edge", "x", "store", "slot")

    def __init__(
        self, edge: Edge, x: Vertex, store: _HCounts, x_arrived: bool = False, h: int = 0
    ) -> None:
        self.edge = edge
        self.x = x
        self.store = store
        self.slot = store.add(x_arrived, h)

    @property
    def x_arrived(self) -> bool:
        return bool(self.store.arrived[self.slot])

    @x_arrived.setter
    def x_arrived(self, value: bool) -> None:
        self.store.arrived[self.slot] = value

    @property
    def h(self) -> int:
        return self.store.h[self.slot]

    @h.setter
    def h(self, value: int) -> None:
        self.store.h[self.slot] = value


@dataclass(eq=False, slots=True)
class _Pair:
    """A collected candidate pair (e, τ) with its three watchers."""

    edge: Edge
    triangle: Triangle
    watchers: List[_Watcher] = field(default_factory=list)

    def rho_edge(self) -> Edge:
        """The lightest edge ρ(τ): min H, ties by canonical edge key.

        ``min`` over ``(h, edge)`` without a key call or a tuple per
        watcher; the first minimum wins, as in ``min``.
        """
        first = self.watchers[0]
        counts = first.store.h  # one store holds a pair's three counts
        h, edge = counts[first.slot], first.edge
        for watcher in self.watchers:
            count = counts[watcher.slot]
            if count < h or (count == h and watcher.edge < edge):
                h, edge = count, watcher.edge
        return edge


def _encode_pair(pair: "_Pair") -> Dict[str, Any]:
    """Serialise a collected pair (with watchers) for sketch state."""
    return {
        "edge": pair.edge,
        "triangle": pair.triangle,
        "watchers": [[w.edge, w.x, w.x_arrived, w.h] for w in pair.watchers],
    }


def _as_edge(blob: Any) -> Edge:
    return tuple(blob) if isinstance(blob, list) else blob


def _decode_pair(blob: Dict[str, Any], store: _HCounts) -> "_Pair":
    """Invert :func:`_encode_pair`, the watchers' counts going to ``store``."""
    pair = _Pair(edge=_as_edge(blob["edge"]), triangle=tuple(blob["triangle"]))
    for edge, x, arrived, h in blob["watchers"]:
        pair.watchers.append(_Watcher(_as_edge(edge), x, store, bool(arrived), int(h)))
    return pair


class TwoPassTriangleCounter(StreamingAlgorithm):
    """Theorem 3.7: 2-pass (1 ± ε) triangle estimation in Õ(m/T^{2/3}) space.

    Parameters
    ----------
    sample_size:
        ``m'``, the size of both the edge sample ``S`` and the pair sample
        ``Q``.  For a (1 ± ε) guarantee with probability 2/3 choose
        ``m' = c · m / (ε² T^{2/3})`` (use :func:`recommended_sample_size`).
    seed:
        Randomness for the hash sampler and the reservoir.
    sharded:
        Enable the shard-and-merge collection discipline: pass 1 builds
        only the edge sample (mergeable bit-exactly across shards) and
        *every* candidate pair is collected in pass 2, where each is
        detected exactly once — at its apex's list — regardless of how
        lists are split over shards.  ``Q`` stays a uniform subsample of
        all candidates; what changes is the choice of the counted edge
        ``ρ(τ)``.  The order-statistic rule (min ``H``, the paper's
        heavy-edge variance killer) needs each pair's three H-counters
        measured over the whole second pass, which no mid-pass collection
        point — let alone a shard-local one — can provide.  Sharded mode
        therefore designates ``ρ(τ)`` as the triangle's minimum edge
        under an *independent* seeded hash: still exactly one counted
        edge per triangle, chosen independently of which edges were
        sampled, so the estimator stays exactly unbiased (and is
        invariant to the shard count); what is lost is only the H-rule's
        preference for light edges, i.e. some variance on heavy-edge
        graphs.  H-watchers are not maintained in this mode.
    """

    n_passes = 2
    requires_same_order = True

    STATE_KIND = "triangle-two-pass"
    STATE_VERSION = 1

    def __init__(self, sample_size: int, seed: SeedLike = None, sharded: bool = False):
        if sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        rng = resolve_rng(seed)
        self.sample_size = sample_size
        self.sharded = bool(sharded)
        self._sampler: BottomKSampler[Edge] = BottomKSampler(
            sample_size, seed=spawn_rng(rng), on_evict=self._edge_evicted
        )
        self._reservoir: ReservoirSampler[_Pair] = ReservoirSampler(
            sample_size, seed=spawn_rng(rng)
        )
        # Designates ρ(τ) in sharded mode; independent of the edge sampler's
        # hash so that "counted" and "sampled" stay uncorrelated.  (Spawned
        # last to leave the sampler/reservoir seed derivation unchanged.)
        self._rho_hash = MixHash64(spawn_rng(rng))
        self._pass = 0
        self._pair_count = 0  # running count of stream pairs; m = count / 2
        self._candidate_total = 0  # T' = |{(e, τ) : e ∈ final S}| (pass-2 exact)
        self._seen_p2: Set[Edge] = set()  # sampled edges already appeared in pass 2
        self._watchers_by_edge: Dict[Edge, Set[_Watcher]] = {}
        self._watchers_by_apex: Dict[Vertex, Set[_Watcher]] = {}
        # The live watchers' counts and flags (_compact_h moves them).
        self._hcounts = _HCounts()
        # Telemetry-only churn tallies (observables); deliberately NOT part
        # of the snapshot payload — resumed runs restart them at zero.
        self._evictions = 0  # edges that fell out of the bottom-k sample
        self._displaced = 0  # reservoir pairs displaced by later offers
        # O(1) bookkeeping mirrors for the hot path (derived state; restore
        # recomputes them from the restored reservoir):
        self._live_watchers = 0  # == sum(len(p.watchers) for p in reservoir)
        # Reservoir pairs by first-pass edge, so an eviction names the
        # pairs it drops without scanning the reservoir.
        self._pairs_at: Dict[Edge, List[_Pair]] = {}
        # Columnar views for the vectorized scans; derived state only,
        # rebuilt (not serialised) across snapshot/restore.  Both are
        # supersets: member columns hold every key admitted since the last
        # build (payload: the key; hits resolve through the live
        # membership, so since-evicted keys miss), watcher columns every
        # watcher registered since (edge endpoints, apex and count slot;
        # payload: the watcher, whose slot nobody reads once it is
        # unregistered).
        self._mcols = vectorized.EndpointColumns()
        self._mcol_pos = 0  # admission-log cursor: columns cover log[:pos]
        self._wcols = vectorized.EndpointColumns(width=4)
        # While the run route offers a run, _edge_evicted defers the edges
        # it evicts into this buffer (see _offer_run).
        self._evict_buffer: Optional[List[Edge]] = None
        # Watchers registered during a pass-2 run's replay, in order
        # (None outside one): _count_h_run's fresh columns.
        self._fresh: Optional[List[_Watcher]] = None
        # Pass 2's frozen sample by endpoint (derived; _members_by_vertex).
        self._member_index: Optional[Dict[Vertex, List[Tuple[Edge, Vertex]]]] = None

    # -- sampler bookkeeping --------------------------------------------------

    def _edge_evicted(self, edge: Edge) -> None:
        """Drop reservoir pairs whose first-pass edge left the sample, or
        defer the edge to the installed eviction buffer."""
        self._evictions += 1
        self._mcols.dead += 1
        buffer = self._evict_buffer
        if buffer is not None:
            # The run route offers a whole run first and drops each
            # evicted edge's pairs at the evicting list's place in its
            # replay (_offer_run).  Discards never touch the reservoir
            # RNG, so the reservoir ends bit-identical.
            buffer.append(edge)
        elif edge in self._pairs_at:
            self._drop_evicted((edge,))

    def _drop_evicted(self, edges: Sequence[Edge]) -> None:
        """Remove the pairs collected on ``edges`` from the reservoir in
        one call, and unregister their watchers in reservoir order.  The
        per-edge pair index names them, so an edge with no collected pairs
        costs one lookup."""
        pairs_at = self._pairs_at
        doomed: List[_Pair] = []
        for edge in edges:
            pairs = pairs_at.pop(edge, None)
            if pairs is not None:
                doomed.extend(pairs)
        if doomed:
            for pair in self._reservoir.discard_items(doomed):
                if pair.watchers:
                    self._unregister_watchers(pair)

    def _register_watchers(self, pair: _Pair, current_list: Optional[Vertex]) -> None:
        """Create and index the three H-watchers of ``pair``.

        ``current_list`` is the adjacency list being scanned when the pair
        is collected in pass 2 (None when building watchers between
        passes).  A watcher's apex has already "arrived" only when it *is*
        the current list: for the sampled edge's own watcher the apex is
        the list that just detected the triangle; for the two other edges
        the apex is an endpoint of the sampled edge, whose list cannot have
        arrived yet (otherwise the pair would have been collected in
        pass 1).
        """
        by_edge, by_apex = self._watchers_by_edge, self._watchers_by_apex
        store = self._hcounts
        if store.dead > len(store.h) // 2 + _H_SLACK:
            self._compact_h()
            store = self._hcounts
        # Built watcher columns take the new watchers on their next view.
        queue = self._wcols.queue if self._wcols.payloads is not None else None
        # triangle_key sorts, so (a, b), (a, c), (b, c) are already the
        # canonical edges and the leftover vertex is each edge's apex —
        # same (f, x) sequence as triangle_edges + apex, without the calls.
        a, b, c = pair.triangle
        for f, x in (((a, b), c), ((a, c), b), ((b, c), a)):
            watcher = _Watcher(f, x, store, x == current_list)
            pair.watchers.append(watcher)
            bucket = by_edge.get(f)
            if bucket is None:
                by_edge[f] = {watcher}
            else:
                bucket.add(watcher)
            bucket = by_apex.get(x)
            if bucket is None:
                by_apex[x] = {watcher}
            else:
                bucket.add(watcher)
            if queue is not None:
                queue((*f, x, watcher.slot), watcher)
        if self._fresh is not None:
            self._fresh.extend(pair.watchers)
        self._live_watchers += 3

    def _unregister_watchers(self, pair: _Pair) -> None:
        self._live_watchers -= len(pair.watchers)
        self._wcols.dead += len(pair.watchers)
        self._hcounts.dead += len(pair.watchers)
        for watcher in pair.watchers:
            bucket = self._watchers_by_edge.get(watcher.edge)
            if bucket is not None:
                bucket.discard(watcher)
                if not bucket:
                    del self._watchers_by_edge[watcher.edge]
            bucket = self._watchers_by_apex.get(watcher.x)
            if bucket is not None:
                bucket.discard(watcher)
                if not bucket:
                    del self._watchers_by_apex[watcher.x]
        pair.watchers.clear()

    def _compact_h(self) -> None:
        """Move the live watchers' counts and flags to a new store, in
        reservoir order, leaving the dead slots behind.  The watcher
        columns name slots, so they are dropped for a rebuild."""
        store = _HCounts()
        for pair in self._reservoir.items():
            for watcher in pair.watchers:
                watcher.slot = store.add(watcher.x_arrived, watcher.h)
                watcher.store = store
        self._hcounts = store
        self._wcols.drop()

    def _place_pair(self, slot: int, edge: Edge, vertex: Vertex) -> None:
        """Put the admitted candidate pair of sampled ``edge`` and the
        triangle list ``vertex`` closes on it in the reservoir's
        ``slot``, maintaining indexes.

        Only an admitted pair gets watchers, installed after the
        displaced pair's are removed: a rejected candidate touches no
        bucket.  Watcher increments commute, so the order changes no
        ``h``.
        """
        # Inline triangle_key: the edge is canonical (u < v), so only the
        # closing vertex needs placing.
        u, v = edge
        if vertex < u:
            tri = (vertex, u, v)
        elif vertex < v:
            tri = (u, vertex, v)
        else:
            tri = (u, v, vertex)
        pair = _Pair(edge=edge, triangle=tri)
        displaced = self._reservoir.place(slot, pair)
        if displaced is not None:
            self._displaced += 1
            if displaced.watchers:
                self._unregister_watchers(displaced)
            pairs = self._pairs_at.get(displaced.edge)
            if pairs is not None:
                pairs.remove(displaced)
                if not pairs:
                    del self._pairs_at[displaced.edge]
        self._pairs_at.setdefault(edge, []).append(pair)
        # Sharded mode never installs watchers: ρ is hash-designated there.
        if self._pass == 1 and not self.sharded:
            self._register_watchers(pair, vertex)

    # -- streaming interface ---------------------------------------------------

    def begin_pass(self, pass_index: int) -> None:
        # A repeated begin_pass(1) must not register the watchers again.
        entering_pass_two = pass_index == 1 and self._pass != 1
        self._pass = pass_index
        if pass_index == 1:
            # Membership is frozen for all of pass 2: rebuild the member
            # columns once, exactly, so the pass-2 scans carry no stale
            # entries (the fused seen-edge scan relies on this).
            self._mcols.drop()
            self._member_index = None
        if entering_pass_two and not self.sharded:
            # Pass-1 pairs get their watchers now; their apexes all arrive
            # (again) during pass 2, so flags start False.
            for pair in self._reservoir.items():
                self._register_watchers(pair, current_list=None)

    def begin_list(self, vertex: Vertex) -> None:
        if self._pass == 1:
            for watcher in self._watchers_by_apex.get(vertex, ()):
                watcher.x_arrived = True

    def process(self, source: Vertex, neighbor: Vertex) -> None:
        edge = canonical_edge(source, neighbor)
        if self._pass == 0:
            self._pair_count += 1
            self._sampler.offer(edge)
        elif not self.sharded:
            # ``seen`` drives the pass-1/pass-2 considered-once split; the
            # sharded discipline collects everything in pass 2 instead.
            if edge in self._sampler and edge not in self._seen_p2:
                self._seen_p2.add(edge)

    def process_list(self, source: Vertex, neighbors: Sequence[Vertex]) -> None:
        # Batched per-list hook, the scalar reference: identical work to the
        # per-pair loop (same edge order, same sampler offers, same accepted
        # tally) with per-pair dispatch, the pass check and canonical_edge
        # calls hoisted out of the inner loop.
        if self._pass == 0:
            self._offer_pairs(source, neighbors)
        elif not self.sharded:
            self._seen_scan_scalar(source, neighbors)

    def end_list(self, vertex: Vertex, neighbors: Sequence[Vertex]) -> None:
        if self._pass == 0 and self.sharded:
            return  # sharded discipline: nothing to detect until pass 2
        nset = set(neighbors)
        if self._pass == 1:
            self._count_h_scalar(vertex, nset)
        self._detect_scalar(vertex, nset)

    def _offer_pairs(self, source: Vertex, neighbors: Sequence[Vertex]) -> None:
        """Offer one list's first-pass pairs, in order, through the scalar
        ``offer_many``."""
        self._pair_count += len(neighbors)
        self._sampler.offer_many(
            [(source, nbr) if source <= nbr else (nbr, source) for nbr in neighbors]
        )

    def process_run(
        self,
        run: List[Tuple[Vertex, Sequence[Vertex]]],
        columns: Optional[List[np.ndarray]],
    ) -> List[int]:
        """Run a stretch of lists of one length class at once (the
        runner's run route, and the counter's one columnar route).

        Each list gets the per-list hooks' work in their order.  A long
        run is tested against one :class:`~repro.util.vectorized.RunMask`
        in both passes: pass 1 hashes and offers the whole run first
        (:meth:`_offer_run`), pass 2 scans it on a frozen sample
        (:meth:`_scan_run`).  A long run that cannot take the mask (a
        label with no ``uint64`` value, or in pass 2 a repeated source)
        goes through the per-list hooks.  A short run goes list by list:
        pass 1 offers each list's pairs
        (:class:`~repro.util.vectorized.RunOffers`, or the scalar
        ``offer_many``), pass 2 marks its arrived watchers and does the
        seen-edge scan, and each list then probes its neighbour pairs
        (:meth:`_end_list_short`).
        """
        if columns is not None:
            if self._pass == 0:
                done = self._offer_long_run(run, columns)
            else:
                done = self._scan_run(run, columns)
            return super().process_run(run, columns) if done is None else done
        space_words, end_short = self.space_words, self._end_list_short
        readings: List[int] = []
        if self._pass == 0:
            offers = vectorized.RunOffers.of(self._sampler, run)
            for index, (vertex, neighbors) in enumerate(run):
                if offers is None:
                    self._offer_pairs(vertex, neighbors)
                else:
                    self._pair_count += len(neighbors)
                    offers.offer(index)
                end_short(vertex, neighbors)
                readings.append(space_words())
            return readings
        by_apex = self._watchers_by_apex
        for vertex, neighbors in run:
            for watcher in by_apex.get(vertex, ()):
                watcher.x_arrived = True
            if not self.sharded:
                self._seen_scan_scalar(vertex, neighbors)
            end_short(vertex, neighbors)
            readings.append(space_words())
        return readings

    def _offer_long_run(
        self, run: List[Tuple[Vertex, Sequence[Vertex]]], columns: list
    ) -> Optional[List[int]]:
        """First pass over a long run, or None (before anything is
        mutated) for the per-list hooks."""
        offers = vectorized.RunOffers.of(self._sampler, run, columns)
        if offers is None:
            return None
        if self.sharded:
            # Nothing is collected before pass 2 in this discipline, so an
            # eviction drops no pair and only the sample moves.
            self._pair_count += offers.pairs
            return offers.offer_all(self.space_words() - self._sampler.space_words())
        return self._offer_run(run, columns, offers)

    def _offer_run(
        self,
        run: List[Tuple[Vertex, Sequence[Vertex]]],
        columns: list,
        offers: vectorized.RunOffers,
    ) -> Optional[List[int]]:
        """Conventional first pass over a long run on one table, or None
        (before anything is mutated) for the per-list hooks.

        The sampler never reads the reservoir, so every list is offered
        first: one list at a time while the sample fills, then the rest
        in one batch, noting the list of every admitted key.  The sample
        fills before anything is evicted, and once it is full each
        admission evicts one member, so the evicted edges are dated by
        the last admissions.  Under bottom-k an evicted key is never
        admitted again (the threshold only tightens), so each key is a
        member over one interval of the run's lists: from the run's
        start, or the list that admitted it, to the list that evicted
        it.  Member columns covering every key that is a member at any
        list — the columns at the run's start plus the admitted keys —
        are tested against the run's table once, and each hit is kept
        only inside its key's interval.  The lists are then replayed in
        order: each drops the pairs of the edges it evicted, then offers
        its matches, as ``process_list`` and ``end_list`` would.
        """
        sampler = self._sampler
        mcols = self._member_columns()
        if mcols is None:
            return None
        # The keys admitted in the run join the queries: their larger ends
        # are the run's (source, neighbour) maxima.
        query_max = max(mcols[-1], int(offers.ends[1].max()))
        mask = vectorized.RunMask.of_flat(offers.flat, offers.lists(), len(run), query_max)
        rows, capacity = len(run), sampler.capacity
        admitted: List[Tuple[int, Edge]] = []  # (pair, key), in admission order
        evicted: List[Edge] = []
        sizes: List[int] = []  # the sampler's words after each list
        self._evict_buffer = evicted
        try:
            while len(sizes) < rows and len(sampler) < capacity:
                offers.offer(len(sizes), admitted)
                sizes.append(sampler.space_words())
            if len(sizes) < rows:
                offers.offer_rest(len(sizes), admitted)
        finally:
            self._evict_buffer = None
        self._pair_count += offers.pairs
        sizes.extend([sampler.space_words()] * (rows - len(sizes)))
        known = len(mcols[2])
        admit_rows: List[int] = []
        evicted_at: Dict[Edge, int] = {}
        evicted_by_row: List[List[Edge]] = [[] for _ in range(rows)]
        if admitted:
            pairs = np.array([pair for pair, _ in admitted], dtype=np.intp)
            admit_rows = offers.lists_of(pairs).tolist()
            for edge, row in zip(evicted, admit_rows[len(admitted) - len(evicted):]):
                evicted_at[edge] = row
                evicted_by_row[row].append(edge)
            # Appended where the next run's member columns would append
            # them (a compacted log's new epoch makes that run rebuild).
            u, v = offers.ends
            self._mcols.extend_columns((u.take(pairs), v.take(pairs)), [key for _, key in admitted])
        self._mcol_pos = len(sampler.admission_log)
        mu, mv, keys, _ = self._mcols.view()
        entries, hit = mask.hits(mu, mv)
        entries = entries.tolist()
        hit_keys = list(map(keys.__getitem__, entries))
        # Each hit edge's membership interval [first, last) of rows.
        split = bisect.bisect_left(entries, known)
        first = [0] * split + [admit_rows[i - known] for i in entries[split:]]
        membership = sampler.membership()
        last = [rows if key in membership else evicted_at.get(key, 0) for key in hit_keys]
        space_words, now = self.space_words, sampler.space_words()
        rest = space_words() - now
        pairs_at = self._pairs_at
        readings: List[int] = []
        for row, ((vertex, _), hits) in enumerate(zip(run, mask.by_row(hit))):
            doomed = [edge for edge in evicted_by_row[row] if edge in pairs_at]
            if doomed:
                self._drop_evicted(doomed)
                rest = space_words() - now
            matched = [hit_keys[j] for j in hits if first[j] <= row < last[j]]
            if matched and self._offer_matched(matched, vertex):
                rest = space_words() - now
            readings.append(rest + sizes[row])
        return readings

    def _scan_run(
        self, run: List[Tuple[Vertex, Sequence[Vertex]]], columns: list
    ) -> Optional[List[int]]:
        """Second pass over a long run on one table, in stream order, or
        None (before anything is mutated) for the per-list hooks.

        The sample is frozen in pass 2, so one table over the run's lists
        finds the same sampled edges per list as ``process_list`` and
        ``end_list``: the edges a list's source meets (the conventional
        seen-edge scan) and the edges it closes (candidate detection).
        Each list then marks its new seen edges and offers its matches in
        canonical order before the next list's.  The H watchers are
        updated once, after the replay (:meth:`_count_h_run`): no
        collection reads ``h``.
        """
        scan = not self.sharded
        mcols = self._member_columns()
        if mcols is None:
            return None
        if not scan:
            mask = vectorized.RunMask.of(columns, mcols[-1])
        else:
            wcols = self._watcher_columns()
            sources = vectorized.as_vertex_array([vertex for vertex, _ in run])
            if wcols is None or sources is None or len({v for v, _ in run}) < len(run):
                return None  # a label with no uint64 value, or a repeated source
            mask = vectorized.RunMask.of(columns, max(mcols[-1], wcols[-1]), ids=sources)
            # Each id's row as a list source; ``rows`` for an id with none.
            source_row = np.full(mask.size, len(run))
            source_row[mask.index(sources)] = np.arange(len(run))
            by_vertex, holds = self._members_by_vertex(), mask.holds
            self._fresh = fresh = []
            fresh_rows: List[int] = []
        mu, mv, keys, _ = mcols
        entries, hit = mask.hits(mu, mv)
        seen, space_words = self._seen_p2, self.space_words
        readings: List[int] = []
        try:
            for row, ((vertex, _), hits) in enumerate(zip(run, mask.by_row(hit, entries))):
                if scan and vertex in by_vertex:
                    # The seen-edge scan: sampled edges at this source
                    # whose other end the list holds.
                    seen.update([
                        edge for edge, other in by_vertex[vertex] if holds(other, row)
                    ])
                if hits:
                    # Pass 2 rebuilt the member columns exactly: no stale
                    # or repeated keys.
                    self._offer_matched([keys[i] for i in hits], vertex)
                    if scan:
                        fresh_rows.extend([row] * (len(fresh) - len(fresh_rows)))
                readings.append(space_words())
        finally:
            self._fresh = None
        if scan:
            self._count_h_run(mask, source_row, fresh, fresh_rows)
        return readings

    def _count_h_run(
        self,
        mask: vectorized.RunMask,
        source_row: np.ndarray,
        fresh: List[_Watcher],
        fresh_rows: List[int],
    ) -> None:
        """The H increments of a whole run, from one gather over its table.

        Watchers are columns: edge endpoints, apex, and the row from which
        each counts — -1 for the watchers from before the run, the
        installing row for the ``fresh`` ones installed during the replay
        (``fresh_rows``), which the columns' queue appends in order.  A
        watcher counts list ``row`` iff ``row`` comes after its start, the
        list closes its edge and is not its apex's, and its apex has
        arrived: it had at the start, or the apex's list came after the
        start and before ``row``.  Its apex arrives in the run iff the
        apex's list comes after its start.  Only the watchers a list
        counts are touched, to add their counts, and those whose apex
        arrives, to set their flags, so every ``h`` and flag ends as the
        per-list hooks leave it (a dead column's watcher belongs to a
        displaced pair, which nothing reads).
        """
        rows = mask.rows
        wcols = self._wcols.view()
        if wcols is not None:
            start = np.full(len(wcols[4]), -1)
            start[len(start) - len(fresh):] = fresh_rows
        else:
            # The queue outgrew the columns, or the counts moved, and the
            # columns were dropped: rebuild.
            wcols = self._watcher_columns()
            assert wcols is not None  # the run's and the members' labels
            installed = dict(zip(fresh, fresh_rows))
            start = np.array([installed.get(w, -1) for w in wcols[4]], dtype=np.intp)
        f0, f1, x, slot, _, _ = wcols
        touched, closes = mask.hits(f0, f1)
        apex = source_row.take(mask.index(x))
        slot = slot.view(np.intp)
        h, arrived = self._hcounts.views()
        at, since, slots = apex.take(touched), start.take(touched), slot.take(touched)
        # The row after which each touched watcher counts: its start if its
        # apex had arrived, the apex's row if that comes after the start,
        # else none.
        after = np.where(arrived.take(slots), since, np.where(at > since, at, rows))
        entry, row = closes.nonzero()
        counted = entry[(row > after.take(entry)) & (row != at.take(entry))]
        np.add.at(h, slots.take(counted), 1)
        arrived[slot[(start < apex) & (apex < rows)]] = True

    def _end_list_short(self, vertex: Vertex, neighbors: Sequence[Vertex]) -> None:
        """``end_list`` of a short list: probe its canonical neighbour
        pairs, in sorted order, against the hash indexes instead of
        scanning them."""
        if len(neighbors) < 2 or (self._pass == 0 and self.sharded):
            return
        pairs = list(itertools.combinations(sorted(set(neighbors)), 2))
        if self._pass == 1:
            self._count_h_probe(vertex, pairs)
        self._detect_probe(vertex, pairs)

    # -- columnar views and per-list scans -------------------------------------

    def _member_columns(self) -> Optional[tuple]:
        """Superset columns over the sampled edges, payload the key.

        Admissions logged since the last call are appended; a rebuild
        from the live membership happens only when the columns are
        unbuilt, over half stale, or the log was compacted or restored
        (a new epoch voids the cursor).
        """
        cols = self._mcols
        sampler = self._sampler
        log = sampler.admission_log
        if cols.stale(sampler.admission_epoch):
            members = sampler.membership()
            cols.build(members, members, sampler.admission_epoch)
        elif len(log) > self._mcol_pos:
            admitted = log[self._mcol_pos:]
            cols.extend(zip(admitted, admitted))
        self._mcol_pos = len(log)
        return cols.view()

    def _members_by_vertex(self) -> Dict[Vertex, List[Tuple[Edge, Vertex]]]:
        """The second pass's frozen sample indexed by endpoint: for each
        vertex, its sampled edges and their other ends.  Built once per
        pass (or restore), since membership no longer changes."""
        index = self._member_index
        if index is None:
            index = {}
            for edge in self._sampler.membership():
                u, v = edge
                index.setdefault(u, []).append((edge, v))
                index.setdefault(v, []).append((edge, u))
            self._member_index = index
        return index

    def _watcher_columns(self) -> Optional[tuple]:
        """Superset columns over the H-watchers: edge endpoints, apex and
        count slot, payload the watcher.  Unregistered watchers stay as
        dead entries until over half are dead, and the columns are rebuilt
        from the reservoir's live watchers."""
        cols = self._wcols
        if cols.stale():
            watchers = [w for pair in self._reservoir.items() for w in pair.watchers]
            cols.build([(*w.edge, w.x, w.slot) for w in watchers], watchers)
        return cols.view()

    def _seen_scan_scalar(self, src: Vertex, neighbors: Sequence[Vertex]) -> None:
        """Mark sampled edges appearing in this list (pass 2's ``process_list``)."""
        members = self._sampler.membership()
        seen = self._seen_p2
        for nbr in neighbors:
            edge = (src, nbr) if src <= nbr else (nbr, src)
            if edge in members and edge not in seen:
                seen.add(edge)

    def _count_h_scalar(self, vertex: Vertex, nset: Set[Vertex]) -> None:
        """Increment watchers whose edge is closed by the current list."""
        for f, watchers in self._watchers_by_edge.items():
            if f[0] in nset and f[1] in nset:
                for watcher in watchers:
                    if vertex != watcher.x and watcher.x_arrived:
                        watcher.h += 1

    def _count_h_probe(self, vertex: Vertex, pairs: List[Edge]) -> None:
        """Watcher scan of a short list: look up each neighbour pair.

        A watched edge is closed by the list iff it is one of the list's
        neighbour pairs, so the incremented watchers — and, since
        increments commute, every ``h`` — match the scalar scan.
        """
        by_edge = self._watchers_by_edge
        for f in pairs:
            watchers = by_edge.get(f)
            if watchers:
                for watcher in watchers:
                    if vertex != watcher.x and watcher.x_arrived:
                        watcher.h += 1

    def _offer_matched(self, matched: List[Edge], vertex: Vertex) -> bool:
        """Offer detected candidate pairs, in canonical (sorted) order;
        return whether the reservoir admitted any.

        The order matters: the membership dict's iteration order encodes
        insertion history, which a snapshot/restore cycle does not
        preserve, and which pair an admission places must not depend on
        it for resumed runs to be bit-identical to uninterrupted ones.
        Algorithm R's draw depends only on the offer count and the fill
        level, never on the item, so the reservoir decides first: a
        rejected candidate builds neither its triangle nor a ``_Pair``,
        and ``matched`` (which may come unsorted) is sorted only once a
        candidate is admitted.
        """
        if self._pass == 1:
            self._candidate_total += len(matched)
            if not self.sharded:
                # Offer only pairs that pass 1 could not have seen: the
                # edge's first occurrence lies after this list.  (Sharded:
                # pass 1 saw nothing, so offer everything.)
                seen = self._seen_p2
                matched = [edge for edge in matched if edge not in seen]
        draw = self._reservoir.draw
        ordered: Optional[List[Edge]] = None
        for i in range(len(matched)):
            slot = draw()
            if slot is not None:
                if ordered is None:
                    ordered = sorted(matched)
                self._place_pair(slot, ordered[i], vertex)
        return ordered is not None

    def _detect_scalar(self, vertex: Vertex, nset: Set[Vertex]) -> None:
        """Find triangles on sampled edges closed by the current list.

        Iterates the sampler's live membership mapping (same order as
        ``members()``, minus a per-list list copy); ``_collect_pair``
        never mutates the sampler, so iteration is safe.
        """
        matched = [
            edge for edge in self._sampler.membership()
            if edge[0] in nset and edge[1] in nset
        ]
        if matched:
            matched.sort()
            self._offer_matched(matched, vertex)

    def _detect_probe(self, vertex: Vertex, pairs: List[Edge]) -> None:
        """Candidate detection of a short list: look up each neighbour pair.

        ``pairs`` come in canonical sorted order, so the matches are
        already in the order ``_offer_matched`` requires.
        """
        membership = self._sampler.membership()
        matched = [edge for edge in pairs if edge in membership]
        if matched:
            self._offer_matched(matched, vertex)

    # -- sketch state protocol -------------------------------------------------

    def snapshot(self) -> SketchState:
        """Full live state: sampler, reservoir (with watchers), counters."""
        return SketchState(
            self.STATE_KIND,
            self.STATE_VERSION,
            {
                "sample_size": self.sample_size,
                "sharded": self.sharded,
                "rho_key": self._rho_hash.key,
                "pass": self._pass,
                "pair_count": self._pair_count,
                "candidate_total": self._candidate_total,
                "seen_p2": sorted(self._seen_p2, key=repr),
                "sampler": self._sampler.state_dict(),
                "reservoir": self._reservoir.state_dict(encode_item=_encode_pair),
            },
        )

    def restore(self, state: SketchState) -> None:
        """Rebuild live state (including watcher indexes) from a snapshot."""
        state.require(self.STATE_KIND, self.STATE_VERSION)
        payload = state.payload
        self.sample_size = int(payload["sample_size"])
        self.sharded = bool(payload["sharded"])
        self._rho_hash = MixHash64(key=int(payload["rho_key"]))
        self._pass = int(payload["pass"])
        self._pair_count = int(payload["pair_count"])
        self._candidate_total = int(payload["candidate_total"])
        self._seen_p2 = {_as_edge(e) for e in payload["seen_p2"]}
        self._sampler.load_state_dict(payload["sampler"])
        self._hcounts = store = _HCounts()
        self._reservoir.load_state_dict(
            payload["reservoir"], decode_item=lambda blob: _decode_pair(blob, store)
        )
        self._watchers_by_edge = {}
        self._watchers_by_apex = {}
        for pair in self._reservoir.items():
            for watcher in pair.watchers:
                self._watchers_by_edge.setdefault(watcher.edge, set()).add(watcher)
                self._watchers_by_apex.setdefault(watcher.x, set()).add(watcher)
        self._evictions = 0
        self._displaced = 0
        self._live_watchers = sum(
            len(pair.watchers) for pair in self._reservoir.items()
        )
        self._pairs_at = {}
        for pair in self._reservoir.items():
            self._pairs_at.setdefault(pair.edge, []).append(pair)
        self._mcols = vectorized.EndpointColumns()
        self._mcol_pos = 0
        self._wcols = vectorized.EndpointColumns(width=4)
        self._evict_buffer = None
        self._fresh = None
        self._member_index = None

    @classmethod
    def from_state(cls, state: SketchState) -> "TwoPassTriangleCounter":
        """Construct a counter directly from a snapshot."""
        state.require(cls.STATE_KIND, cls.STATE_VERSION)
        algorithm = cls(
            int(state.payload["sample_size"]),
            seed=0,
            sharded=bool(state.payload["sharded"]),
        )
        algorithm.restore(state)
        return algorithm

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

    def _rho_sharded(self, tri: Triangle) -> Edge:
        """Sharded ρ(τ): the triangle's min edge under the designator hash."""
        return min(triangle_edges(tri), key=lambda f: (self._rho_hash.hash_int(f), f))

    def counted_pairs(self) -> int:
        """``|{(e, τ) ∈ Q : ρ(τ) = e}|`` — pairs won by their own edge."""
        pairs = self._reservoir.items()
        if not self.sharded:
            return sum(1 for pair in pairs if pair.rho_edge() == pair.edge)
        if pairs and vectorized.columnar_enabled():
            counted = self._counted_sharded(pairs)
            if counted is not None:
                return counted
        return sum(1 for pair in pairs if self._rho_sharded(pair.triangle) == pair.edge)

    def _counted_sharded(self, pairs: List[_Pair]) -> Optional[int]:
        """Sharded :meth:`counted_pairs` with all ``3·|Q|`` triangle edges
        hashed in one kernel call; None when a label is outside the
        ``uint64`` rule.

        With each triangle's vertices sorted, its edges ``(a, b)``,
        ``(a, c)``, ``(b, c)`` come in canonical order, so ``argmin``'s
        first-minimum rule breaks hash ties by the edge, as
        :meth:`_rho_sharded` does.
        """
        labels = vectorized.as_vertex_array(
            [v for pair in pairs for v in (*pair.triangle, *pair.edge)]
        )
        if labels is None:
            return None
        rows = labels.reshape(-1, 5)
        a, b, c = np.sort(rows[:, :3], axis=1).T
        hashes = self._rho_hash.hash_int_array(
            vectorized.encode_pair_keys(np.concatenate((a, a, b)), np.concatenate((b, c, c)))
        )
        win = hashes.reshape(3, -1).argmin(axis=0)
        rho_u = np.where(win == 2, b, a)
        rho_v = np.where(win == 0, b, c)
        return int(np.count_nonzero((rho_u == rows[:, 3]) & (rho_v == rows[:, 4])))

    def result(self) -> float:
        """The triangle estimate ``T̂`` (valid after pass 2)."""
        q_size = len(self._reservoir)
        if q_size == 0 or self._candidate_total == 0:
            return 0.0
        subsample_scale = max(self._candidate_total / q_size, 1.0)
        return self.scale_factor * subsample_scale * self.counted_pairs()

    def current_estimate(self) -> float:
        """Anytime estimate: ``result()`` is well defined on partial state.

        Mid-pass-1 the reservoir is empty (estimate 0); during pass 2 the
        estimate converges to the final value as counted pairs resolve.
        """
        return self.result()

    def observables(self) -> Dict[str, float]:
        """Occupancy and churn gauges for the instrumented runner."""
        watcher_count = self._live_watchers
        return {
            "edge_sample_occupancy": len(self._sampler),
            "edge_sample_capacity": self.sample_size,
            "edge_sample_evictions": self._evictions,
            "edge_offers_total": self._sampler.offers,
            "edge_offers_accepted": self._sampler.accepted,
            "pair_reservoir_occupancy": len(self._reservoir),
            "pair_reservoir_offered": self._reservoir.offered,
            "pair_reservoir_displaced": self._displaced,
            "watchers_live": watcher_count,
            "seen_p2_edges": len(self._seen_p2),
        }

    def space_words(self) -> int:
        """Live state: sampler slots, reservoir pairs, watchers, flags."""
        # edge (2) + triangle (3) per pair + watchers (edge 2 + apex 1 +
        # flag 1 + counter 1 each); the live-watcher mirror makes this O(1)
        # so per-list space polling stays off the hot path.
        pair_words = 5 * len(self._reservoir) + 5 * self._live_watchers
        return (
            self._sampler.space_words()
            + pair_words
            + len(self._seen_p2)
            + 4  # m counter, T' counter, pass index, k
        )


def recommended_sample_size(
    m: int, triangle_count: int, epsilon: float = 0.5, constant: float = 4.0
) -> int:
    """Return ``m' = c · m / (ε² T^{2/3})`` (at least 1), per Theorem 3.7.

    ``triangle_count`` may be a lower bound on the true count; the space
    bound degrades gracefully when it is an underestimate (larger sample)
    and the accuracy guarantee is lost only when it overestimates.
    """
    if m < 0 or triangle_count < 0:
        raise ValueError("m and triangle_count must be non-negative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if triangle_count == 0:
        return max(m, 1)
    size = constant * m / (epsilon**2 * triangle_count ** (2.0 / 3.0))
    return max(1, int(round(size)))
