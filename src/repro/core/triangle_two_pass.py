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
"""

from __future__ import annotations

import itertools
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


@dataclass(eq=False, slots=True)
class _Watcher:
    """H-counter for one (collected pair, triangle edge) combination."""

    edge: Edge  # the watched edge f
    x: Vertex  # apex of the pair's triangle opposite f
    x_arrived: bool = False
    h: int = 0


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
        h, edge = first.h, first.edge
        for watcher in self.watchers:
            if watcher.h < h or (watcher.h == h and watcher.edge < edge):
                h, edge = watcher.h, watcher.edge
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


def _decode_pair(blob: Dict[str, Any]) -> "_Pair":
    """Invert :func:`_encode_pair`."""
    pair = _Pair(edge=_as_edge(blob["edge"]), triangle=tuple(blob["triangle"]))
    for edge, x, arrived, h in blob["watchers"]:
        pair.watchers.append(
            _Watcher(edge=_as_edge(edge), x=x, x_arrived=bool(arrived), h=int(h))
        )
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
        # Columnar views for the vectorized per-list scans; derived state
        # only, rebuilt (not serialised) across snapshot/restore.  Both
        # are supersets: member columns hold every key admitted since the
        # last build (payload: the key; hits resolve through the live
        # membership, so since-evicted keys miss), watcher columns every
        # bucket created since (payload: the bucket object, which empties
        # in place when dropped and then scans as a no-op).
        self._mcols = vectorized.EndpointColumns()
        self._mcol_pos = 0  # admission-log cursor: columns cover log[:pos]
        self._wcols = vectorized.EndpointColumns()
        # Reusable membership table for the columnar per-list scans.
        self._vtable = vectorized.VertexTable()
        # Eviction batching for list-level offers: while a buffer list is
        # installed, _edge_evicted defers the pairs it drops into it and
        # the offering hook removes them in one combined scan per list.
        self._evict_buffer: Optional[List[_Pair]] = None

    # -- sampler bookkeeping --------------------------------------------------

    def _edge_evicted(self, edge: Edge) -> None:
        """Drop reservoir pairs whose first-pass edge left the sample."""
        self._evictions += 1
        self._mcols.dead += 1
        # The per-edge pair index makes the common case — the evicted edge
        # has no collected pairs — O(1) instead of a reservoir scan.
        # Skipping the scan is state-identical: discarding with no matching
        # pairs touches neither the reservoir contents nor its RNG.
        doomed = self._pairs_at.pop(edge, None)
        if doomed is None:
            return
        buffer = self._evict_buffer
        if buffer is not None:
            # Batched offers flush all of a list's evictions in one scan
            # (see process_list); discards never touch the reservoir RNG
            # and sequential per-edge removals keep survivor order, so one
            # combined scan leaves bit-identical reservoir state.
            buffer.extend(doomed)
            return
        self._drop_pairs(doomed)

    def _flush_evictions(self) -> None:
        """Drop the pairs buffered by ``_edge_evicted``."""
        buffer = self._evict_buffer
        if buffer:
            doomed = buffer[:]
            del buffer[:]
            self._drop_pairs(doomed)

    def _drop_pairs(self, doomed: List[_Pair]) -> None:
        """Remove ``doomed`` from the reservoir in one scan, keeping the
        survivors' order, and unregister their watchers in reservoir order.
        Pairs compare by identity, so the scan tests membership directly."""
        for pair in self._reservoir.discard_items(set(doomed), len(doomed)):
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
        by_edge = self._watchers_by_edge
        # triangle_key sorts, so (a, b), (a, c), (b, c) are already the
        # canonical edges and the leftover vertex is each edge's apex —
        # same (f, x) sequence as triangle_edges + apex, without the calls.
        a, b, c = pair.triangle
        for f, x in (((a, b), c), ((a, c), b), ((b, c), a)):
            watcher = _Watcher(edge=f, x=x, x_arrived=(x == current_list))
            pair.watchers.append(watcher)
            bucket = by_edge.get(f)
            if bucket is None:
                bucket = set()
                by_edge[f] = bucket
                # Built columns queue every new bucket object exactly
                # once.  They may still hold an older (since emptied)
                # bucket for the same edge, which scans as a no-op, so no
                # edge is ever double-counted.
                self._wcols.queue(f, bucket)
            bucket.add(watcher)
            self._watchers_by_apex.setdefault(x, set()).add(watcher)
        self._live_watchers += len(pair.watchers)

    def _unregister_watchers(self, pair: _Pair) -> None:
        self._live_watchers -= len(pair.watchers)
        for watcher in pair.watchers:
            bucket = self._watchers_by_edge.get(watcher.edge)
            if bucket is not None:
                bucket.discard(watcher)
                if not bucket:
                    del self._watchers_by_edge[watcher.edge]
                    self._wcols.dead += 1
            bucket = self._watchers_by_apex.get(watcher.x)
            if bucket is not None:
                bucket.discard(watcher)
                if not bucket:
                    del self._watchers_by_apex[watcher.x]
        pair.watchers.clear()

    def _collect_pair(self, edge: Edge, tri: Triangle, current_list: Optional[Vertex]) -> None:
        """Offer a candidate pair to the reservoir, maintaining indexes.

        Only an admitted pair gets watchers, installed after the displaced
        pair's are removed: a rejected candidate touches no bucket.  The
        reservoir's choice never looks at the pair, and watcher increments
        commute, so the order changes no ``h``.
        """
        pair = _Pair(edge=edge, triangle=tri)
        admitted, displaced = self._reservoir.offer_detailed(pair)
        if displaced is not None:
            self._displaced += 1
            self._unregister_watchers(displaced)
            pairs = self._pairs_at.get(displaced.edge)
            if pairs is not None:
                pairs.remove(displaced)
                if not pairs:
                    del self._pairs_at[displaced.edge]
        if admitted:
            self._pairs_at.setdefault(edge, []).append(pair)
            # Sharded mode never installs watchers: ρ is hash-designated there.
            if self._pass == 1 and not self.sharded:
                self._register_watchers(pair, current_list)

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
            # Batch this list's eviction scans: each evicted edge with
            # collected pairs costs a reservoir scan, and a list-level
            # offer batch can evict several — one combined scan at the end
            # of the batch removes the same pairs in the same order.
            self._evict_buffer = []
            try:
                self._offer_pairs(source, neighbors)
            finally:
                self._flush_evictions()
                self._evict_buffer = None
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

        Each list gets the per-list hooks' work in their order.  Pass 1
        hashes every pair of the run in one batch
        (:class:`~repro.util.vectorized.RunOffers`, over the long run's
        ``columns``), then per list offers its pairs, flushes the
        evictions and detects; where :meth:`RunOffers.of
        <repro.util.vectorized.RunOffers.of>` returns None the run offers
        through the scalar ``offer_many`` instead.  A short list probes
        its neighbour pairs (:meth:`_end_list_short`), a long one is
        scanned on one :class:`~repro.util.vectorized.ListMask`
        (:meth:`_end_list_col`).  In pass 2 each list marks its arrived
        watchers, then is scanned the same way, except that the sharded
        discipline, whose sample no longer changes, detects a long run
        against one :class:`~repro.util.vectorized.RunMask`.
        """
        space_words = self.space_words
        readings: List[int] = []
        if self._pass == 0:
            offers = vectorized.RunOffers.of(self._sampler, run, columns)
            if offers is not None and columns is not None and self.sharded:
                # Nothing is collected before pass 2 in this discipline,
                # so an eviction drops no pair and only the sample moves.
                self._pair_count += offers.pairs
                return offers.offer_all(space_words() - self._sampler.space_words())
            end_short = self._end_list_short
            self._evict_buffer = []
            try:
                for index, (vertex, neighbors) in enumerate(run):
                    if offers is None:
                        self._offer_pairs(vertex, neighbors)
                    else:
                        self._pair_count += len(neighbors)
                        offers.offer(index)
                    if self._evict_buffer:
                        self._flush_evictions()
                    if columns is None:
                        end_short(vertex, neighbors)
                    elif not self.sharded:
                        self._end_list_col(vertex, neighbors, columns[index])
                    readings.append(space_words())
            finally:
                self._flush_evictions()
                self._evict_buffer = None
            return readings
        if columns is not None and self.sharded:
            return self._detect_run(run, columns)
        by_apex, end_short = self._watchers_by_apex, self._end_list_short
        for index, (vertex, neighbors) in enumerate(run):
            for watcher in by_apex.get(vertex, ()):
                watcher.x_arrived = True
            if columns is not None:
                self._end_list_col(vertex, neighbors, columns[index])
            else:
                if not self.sharded:
                    self._seen_scan_scalar(vertex, neighbors)
                end_short(vertex, neighbors)
            readings.append(space_words())
        return readings

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

    def _end_list_col(
        self, vertex: Vertex, neighbors: Sequence[Vertex], nbrs: np.ndarray
    ) -> None:
        """``end_list`` of a long list with ``uint64`` column ``nbrs``, on
        one :class:`~repro.util.vectorized.ListMask`.

        In the conventional second pass it first does ``process_list``'s
        seen-edge scan, fused with detection: which sampled edges appear
        in this list shares the list mask and the endpoint lookups with
        candidate detection.  Membership is frozen in pass 2 and the
        member columns were rebuilt at the pass boundary, so they are
        exact.  Columns a non-``uint64`` label turned off send the list
        to the scalar hooks.
        """
        scan = self._pass == 1 and not self.sharded
        # Bring the views up to date *before* building the list mask,
        # which must cover every id they hold.
        mcols = self._member_columns()
        wcols = self._watcher_columns() if scan else None
        src64 = vectorized.as_vertex_scalar(vertex) if scan else None
        if mcols is None or (scan and (wcols is None or src64 is None)):
            if scan:
                self._seen_scan_scalar(vertex, neighbors)
            self.end_list(vertex, neighbors)
            return
        query_max = mcols[3] if wcols is None else max(mcols[3], wcols[3])
        with vectorized.ListMask(self._vtable, nbrs, query_max) as mask:
            hit: Optional[np.ndarray] = None
            if scan and mcols[2]:
                hit = self._seen_scan_col(src64, mcols, mask)
            if wcols is not None:
                self._count_h_col(vertex, wcols, mask)
            self._detect_col(vertex, mcols, mask, hit)

    def _detect_run(
        self, run: List[Tuple[Vertex, Sequence[Vertex]]], columns: list
    ) -> List[int]:
        """Sharded pass-2 detection of a long run, in stream order.

        The sample is frozen in pass 2, so one table over the run's lists
        finds the same matches as ``end_list`` per list; each list's
        matches are then offered in canonical order before the next
        list's.  A run whose table would pass the cap is scanned list by
        list.
        """
        space_words = self.space_words
        mcols = self._member_columns()
        mask = vectorized.RunMask.of(columns, mcols[3]) if mcols is not None else None
        readings: List[int] = []
        if mask is None:
            for (vertex, neighbors), column in zip(run, columns):
                self._end_list_col(vertex, neighbors, column)
                readings.append(space_words())
            return readings
        mu, mv, keys, _ = mcols
        membership = self._sampler.membership()
        for (vertex, _), found in zip(run, mask.by_row(mask.both(mu, mv))):
            if found:
                matched = {keys[i] for i in found if keys[i] in membership}
                if matched:
                    self._offer_matched(sorted(matched), vertex)
            readings.append(space_words())
        return readings

    # -- columnar per-list views ----------------------------------------------

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

    def _watcher_columns(self) -> Optional[tuple]:
        """Superset columns over the watched edges, payload the bucket."""
        cols = self._wcols
        if cols.stale():
            by_edge = self._watchers_by_edge
            cols.build(by_edge, by_edge.values())
        return cols.view()

    def _seen_scan_scalar(self, src: Vertex, neighbors: Sequence[Vertex]) -> None:
        """Mark sampled edges appearing in this list (pass 2's ``process_list``)."""
        members = self._sampler.membership()
        seen = self._seen_p2
        for nbr in neighbors:
            edge = (src, nbr) if src <= nbr else (nbr, src)
            if edge in members and edge not in seen:
                seen.add(edge)

    def _seen_scan_col(
        self, src64: int, mcols: tuple, mask: vectorized.ListMask
    ) -> np.ndarray:
        """Fused pass-2 scan: update seen edges, return the detect mask.

        A sampled edge has appeared in this list iff one endpoint is the
        source and the other is a neighbour; the same per-endpoint masks
        give candidate detection's both-endpoints mask for free, so the
        caller passes the returned mask straight to ``_detect_col``.
        """
        mu, mv, keys, _ = mcols
        lu = mask.member(mu)
        lv = mask.member(mv)
        incident = ((mu == src64) & lv) | ((mv == src64) & lu)
        self._seen_p2.update(keys[i] for i in incident.nonzero()[0].tolist())
        return lu & lv

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

    def _count_h_col(
        self, vertex: Vertex, wcols: tuple, mask: vectorized.ListMask
    ) -> None:
        """Columnar watcher scan, identical increments to the scalar scan.

        The built buckets are a superset of the live watched edges
        (dropped buckets are empty and scan as no-ops; newly created
        buckets were queued and appended), so the set of incremented
        watchers — and hence every ``h`` — matches the scalar scan.
        """
        f0, f1, buckets, _ = wcols
        if not buckets:
            return
        for i in mask.both(f0, f1).nonzero()[0].tolist():
            for watcher in buckets[i]:
                if vertex != watcher.x and watcher.x_arrived:
                    watcher.h += 1

    def _offer_matched(self, matched: List[Edge], vertex: Vertex) -> None:
        """Offer detected candidate pairs, in canonical (sorted) order.

        The order matters: the membership dict's iteration order encodes
        insertion history, which a snapshot/restore cycle does not
        preserve, and the reservoir's RNG consumption must not depend on
        it for resumed runs to be bit-identical to uninterrupted ones.
        """
        in_pass_two = self._pass == 1
        for edge in matched:
            u, v = edge
            # Inline triangle_key: the edge is canonical (u < v), so only
            # the closing vertex needs placing.
            if vertex < u:
                tri = (vertex, u, v)
            elif vertex < v:
                tri = (u, vertex, v)
            else:
                tri = (u, v, vertex)
            if not in_pass_two:
                self._collect_pair(edge, tri, current_list=vertex)
            else:
                self._candidate_total += 1
                # Offer only pairs that pass 1 could not have seen:
                # the edge's first occurrence lies after this list.
                # (Sharded: pass 1 saw nothing, so offer everything.)
                if self.sharded or edge not in self._seen_p2:
                    self._collect_pair(edge, tri, current_list=vertex)

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

    def _detect_col(
        self,
        vertex: Vertex,
        mcols: tuple,
        mask: vectorized.ListMask,
        hit: Optional[np.ndarray] = None,
    ) -> None:
        """Columnar candidate detection; same matches as the scalar scan.

        Hits are filtered against the live membership (stale,
        since-evicted entries miss).  A re-admitted key appears twice in
        the superset columns, so matches accumulate in a set before the
        canonical sort.  ``hit``, when the fused pass-2 scan already
        computed the both-endpoints mask, skips recomputing it.
        """
        mu, mv, keys, _ = mcols
        if not keys:
            return
        if hit is None:
            hit = mask.both(mu, mv)
        indices = hit.nonzero()[0]
        if not len(indices):
            return
        membership = self._sampler.membership()
        matched = {keys[i] for i in indices.tolist() if keys[i] in membership}
        if matched:
            self._offer_matched(sorted(matched), vertex)

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
        self._reservoir.load_state_dict(payload["reservoir"], decode_item=_decode_pair)
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
        self._wcols = vectorized.EndpointColumns()
        self._vtable = vectorized.VertexTable()
        self._evict_buffer = None

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
