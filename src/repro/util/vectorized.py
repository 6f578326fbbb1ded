"""Columnar (numpy-vectorized) kernels for the streaming hot path.

The paper's samplers are *hash-priority* based: every edge carries a fixed
pseudorandom priority shared across passes, and all sampling decisions are
comparisons against that priority.  That structure vectorizes directly —
hash a whole adjacency list's edges at once, compare against the current
bottom-k threshold with one vectorized comparison, and let only the few
surviving candidates touch Python-level data structures.

This module holds the kernels; they are drop-in, **bit-identical**
replacements for the scalar implementations in :mod:`repro.util.hashing`:

* :func:`encode_pair_keys` — vectorized ``_to_int_key((u, v))`` for edge
  tuples of non-negative ints (the samplers' canonical edge keys).
* :func:`splitmix64_array` / :func:`mixhash_int_array` — vectorized
  ``_splitmix64`` / :meth:`MixHash64.hash_int` over encoded key arrays.

On top of them sits the two-pass counters' columnar layer, all of it
reached through their ``process_run`` hook: :class:`EndpointColumns`
(sample edges as growable ``uint64`` endpoint columns),
:class:`RunOffers`, the first-pass offers of a whole run of lists hashed
in one batch, and :class:`RunMask`, every list of a run tested against
such columns while they stay fixed.  :class:`RunOffers` only hashes and
filters: its offers go through the sampler's ``offer_many`` and
``offer_array``, so the sampler keeps the one admission path and the
one tally of offers.

Bit-identity is pinned by hypothesis property tests
(``tests/util/test_vectorized.py``); the counters' per-list hooks remain
the scalar oracle, and the route for exotic vertex labels (see
:func:`as_vertex_array`).

The runner hands stretches of consecutive lists of one length class to
the counters' ``process_run`` hook: runs of lists all shorter than
:data:`SHORT_LIST` neighbours, or all at least that long, each of at
most about :data:`RUN_PAIRS` pairs (see :mod:`repro.streaming.runner`).
The runner's pass cursor hands a long run each list's ``uint64``
column, from the stream's memo where there is one, and pushes a long
list without one through the per-list hooks.  The hook hashes a run's
first-pass pairs with one kernel call (:class:`RunOffers`; a long run
concatenates its columns) and returns the run's space readings at
once.  The kernels' fixed per-call cost outweighs their gain on short
lists, so a short list takes the short-list route inside the hook: a
short run of fewer than :data:`SHORT_LIST` pairs, or with labels
outside the ``uint64`` rule, offers its edges through the scalar
sampler loop (:meth:`RunOffers.of` returns None), and every short list
probes its d(d-1)/2 canonical neighbour pairs against hash indexes
(sampler membership, watched edges, the wedge set's endpoint pairs)
instead of scanning the sample.  A long run is tested against the
sample with one :class:`RunMask`: in pass 2, where the sample is
frozen, by every two-pass counter, and in pass 1 by the conventional
triangle counter, which offers the run first and then knows each key's
membership per list.  The table takes any ``uint64`` labels: past a
cell cap it is indexed by each id's rank among the run's ids.  A long run
that cannot take it goes through the per-list hooks: one whose sources
or sample hold a label with no ``uint64`` value, or, in the conventional
triangle counter's second pass, one that holds a source twice.

The module-level switch :func:`set_columnar_enabled` /
:func:`scalar_oracle` lets tests and benchmarks force every consumer back
onto the scalar path, which is how columnar-vs-scalar equivalence and
throughput are measured end to end: under the oracle the runner takes no
runs, so the counters keep their per-list O(k) scans for every list and
the probes are checked against them, not against themselves.
"""

from __future__ import annotations

import bisect
import contextlib
from typing import (
    Any,
    Collection,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

__all__ = [
    "as_vertex_array",
    "canonical_pair_columns",
    "ColumnMemo",
    "columnar_enabled",
    "encode_pair_keys",
    "EndpointColumns",
    "mixhash_int_array",
    "RUN_PAIRS",
    "RunMask",
    "RunOffers",
    "scalar_oracle",
    "set_columnar_enabled",
    "SHORT_LIST",
    "splitmix64_array",
]

_MASK64 = (1 << 64) - 1

# Constants mirrored from repro.util.hashing (kept as np.uint64 scalars so
# the per-list kernels never pay a Python-int -> numpy conversion).
_FNV_PRIME = np.uint64(0x100000001B3)
#: ``_to_int_key`` tuple accumulator after the first multiply:
#: ``(0x243F6A8885A308D3 * 0x100000001B3) & MASK64``.
_TUPLE_ACC1 = np.uint64((0x243F6A8885A308D3 * 0x100000001B3) & _MASK64)
_SM_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SM_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MUL2 = np.uint64(0x94D049BB133111EB)
_SM_S1 = np.uint64(30)
_SM_S2 = np.uint64(27)
_SM_S3 = np.uint64(31)

# -- global columnar switch ----------------------------------------------------

_COLUMNAR_ENABLED = True


def columnar_enabled() -> bool:
    """Whether consumers should use the columnar kernels (default True)."""
    return _COLUMNAR_ENABLED


def set_columnar_enabled(enabled: bool) -> bool:
    """Toggle the columnar fast path globally; returns the previous value.

    The scalar implementations are always available and bit-identical, so
    flipping this mid-run only changes speed, never results.
    """
    global _COLUMNAR_ENABLED
    previous = _COLUMNAR_ENABLED
    _COLUMNAR_ENABLED = bool(enabled)
    return previous


@contextlib.contextmanager
def scalar_oracle() -> Iterator[None]:
    """Context manager forcing every consumer onto the scalar oracle path.

    Used by the equivalence tests and the columnar-vs-scalar throughput
    benchmark: run once inside this context, once outside, and require
    bit-identical estimates, sampler state and space trajectories.
    """
    previous = set_columnar_enabled(False)
    try:
        yield
    finally:
        set_columnar_enabled(previous)


#: Crossover list length of the two-pass counters' short-list route (see
#: the module docstring): below it the kernels' fixed numpy set-up, about
#: 10 µs per call, outweighs their gain.  Measured, not derived — see
#: docs/PERFORMANCE.md.
SHORT_LIST = 14

#: Pair cap of one run: the runner hands stretches of consecutive short
#: lists to an algorithm's ``process_run`` hook, and ends a run once it
#: holds this many pairs, so a run's temporary key and priority columns
#: stay bounded however long the stream is.  Measured, not derived — see
#: docs/PERFORMANCE.md.
RUN_PAIRS = 2048


# -- input adaptation ----------------------------------------------------------

_INT_ONLY = frozenset((int,))


def _uint64_column(labels: Sequence[Any]) -> Optional[np.ndarray]:
    """``labels`` as a ``uint64`` column, or None unless every label is an
    ``int`` in ``[0, 2^64)``.

    The one label rule of every columnar route.  The kernels are exact
    only for such labels (the universal case for generated graphs): a
    float would be truncated, and a bool or other ``int`` subclass need
    not convert to what the scalar hash sees, so any of them sends the
    caller down its scalar route.
    """
    if not set(map(type, labels)) <= _INT_ONLY:
        return None
    try:
        return np.array(labels, dtype=np.uint64)
    except OverflowError:
        return None


def as_vertex_array(vertices: Sequence) -> Optional[np.ndarray]:
    """Convert a neighbour list to a ``uint64`` array, or None to fall back.

    None for an empty list and for any list holding a label outside the
    rule of :func:`_uint64_column` — structured tuples from the
    lower-bound gadgets, strings, floats, bools, negative or huge ints —
    and the caller uses the scalar path.
    """
    if not vertices:
        return None
    return _uint64_column(vertices)


class ColumnMemo:
    """Identity-keyed memo of per-list vertex-id columns.

    The memo behind ``AdjacencyListStream.columns_for``, also used
    directly where adjacency lists are held without a stream object —
    shard workers in the sharded driver keep one per shard, so a multi-pass
    algorithm converts each list to a ``uint64`` column once and reuses
    it across passes.  ``neighbors`` is identity-checked against the
    cached entry (the shard's lists are fixed tuples replayed verbatim
    each pass), so a different object for the same vertex misses and
    re-converts.  Results are bit-identical to a direct
    :func:`as_vertex_array` call; this is purely an acceleration channel.
    """

    __slots__ = ("_cache",)

    def __init__(self) -> None:
        self._cache: dict = {}

    def __call__(self, vertex: object, neighbors: Sequence) -> Optional[np.ndarray]:
        entry = self._cache.get(vertex)
        if entry is None or entry[0] is not neighbors:
            entry = (neighbors, as_vertex_array(neighbors))
            self._cache[vertex] = entry
        return entry[1]


def canonical_pair_columns(
    source: np.uint64, neighbors: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Columnar ``canonical_edge(source, nbr)``: (min, max) endpoint arrays."""
    return np.minimum(neighbors, source), np.maximum(neighbors, source)


# -- the counters' columnar layer ----------------------------------------------

class EndpointColumns:
    """Growable ``uint64`` columns over fixed-width label tuples (edges by
    default), one payload each.

    :meth:`build` lays a full tuple set out with slack capacity, and
    :meth:`extend` (or :meth:`queue` plus the next :meth:`view`) appends
    later tuples in place, so a set that grows a little per list costs a
    few buffer writes, not a rebuild.  Entries are never removed: callers
    skip stale hits and count them in ``dead``, and :meth:`stale` asks
    for a rebuild once more than half are dead.  The first label outside
    the rule of :func:`_uint64_column` turns the columns off until the
    object is replaced: :meth:`view` returns None and the caller takes
    its scalar path.
    """

    __slots__ = ("payloads", "pending", "dead", "width", "_version", "_cols", "_view", "_on")

    def __init__(self, width: int = 2) -> None:
        self.payloads: Optional[List[Any]] = None  # None: unbuilt or off
        self.pending: List[Tuple[Any, Any]] = []  # (labels, payload) to append
        self.dead = 0
        self.width = width
        self._version: object = None
        self._cols = np.empty((width, 0), dtype=np.uint64)
        self._view: Optional[Tuple[Any, ...]] = None
        self._on = True

    def stale(self, version: object = None) -> bool:
        """Whether the next view needs a :meth:`build`: unbuilt, built
        from another ``version`` of the tuple set, or over half dead."""
        payloads = self.payloads
        return self._on and (
            payloads is None
            or version != self._version
            or 2 * self.dead > len(payloads)
        )

    def build(
        self, rows: Collection[Any], payloads: Iterable[Any], version: object = None
    ) -> None:
        """Lay out ``rows`` (``width``-tuples of labels) with ``payloads``
        afresh."""
        if not self._on:
            return
        count = len(rows)
        ends = _uint64_column([label for row in rows for label in row])
        if ends is None:
            self._turn_off()
            return
        cols = np.empty((self.width, 2 * count + 64), dtype=np.uint64)
        cols[:, :count] = ends.reshape(count, self.width).T
        self.payloads = list(payloads)
        self.pending = []
        self.dead = 0
        self._version = version
        self._cols = cols
        qmax = int(ends.max()) if count else -1
        self._view = (*cols[:, :count], self.payloads, qmax)

    def extend(self, items: Iterable[Tuple[Any, Any]]) -> None:
        """Append ``(labels, payload)`` items to the built columns."""
        payloads = self.payloads
        if payloads is None:
            return
        items = list(items)
        if not items:
            return
        ends = _uint64_column([label for row, _ in items for label in row])
        if ends is None:
            self._turn_off()
            return
        self.extend_columns(ends.reshape(len(items), self.width).T, [p for _, p in items])

    def extend_columns(self, columns: Any, payloads: List[Any]) -> None:
        """Append entries given as ``uint64`` columns, one per tuple
        position (a ``(width, k)`` array or ``width`` arrays), with their
        ``payloads``, to the built columns."""
        held = self.payloads
        if held is None or not payloads:
            return
        cols = self._cols
        n, k = len(held), len(payloads)
        if n + k > cols.shape[1]:
            grown = np.empty((self.width, 2 * (n + k) + 64), dtype=np.uint64)
            grown[:, :n] = cols[:, :n]
            cols = grown
        block = cols[:, n : n + k]
        block[...] = columns
        held.extend(payloads)
        assert self._view is not None
        qmax = max(self._view[-1], int(block.max()))
        self._cols = cols
        self._view = (*cols[:, : n + k], held, qmax)

    def queue(self, row: Any, payload: Any) -> None:
        """Queue one item for the next :meth:`view` (built columns only).

        Past ``len(payloads) + 64`` queued items the columns drop
        themselves instead, so a caller that rarely views holds a bounded
        queue and rebuilds from scratch.
        """
        payloads = self.payloads
        if payloads is None:
            return
        self.pending.append((row, payload))
        if len(self.pending) > len(payloads) + 64:
            self.drop()

    def drop(self) -> None:
        """Forget the built columns; the next view needs a :meth:`build`."""
        self.payloads = None
        self.pending = []
        self._view = None

    def view(self) -> Optional[Tuple[Any, ...]]:
        """``(column, ..., payloads, qmax)`` after appending the queue, one
        column per tuple position, or None when the columns are off;
        ``qmax`` is the largest label."""
        if self.pending:
            pending, self.pending = self.pending, []
            self.extend(pending)
        return self._view

    def _turn_off(self) -> None:
        self.drop()
        self._on = False


class RunOffers:
    """The first-pass offers of a run of lists, hashed in one batch.

    :meth:`of` hashes the canonical pairs of every ``(vertex,
    neighbors)`` list of the run, in stream order, with one
    :func:`encode_pair_keys` + ``priority_array`` call, or returns None
    (a run without columns of fewer than :data:`SHORT_LIST` pairs, or a
    label with no ``uint64`` value) before anything is mutated.
    :meth:`offer` then offers one list's pairs through the sampler's
    ``offer_many`` with the hashes hoisted, :meth:`offer_rest` every
    remaining list in one ``offer_array`` call, and :meth:`offer_all`
    the whole run, switching from the first to the second once the
    sample is full.  Given an ``admitted`` list, :meth:`offer` and
    :meth:`offer_rest` (on a full sample, its survivors through one
    ``offer_many``) note the pair index and key of every admission, for
    a caller that needs each list's admissions and evictions without
    offering list by list (:meth:`lists_of` dates them, and ``ends``
    holds the pairs' canonical ``(min, max)`` endpoint columns).  Lists
    must be offered in order, each once.  Keys
    are built from the run's own labels, as the per-list hooks build
    them (only the hashing reads the columns).  The sampler, its
    eviction callbacks and its offer tallies end exactly as per-key
    ``offer`` calls would leave them: once the sample is full its
    threshold only tightens, so a pair above the threshold at that
    moment is rejected wherever it sits, and :meth:`offer` counts it as
    rejected without a lookup (the argument of ``offer_array``).
    """

    __slots__ = (
        "pairs", "flat", "ends", "_counts", "_lists",
        "_sampler", "_labels", "_priorities", "_survivors", "_next",
    )

    def __init__(
        self,
        sampler: Any,
        labels: "_RunPairs",
        priorities: np.ndarray,
        flat: np.ndarray,
        ends: Tuple[np.ndarray, np.ndarray],
        counts: List[int],
    ) -> None:
        self.pairs = len(priorities)  # the run's pair count
        self.flat = flat  # the neighbours' uint64 column, list after list
        self.ends = ends
        self._counts = counts  # each list's pair count
        self._lists: Optional[np.ndarray] = None
        self._sampler = sampler
        self._labels = labels
        self._priorities = priorities
        # Indices of the pairs at or below the threshold the sample had
        # when first seen full, plus a sentinel; None until then.
        self._survivors: Optional[List[int]] = None
        self._next = 0

    @classmethod
    def of(
        cls,
        sampler: Any,
        run: Sequence[Tuple[Any, Sequence[Any]]],
        columns: Optional[Sequence[np.ndarray]] = None,
    ) -> Optional["RunOffers"]:
        """Hash every pair of ``run`` for ``sampler``, or return None.

        ``columns``, when given, holds each list's ``uint64`` column (a
        long run's, looked up by the pass cursor), so the neighbours are
        concatenated instead of converted again.  None, and the caller
        offers through the scalar loop, for a run without columns that
        holds fewer than :data:`SHORT_LIST` pairs (the kernels' set-up
        would outweigh their gain) and for a label with no ``uint64``
        value.
        """
        if columns is None and sum(len(n) for _, n in run) < SHORT_LIST:
            return None
        labels = _RunPairs(run)
        sources = _uint64_column(labels.sources)
        if sources is None:
            return None
        if columns is None:
            nbrs = _uint64_column(labels.flat)
            if nbrs is None:
                return None
        else:
            nbrs = np.concatenate(columns)
        counts = [len(neighbors) for _, neighbors in run]
        u, v = canonical_pair_columns(np.repeat(sources, counts), nbrs)
        priorities = sampler.priority_array(encode_pair_keys(u, v))
        return cls(sampler, labels, priorities, nbrs, (u, v), counts)

    def lists(self) -> np.ndarray:
        """Each pair's list in the run, as ``intp``."""
        if self._lists is None:
            self._lists = np.repeat(np.arange(len(self._counts)), self._counts)
        return self._lists

    def lists_of(self, pairs: np.ndarray) -> np.ndarray:
        """The list of the run each of the pair indices ``pairs`` lies in."""
        return self.lists().take(pairs)

    def offer(self, index: int, admitted: Optional[List[Tuple[int, Any]]] = None) -> None:
        """Offer list ``index``'s pairs in order; ``admitted``, when given,
        receives ``(pair, key)`` for every key the sampler admits."""
        sampler = self._sampler
        labels = self._labels
        start, end = labels.bounds(index)
        survivors = self._survivors
        if survivors is not None and survivors[self._next] >= end:
            sampler.reject(end - start)  # the common case once the sample is full
            return
        if survivors is None and len(sampler) < sampler.capacity:
            picked: Sequence[int] = range(start, end)
        elif not sampler.capacity:
            sampler.reject(end - start)
            return
        else:
            picked = self._survivors_in(start, end)
            sampler.reject(end - start - len(picked))
        source, flat = labels.sources[index], labels.flat
        keys = [
            (source, flat[j]) if source <= flat[j] else (flat[j], source) for j in picked
        ]
        priorities = self._priorities
        if admitted is None:
            sampler.offer_many(keys, [int(priorities[j]) for j in picked])
            return
        positions: List[int] = []
        sampler.offer_many(keys, [int(priorities[j]) for j in picked], positions)
        admitted.extend([(picked[i], keys[i]) for i in positions])

    def _survivors_in(self, start: int, end: int) -> List[int]:
        """The pairs in ``[start, end)`` not above the full sample's threshold."""
        survivors = self._survivors
        if survivors is None:
            below = self._priorities[start:] <= np.uint64(self._sampler.threshold())
            survivors = (np.flatnonzero(below) + start).tolist()
            survivors.append(self.pairs)
            self._survivors = survivors
        first = pos = self._next
        while survivors[pos] < end:
            pos += 1
        self._next = pos
        return survivors[first:pos]

    def offer_all(self, rest: int) -> List[int]:
        """Offer every list in order; return the reading
        ``sampler.space_words() + rest`` after each list.

        For callers whose other state does not move during the offers.
        While the sample fills each list is offered on its own, so each
        reading is exact; once it is full the remaining lists go in one
        :meth:`offer_rest` call, and every later reading is the same.
        """
        sampler = self._sampler
        count = len(self._labels.ends)
        readings: List[int] = []
        for index in range(count):
            if len(sampler) >= sampler.capacity:
                self.offer_rest(index)
                readings.extend([sampler.space_words() + rest] * (count - index))
                break
            self.offer(index)
            readings.append(sampler.space_words() + rest)
        return readings

    def offer_rest(
        self, index: int, admitted: Optional[List[Tuple[int, Any]]] = None
    ) -> None:
        """Offer lists ``index`` onward in one batch.  ``admitted``, when
        given, receives ``(pair, key)`` for every key the sampler admits,
        in order; the sample must then be full."""
        labels, sampler = self._labels, self._sampler
        start = labels.bounds(index)[0]
        if admitted is None:
            sampler.offer_array(self._priorities[start:], _Offset(labels, start))
            return
        if not sampler.capacity:
            sampler.reject(self.pairs - start)
            return
        picked = self._survivors_in(start, self.pairs)
        sampler.reject(self.pairs - start - len(picked))
        keys = [labels[j] for j in picked]
        positions: List[int] = []
        sampler.offer_many(keys, self._priorities[picked].tolist(), positions)
        admitted.extend([(picked[i], keys[i]) for i in positions])


class RunMask:
    """Every list of a run marked in one 2-D boolean table.

    For a run of lists tested against endpoint columns that do not change
    during the run: cell ``(index(id), row)`` is set iff list ``row``
    holds vertex ``id``, so one gather per endpoint column answers every
    list at once.  A *direct* table, within ``cap`` cells, is indexed by
    the id itself, and every query id must be at most the ``query_max``
    it was built for.  Past the cap a *ranked* table is indexed by each
    id's rank among the run's ids (and any ``ids`` asked for), and every
    other id reads one all-False last row, so any ``uint64`` label fits.

    Each table row of cells is padded to a multiple of 8 bytes, so
    :meth:`hits` can tell which entries any list holds by reading the
    cells as ``uint64`` words, and hands back only those entries' rows:
    a caller whose columns mostly miss pays for the few that hit.
    """

    __slots__ = ("rows", "size", "_table", "_ids")

    def __init__(
        self, table: np.ndarray, rows: int, ids: Optional[np.ndarray] = None
    ) -> None:
        self.rows = rows
        self.size = len(table)  # table rows: every index() is below it
        self._table = table
        self._ids = ids  # a ranked table's ids, ascending; None if direct

    @classmethod
    def of(
        cls,
        columns: Sequence[np.ndarray],
        query_max: int,
        cap: int = 1 << 22,
        ids: Optional[np.ndarray] = None,
    ) -> "RunMask":
        """Mark list ``i``'s column in row ``i``: a direct table unless
        it would pass ``cap`` cells (padding included).  ``ids`` get
        table rows of their own even where no list holds them."""
        rows = np.repeat(np.arange(len(columns)), [len(column) for column in columns])
        return cls.of_flat(np.concatenate(columns), rows, len(columns), query_max, cap, ids)

    @classmethod
    def of_flat(
        cls,
        flat: np.ndarray,
        rows: np.ndarray,
        count: int,
        query_max: int,
        cap: int = 1 << 22,
        ids: Optional[np.ndarray] = None,
    ) -> "RunMask":
        """:meth:`of` for ``count`` lists given as one ``uint64`` column
        ``flat`` of every list's ids and each id's list, ``rows`` (a
        :class:`RunOffers`' ``flat`` and ``lists()``)."""
        hi = max(int(flat.max()), query_max, -1 if ids is None else int(ids.max()))
        width = -(-count // 8) * 8
        if (hi + 1) * width <= cap:
            table = np.zeros((hi + 1, width), dtype=bool)
            # Every id is below the cap, so its uint64 bits read as an intp.
            table.ravel()[flat.view(np.intp) * width + rows] = True
            return cls(table, count)
        known, rank = np.unique(
            flat if ids is None else np.concatenate((flat, ids)), return_inverse=True
        )
        table = np.zeros((len(known) + 1, width), dtype=bool)
        table.ravel()[rank[: len(flat)] * width + rows] = True
        return cls(table, count, known)

    def index(self, ids: np.ndarray) -> np.ndarray:
        """The table row of each of the ``uint64`` ``ids``, as ``intp``."""
        known = self._ids
        if known is None:
            return ids.view(np.intp)
        rank: np.ndarray = known.searchsorted(ids)
        found: np.ndarray = known.take(rank, mode="clip") == ids
        result: np.ndarray = np.where(found, rank, len(known))
        return result

    def both(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``hit[i, row]``: list ``row`` holds both ends of ``(a[i], b[i])``."""
        table = self._table
        result: np.ndarray = (
            table.take(self.index(a), axis=0) & table.take(self.index(b), axis=0)
        )[:, : self.rows]
        return result

    def holds(self, ids: Any, rows: Any) -> Any:
        """``hit[i]``: list ``rows[i]`` holds ``ids[i]`` (``uint64``
        arrays, or one id and one row)."""
        if self._ids is not None:
            ids = self.index(np.asarray(ids, dtype=np.uint64))
        return self._table[ids, rows]

    def hits(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The edges (ascending indices) some list holds both ends of, and
        their rows of :meth:`both`'s answer."""
        table = self._table
        hit = table.take(self.index(a), axis=0) & table.take(self.index(b), axis=0)
        words = hit.view(np.uint64)
        combined = words[:, 0]
        for k in range(1, words.shape[1]):
            combined = combined | words[:, k]
        # (A bool mask and take: several times cheaper than flatnonzero
        # and fancy indexing on these sizes.)
        entries = combined.astype(bool).nonzero()[0]
        return entries, hit.take(entries, axis=0)[:, : self.rows]

    @staticmethod
    def by_row(hit: np.ndarray, entries: Optional[np.ndarray] = None) -> List[List[int]]:
        """For each list of the run, in order, the ascending edge indices
        ``i`` with ``hit[i, row]`` set; ``entries``, when given, maps the
        rows of ``hit`` to edge indices (as :meth:`hits` returns them)."""
        rows, found = np.nonzero(hit.T)
        ends = np.searchsorted(rows, np.arange(1, hit.shape[1] + 1)).tolist()
        flat = (found if entries is None else entries[found]).tolist()
        return [flat[start:end] for start, end in zip([0] + ends, ends)]


class _RunPairs:
    """A run's pairs as its own labels: ``self[j]`` is pair ``j``'s
    canonical tuple, built as the per-list hooks build it."""

    __slots__ = ("sources", "flat", "ends")

    def __init__(self, run: Sequence[Tuple[Any, Sequence[Any]]]) -> None:
        self.sources = [vertex for vertex, _ in run]
        self.flat: List[Any] = []
        self.ends: List[int] = []  # ends[i]: one past list i's last pair
        for _, neighbors in run:
            self.flat.extend(neighbors)
            self.ends.append(len(self.flat))

    def bounds(self, index: int) -> Tuple[int, int]:
        """The pair index range of list ``index``."""
        return (self.ends[index - 1] if index else 0), self.ends[index]

    def __getitem__(self, j: int) -> Tuple[Any, Any]:
        source = self.sources[bisect.bisect_right(self.ends, j)]
        nbr = self.flat[j]
        return (source, nbr) if source <= nbr else (nbr, source)


class _Offset:
    """``keys[start + i]`` as ``self[i]``: a lazy tail view."""

    __slots__ = ("_keys", "_start")

    def __init__(self, keys: Any, start: int) -> None:
        self._keys = keys
        self._start = start

    def __getitem__(self, i: int) -> Any:
        return self._keys[self._start + i]


# -- key encoding --------------------------------------------------------------

def encode_pair_keys(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized ``_to_int_key((u, v))`` for int-pair tuples.

    Bit-identical to the scalar FNV-style tuple fold in
    :func:`repro.util.hashing._to_int_key`: the accumulator is seeded,
    multiplied by the FNV prime and XORed per part; for a 2-tuple the
    first multiply is constant-folded into :data:`_TUPLE_ACC1`.
    """
    with np.errstate(over="ignore"):
        acc = np.bitwise_xor(_TUPLE_ACC1, u)
        acc *= _FNV_PRIME
        acc ^= v
    return acc


# -- MixHash64 kernel ----------------------------------------------------------

def splitmix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized ``_splitmix64`` over a ``uint64`` array (new array)."""
    with np.errstate(over="ignore"):
        z = z + _SM_GOLDEN
        z ^= z >> _SM_S1
        z *= _SM_MUL1
        z ^= z >> _SM_S2
        z *= _SM_MUL2
        z ^= z >> _SM_S3
    return z


def mixhash_int_array(encoded_keys: np.ndarray, hash_key: int) -> np.ndarray:
    """Vectorized :meth:`MixHash64.hash_int` over encoded ``uint64`` keys.

    ``encoded_keys`` are ``_to_int_key`` outputs (see the encode kernels);
    ``hash_key`` is the hash's 64-bit internal key.
    """
    return splitmix64_array(np.bitwise_xor(encoded_keys, np.uint64(hash_key)))
