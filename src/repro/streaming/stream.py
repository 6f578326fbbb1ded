"""Adjacency-list streams: the paper's input model.

A stream is a sequence of ordered pairs ``(x, y)``; for every edge
``{x, y}`` both ``xy`` and ``yx`` appear, and all pairs with the same first
vertex — that vertex's adjacency list — appear consecutively.  The order of
the lists and the order within each list are arbitrary (adversarial).

:class:`AdjacencyListStream` wraps a graph plus a concrete ordering and is
replayable: iterating it twice yields the identical sequence, which is the
"pass 2 has the same ordering as pass 1" requirement of the triangle
algorithm (Section 3.2).  :func:`validate_pair_sequence` checks an arbitrary
pair sequence against the model's promise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph, Vertex
from repro.util.rng import SeedLike, resolve_rng
from repro.util.vectorized import ColumnMemo

Pair = Tuple[Vertex, Vertex]


class StreamFormatError(ValueError):
    """Raised when a pair sequence violates the adjacency-list promise."""


class AdjacencyListStream:
    """A replayable adjacency-list-order stream over a graph.

    Parameters
    ----------
    graph:
        The underlying undirected simple graph.
    list_order:
        The order in which adjacency lists appear; defaults to a uniformly
        random permutation of all vertices (seeded).  Vertices with empty
        adjacency lists are included (they emit no pairs).
    neighbor_orders:
        Optional per-vertex neighbour orderings; unspecified lists are
        shuffled with the stream's seed.
    seed:
        Randomness for the default orderings.
    """

    def __init__(
        self,
        graph: Graph,
        list_order: Optional[Sequence[Vertex]] = None,
        neighbor_orders: Optional[Dict[Vertex, Sequence[Vertex]]] = None,
        seed: SeedLike = None,
    ):
        self.graph = graph
        rng = resolve_rng(seed)
        if list_order is None:
            order = list(graph.vertices())
            rng.shuffle(order)
        else:
            order = list(list_order)
            if len(order) != graph.n or set(order) != set(graph.vertices()):
                raise ValueError("list_order must be a permutation of the vertices")
        self._order = order
        self._position = {v: i for i, v in enumerate(order)}
        self._lists: Dict[Vertex, Tuple[Vertex, ...]] = {}
        neighbor_orders = neighbor_orders or {}
        for v in order:
            if v in neighbor_orders:
                nbrs = list(neighbor_orders[v])
                if set(nbrs) != set(graph.neighbors(v)) or len(nbrs) != graph.degree(v):
                    raise ValueError(f"neighbour order for {v!r} does not match the graph")
            else:
                # neighbor_list is memoized on the graph, so per-trial stream
                # construction reuses the materialized tuples instead of
                # re-walking adjacency sets; the pre-shuffle order (and hence
                # the shuffled result) is bit-identical to list(neighbors(v)).
                nbrs = list(graph.neighbor_list(v))
                rng.shuffle(nbrs)
            self._lists[v] = tuple(nbrs)
        self._column_memo = ColumnMemo()

    # -- basic facts --------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices (adjacency lists) in the stream."""
        return self.graph.n

    @property
    def m(self) -> int:
        """Number of edges; the stream contains ``2m`` pairs."""
        return self.graph.m

    @property
    def list_order(self) -> List[Vertex]:
        """The vertices in the order their adjacency lists appear."""
        return list(self._order)

    def position(self, v: Vertex) -> int:
        """Return the index of ``v``'s adjacency list in the stream."""
        return self._position[v]

    def neighbors_in_order(self, v: Vertex) -> Tuple[Vertex, ...]:
        """Return ``v``'s adjacency list in stream order."""
        return self._lists[v]

    def columns_for(self, vertex: Vertex, neighbors: Sequence[Vertex]):
        """Columnar (uint64) view of ``vertex``'s adjacency list, memoised.

        The stream's lists are fixed tuples, so every pass replays the
        identical objects; converting each list to a vertex-id column once
        and reusing it across passes (and across the per-list hooks of a
        single pass) removes the dominant fixed cost of the counters'
        vectorized fast path.  Returns ``None`` for lists the columnar
        kernels cannot represent (non-int labels) — callers fall back to
        their scalar paths, exactly as with a direct conversion.

        The cache lives on the *stream*, which already owns the input
        data, so algorithm space accounting is untouched.  ``neighbors``
        is identity-checked against the cached entry: a caller replaying
        a different ordering of the same vertex misses and re-converts.
        """
        return self._column_memo(vertex, neighbors)

    # -- iteration ------------------------------------------------------------

    def iter_lists(self) -> Iterator[Tuple[Vertex, Tuple[Vertex, ...]]]:
        """Yield ``(vertex, neighbours)`` for each adjacency list in order."""
        for v in self._order:
            yield v, self._lists[v]

    def iter_pairs(self) -> Iterator[Pair]:
        """Yield the raw ``(source, neighbour)`` pair sequence."""
        for v, nbrs in self.iter_lists():
            for u in nbrs:
                yield (v, u)

    def __iter__(self) -> Iterator[Pair]:
        return self.iter_pairs()

    def __len__(self) -> int:
        """Number of pairs in the stream (``2m``)."""
        return 2 * self.m

    def reordered(self, seed: SeedLike = None) -> "AdjacencyListStream":
        """Return a new stream over the same graph with fresh random orders.

        This is cheap: the default constructor path performs no validation
        and draws its lists from the graph's memoized neighbour tuples
        (:meth:`Graph.neighbor_list`), so only the shuffles are paid per
        trial.
        """
        return AdjacencyListStream(self.graph, seed=seed)

    @classmethod
    def from_pairs(cls, pairs: Sequence[Pair]) -> "AdjacencyListStream":
        """Reconstruct a stream (graph + ordering) from a raw pair sequence.

        The sequence is validated against the adjacency-list promise first.
        """
        validate_pair_sequence(pairs)
        graph = Graph()
        order: List[Vertex] = []
        lists: Dict[Vertex, List[Vertex]] = {}
        for src, dst in pairs:
            if src not in lists:
                order.append(src)
                lists[src] = []
            lists[src].append(dst)
            graph.add_edge(src, dst)
        return cls(graph, list_order=order, neighbor_orders=lists)


@dataclass(frozen=True)
class PairSequenceSummary:
    """What a validated pair sequence contained."""

    pairs: int  # total (source, neighbour) pairs, i.e. 2m
    lists: int  # adjacency lists, including the final (implicitly closed) one
    edges: int  # undirected edges, i.e. m
    max_list_length: int = 0  # longest adjacency list, i.e. the max degree


Segments = Tuple[List[int], List[Any], List[Any]]

_SHIFT = np.uint64(32)


def split_segments(srcs: Any, dsts: Any) -> Segments:
    """Cut a non-empty columnar chunk into its adjacency-list segments.

    Returns ``(starts, heads, dst_list)``: ``starts`` holds each segment's
    offset followed by ``len(srcs)``, ``heads[i]`` is the source vertex of
    segment ``i``, and ``dst_list`` is the neighbour column as Python
    ints.  A serve session computes this once per binary frame and hands
    the same result to :meth:`PairSequenceValidator.feed_array` and to its
    own list buffering.
    """
    boundaries = np.flatnonzero(srcs[1:] != srcs[:-1]) + 1
    starts = [0, *boundaries.tolist(), len(srcs)]
    return starts, srcs[starts[:-1]].tolist(), dsts.tolist()


def _uint64_block(srcs: List[Any], dsts: List[Any]) -> Optional[np.ndarray]:
    """Two label lists as one ``(2, n)`` ``uint64`` block, or ``None``
    unless every label is an exact ``int`` in ``[0, 2^64)`` — floats would
    truncate, and bools are refused as in
    :func:`repro.util.vectorized.as_vertex_array`."""
    if srcs and {*map(type, srcs), *map(type, dsts)} != {int}:
        return None
    try:
        return np.array((srcs, dsts), dtype=np.uint64)
    except OverflowError:
        return None


def _reverse_complete(block: np.ndarray) -> bool:
    """Whether every directed pair of a ``(2, n)`` block has its reverse.

    Needs each directed pair to occur at most once, which the validator's
    contiguity and duplicate checks guarantee.  Then the pairs are
    reverse-complete exactly when, sorted, they equal the reversed pairs
    sorted.  Ids below 2^32 pack into one ``uint64`` key per pair; larger
    ids take a two-key ``lexsort``.
    """
    if not block.size:
        return True
    srcs, dsts = block
    if int(block.max()) >> 32 == 0:
        forward = (srcs << _SHIFT) | dsts
        backward = (dsts << _SHIFT) | srcs
        forward.sort()
        backward.sort()
        return bool(np.array_equal(forward, backward))
    forward = np.lexsort((dsts, srcs))
    backward = np.lexsort((srcs, dsts))
    return bool(
        np.array_equal(srcs[forward], dsts[backward])
        and np.array_equal(dsts[forward], srcs[backward])
    )


class PairSequenceValidator:
    """Incremental checker of the adjacency-list promise.

    The streaming service feeds chunks of pairs as they arrive; the batch
    entry point :func:`validate_pair_sequence` feeds everything at once.
    Both share this one implementation, so the server validates with
    exactly the rules (and error messages) of ``repro-cycles validate``:
    lists must be contiguous, each edge must appear exactly once per
    direction, self loops and within-list duplicates are forbidden.

    Per-pair violations raise :class:`StreamFormatError` from
    :meth:`feed` as soon as the offending pair arrives, with its absolute
    position in the overall sequence.  The reverse-pair completeness check
    can only run once the stream ends, so it lives in :meth:`finish`,
    which also closes the final list and returns the
    :class:`PairSequenceSummary`.  ``check_reverse=False`` skips that
    final check — required when validating one *shard slice* of a stream,
    whose reverse pairs legitimately live in other shards.

    For that final check the validator records every directed pair in
    stream order as columns: a copy of each ``uint64`` chunk from
    :meth:`feed_array`, and two plain lists for pairs from
    :meth:`feed_pair`.  That is O(pairs) memory (16 bytes a pair for
    binary feeds); with ``check_reverse=False`` nothing is recorded.
    :meth:`finish` checks completeness with one sort over the
    concatenated columns and only falls back to a set of tuples when the
    labels are not ints in ``[0, 2^64)`` (gadget tuples, strings) or a
    reverse is missing, so the error names the first offending pair in
    stream order.

    State is exposed via :meth:`state_dict` / :meth:`load_state_dict` so a
    serve session snapshot can freeze validation mid-stream and resume it
    bit-exactly.  The recorded pairs are service bookkeeping, not
    algorithm space.
    """

    def __init__(self, check_reverse: bool = True):
        self.check_reverse = check_reverse
        self._seen_lists: set = set()
        self._current: Optional[Vertex] = None
        self._current_neighbors: set = set()
        # Directed pairs in stream order (check_reverse only): closed
        # chunks — (2, k) uint64 blocks from feed_array, (srcs, dsts) list
        # pairs from earlier feed_pair runs — then the open feed_pair run.
        self._chunks: List[Any] = []
        self._src_tail: List[Vertex] = []
        self._dst_tail: List[Vertex] = []
        self._max_list_length = 0
        self._pairs = 0
        self._finished = False

    # -- feeding -------------------------------------------------------------

    @property
    def pairs_seen(self) -> int:
        """Pairs accepted so far."""
        return self._pairs

    @property
    def current_list(self) -> Optional[Vertex]:
        """The source vertex of the currently open adjacency list."""
        return self._current

    def feed_pair(self, src: Vertex, dst: Vertex) -> None:
        """Validate and account one pair; raises on a model violation."""
        if self._finished:
            raise StreamFormatError("validator already finished")
        index = self._pairs
        if src == dst:
            raise StreamFormatError(
                f"self loop {src!r} in stream (pair #{index}, "
                f"{len(self._seen_lists)} lists closed)"
            )
        if src != self._current:
            if src in self._seen_lists:
                raise StreamFormatError(
                    f"adjacency list of {src!r} is not contiguous: reopened at "
                    f"pair #{index} after {len(self._seen_lists)} closed lists"
                )
            if self._current is not None:
                self._seen_lists.add(self._current)
            self._current = src
            self._current_neighbors = set()
        if dst in self._current_neighbors:
            raise StreamFormatError(
                f"duplicate pair ({src!r}, {dst!r}) at pair #{index}: "
                f"{len(self._current_neighbors)} neighbours already seen in this list"
            )
        self._current_neighbors.add(dst)
        if len(self._current_neighbors) > self._max_list_length:
            self._max_list_length = len(self._current_neighbors)
        if self.check_reverse:
            self._src_tail.append(src)
            self._dst_tail.append(dst)
        self._pairs = index + 1

    def feed(self, pairs: Iterable[Pair]) -> None:
        """Validate a chunk of pairs (any chunking, including one at a time)."""
        for src, dst in pairs:
            self.feed_pair(src, dst)

    def feed_array(self, srcs, dsts, segments: Optional[Segments] = None) -> None:
        """Validate a columnar chunk (two equal-length ``uint64`` arrays).

        The vectorized counterpart of :meth:`feed` for binary pair-batch
        frames.  The happy path runs whole-chunk checks (no self loops,
        list heads fresh and mutually distinct, no within-segment
        duplicates) and then commits the chunk's bookkeeping in bulk —
        identical end state to the per-pair loop.  On *any* suspected
        violation it delegates to :meth:`feed`, whose per-pair replay
        raises the canonical error with the canonical partial state, so a
        conservative (false-positive) suspicion only costs speed.
        ``segments`` is the chunk's :func:`split_segments` result when the
        caller already has it.
        """
        n = int(len(srcs))
        if n == 0:
            return
        if self._finished or bool((srcs == dsts).any()):
            self.feed(zip(srcs.tolist(), dsts.tolist()))
            return
        starts, heads, dst_list = (
            segments if segments is not None else split_segments(srcs, dsts)
        )
        continuing = self._current is not None and heads[0] == self._current
        new_heads = heads[1:] if continuing else heads
        suspect = len(set(heads)) != len(heads)
        if not suspect:
            seen = self._seen_lists
            current = self._current
            for head in new_heads:
                if head in seen or head == current:
                    suspect = True
                    break
        segment_sets: List[set] = []
        if not suspect:
            for i in range(len(heads)):
                seg = set(dst_list[starts[i] : starts[i + 1]])
                if len(seg) != starts[i + 1] - starts[i]:
                    suspect = True
                    break
                segment_sets.append(seg)
        if not suspect and continuing:
            if not self._current_neighbors.isdisjoint(segment_sets[0]):
                suspect = True
        if suspect:
            self.feed(zip(srcs.tolist(), dst_list))
            return
        # Commit: identical end state to feeding the pairs one at a time.
        if self.check_reverse:
            if self._src_tail:
                self._chunks.append((self._src_tail, self._dst_tail))
                self._src_tail, self._dst_tail = [], []
            self._chunks.append(np.stack((srcs, dsts)))
        if continuing:
            self._current_neighbors |= segment_sets[0]
            self._max_list_length = max(
                self._max_list_length, len(self._current_neighbors)
            )
        elif self._current is not None:
            self._seen_lists.add(self._current)
        self._seen_lists.update(heads[:-1])
        self._current = heads[-1]
        if not (continuing and len(heads) == 1):
            self._current_neighbors = segment_sets[-1]
        if segment_sets[1:] or not continuing:
            self._max_list_length = max(
                self._max_list_length, *(len(seg) for seg in segment_sets)
            )
        self._pairs += n

    # -- reverse pairs -------------------------------------------------------

    def _recorded(self) -> List[Any]:
        return [*self._chunks, (self._src_tail, self._dst_tail)]

    def _directed_pairs(self) -> Iterator[Pair]:
        """Every recorded directed pair, in stream order."""
        for chunk in self._recorded():
            srcs, dsts = chunk if isinstance(chunk, tuple) else chunk.tolist()
            yield from zip(srcs, dsts)

    def _directed_block(self) -> Optional[np.ndarray]:
        """The recorded pairs as one ``(2, pairs)`` ``uint64`` block, or
        ``None`` when some label is not an int the block holds exactly."""
        blocks = []
        for chunk in self._recorded():
            if isinstance(chunk, tuple):
                chunk = _uint64_block(*chunk)
                if chunk is None:
                    return None
            blocks.append(chunk)
        return np.concatenate(blocks, axis=1)

    def _check_reverse_pairs(self) -> None:
        """Raise on the first pair, in stream order, whose reverse is absent."""
        pairs = list(self._directed_pairs())
        seen = set(pairs)
        for src, dst in pairs:
            if (dst, src) not in seen:
                raise StreamFormatError(
                    f"edge ({src!r}, {dst!r}) lacks its reverse pair "
                    f"({len(self._seen_lists)} lists, "
                    f"{len(seen)} directed pairs scanned)"
                )

    # -- summaries -----------------------------------------------------------

    def _summary(self) -> PairSequenceSummary:
        lists = len(self._seen_lists) + (1 if self._current is not None else 0)
        return PairSequenceSummary(
            pairs=self._pairs,
            lists=lists,
            edges=self._pairs // 2,
            max_list_length=self._max_list_length,
        )

    def partial_summary(self) -> PairSequenceSummary:
        """What has streamed so far (the open list counted, reverse unchecked).

        ``edges`` is ``pairs // 2``, as at :meth:`finish`: mid-stream it
        halves the directed pairs seen, whether or not their reverses
        have arrived yet.
        """
        return self._summary()

    def finish(self) -> PairSequenceSummary:
        """Close the final list, run the end-of-stream checks, summarise.

        Idempotent: calling again returns the same summary.  The final
        adjacency list — which no transition ever closes — is counted too.
        """
        if not self._finished:
            if self._current is not None:
                self._seen_lists.add(self._current)
                self._current = None
                self._current_neighbors = set()
            if self.check_reverse:
                block = self._directed_block()
                if block is None or not _reverse_complete(block):
                    self._check_reverse_pairs()
            self._finished = True
        return self._summary()

    # -- snapshot ------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe-ish state (sets/tuples; sketch-state encodable)."""
        return {
            "check_reverse": self.check_reverse,
            "seen_lists": set(self._seen_lists),
            "current": self._current,
            "current_neighbors": set(self._current_neighbors),
            "directed_seen": set(self._directed_pairs()),
            "max_list_length": self._max_list_length,
            "pairs": self._pairs,
            "finished": self._finished,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore from :meth:`state_dict` output.

        ``directed_seen`` is a set, so the stream order of the restored
        pairs is lost; they are sorted instead, which keeps the
        missing-reverse error of a restored validator deterministic.
        """
        self.check_reverse = bool(state["check_reverse"])
        self._seen_lists = set(state["seen_lists"])
        self._current = state["current"]
        self._current_neighbors = set(state["current_neighbors"])
        pairs = [tuple(p) for p in state["directed_seen"]] if self.check_reverse else []
        try:
            pairs.sort()
        except TypeError:
            pairs.sort(key=repr)
        self._chunks = []
        self._src_tail = [src for src, _ in pairs]
        self._dst_tail = [dst for _, dst in pairs]
        self._max_list_length = int(state["max_list_length"])
        self._pairs = int(state["pairs"])
        self._finished = bool(state["finished"])


def validate_pair_sequence(pairs: Sequence[Pair]) -> PairSequenceSummary:
    """Check a raw pair sequence against the adjacency-list model.

    One-shot wrapper over :class:`PairSequenceValidator`: feeds the whole
    sequence, then finishes.  Raises :class:`StreamFormatError` if any of
    the model's promises fail; error messages carry positional context
    (pair index, lists closed so far) so an offending file can be located
    without bisection.  Returns a :class:`PairSequenceSummary`.
    """
    validator = PairSequenceValidator()
    validator.feed(pairs)
    return validator.finish()
