"""The streaming algorithm interface.

Every estimator in this library is a :class:`StreamingAlgorithm`: an object
that consumes one or more passes over an adjacency-list stream through
per-list callbacks and finally produces an estimate.  The interface exposes
list boundaries explicitly because the adjacency-list model's power comes
precisely from seeing each vertex's full neighbourhood contiguously.

Algorithms must also report their live state size in machine words via
:meth:`space_words`; the runner and the communication-protocol simulator
both consume this to validate the paper's space bounds.

Algorithms may additionally implement the **sketch state protocol** —
:meth:`StreamingAlgorithm.snapshot` / :meth:`StreamingAlgorithm.restore` —
making their full live state serialisable (checkpoint/resume) and, where
the underlying sketches compose, mergeable across stream shards (see
:mod:`repro.sketch`).  The protocol is opt-in: the base implementations
raise :class:`SnapshotUnsupported`, and :func:`supports_snapshot` reports
whether a given algorithm overrides them.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.graph.graph import Vertex
from repro.util import vectorized

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sketch.state import SketchState


class SnapshotUnsupported(NotImplementedError):
    """Raised when an algorithm does not implement the sketch state protocol."""


class StreamingAlgorithm(abc.ABC):
    """Base class for multi-pass adjacency-list streaming algorithms."""

    #: Number of passes the algorithm requires over the stream.
    n_passes: int = 1

    #: Whether every pass must replay the first pass's exact ordering
    #: (required by the two-pass triangle algorithm, Section 3.2).
    requires_same_order: bool = False

    #: Column provider bound by :meth:`bind_columns` (None: convert lists).
    _col_provider = None

    def bind_columns(self, provider) -> None:
        """Offer a columnar view of the stream's adjacency lists.

        ``provider(vertex, neighbors)`` returns the list's vertex-id
        column (a ``uint64`` array) or ``None`` when the labels have no
        columnar representation.  The runner binds the stream's memoised
        provider before a run, the sharded driver a per-shard memo, and
        :meth:`_neighbor_column` prefers it over converting each list; a
        serve session binds none.  Purely an acceleration channel: the
        provider's output is bit-identical to a direct conversion.
        """
        self._col_provider = provider

    def _neighbor_column(self, vertex: Vertex, neighbors: Sequence[Vertex]):
        """The list's ``uint64`` column (None: no columnar labels), via the
        bound provider when there is one."""
        provider = self._col_provider
        if provider is not None:
            return provider(vertex, neighbors)
        return vectorized.as_vertex_array(neighbors)

    def _run_columns(
        self, run: Sequence[Tuple[Vertex, Sequence[Vertex]]]
    ) -> Optional[list]:
        """Every list's column (as :meth:`_neighbor_column`), or None when
        one list has no columnar labels."""
        columns = [self._neighbor_column(vertex, neighbors) for vertex, neighbors in run]
        return None if any(column is None for column in columns) else columns

    def begin_pass(self, pass_index: int) -> None:
        """Called before pass ``pass_index`` (0-based) starts."""

    def begin_list(self, vertex: Vertex) -> None:
        """Called when the adjacency list of ``vertex`` starts."""

    def process(self, source: Vertex, neighbor: Vertex) -> None:
        """Called for each pair ``(source, neighbor)`` of the stream."""

    def process_list(self, source: Vertex, neighbors: Sequence[Vertex]) -> None:
        """Batched equivalent of calling :meth:`process` once per neighbour.

        The runner prefers this list-level entry point when an algorithm
        overrides it (or overrides neither ``process`` nor this method, in
        which case the per-pair loop is skipped entirely).  An override
        MUST be observably identical to the per-pair loop — same estimates,
        same space trajectory, same RNG consumption order — it may only be
        faster, e.g. by hoisting attribute lookups and the pass check out
        of the inner loop.  Together with ``begin_list`` and ``end_list``
        it is an algorithm's scalar reference: columnar kernels belong in
        :meth:`process_run`.  The default simply delegates pair by pair.
        """
        for neighbor in neighbors:
            self.process(source, neighbor)

    def end_list(self, vertex: Vertex, neighbors: Sequence[Vertex]) -> None:
        """Called when ``vertex``'s list ends, with the full list.

        Most algorithms do their per-list work here: in the adjacency-list
        model the whole neighbourhood is available before the next list
        starts without any extra memory (the pairs just streamed by).
        Implementations must not retain ``neighbors`` beyond the call
        unless they account for it in :meth:`space_words`.
        """

    def process_run(
        self, run: List[Tuple[Vertex, Sequence[Vertex]]]
    ) -> Optional[List[int]]:
        """Optional batch hook for a run of consecutive lists of one class.

        ``run`` holds ``(vertex, neighbors)`` entries that are either all
        shorter than :data:`repro.util.vectorized.SHORT_LIST` (a short
        run) or all at least that long (a long run), so an override reads
        the class off the first entry.  It does the work of
        ``begin_list``, ``process_list`` and ``end_list`` for every entry
        in order and returns one space reading per list, each equal to
        what :meth:`space_words` would return after that list's
        ``end_list``.  It must be observably identical to the per-list
        calls — state, RNG use, readings — and may only be faster: it is
        where an algorithm's columnar kernels live, checked against the
        per-list hooks as their scalar reference.  It returns ``None`` to
        decline, and must decline before mutating anything; the lists are
        then pushed one at a time.
        :meth:`repro.streaming.runner.PassCursor.push_lists` calls it,
        for the batch runner and for serve sessions, only on the batched
        fast path with the columnar kernels enabled; with a per-list
        telemetry poll each run holds one list.  The default declines.
        """
        return None

    def end_pass(self, pass_index: int) -> None:
        """Called after pass ``pass_index`` completes."""

    @abc.abstractmethod
    def result(self) -> float:
        """Return the final estimate (valid after the last pass)."""

    @abc.abstractmethod
    def space_words(self) -> int:
        """Return the current live state size in machine words."""

    def current_estimate(self) -> "float | None":
        """Anytime estimate of the target count, valid mid-stream.

        Optional: estimators whose ``result()`` formula is well defined
        on partial state (the two-pass counters, the naive sampler)
        override this so the instrumented runner can emit periodic
        :class:`~repro.obs.events.EstimateSample` events at the
        space-poll cadence — the raw material for the convergence
        diagnostics in :mod:`repro.obs.diagnostics`.  Implementations
        must not mutate state; the base returns ``None`` (unsupported).
        """
        return None

    def observables(self) -> "dict[str, float]":
        """Named internal gauges for telemetry (occupancy, churn, ...).

        Algorithms with interesting internal structure (samplers,
        reservoirs, watcher tables) override this to expose readings like
        ``edge_sample_occupancy`` or ``pair_reservoir_evictions``.  The
        instrumented runner polls it only when telemetry is enabled, so
        implementations may do a little work but must not mutate state.
        """
        return {}

    # -- sketch state protocol (opt-in) -------------------------------------

    def snapshot(self) -> "SketchState":
        """Serialise the complete live state as a :class:`SketchState`.

        Implementations must capture *everything* the algorithm needs to
        continue — sample contents, counters, hash keys, RNG states — so
        that ``restore`` followed by replaying the remaining stream yields
        a run indistinguishable from one that was never interrupted.
        """
        raise SnapshotUnsupported(
            f"{type(self).__name__} does not implement the sketch state protocol"
        )

    def restore(self, state: "SketchState") -> None:
        """Replace the live state with a previously captured snapshot."""
        raise SnapshotUnsupported(
            f"{type(self).__name__} does not implement the sketch state protocol"
        )


class FanOut(StreamingAlgorithm):
    """An algorithm made of independent parts that see the same stream.

    Subclasses set ``parts``.  Every hook goes to each part in order, a
    run included, so each part keeps its own columnar route; the space
    is the parts' sum.  :meth:`process_run` declines when the first part
    declines (parts of one class decline on the same runs); a later part
    that declines a run its predecessors took gets the run's lists
    through its per-list hooks.
    """

    parts: List[StreamingAlgorithm]

    def bind_columns(self, provider) -> None:
        for part in self.parts:
            part.bind_columns(provider)

    def begin_pass(self, pass_index: int) -> None:
        for part in self.parts:
            part.begin_pass(pass_index)

    def begin_list(self, vertex: Vertex) -> None:
        for part in self.parts:
            part.begin_list(vertex)

    def process(self, source: Vertex, neighbor: Vertex) -> None:
        for part in self.parts:
            part.process(source, neighbor)

    def process_list(self, source: Vertex, neighbors: Sequence[Vertex]) -> None:
        for part in self.parts:
            part.process_list(source, neighbors)

    def end_list(self, vertex: Vertex, neighbors: Sequence[Vertex]) -> None:
        for part in self.parts:
            part.end_list(vertex, neighbors)

    def process_run(
        self, run: List[Tuple[Vertex, Sequence[Vertex]]]
    ) -> Optional[List[int]]:
        first, *rest = self.parts
        readings = first.process_run(run)
        if readings is None:
            return None
        for part in rest:
            more = part.process_run(run)
            if more is None:
                more = []
                for vertex, neighbors in run:
                    part.begin_list(vertex)
                    part.process_list(vertex, neighbors)
                    part.end_list(vertex, neighbors)
                    more.append(part.space_words())
            readings = [a + b for a, b in zip(readings, more)]
        return readings

    def end_pass(self, pass_index: int) -> None:
        for part in self.parts:
            part.end_pass(pass_index)

    def space_words(self) -> int:
        return sum(part.space_words() for part in self.parts)


def supports_snapshot(algorithm: StreamingAlgorithm) -> bool:
    """Whether ``algorithm`` implements the sketch state protocol."""
    cls = type(algorithm)
    return (
        cls.snapshot is not StreamingAlgorithm.snapshot
        and cls.restore is not StreamingAlgorithm.restore
    )


def supports_current_estimate(algorithm: StreamingAlgorithm) -> bool:
    """Whether ``algorithm`` exposes an anytime :meth:`current_estimate`."""
    return type(algorithm).current_estimate is not StreamingAlgorithm.current_estimate


class FixedValueAlgorithm(StreamingAlgorithm):
    """Trivial algorithm returning a constant; useful in tests."""

    n_passes = 1

    def __init__(self, value: float):
        self._value = value

    def result(self) -> float:
        return self._value

    def space_words(self) -> int:
        return 1
