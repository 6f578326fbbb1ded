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

import numpy as np

from repro.graph.graph import Vertex

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
        self,
        run: List[Tuple[Vertex, Sequence[Vertex]]],
        columns: Optional[List[np.ndarray]],
    ) -> List[int]:
        """Optional batch hook for a run of consecutive lists of one class.

        ``run`` holds ``(vertex, neighbors)`` entries that are either all
        shorter than :data:`repro.util.vectorized.SHORT_LIST` (a short
        run, ``columns`` None) or all at least that long (a long run,
        ``columns`` holding each list's ``uint64`` vertex-id column, in
        run order).  It does the work of ``begin_list``, ``process_list``
        and ``end_list`` for every entry in order and returns one space
        reading per list, each equal to what :meth:`space_words` would
        return after that list's ``end_list``.  It must be observably
        identical to the per-list calls — state, RNG use, readings — and
        may only be faster: it is where an algorithm's columnar kernels
        live, checked against the per-list hooks as their scalar
        reference.  :meth:`repro.streaming.runner.PassCursor.push_lists`
        calls an override, for the batch runner and for serve sessions,
        only on the batched fast path with the columnar kernels enabled;
        with a per-list telemetry poll each run holds one list.  The
        cursor looks the columns up and pushes a long list with no
        ``uint64`` column through the per-list hooks instead, so the
        hook never sees one.  The default makes the per-list calls.
        """
        readings = []
        for vertex, neighbors in run:
            self.begin_list(vertex)
            self.process_list(vertex, neighbors)
            self.end_list(vertex, neighbors)
            readings.append(self.space_words())
        return readings

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
    run and its columns included, so each part keeps its own columnar
    route and the columns are looked up once for all of them; a part
    with no :meth:`process_run` hook gets the run's lists through its
    per-list hooks (the default).  The space is the parts' sum.
    """

    parts: List[StreamingAlgorithm]

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
        self,
        run: List[Tuple[Vertex, Sequence[Vertex]]],
        columns: Optional[List[np.ndarray]],
    ) -> List[int]:
        first, *rest = self.parts
        readings = first.process_run(run, columns)
        for part in rest:
            readings = [a + b for a, b in zip(readings, part.process_run(run, columns))]
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
