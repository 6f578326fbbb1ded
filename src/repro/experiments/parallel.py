"""Parallel trial execution for the experiment harness.

The Table-1 / Figure-1 sweeps run many fully independent trials (fresh
algorithm, fresh stream ordering, same graph).  This module fans those
trials out over a ``concurrent.futures.ProcessPoolExecutor`` while keeping
results bit-identical to the historical serial loop:

* **Seed material is derived serially in the parent.**  The harness used to
  call ``spawn_rng(rng, stream=2*i)`` / ``spawn_rng(rng, stream=2*i+1)``
  inside the trial loop; :func:`trial_specs` performs exactly those parent
  draws up front and records the resulting integer seeds in pickle-friendly
  :class:`TrialSpec` records, so workers reconstruct the very same child
  generators with ``resolve_rng(seed)``.
* **Only specs cross the process boundary per task.**  The trial factory
  and the graph are shipped once per worker via the pool initializer; with
  ``workers > 1`` the factory must therefore be picklable (a module-level
  function or a dataclass instance — not a lambda or closure).
* **Order is preserved.**  ``Executor.map`` returns results in spec order,
  so estimate lists match the serial loop element for element.

``workers=None`` or ``1`` means the serial in-process path (no pool, no
pickling constraints); ``workers=0`` means ``os.cpu_count()``.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.graph.graph import Graph
from repro.obs.telemetry import Telemetry
from repro.obs.trace import NULL_TRACER, TraceContext, Tracer
from repro.streaming.algorithm import StreamingAlgorithm
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream
from repro.util.rng import SeedLike, resolve_rng, spawn_seed

#: factory(space_budget, seed) -> algorithm (mirrors harness.SizedFactory)
TrialFactory = Callable[[int, SeedLike], StreamingAlgorithm]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` argument to a concrete worker count.

    ``None`` → 1 (serial), ``0`` → ``os.cpu_count()``, positive ints pass
    through; negatives are rejected.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise ValueError("workers must be None or a non-negative int")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


@dataclass(frozen=True)
class TrialSpec:
    """Everything one independent trial needs, in picklable form."""

    index: int
    budget: int
    algo_seed: int  # seeds the factory's generator: resolve_rng(algo_seed)
    stream_seed: int  # seeds the stream ordering shuffles


@dataclass(frozen=True)
class TrialResult:
    """The per-trial facts the harness aggregates.

    ``metrics`` is populated only when the execution asked for telemetry
    (``ExecutionConfig.collect_metrics``): a flat, JSON-safe metric
    snapshot (see :data:`repro.obs.metrics.Snapshot`) that crosses the
    process boundary with the result, so the parent can roll trial
    metrics up across workers (:func:`repro.obs.rollup.rollup_metrics`).
    ``spans`` likewise is populated only under tracing
    (``ExecutionConfig.trace_seed``): the trial's trace spans in wire
    form (:func:`repro.obs.trace.encode_span`), adopted by the parent in
    spec order so serial and pool schedules yield identical span trees.
    """

    index: int
    estimate: float
    peak_space_words: int
    wall_time_seconds: float
    metrics: Optional[Dict[str, Dict[str, Any]]] = None
    spans: Optional[List[Dict[str, Any]]] = None


@dataclass(frozen=True)
class ExecutionConfig:
    """How a batch of trials is executed.

    ``chunk_size`` controls how many specs each pool task carries (default:
    enough for ~4 tasks per worker); ``space_poll_interval`` is forwarded
    to :func:`repro.streaming.runner.run_algorithm` (values above 1 can
    perturb observed space peaks, never estimates).
    """

    workers: Optional[int] = None
    chunk_size: Optional[int] = None
    space_poll_interval: int = 1
    #: Collect a per-trial metric snapshot (``TrialResult.metrics``) via a
    #: metrics-only Telemetry inside each trial.  Off by default: the
    #: zero-overhead null path stays the norm for benchmarks.
    collect_metrics: bool = False
    #: Record hierarchical trace spans per trial (``TrialResult.spans``)
    #: under a ``run`` root with this trace seed; ``None`` (default) means
    #: tracing off.  Span identity is structural, so serial and pool
    #: execution of the same specs trace identically.
    trace_seed: Optional[int] = None

    def resolved_workers(self) -> int:
        return resolve_workers(self.workers)

    def trace_context(self) -> Optional[TraceContext]:
        """The root context trials attach their ``trial:<i>`` spans to."""
        if self.trace_seed is None:
            return None
        return TraceContext(seed=self.trace_seed, path="run")


def trial_specs(rng: random.Random, budget: int, runs: int) -> List[TrialSpec]:
    """Derive the specs for ``runs`` trials at ``budget`` from ``rng``.

    Consumes the parent generator exactly as the historical serial loop
    did (two spawns per trial, streams ``2i`` and ``2i+1``), so serial and
    parallel execution see identical per-trial randomness.
    """
    return [
        TrialSpec(
            index=i,
            budget=budget,
            algo_seed=spawn_seed(rng, stream=2 * i),
            stream_seed=spawn_seed(rng, stream=2 * i + 1),
        )
        for i in range(runs)
    ]


def run_trial(
    factory: TrialFactory,
    graph: Graph,
    spec: TrialSpec,
    space_poll_interval: int = 1,
    collect_metrics: bool = False,
    trace: Optional[TraceContext] = None,
) -> TrialResult:
    """Execute one trial: build the algorithm and stream, run, summarise.

    ``collect_metrics`` attaches a metrics-only :class:`Telemetry` (no
    sink — events are dropped, the registry accumulates) and ships its
    snapshot home in ``TrialResult.metrics``.  ``trace`` wraps the run in
    a ``trial:<i>`` span continuing the parent tracer's position and
    ships the recorded spans home in ``TrialResult.spans``.  Neither
    influences the trial itself, so estimates are identical either way.
    """
    algorithm = factory(spec.budget, resolve_rng(spec.algo_seed))
    stream = AdjacencyListStream(graph, seed=resolve_rng(spec.stream_seed))
    tracer = Tracer.from_context(trace) if trace is not None else NULL_TRACER
    telemetry = Telemetry(sink=None) if collect_metrics else None
    with tracer.span(f"trial:{spec.index}", category="trial", budget=spec.budget):
        if telemetry is not None:
            result = run_algorithm(
                algorithm, stream,
                space_poll_interval=space_poll_interval, telemetry=telemetry,
                tracer=tracer,
            )
        else:
            result = run_algorithm(
                algorithm, stream,
                space_poll_interval=space_poll_interval, tracer=tracer,
            )
    metrics = telemetry.metrics_snapshot() if telemetry is not None else None
    return TrialResult(
        index=spec.index,
        estimate=result.estimate,
        peak_space_words=result.peak_space_words,
        wall_time_seconds=result.wall_time_seconds,
        metrics=metrics,
        spans=tracer.encoded_spans() if trace is not None else None,
    )


def trial_spans(results: Sequence[TrialResult]) -> List[Dict[str, Any]]:
    """Flatten per-trial span wire records in result (= spec) order.

    Feed the return value to ``Tracer.adopt`` on a parent tracer built
    with the batch's ``trace_seed`` to reassemble the full span tree.
    """
    spans: List[Dict[str, Any]] = []
    for result in results:
        if result.spans:
            spans.extend(result.spans)
    return spans


# Per-worker state installed once by the pool initializer, so each task
# pickles only its TrialSpec rather than the factory and graph.
_worker_factory: Optional[TrialFactory] = None
_worker_graph: Optional[Graph] = None
_worker_poll_interval: int = 1
_worker_collect_metrics: bool = False
_worker_trace: Optional[TraceContext] = None


def _init_worker(
    factory: TrialFactory,
    graph: Graph,
    poll_interval: int,
    collect_metrics: bool = False,
    trace: Optional[TraceContext] = None,
) -> None:
    global _worker_factory, _worker_graph, _worker_poll_interval
    global _worker_collect_metrics, _worker_trace
    _worker_factory = factory
    _worker_graph = graph
    _worker_poll_interval = poll_interval
    _worker_collect_metrics = collect_metrics
    _worker_trace = trace


def _run_in_worker(spec: TrialSpec) -> TrialResult:
    assert _worker_factory is not None and _worker_graph is not None
    return run_trial(
        _worker_factory, _worker_graph, spec,
        _worker_poll_interval, _worker_collect_metrics, _worker_trace,
    )


class TrialExecutor:
    """Runs batches of :class:`TrialSpec` for one ``(factory, graph)`` pair.

    Create once per sweep and reuse across budgets: the process pool (when
    parallel) is started lazily on the first parallel batch and ships the
    factory and graph to each worker a single time.  Usable as a context
    manager; serial configurations never start a pool.
    """

    def __init__(
        self,
        factory: TrialFactory,
        graph: Graph,
        config: Optional[ExecutionConfig] = None,
    ):
        self.factory = factory
        self.graph = graph
        self.config = config or ExecutionConfig()
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def workers(self) -> int:
        return self.config.resolved_workers()

    def run(self, specs: Sequence[TrialSpec]) -> List[TrialResult]:
        """Execute ``specs`` (in order) and return their results (in order)."""
        poll = self.config.space_poll_interval
        collect = self.config.collect_metrics
        trace = self.config.trace_context()
        if self.workers <= 1 or len(specs) <= 1:
            return [
                run_trial(self.factory, self.graph, s, poll, collect, trace)
                for s in specs
            ]
        pool = self._ensure_pool()
        chunk = self.config.chunk_size
        if chunk is None:
            chunk = max(1, -(-len(specs) // (self.workers * 4)))
        return list(pool.map(_run_in_worker, specs, chunksize=chunk))

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(
                    self.factory,
                    self.graph,
                    self.config.space_poll_interval,
                    self.config.collect_metrics,
                    self.config.trace_context(),
                ),
            )
        return self._pool

    def close(self) -> None:
        """Shut down the pool (if one was started)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "TrialExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
