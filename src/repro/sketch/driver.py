"""Shard-and-merge execution of snapshot-capable streaming algorithms.

One logical pass over the stream becomes ``n_shards`` independent passes
over disjoint slices of its adjacency lists (see
:mod:`repro.sketch.shard`), each run in its own process from the *same*
starting snapshot, then folded back into one state through the merge
layer (:mod:`repro.sketch.merge`):

    state = algorithm.snapshot()
    for each pass p:
        per-shard: restore(state); run pass p over the shard; snapshot()
        state = merge_states(shard states, base=state)
    algorithm.restore(state)

Because every shard starts each pass from the merged state of the
previous one, counters merge as deltas over a common base and the
bottom-k edge sample merges bit-exactly.  A stream object is partitioned
once per ``(n_shards, strategy)``, and both schedules read that
partition.  Parallel fan-out runs on the process's warm pool
(:mod:`repro.util.warmpool`), forked once and reused by every run.  The
shards' adjacency lists are published once into a shared-memory block
owned by the stream object, under the same key, so repeated runs over
the same stream neither re-partition nor re-ship it; per-pass tasks
carry only the block's name and the (small) merged state.  Workers unpickle a shard on first use and
keep it, with a :class:`~repro.util.vectorized.ColumnMemo` of vertex-id
columns for the counters' vectorized fast path, warm across passes and
runs.  ``workers=None`` runs shards serially in-process, reading columns
from the stream's own memo, which is bit-identical to the parallel
schedule (merging is order-deterministic).

Checkpoints are written at pass boundaries only — each shard pass is the
atomic unit of work — so resuming a sharded run replays at most one
logical pass.
"""

from __future__ import annotations

import os
import pickle
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import resolve_workers
from repro.obs.events import MergeCompleted, RunFinished, RunStarted, ShardPassFinished
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.trace import NULL_TRACER, TraceContext, Tracer
from repro.sketch.checkpoint import Checkpoint, CheckpointConfig
from repro.sketch.merge import merge_states
from repro.sketch.shard import StreamShard, partition_stream
from repro.sketch.state import SketchState, SketchStateError
from repro.streaming.algorithm import StreamingAlgorithm, supports_snapshot
from repro.streaming.runner import run_single_pass
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import AdjacencyListStream
from repro.util.rng import derive_seed
from repro.util.vectorized import ColumnMemo
from repro.util.warmpool import SharedBlock, fan_out, owned_block, retire_pool

#: factory(state) -> restored algorithm instance.
AlgorithmFactory = Callable[[SketchState], StreamingAlgorithm]

_ALGORITHM_KINDS: Dict[str, AlgorithmFactory] = {}


def register_algorithm_kind(kind: str, factory: AlgorithmFactory) -> None:
    """Register a restorer for snapshot ``kind`` (used by shard workers).

    A new or changed restorer retires the warm pool: its workers were
    forked before the registration and would not know the kind.
    """
    if _ALGORITHM_KINDS.get(kind) != factory:
        _ALGORITHM_KINDS[kind] = factory
        retire_pool()


def _ensure_default_kinds() -> None:
    # Imported lazily: the core counters import repro.sketch.state at module
    # load, so a top-level import here would be circular through the package
    # __init__.  Every process registers the defaults the same way, so they
    # bypass register_algorithm_kind and never retire the pool.
    if "triangle-two-pass" not in _ALGORITHM_KINDS:
        from repro.core.triangle_two_pass import TwoPassTriangleCounter

        _ALGORITHM_KINDS["triangle-two-pass"] = TwoPassTriangleCounter.from_state
    if "fourcycle-two-pass" not in _ALGORITHM_KINDS:
        from repro.core.fourcycle_two_pass import TwoPassFourCycleCounter

        _ALGORITHM_KINDS["fourcycle-two-pass"] = TwoPassFourCycleCounter.from_state


def restore_algorithm(state: SketchState) -> StreamingAlgorithm:
    """Instantiate the algorithm a snapshot came from, fully restored."""
    _ensure_default_kinds()
    factory = _ALGORITHM_KINDS.get(state.kind)
    if factory is None:
        raise SketchStateError(
            f"no algorithm registered for state kind {state.kind!r} "
            f"(known: {sorted(_ALGORITHM_KINDS)})"
        )
    return factory(state)


@dataclass(frozen=True)
class PooledShardTask:
    """Per-pass work order for a pool worker.

    Carries only what changes between passes — the merged state and the
    tracer position.  The shard's adjacency lists (the bulky, pass-
    invariant part) come from the run's shared block, which the worker
    keeps warm across passes and calls.
    """

    shard_index: int
    pass_index: int
    state: SketchState
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class ShardPassResult:
    """What one shard pass sends back to the driver.

    ``spans`` holds the worker's trace spans in wire form (see
    :func:`repro.obs.trace.encode_span`); the driver adopts them in
    shard order, keeping the span tree schedule-invariant.
    """

    shard_index: int
    state: SketchState
    peak_space_words: int
    pairs: int
    spans: Tuple = ()


def _execute_shard_pass(
    shard_index: int,
    pass_index: int,
    state: SketchState,
    lists: Tuple,
    trace: Optional[TraceContext],
    column_provider=None,
) -> ShardPassResult:
    """Restore, run one pass over the shard's lists, snapshot.

    ``column_provider`` (the stream's ``columns_for`` or a
    :class:`~repro.util.vectorized.ColumnMemo` holding this shard's
    lists) goes to the pass cursor, which reads each long list's
    vertex-id column from it, so the columns are reused across passes;
    it never changes results.
    """
    algorithm = restore_algorithm(state)
    tracer = Tracer.from_context(trace) if trace is not None else NULL_TRACER
    with tracer.span(f"shard:{shard_index}", category="shard") as span:
        meter = run_single_pass(
            algorithm, lists, pass_index, column_provider=column_provider
        )
        pairs = sum(len(neighbors) for _, neighbors in lists)
        span.set(pairs=pairs, peak_space_words=meter.peak_words)
    return ShardPassResult(
        shard_index=shard_index,
        state=algorithm.snapshot(),
        peak_space_words=meter.peak_words,
        pairs=pairs,
        spans=tuple(tracer.encoded_spans()),
    )


class _ShardLists:
    """Every shard's lists as one shared-block payload.

    Each shard is pickled on its own, so a worker unpickles only the
    shards it is handed, on first use, and keeps them — with a
    :class:`~repro.util.vectorized.ColumnMemo` each — warm from then on.
    """

    def __init__(self, shards: Sequence[StreamShard]):
        self.packed = tuple(
            pickle.dumps(shard.lists, pickle.HIGHEST_PROTOCOL) for shard in shards
        )
        self.warm: Dict[int, Tuple[Tuple, ColumnMemo]] = {}

    def __getstate__(self) -> Tuple[bytes, ...]:
        return self.packed

    def __setstate__(self, packed: Tuple[bytes, ...]) -> None:
        self.packed = packed
        self.warm = {}

    def shard(self, index: int) -> Tuple[Tuple, ColumnMemo]:
        entry = self.warm.get(index)
        if entry is None:
            entry = self.warm[index] = (pickle.loads(self.packed[index]), ColumnMemo())
        return entry


#: Per stream object, its partitions by ``(n_shards, strategy)``; weakly
#: keyed, so a stream's partitions die with it.
_partitions: "weakref.WeakKeyDictionary[Any, Dict[Tuple[int, str], List[StreamShard]]]" = (
    weakref.WeakKeyDictionary()
)


def _partition(stream, n_shards: int, strategy: str) -> List[StreamShard]:
    """``stream``'s shards: made once per stream object and key, and on
    every call for any other iterable."""
    if not isinstance(stream, AdjacencyListStream):
        return partition_stream(stream, n_shards, strategy)
    by_key = _partitions.setdefault(stream, {})
    shards = by_key.get((n_shards, strategy))
    if shards is None:
        shards = partition_stream(stream, n_shards, strategy)
        by_key[(n_shards, strategy)] = shards
    return shards


def _shard_block(stream, n_shards: int, strategy: str) -> Tuple[List[StreamShard], bytes]:
    shards = _partition(stream, n_shards, strategy)
    return shards, pickle.dumps(_ShardLists(shards), pickle.HIGHEST_PROTOCOL)


def _run_shard_pass_pooled(lists: _ShardLists, task: PooledShardTask) -> ShardPassResult:
    """Worker entry point: the shard's lists and memo come from the block."""
    shard_lists, memo = lists.shard(task.shard_index)
    return _execute_shard_pass(
        task.shard_index,
        task.pass_index,
        task.state,
        shard_lists,
        task.trace,
        column_provider=memo,
    )


@dataclass(frozen=True)
class ShardRunResult:
    """Outcome of a sharded run.

    ``peak_space_words`` is the largest per-shard peak — the worst-case
    footprint of any single worker, the number the paper's space bounds
    constrain.  ``mean_space_words`` averages the per-shard-pass peaks.

    ``workers`` is the *requested* worker count (resolved: ``0`` becomes
    ``os.cpu_count()``); ``effective_parallelism`` is how many shard
    passes could actually run concurrently — ``min(workers, n_shards)``
    — the honest denominator for any speedup claim.  A single-core box
    reports ``effective_parallelism == 1`` no matter what was requested,
    which is what lets the bench gate skip speedup assertions there.
    """

    estimate: float
    passes: int
    n_shards: int
    workers: int
    strategy: str
    pairs_per_pass: int
    shard_pairs: List[int]
    peak_space_words: int
    mean_space_words: float
    wall_time_seconds: float
    effective_parallelism: int = 1


def run_sharded(
    algorithm: StreamingAlgorithm,
    stream,
    n_shards: int,
    *,
    workers: Optional[int] = None,
    strategy: str = "balanced",
    merge_seed: Optional[int] = None,
    checkpoint: Optional[CheckpointConfig] = None,
    resume_from: Optional[Checkpoint] = None,
    telemetry: Telemetry = NULL_TELEMETRY,
    tracer: Tracer = NULL_TRACER,
) -> ShardRunResult:
    """Run ``algorithm`` over ``stream`` shard-and-merge style.

    ``algorithm`` must implement the sketch state protocol and have a
    merger registered for its state kind.  The merged final state is
    restored into ``algorithm`` before returning, so the instance is
    inspectable exactly as after a conventional run.  ``merge_seed``
    drives the randomised parts of merging (per pass, statelessly derived,
    so a resumed run merges identically); the default is deterministic.

    With ``workers`` resolving above 1 (and more than one shard), every
    pass fans out over the process's warm pool
    (:mod:`repro.util.warmpool`); otherwise shards run serially
    in-process, with the stream's column memo.  Both schedules produce
    bit-identical results.

    ``telemetry`` records per-shard pass completions, merge boundaries and
    the fleet-wide space picture; shard *workers* run with the default
    null telemetry (their peaks come home in :class:`ShardPassResult`),
    so only the driver process emits events.  ``tracer`` records
    ``pass:<i>`` / ``merge:<i>`` / ``checkpoint`` spans and adopts the
    workers' ``shard:<j>`` spans in shard order, so the span tree is
    identical under serial and pool execution.
    """
    if not supports_snapshot(algorithm):
        raise SketchStateError(
            f"{type(algorithm).__name__} does not implement the sketch "
            "state protocol (snapshot/restore); cannot run sharded"
        )
    if getattr(algorithm, "sharded", True) is False:
        # Algorithms with an explicit sharded mode (e.g. the triangle
        # counter's hash-designated ρ) cannot be merged correctly in their
        # conventional mode — fail up front rather than deep in estimation.
        raise SketchStateError(
            f"{type(algorithm).__name__} was constructed in conventional "
            "mode; pass sharded=True to its constructor for run_sharded"
        )
    n_workers = min(resolve_workers(workers), max(n_shards, 1))
    effective = min(n_workers, os.cpu_count() or 1)
    # Pooled runs read the shards from a shared block.  A stream object
    # owns its partitions and blocks, so repeated runs over it partition
    # and ship once; any other iterable gets both for this call only.
    block: Optional[SharedBlock] = None
    call_block: Optional[SharedBlock] = None
    if n_workers > 1:
        if isinstance(stream, AdjacencyListStream):
            block = owned_block(
                stream, ("shards", n_shards, strategy),
                lambda: _shard_block(stream, n_shards, strategy),
            )
        else:
            block = call_block = SharedBlock(*_shard_block(stream, n_shards, strategy))
        shards = block.value
    else:
        shards = _partition(stream, n_shards, strategy)
    meter = SpaceMeter()

    state = algorithm.snapshot()
    start_pass = 0
    if resume_from is not None:
        if resume_from.lists_done != 0:
            raise SketchStateError(
                "sharded runs checkpoint at pass boundaries only; got a "
                f"mid-pass checkpoint (lists_done={resume_from.lists_done})"
            )
        with tracer.span("resume", category="checkpoint"):
            state = resume_from.algorithm_state
            start_pass = resume_from.pass_index
            if resume_from.meter_state:
                meter.load_state_dict(resume_from.meter_state)

    if telemetry.enabled:
        telemetry.emit(
            RunStarted(
                algorithm=type(algorithm).__name__,
                passes=algorithm.n_passes,
                pairs_per_pass=sum(len(shard) for shard in shards),
            )
        )

    base_seed = 0 if merge_seed is None else int(merge_seed)
    # Serial path: a shard's lists are the stream's own tuples (``tuple(t)
    # is t``), so the stream's column memo serves every shard, pass and
    # call; other inputs get one memo for this call (shards hold disjoint
    # vertices).  Pool workers keep theirs with the block's lists.
    columns = None
    if block is None:
        columns = (
            stream.columns_for if isinstance(stream, AdjacencyListStream) else ColumnMemo()
        )
    # repro-lint: disable=DET003 -- wall-time telemetry for ShardRunResult only; never touches sketch state
    start = time.perf_counter()
    try:
        for pass_index in range(start_pass, algorithm.n_passes):
            with tracer.span(f"pass:{pass_index}", category="pass") as pass_span:
                trace_ctx = tracer.context()
                if block is not None:
                    tasks = [
                        PooledShardTask(
                            shard_index=shard.index,
                            pass_index=pass_index,
                            state=state,
                            trace=trace_ctx,
                        )
                        for shard in shards
                    ]
                    results = fan_out(n_workers, _run_shard_pass_pooled, block, tasks)
                else:
                    results = [
                        _execute_shard_pass(
                            shard.index,
                            pass_index,
                            state,
                            shard.lists,
                            trace_ctx,
                            column_provider=columns,
                        )
                        for shard in shards
                    ]
                pass_pairs = 0
                for result in results:
                    tracer.adopt(result.spans)
                    pass_pairs += result.pairs
                    if telemetry.enabled:
                        telemetry.emit(
                            ShardPassFinished(
                                shard_index=result.shard_index,
                                pass_index=pass_index,
                                pairs=result.pairs,
                                peak_space_words=result.peak_space_words,
                            )
                        )
                        telemetry.count(
                            "shard_pairs_total", result.pairs,
                            help="adjacency pairs consumed by shard workers",
                            shard=str(result.shard_index),
                        )
                        telemetry.set_gauge(
                            "shard_peak_space_words", result.peak_space_words,
                            help="per-shard peak live state in machine words",
                            shard=str(result.shard_index),
                        )
                    meter.observe(result.peak_space_words)
                with tracer.span(f"merge:{pass_index}", category="merge", n_shards=len(results)):
                    state = merge_states(
                        [result.state for result in results],
                        base=state,
                        seed=derive_seed(base_seed, pass_index),
                    )
                pass_span.set(pairs=pass_pairs, n_shards=len(results))
                if telemetry.enabled:
                    telemetry.emit(
                        MergeCompleted(pass_index=pass_index, n_shards=len(results))
                    )
                    telemetry.count("shard_merges_total", help="pass-boundary shard merges")
            if checkpoint is not None:
                with tracer.span(f"checkpoint:pass:{pass_index + 1}", category="checkpoint"):
                    checkpoint.write(state, pass_index + 1, 0, meter.state_dict())
    finally:
        if call_block is not None:
            call_block.release()
    elapsed = time.perf_counter() - start  # repro-lint: disable=DET003 -- telemetry field, mirrors streaming/runner.py

    algorithm.restore(state)
    shard_result = ShardRunResult(
        estimate=algorithm.result(),
        passes=algorithm.n_passes,
        n_shards=len(shards),
        workers=resolve_workers(workers),
        effective_parallelism=effective,
        strategy=strategy,
        pairs_per_pass=sum(len(shard) for shard in shards),
        shard_pairs=[len(shard) for shard in shards],
        peak_space_words=meter.peak_words,
        mean_space_words=meter.mean_words,
        wall_time_seconds=elapsed,
    )
    if telemetry.enabled:
        telemetry.set_gauge(
            "run_peak_space_words", shard_result.peak_space_words,
            help="largest per-shard peak, matching ShardRunResult",
        )
        telemetry.emit(
            RunFinished(
                estimate=shard_result.estimate,
                peak_space_words=shard_result.peak_space_words,
                mean_space_words=shard_result.mean_space_words,
                passes=shard_result.passes,
                pairs=shard_result.pairs_per_pass * shard_result.passes,
                seconds=elapsed,
                pairs_per_second=(
                    shard_result.pairs_per_pass * shard_result.passes / elapsed
                    if elapsed > 0 else 0.0
                ),
            )
        )
    return shard_result
