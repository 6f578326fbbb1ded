"""Multi-pass execution of streaming algorithms over adjacency-list streams.

The runner has two dispatch strategies:

* the **per-pair path** — the historical loop calling ``process`` for every
  ``(source, neighbour)`` pair, then ``end_list``;
* the **batched fast path** — one ``process_list`` call per adjacency list,
  used when the algorithm overrides :meth:`StreamingAlgorithm.process_list`
  (or overrides neither per-pair hook, so the inner loop is pure overhead).

Both paths are observably identical for conforming algorithms; the fast
path only removes per-pair Python dispatch.  :class:`PassCursor` holds
that decision and the per-list hook order; the runner and the serve
session both push their lists through it.  ``space_words()`` is polled
after every list and once more at each pass end.

Long runs can be made durable: pass a
:class:`repro.sketch.checkpoint.CheckpointConfig` as ``checkpoint`` and
the runner snapshots the algorithm (via the sketch state protocol) to
disk every ``every_lists`` adjacency lists and at each pass boundary.  A
run killed mid-pass resumes from the last snapshot by passing the loaded
:class:`~repro.sketch.checkpoint.Checkpoint` as ``resume_from``; because
streams replay deterministically, the resumed run finishes with results
identical to an uninterrupted one.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.obs.events import (
    EstimateSample,
    OccupancySample,
    PassFinished,
    PassStarted,
    RunFinished,
    RunStarted,
    SpaceHighWater,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.streaming.algorithm import StreamingAlgorithm, supports_current_estimate
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import AdjacencyListStream


@dataclass(frozen=True)
class RunResult:
    """Outcome of running a streaming algorithm: estimate plus space facts.

    ``wall_time_seconds`` and ``pairs_per_second`` describe this particular
    execution, so two otherwise-identical runs compare unequal; compare the
    estimate/space fields when checking reproducibility.  For a resumed run
    they cover only the resumed portion.
    """

    estimate: float
    peak_space_words: int
    mean_space_words: float
    passes: int
    pairs_per_pass: int
    wall_time_seconds: float = 0.0
    pairs_per_second: float = 0.0
    used_fast_path: bool = False


def supports_list_dispatch(algorithm: StreamingAlgorithm) -> bool:
    """Whether ``algorithm`` is eligible for the batched fast path.

    True when the algorithm overrides ``process_list`` (it opted into
    batched dispatch) or overrides neither ``process`` nor ``process_list``
    (the per-pair loop would only call base-class no-ops).
    """
    cls = type(algorithm)
    if cls.process_list is not StreamingAlgorithm.process_list:
        return True
    return cls.process is StreamingAlgorithm.process


def _dispatch_flags(
    algorithm: StreamingAlgorithm, use_fast_path: Optional[bool]
) -> Tuple[bool, bool]:
    """Resolve (fast, skip_pairs) dispatch decisions for ``algorithm``."""
    fast = use_fast_path if use_fast_path is not None else supports_list_dispatch(algorithm)
    cls = type(algorithm)
    skip_pairs = fast and (
        cls.process_list is StreamingAlgorithm.process_list
        and cls.process is StreamingAlgorithm.process
    )
    return fast, skip_pairs


class PassCursor:
    """Push-mode owner of the per-list hook order for one algorithm.

    Whoever owns the input brackets a pass with ``begin_pass`` /
    ``end_pass`` and pushes whole adjacency lists in between; the cursor
    makes the ``begin_list → process* → end_list`` calls with the
    fast-path decision (:func:`_dispatch_flags`) resolved once.  The
    batch runner pushes from ``iter_lists()``, a serve session from
    decoded frames, so both make exactly the same hook calls for the
    same lists.
    """

    __slots__ = ("algorithm", "fast", "skip_pairs")

    def __init__(
        self, algorithm: StreamingAlgorithm, use_fast_path: Optional[bool] = None
    ):
        self.algorithm = algorithm
        self.fast, self.skip_pairs = _dispatch_flags(algorithm, use_fast_path)

    def push(self, vertex, neighbors) -> None:
        """Run one complete adjacency list through the per-list hooks."""
        algorithm = self.algorithm
        algorithm.begin_list(vertex)
        if self.fast:
            if not self.skip_pairs:
                algorithm.process_list(vertex, neighbors)
        else:
            process = algorithm.process
            for nbr in neighbors:
                process(vertex, nbr)
        algorithm.end_list(vertex, neighbors)


def _drive_pass(
    cursor: PassCursor, lists: Iterable, pass_index: int, meter: SpaceMeter,
    telemetry: Telemetry, tracer: Tracer,
    *, skip_lists: int = 0, checkpoint=None,
) -> int:
    """One pass over ``lists``: hooks, space polls, telemetry and span.

    ``skip_lists`` resumes mid-pass: ``begin_pass`` is not run again (a
    mid-pass checkpoint already holds its effects) and the first
    ``skip_lists`` lists are consumed without being pushed, though they
    still count towards the pass's lists.  ``checkpoint`` snapshots the
    algorithm every ``every_lists`` lists.  Returns the pairs pushed.
    """
    algorithm = cursor.algorithm
    emit_estimate = telemetry.enabled and supports_current_estimate(algorithm)
    if telemetry.enabled:
        telemetry.emit(PassStarted(pass_index=pass_index))
    pass_start = time.perf_counter()
    with tracer.span(f"pass:{pass_index}", category="pass") as span:
        if skip_lists:
            lists = itertools.islice(lists, skip_lists, None)
        else:
            algorithm.begin_pass(pass_index)
        push = cursor.push
        lists_done = skip_lists
        pairs_run = 0
        for vertex, neighbors in lists:
            push(vertex, neighbors)
            pairs_run += len(neighbors)
            lists_done += 1
            words = algorithm.space_words()
            if telemetry.enabled:
                _record_poll(
                    telemetry, algorithm, meter, pass_index, lists_done,
                    words, emit_estimate,
                )
            meter.observe(words)
            if checkpoint is not None and lists_done % checkpoint.every_lists == 0:
                with tracer.span(f"checkpoint:{lists_done}", category="checkpoint"):
                    checkpoint.write(
                        algorithm.snapshot(), pass_index, lists_done,
                        meter.state_dict(),
                    )
        algorithm.end_pass(pass_index)
        words = algorithm.space_words()
        span.set(lists=lists_done, pairs=pairs_run)
        if telemetry.enabled:
            _record_poll(
                telemetry, algorithm, meter, pass_index, lists_done, words, emit_estimate
            )
            seconds = time.perf_counter() - pass_start
            label = str(pass_index)
            telemetry.emit(
                PassFinished(
                    pass_index=pass_index,
                    lists=lists_done,
                    pairs=pairs_run,
                    seconds=seconds,
                    pairs_per_second=pairs_run / seconds if seconds > 0 else 0.0,
                )
            )
            telemetry.count(
                "stream_pairs_total", pairs_run,
                help="adjacency pairs consumed", pass_index=label,
            )
            telemetry.count(
                "stream_lists_total", lists_done,
                help="adjacency lists consumed", pass_index=label,
            )
            telemetry.set_gauge(
                "stream_pass_space_words", words,
                help="live state in machine words at the pass boundary", pass_index=label,
            )
            telemetry.observe_histogram(
                "stream_pass_seconds", seconds,
                help="wall time of one stream pass", pass_index=label,
            )
        meter.observe(words)
    return pairs_run


def run_single_pass(
    algorithm: StreamingAlgorithm,
    lists: Iterable,
    pass_index: int,
    meter: Optional[SpaceMeter] = None,
    *,
    use_fast_path: Optional[bool] = None,
    column_provider=None,
    telemetry: Telemetry = NULL_TELEMETRY,
    tracer: Tracer = NULL_TRACER,
) -> SpaceMeter:
    """Run exactly one pass of ``algorithm`` over an adjacency-list slice.

    ``lists`` yields ``(vertex, neighbours)`` entries — a full stream's
    ``iter_lists()`` or one shard's slice of it.  Calls ``begin_pass`` and
    ``end_pass`` around the slice; the shard-and-merge driver is the main
    consumer.  ``column_provider`` (e.g. the source stream's
    ``columns_for``) is bound to the algorithm when given, letting its
    vectorized fast path reuse the stream's memoised vertex-id columns.
    Returns the meter used.

    ``telemetry`` receives pass-boundary, throughput, space high-water and
    occupancy events; the default :data:`NULL_TELEMETRY` keeps the loop's
    extra cost to one attribute lookup per poll.  ``tracer`` wraps the
    pass in a ``pass:<i>`` span (default :data:`NULL_TRACER`: a shared
    no-op context manager).
    """
    meter = meter if meter is not None else SpaceMeter()
    cursor = PassCursor(algorithm, use_fast_path)
    if column_provider is not None:
        algorithm.bind_columns(column_provider)
    _drive_pass(cursor, lists, pass_index, meter, telemetry, tracer)
    return meter


def _record_poll(
    telemetry: Telemetry,
    algorithm: StreamingAlgorithm,
    meter: SpaceMeter,
    pass_index: int,
    lists_done: int,
    words: int,
    emit_estimate: bool = False,
) -> None:
    """Telemetry work at one space-poll site (enabled path only).

    Must run *before* ``meter.observe(words)`` so the high-water test
    compares against the peak excluding the current reading.
    """
    if words > meter.peak_words:
        telemetry.emit(
            SpaceHighWater(pass_index=pass_index, lists_done=lists_done, words=words)
        )
    telemetry.set_gauge(
        "stream_space_words",
        words,
        help="algorithm live state in machine words, polled after every list",
    )
    gauges = algorithm.observables()
    if gauges:
        telemetry.emit(
            OccupancySample(
                pass_index=pass_index, lists_done=lists_done, gauges=dict(gauges)
            )
        )
    if emit_estimate:
        estimate = algorithm.current_estimate()
        if estimate is not None:
            telemetry.emit(
                EstimateSample(
                    pass_index=pass_index, lists_done=lists_done, estimate=estimate
                )
            )
            telemetry.set_gauge(
                "stream_current_estimate",
                estimate,
                help="anytime estimate polled at the space-poll cadence",
            )


def run_algorithm(
    algorithm: StreamingAlgorithm,
    stream: AdjacencyListStream,
    meter: Optional[SpaceMeter] = None,
    *,
    use_fast_path: Optional[bool] = None,
    checkpoint=None,
    resume_from=None,
    telemetry: Telemetry = NULL_TELEMETRY,
    tracer: Tracer = NULL_TRACER,
) -> RunResult:
    """Run ``algorithm`` for its declared number of passes over ``stream``.

    The same stream object is replayed for each pass, which satisfies the
    same-ordering requirement automatically (``AdjacencyListStream`` is
    deterministic).  Space is polled after every adjacency list and at
    the end of each pass; ``use_fast_path`` forces batched (True) or
    per-pair (False) dispatch, defaulting to auto-detection via
    :func:`supports_list_dispatch`.

    ``checkpoint`` (a :class:`~repro.sketch.checkpoint.CheckpointConfig`)
    enables periodic snapshots; ``resume_from`` (a loaded
    :class:`~repro.sketch.checkpoint.Checkpoint`) restores the algorithm
    and fast-forwards the stream to the recorded position before running.
    Both require the algorithm to implement the sketch state protocol.

    ``telemetry`` streams run/pass boundaries, per-pass throughput, space
    high-water marks, sampler occupancy and (for algorithms exposing
    ``current_estimate()``) anytime estimate samples as typed events, and
    folds the same facts into its metric registry.  The default
    :data:`NULL_TELEMETRY` adds one attribute lookup per poll site and
    pass boundary — nothing on the per-pair path.  ``tracer`` records
    ``pass:<i>`` / ``checkpoint:<...>`` / ``resume`` spans under the
    caller's current position (default :data:`NULL_TRACER`).
    """
    meter = meter if meter is not None else SpaceMeter()
    cursor = PassCursor(algorithm, use_fast_path)

    start_pass, skip_lists = 0, 0
    if resume_from is not None:
        with tracer.span("resume", category="checkpoint"):
            algorithm.restore(resume_from.algorithm_state)
            start_pass = resume_from.pass_index
            skip_lists = resume_from.lists_done
            if resume_from.meter_state:
                meter.load_state_dict(resume_from.meter_state)
    # Columnar stream handoff: the stream memoises each list's vertex-id
    # column, so both passes (and all per-list hooks) share one conversion.
    # (After the resume restore, which resets any bound provider.  Duck-
    # typed streams without the memo simply leave algorithms converting
    # their own lists.)
    provider = getattr(stream, "columns_for", None)
    if provider is not None:
        algorithm.bind_columns(provider)

    if telemetry.enabled:
        telemetry.emit(
            RunStarted(
                algorithm=type(algorithm).__name__,
                passes=algorithm.n_passes,
                pairs_per_pass=len(stream),
            )
        )

    start = time.perf_counter()
    pairs_run = 0
    for pass_index in range(start_pass, algorithm.n_passes):
        pairs_run += _drive_pass(
            cursor, stream.iter_lists(), pass_index, meter, telemetry, tracer,
            skip_lists=skip_lists if pass_index == start_pass else 0,
            checkpoint=checkpoint,
        )
        if checkpoint is not None:
            # Pass-boundary checkpoint: resume starts the next pass cleanly.
            with tracer.span(f"checkpoint:pass:{pass_index + 1}", category="checkpoint"):
                checkpoint.write(
                    algorithm.snapshot(), pass_index + 1, 0, meter.state_dict()
                )
    elapsed = time.perf_counter() - start
    result = RunResult(
        estimate=algorithm.result(),
        peak_space_words=meter.peak_words,
        mean_space_words=meter.mean_words,
        passes=algorithm.n_passes,
        pairs_per_pass=len(stream),
        wall_time_seconds=elapsed,
        pairs_per_second=pairs_run / elapsed if elapsed > 0 else 0.0,
        used_fast_path=cursor.fast,
    )
    if telemetry.enabled:
        telemetry.set_gauge(
            "run_peak_space_words", result.peak_space_words,
            help="peak live state over the whole run, matching RunResult",
        )
        telemetry.emit(
            RunFinished(
                estimate=result.estimate,
                peak_space_words=result.peak_space_words,
                mean_space_words=result.mean_space_words,
                passes=result.passes,
                pairs=pairs_run,
                seconds=elapsed,
                pairs_per_second=result.pairs_per_second,
            )
        )
    return result
