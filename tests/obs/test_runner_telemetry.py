"""Runner instrumentation: pass boundaries, high-water events, null parity."""

import contextlib
from dataclasses import fields, replace

import pytest

from repro.core.fourcycle_two_pass import TwoPassFourCycleCounter
from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.graph.planted import planted_triangles
from repro.obs.events import (
    MergeCompleted,
    MetricsReport,
    OccupancySample,
    PassFinished,
    PassStarted,
    RunFinished,
    RunStarted,
    ShardPassFinished,
    SpaceHighWater,
)
from repro.obs.sinks import InMemorySink
from repro.obs.telemetry import Telemetry
from repro.sketch.driver import run_sharded
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream
from repro.util.vectorized import SHORT_LIST, scalar_oracle


def _workload():
    planted = planted_triangles(400, 50, seed=3)
    return planted.graph


def _instrumented_run(sink=None):
    graph = _workload()
    algo = TwoPassTriangleCounter(sample_size=60, seed=7)
    stream = AdjacencyListStream(graph, seed=11)
    telemetry = Telemetry(sink=sink) if sink is not None else None
    if telemetry is None:
        return run_algorithm(algo, stream), None
    result = run_algorithm(algo, stream, telemetry=telemetry)
    telemetry.close()
    return result, telemetry


def test_pass_boundaries_and_throughput():
    sink = InMemorySink()
    result, _ = _instrumented_run(sink)

    (started,) = sink.of_type(RunStarted)
    assert started.algorithm == "TwoPassTriangleCounter"
    assert started.passes == 2

    assert [e.pass_index for e in sink.of_type(PassStarted)] == [0, 1]
    finished = sink.of_type(PassFinished)
    assert [e.pass_index for e in finished] == [0, 1]
    for e in finished:
        assert e.pairs == started.pairs_per_pass
        assert e.pairs_per_second > 0

    (run_finished,) = sink.of_type(RunFinished)
    assert run_finished.estimate == result.estimate
    assert run_finished.passes == 2
    assert run_finished.pairs == 2 * started.pairs_per_pass


def test_high_water_events_match_run_result():
    sink = InMemorySink()
    result, _ = _instrumented_run(sink)
    high_waters = sink.of_type(SpaceHighWater)
    assert high_waters, "a growing sampler must cross its own peak repeatedly"
    words = [e.words for e in high_waters]
    # Each event strictly exceeds every earlier reading...
    assert words == sorted(words) and len(set(words)) == len(words)
    # ...and the last one is the run's true peak.
    assert words[-1] == result.peak_space_words
    (run_finished,) = sink.of_type(RunFinished)
    assert run_finished.peak_space_words == result.peak_space_words


def test_occupancy_samples_expose_algorithm_observables():
    sink = InMemorySink()
    _instrumented_run(sink)
    samples = sink.of_type(OccupancySample)
    assert samples
    gauges = samples[-1].gauges
    assert "edge_sample_occupancy" in gauges
    assert "pair_reservoir_occupancy" in gauges
    assert gauges["edge_sample_capacity"] == 60


def test_metrics_registry_accumulates_counters():
    sink = InMemorySink()
    result, telemetry = _instrumented_run(sink)
    snap = telemetry.metrics_snapshot()
    pairs_p0 = snap["stream_pairs_total{pass_index=0}"]["value"]
    pairs_p1 = snap["stream_pairs_total{pass_index=1}"]["value"]
    assert pairs_p0 == pairs_p1 > 0
    assert snap["run_peak_space_words"]["high_water"] == result.peak_space_words


def test_null_telemetry_run_is_identical():
    with_telemetry, _ = _instrumented_run(InMemorySink())
    without, _ = _instrumented_run(None)
    assert with_telemetry.estimate == without.estimate
    assert with_telemetry.peak_space_words == without.peak_space_words
    assert with_telemetry.mean_space_words == without.mean_space_words


def test_sharded_driver_emits_shard_events():
    graph = _workload()
    algo = TwoPassTriangleCounter(sample_size=60, seed=7, sharded=True)
    stream = AdjacencyListStream(graph, seed=11)
    sink = InMemorySink()
    telemetry = Telemetry(sink=sink)
    result = run_sharded(algo, stream, n_shards=3, telemetry=telemetry)
    telemetry.close()

    shard_events = sink.of_type(ShardPassFinished)
    assert {e.shard_index for e in shard_events} == {0, 1, 2}
    merges = sink.of_type(MergeCompleted)
    assert [m.n_shards for m in merges] == [3] * len(merges)
    (run_finished,) = sink.of_type(RunFinished)
    assert run_finished.estimate == result.estimate


def _untimed(events):
    """``events`` without what a clock decides: the timer fields are
    zeroed and the closing metrics report, which holds the pass-time
    histograms, is dropped."""
    out = []
    for event in events:
        if isinstance(event, MetricsReport):
            continue
        names = {f.name for f in fields(event)}
        timers = {n: 0.0 for n in ("seconds", "pairs_per_second") if n in names}
        out.append(replace(event, **timers))
    return out


@pytest.mark.parametrize(
    "make",
    [
        lambda: TwoPassTriangleCounter(sample_size=60, seed=7),
        lambda: TwoPassFourCycleCounter(sample_size=60, mode="distinct", seed=7),
    ],
    ids=["triangle", "fourcycle-distinct"],
)
def test_telemetry_cuts_runs_to_one_list(make, monkeypatch):
    """Telemetry keeps the run route but polls after every list: each
    ``process_run`` call holds one list, short or long, and the events
    equal the scalar oracle's."""
    graph = _workload()
    for hub in (10**6, 10**6 + 1):
        for nbr in range(3 * SHORT_LIST):
            graph.add_edge(hub, nbr)
    stream = AdjacencyListStream(graph, seed=11)
    cls = type(make())
    hook = cls.process_run
    runs = []

    def recording(self, run, columns):
        runs.append([len(neighbors) for _, neighbors in run])
        return hook(self, run, columns)

    monkeypatch.setattr(cls, "process_run", recording)
    sinks = InMemorySink(), InMemorySink()
    for sink, oracle in zip(sinks, (False, True)):
        telemetry = Telemetry(sink=sink)
        with scalar_oracle() if oracle else contextlib.nullcontext():
            run_algorithm(make(), stream, telemetry=telemetry)
        telemetry.close()
        if not oracle:
            assert runs and all(len(sizes) == 1 for sizes in runs)
            assert {sizes[0] >= SHORT_LIST for sizes in runs} == {False, True}
    assert _untimed(sinks[0].events) == _untimed(sinks[1].events)
