"""The conventional triangle counter's run route, list for list.

A long run is offered whole before its lists are replayed (pass 1), and
its H watchers are updated once after the replay (pass 2), so the order
of events *inside* a run is the kernel's own.  Pushing whole passes
through :meth:`PassCursor.push_lists` makes runs of many lists; every
observation the runner can make must still equal the scalar oracle's,
which pushes the same lists one at a time:

* the space reading of every list;
* ``observables()`` at the end of every run;
* ``snapshot().payload`` at each pass end;
* the estimate.
"""

from __future__ import annotations

import pytest

from repro.core import triangle_two_pass
from repro.graph.generators import gnm_random_graph
from repro.streaming.registry import get as get_spec
from repro.streaming.runner import PassCursor
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import AdjacencyListStream
from repro.util.vectorized import scalar_oracle


class _Recorder(SpaceMeter):
    """A space meter that keeps every reading, and the algorithm's
    observables wherever the cursor hands it a batch of readings."""

    def __init__(self, algorithm) -> None:
        super().__init__()
        self.algorithm = algorithm
        self.readings = []
        self.batch_ends = {}

    def observe(self, words: int) -> None:
        super().observe(words)
        self._record([words])

    def observe_many(self, readings) -> None:
        super().observe_many(readings)
        self._record(readings)

    def _record(self, readings) -> None:
        self.readings.extend(readings)
        self.batch_ends[len(self.readings)] = sorted(self.algorithm.observables().items())


def _run(graph, budget: int, stream_seed: int):
    algorithm = get_spec("triangle-two-pass").make(budget, seed=7)
    cursor = PassCursor(algorithm)
    stream = AdjacencyListStream(graph, seed=stream_seed)
    passes = []
    for pass_index in range(algorithm.n_passes):
        meter = _Recorder(algorithm)
        algorithm.begin_pass(pass_index)
        cursor.push_lists(stream.iter_lists(), meter)
        algorithm.end_pass(pass_index)
        passes.append((meter, algorithm.snapshot().payload))
    return passes, algorithm.result()


GRAPHS = {
    # Every list is long: each pass is a few dozen runs of ~50 lists.
    "gnm-300-6000": lambda: gnm_random_graph(300, 6000, seed=1),
    # Mean degree ~17: long runs alternate with short ones, so the
    # per-list short route and the run route share the watchers.
    "gnm-600-5000": lambda: gnm_random_graph(600, 5000, seed=2),
}


@pytest.mark.parametrize("stream_seed", [1, 2])
@pytest.mark.parametrize("budget", [16, 64])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_whole_pass_runs_match_the_scalar_oracle(name, budget, stream_seed):
    graph = GRAPHS[name]()
    kernel, kernel_estimate = _run(graph, budget, stream_seed)
    with scalar_oracle():
        oracle, oracle_estimate = _run(graph, budget, stream_seed)
    for pass_index, ((k_meter, k_payload), (o_meter, o_payload)) in enumerate(
        zip(kernel, oracle)
    ):
        assert k_meter.readings == o_meter.readings, f"pass {pass_index} readings"
        # The oracle records observables after every list, the kernel at
        # every run end; runs must hold many lists for this to test them.
        ends = sorted(k_meter.batch_ends)
        assert max(b - a for a, b in zip([0] + ends, ends)) >= 10
        for index, observables in k_meter.batch_ends.items():
            assert observables == o_meter.batch_ends[index], (pass_index, index)
        assert k_payload == o_payload, f"pass {pass_index} snapshot"
        assert (k_meter.peak_words, k_meter.mean_words) == (
            o_meter.peak_words, o_meter.mean_words
        )
    assert kernel_estimate == oracle_estimate


def test_watcher_columns_dropped_mid_run_match_the_scalar_oracle(monkeypatch):
    """A run whose fresh watchers overflow the watcher columns' queue
    (which then drops the columns) counts H on rebuilt columns."""
    from repro.util.vectorized import EndpointColumns

    queue = EndpointColumns.queue

    def overflowing(self, row, payload):
        queue(self, row, payload)
        self.drop()

    graph = gnm_random_graph(300, 6000, seed=1)
    with scalar_oracle():
        oracle, oracle_estimate = _run(graph, 64, 1)
    monkeypatch.setattr(EndpointColumns, "queue", overflowing)
    kernel, kernel_estimate = _run(graph, 64, 1)
    for (k_meter, k_payload), (o_meter, o_payload) in zip(kernel, oracle):
        assert k_meter.readings == o_meter.readings
        assert k_payload == o_payload
    assert kernel_estimate == oracle_estimate


def test_moved_h_counts_match_the_scalar_oracle(monkeypatch):
    """With the slack made negative, the watchers' counts move to a new
    store at every registration, mid-run included; the run route, which
    then rebuilds its watcher columns, still counts as the scalar oracle
    does."""
    moves = []
    compact = triangle_two_pass.TwoPassTriangleCounter._compact_h

    def counted(self):
        moves.append(self._pass)
        compact(self)

    monkeypatch.setattr(triangle_two_pass, "_H_SLACK", -(1 << 30))
    monkeypatch.setattr(triangle_two_pass.TwoPassTriangleCounter, "_compact_h", counted)
    graph = gnm_random_graph(300, 6000, seed=1)
    with scalar_oracle():
        oracle, oracle_estimate = _run(graph, 16, 1)
    del moves[:]
    kernel, kernel_estimate = _run(graph, 16, 1)
    assert moves.count(1) > 16  # pass 2, past the pass-1 pairs' watchers
    for (k_meter, k_payload), (o_meter, o_payload) in zip(kernel, oracle):
        assert k_meter.readings == o_meter.readings
        assert k_meter.batch_ends == {
            end: o_meter.batch_ends[end] for end in k_meter.batch_ends
        }
        assert k_payload == o_payload
    assert kernel_estimate == oracle_estimate
