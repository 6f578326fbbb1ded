"""Tests for the multi-pass runner, the algorithm interface and SpaceMeter."""

import pytest

from repro.core.fourcycle_two_pass import TwoPassFourCycleCounter
from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.graph.generators import gnm_random_graph
from repro.streaming.algorithm import FixedValueAlgorithm, StreamingAlgorithm
from repro.streaming.runner import run_algorithm, supports_list_dispatch
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import AdjacencyListStream


class CallRecorder(StreamingAlgorithm):
    """Records every callback, to verify the runner's contract."""

    def __init__(self, passes=2):
        self.n_passes = passes
        self.events = []

    def begin_pass(self, pass_index):
        self.events.append(("begin_pass", pass_index))

    def begin_list(self, vertex):
        self.events.append(("begin_list", vertex))

    def process(self, source, neighbor):
        self.events.append(("pair", source, neighbor))

    def end_list(self, vertex, neighbors):
        self.events.append(("end_list", vertex, tuple(neighbors)))

    def end_pass(self, pass_index):
        self.events.append(("end_pass", pass_index))

    def result(self):
        return 42.0

    def space_words(self):
        return 7


@pytest.fixture()
def stream():
    return AdjacencyListStream(gnm_random_graph(10, 20, seed=1), seed=2)


class TestRunnerContract:
    def test_pass_count(self, stream):
        algo = CallRecorder(passes=3)
        result = run_algorithm(algo, stream)
        begins = [e for e in algo.events if e[0] == "begin_pass"]
        ends = [e for e in algo.events if e[0] == "end_pass"]
        assert begins == [("begin_pass", i) for i in range(3)]
        assert ends == [("end_pass", i) for i in range(3)]
        assert result.passes == 3

    def test_pairs_delivered_in_order(self, stream):
        algo = CallRecorder(passes=1)
        run_algorithm(algo, stream)
        pairs = [(e[1], e[2]) for e in algo.events if e[0] == "pair"]
        assert pairs == list(stream.iter_pairs())

    def test_each_pass_identical(self, stream):
        algo = CallRecorder(passes=2)
        run_algorithm(algo, stream)
        pairs = [(e[1], e[2]) for e in algo.events if e[0] == "pair"]
        half = len(pairs) // 2
        assert pairs[:half] == pairs[half:]

    def test_list_boundaries_bracket_pairs(self, stream):
        algo = CallRecorder(passes=1)
        run_algorithm(algo, stream)
        current = None
        for event in algo.events:
            if event[0] == "begin_list":
                current = event[1]
            elif event[0] == "pair":
                assert event[1] == current
            elif event[0] == "end_list":
                assert event[1] == current

    def test_end_list_receives_full_neighborhood(self, stream):
        algo = CallRecorder(passes=1)
        run_algorithm(algo, stream)
        for event in algo.events:
            if event[0] == "end_list":
                v, nbrs = event[1], event[2]
                assert set(nbrs) == stream.graph.neighbors(v)

    def test_result_and_space(self, stream):
        result = run_algorithm(CallRecorder(), stream)
        assert result.estimate == 42.0
        assert result.peak_space_words == 7
        assert result.pairs_per_pass == len(stream)

    def test_fixed_value_algorithm(self, stream):
        result = run_algorithm(FixedValueAlgorithm(3.5), stream)
        assert result.estimate == 3.5
        assert result.peak_space_words == 1


class ListLevelRecorder(StreamingAlgorithm):
    """Overrides process_list only; eligible for batched dispatch."""

    n_passes = 1

    def __init__(self):
        self.batches = []

    def process_list(self, source, neighbors):
        self.batches.append((source, tuple(neighbors)))

    def result(self):
        return float(len(self.batches))

    def space_words(self):
        return 1


class TestFastPath:
    def test_detection(self):
        assert supports_list_dispatch(FixedValueAlgorithm(1.0))  # no overrides
        assert supports_list_dispatch(ListLevelRecorder())  # batch override
        assert supports_list_dispatch(TwoPassTriangleCounter(8, seed=0))
        assert supports_list_dispatch(TwoPassFourCycleCounter(8, seed=0))
        assert not supports_list_dispatch(CallRecorder())  # per-pair override

    def test_auto_dispatch_recorded_in_result(self, stream):
        assert run_algorithm(FixedValueAlgorithm(1.0), stream).used_fast_path
        assert not run_algorithm(CallRecorder(passes=1), stream).used_fast_path

    def test_batch_algorithm_sees_every_list(self, stream):
        algo = ListLevelRecorder()
        run_algorithm(algo, stream)
        assert algo.batches == list(stream.iter_lists())

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TwoPassTriangleCounter(sample_size=48, seed=21),
            lambda: TwoPassFourCycleCounter(sample_size=48, seed=21),
        ],
        ids=["triangle-two-pass", "fourcycle-two-pass"],
    )
    def test_fast_path_bit_identical(self, make):
        """Satellite regression: batched and per-pair paths agree exactly."""
        graph = gnm_random_graph(40, 160, seed=6)
        stream = AdjacencyListStream(graph, seed=7)
        fast = run_algorithm(make(), stream, use_fast_path=True)
        slow = run_algorithm(make(), stream, use_fast_path=False)
        assert fast.used_fast_path and not slow.used_fast_path
        assert fast.estimate == slow.estimate
        assert fast.peak_space_words == slow.peak_space_words
        assert fast.mean_space_words == slow.mean_space_words

    def test_timing_fields_populated(self, stream):
        result = run_algorithm(CallRecorder(passes=1), stream)
        assert result.wall_time_seconds > 0
        assert result.pairs_per_second > 0


class TestSpacePollInterval:
    def test_end_of_pass_always_polled(self, stream):
        meter = SpaceMeter()
        result = run_algorithm(CallRecorder(passes=2), stream, meter=meter)
        # One poll per list, plus one at each pass end.
        n_lists = sum(1 for _ in stream.iter_lists())
        assert meter.n_observations == 2 * (n_lists + 1)
        assert result.peak_space_words == 7


class TestSpaceMeter:
    def test_peak_tracking(self):
        meter = SpaceMeter()
        for words in (3, 10, 5):
            meter.observe(words)
        assert meter.peak_words == 10
        assert meter.current_words == 5

    def test_mean(self):
        meter = SpaceMeter()
        for words in (2, 4, 6):
            meter.observe(words)
        assert meter.mean_words == 4

    def test_mean_empty(self):
        assert SpaceMeter().mean_words == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SpaceMeter().observe(-1)

    def test_reset(self):
        meter = SpaceMeter()
        meter.observe(9)
        meter.reset()
        assert meter.peak_words == 0
        assert meter.mean_words == 0.0

    def test_external_meter_is_populated(self, stream):
        meter = SpaceMeter()
        run_algorithm(CallRecorder(passes=1), stream, meter=meter)
        assert meter.peak_words == 7
