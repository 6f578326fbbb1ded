"""Tests for the multi-pass runner, the algorithm interface and SpaceMeter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fourcycle_two_pass import TwoPassFourCycleCounter
from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.graph.generators import gnm_random_graph
from repro.graph.planted import planted_four_cycles, planted_triangles
from repro.lowerbounds.problems import random_three_disj_instance
from repro.lowerbounds.reductions import triangle_multipass
from repro.obs.telemetry import Telemetry
from repro.sketch.checkpoint import Checkpoint, CheckpointConfig, load_checkpoint
from repro.streaming.algorithm import FixedValueAlgorithm, StreamingAlgorithm
from repro.streaming.runner import run_algorithm, supports_list_dispatch
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import AdjacencyListStream
from repro.util import vectorized
from repro.util.sampling import BottomKSampler
from repro.util.vectorized import SHORT_LIST, scalar_oracle


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

    def test_external_meter_is_populated(self, stream):
        meter = SpaceMeter()
        run_algorithm(CallRecorder(passes=1), stream, meter=meter)
        assert meter.peak_words == 7


class TestObserveMany:
    @given(batches=st.lists(st.lists(st.integers(0, 10**6), max_size=40), max_size=8))
    @settings(max_examples=200)
    def test_matches_one_observe_per_reading(self, batches):
        bulk, single = SpaceMeter(), SpaceMeter()
        for readings in batches:
            bulk.observe_many(readings)
            for words in readings:
                single.observe(words)
            assert bulk.state_dict() == single.state_dict()
        assert bulk.mean_words == single.mean_words

    def test_negative_rejected_before_recording(self):
        meter = SpaceMeter()
        with pytest.raises(ValueError):
            meter.observe_many([3, -1])
        assert meter.state_dict() == SpaceMeter().state_dict()


class TestOfferManyPriorities:
    @given(
        keys=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=60),
        capacity=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_matches_per_key_offer(self, keys, capacity, seed):
        """Hoisted priorities leave the sampler, its evictions and the
        accepted count as per-key ``offer`` calls do, before and after
        the sample fills (small key space: duplicates are common)."""
        logs = ([], [])
        hoisted, scalar = (
            BottomKSampler(capacity, seed=seed, on_evict=log.append) for log in logs
        )
        priorities = [hoisted.priority(key) for key in keys]
        assert hoisted.offer_many(keys, priorities) == sum(scalar.offer(k) for k in keys)
        assert logs[0] == logs[1]
        assert hoisted.state_dict() == scalar.state_dict()
        assert hoisted.members() == scalar.members()


def _mixed_length_graph(planted):
    """A sparse planted graph plus two hubs of ``SHORT_LIST + 4`` neighbours,
    so runs of short lists end at long lists too."""
    graph = planted.graph
    for hub in (10**6, 10**6 + 1):
        for nbr in range(SHORT_LIST + 4):
            graph.add_edge(hub, nbr)
    return graph


RUN_FACTORIES = {
    "triangle": lambda: TwoPassTriangleCounter(sample_size=40, seed=3),
    "triangle-sharded": lambda: TwoPassTriangleCounter(sample_size=40, seed=3, sharded=True),
    "fourcycle": lambda: TwoPassFourCycleCounter(sample_size=40, seed=3),
    "fourcycle-distinct": lambda: TwoPassFourCycleCounter(
        sample_size=40, mode="distinct", seed=3
    ),
}


@pytest.fixture(scope="module")
def run_streams():
    return {
        "triangle": AdjacencyListStream(
            _mixed_length_graph(planted_triangles(300, 40, seed=1)), seed=4
        ),
        "fourcycle": AdjacencyListStream(
            _mixed_length_graph(planted_four_cycles(300, 30, seed=2)), seed=4
        ),
    }


def _outcome(algorithm, result):
    return (
        result.estimate,
        result.peak_space_words,
        result.mean_space_words,
        algorithm.snapshot().payload,
    )


def _per_list(make, stream):
    """One-list runs: a metrics-only telemetry polls after every list."""
    algorithm = make()
    return _outcome(algorithm, run_algorithm(algorithm, stream, telemetry=Telemetry(sink=None)))


class _KeepEveryCheckpoint(CheckpointConfig):
    """Keeps every checkpoint it writes, not just the latest on disk."""

    def __post_init__(self):
        super().__post_init__()
        self.kept = []

    def write(self, *args, **kwargs):
        record = super().write(*args, **kwargs)
        self.kept.append(load_checkpoint(self.path))
        return record


class TestOldMeterState:
    @pytest.mark.parametrize("pass_index", [0, 1])
    @pytest.mark.parametrize("name", ["triangle", "fourcycle"])
    def test_profile_keys_resume_identically(self, name, pass_index, run_streams, tmp_path):
        """A checkpoint whose meter state still carries the profile buffer
        that older versions wrote (``max_samples``, ``samples``,
        ``stride``, ``since_kept``) resumes, from disk, to the
        uninterrupted run's estimate, space peak and mean."""
        make = RUN_FACTORIES[name]
        stream = run_streams[name]
        algorithm = make()
        reference = _outcome(algorithm, run_algorithm(algorithm, stream))
        config = _KeepEveryCheckpoint(tmp_path / "run.ckpt", every_lists=37)
        run_algorithm(make(), stream, checkpoint=config)
        new = [c for c in config.kept if c.pass_index == pass_index and c.lists_done][1]
        meter = new.meter_state
        old = dict(
            meter, max_samples=4096, samples=[meter["current_words"]] * 5, stride=1,
            since_kept=0,
        )
        Checkpoint(new.algorithm_state, pass_index, new.lists_done, old).save(
            tmp_path / "old.ckpt"
        )
        loaded = load_checkpoint(tmp_path / "old.ckpt")
        assert loaded.meter_state == old
        algorithm = make()
        assert _outcome(algorithm, run_algorithm(algorithm, stream, resume_from=loaded)) == reference


class TestRunRoute:
    """Runs of short lists match the per-list route and the scalar oracle."""

    @pytest.mark.parametrize("cap", [vectorized.RUN_PAIRS, 16])
    @pytest.mark.parametrize("name", sorted(RUN_FACTORIES))
    def test_checkpoint_cuts_runs_and_resume_is_identical(
        self, name, cap, run_streams, tmp_path, monkeypatch
    ):
        """``every_lists`` = 37 is aligned to no run (nor the pair cap),
        and a mid-pass resume in either pass finishes like the whole run."""
        monkeypatch.setattr(vectorized, "RUN_PAIRS", cap)
        make = RUN_FACTORIES[name]
        stream = run_streams[name.split("-")[0]]
        reference = _per_list(make, stream)
        config = _KeepEveryCheckpoint(tmp_path / "run.ckpt", every_lists=37)
        algorithm = make()
        assert _outcome(algorithm, run_algorithm(algorithm, stream, checkpoint=config)) == reference
        mid_pass = [c for c in config.kept if c.lists_done]
        for pass_index in (0, 1):
            checkpoint = [c for c in mid_pass if c.pass_index == pass_index][1]
            algorithm = make()
            resumed = run_algorithm(algorithm, stream, resume_from=checkpoint)
            assert _outcome(algorithm, resumed) == reference
        with scalar_oracle():
            algorithm = make()
            assert _outcome(algorithm, run_algorithm(algorithm, stream)) == reference

    @pytest.mark.parametrize("name", sorted(RUN_FACTORIES))
    def test_tuple_labels_bypass_long_runs(self, name, monkeypatch):
        """Tuple labels have no ``uint64`` column: runs of short lists
        are still taken, through the scalar offers and the probes, and
        the cursor pushes every long list through the per-list hooks, so
        no long run reaches ``process_run``.  The Figure-1b gadget's
        lists are short, so two hubs wired to ``SHORT_LIST + 2`` of its
        vertices make long ones."""
        graph = triangle_multipass.build_gadget(
            random_three_disj_instance(5, True, seed=1), 4
        ).graph
        gadget = sorted(graph.vertices())
        for hub in (("hub", 0), ("hub", 1)):
            for nbr in gadget[: SHORT_LIST + 2]:
                graph.add_edge(hub, nbr)
        stream = AdjacencyListStream(graph, seed=2)
        make = RUN_FACTORIES[name]
        cls = type(make())
        hook = cls.process_run
        returned = set()

        def recording(self, run, columns):
            returned.add((self._pass, len(run[0][1]) >= SHORT_LIST, columns is not None))
            return hook(self, run, columns)

        monkeypatch.setattr(cls, "process_run", recording)
        algorithm = make()
        outcome = _outcome(algorithm, run_algorithm(algorithm, stream))
        assert any(len(neighbors) >= SHORT_LIST for _, neighbors in stream.iter_lists())
        assert returned == {(pass_index, False, False) for pass_index in (0, 1)}
        assert outcome == _per_list(make, stream)
        with scalar_oracle():
            algorithm = make()
            assert _outcome(algorithm, run_algorithm(algorithm, stream)) == outcome

    @pytest.mark.parametrize("name", sorted(RUN_FACTORIES))
    def test_runs_never_entered_off_the_fast_path(self, name, run_streams, monkeypatch):
        make = RUN_FACTORIES[name]
        stream = run_streams[name.split("-")[0]]
        reference = _per_list(make, stream)

        def forbidden(self, run, columns):
            raise AssertionError("run route entered")

        monkeypatch.setattr(type(make()), "process_run", forbidden)
        with scalar_oracle():
            algorithm = make()
            assert _outcome(algorithm, run_algorithm(algorithm, stream)) == reference
        algorithm = make()
        slow = run_algorithm(algorithm, stream, use_fast_path=False)
        assert _outcome(algorithm, slow) == reference
        with pytest.raises(AssertionError, match="run route entered"):
            run_algorithm(make(), stream)
