"""Tests for checkpoint/resume and the algorithm snapshot round trip."""

import pytest

from repro.core.fourcycle_two_pass import TwoPassFourCycleCounter
from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.graph.generators import gnm_random_graph
from repro.obs.events import PassFinished
from repro.obs.sinks import InMemorySink
from repro.obs.telemetry import Telemetry
from repro.sketch.checkpoint import (
    Checkpoint,
    CheckpointConfig,
    fingerprint_stream,
    load_checkpoint,
    load_checkpoint_if_exists,
    require_matching_stream,
)
from repro.sketch.driver import run_sharded
from repro.sketch.state import SketchStateError
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream


@pytest.fixture(scope="module")
def workload():
    graph = gnm_random_graph(40, 200, seed=21)
    return graph, AdjacencyListStream(graph, seed=22)


class CrashingStream:
    """Stream wrapper that dies after yielding ``survive_lists`` lists.

    Emulates a process kill mid-pass; the count applies across all passes
    cumulatively, so the crash lands wherever ``survive_lists`` points.
    """

    def __init__(self, stream, survive_lists):
        self._stream = stream
        self._remaining = survive_lists

    def iter_lists(self):
        for entry in self._stream.iter_lists():
            if self._remaining <= 0:
                raise RuntimeError("simulated crash")
            self._remaining -= 1
            yield entry

    def __len__(self):
        return len(self._stream)


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: TwoPassTriangleCounter(sample_size=32, seed=4),
            lambda: TwoPassTriangleCounter(sample_size=32, seed=4, sharded=True),
            lambda: TwoPassFourCycleCounter(sample_size=32, seed=4),
        ],
        ids=["triangle", "triangle-sharded", "fourcycle"],
    )
    def test_mid_stream_snapshot_resumes_identically(self, workload, make):
        _, stream = workload
        lists = [(v, tuple(nbrs)) for v, nbrs in stream.iter_lists()]
        cut = len(lists) // 3

        reference = make()
        for pass_index in range(reference.n_passes):
            reference.begin_pass(pass_index)
            for vertex, neighbors in lists:
                reference.begin_list(vertex)
                for nbr in neighbors:
                    reference.process(vertex, nbr)
                reference.end_list(vertex, neighbors)
            reference.end_pass(pass_index)

        subject = make()
        subject.begin_pass(0)
        for vertex, neighbors in lists[:cut]:
            subject.begin_list(vertex)
            for nbr in neighbors:
                subject.process(vertex, nbr)
            subject.end_list(vertex, neighbors)

        resumed = make()
        resumed.restore(subject.snapshot())
        for vertex, neighbors in lists[cut:]:
            resumed.begin_list(vertex)
            for nbr in neighbors:
                resumed.process(vertex, nbr)
            resumed.end_list(vertex, neighbors)
        resumed.end_pass(0)
        for pass_index in range(1, resumed.n_passes):
            resumed.begin_pass(pass_index)
            for vertex, neighbors in lists:
                resumed.begin_list(vertex)
                for nbr in neighbors:
                    resumed.process(vertex, nbr)
                resumed.end_list(vertex, neighbors)
            resumed.end_pass(pass_index)

        assert resumed.result() == reference.result()
        assert resumed.snapshot().payload == reference.snapshot().payload

    def test_from_state_classmethods(self, workload):
        _, stream = workload
        for algo in (
            TwoPassTriangleCounter(sample_size=16, seed=1),
            TwoPassFourCycleCounter(sample_size=16, seed=1),
        ):
            run_algorithm(algo, stream)
            clone = type(algo).from_state(algo.snapshot())
            assert clone.result() == algo.result()


class TestCrashAndResume:
    def test_resumed_run_matches_uninterrupted(self, workload, tmp_path):
        _, stream = workload
        path = tmp_path / "run.ckpt"
        uninterrupted = run_algorithm(
            TwoPassTriangleCounter(sample_size=48, seed=6), stream
        ).estimate

        fingerprint = fingerprint_stream(stream)
        config = CheckpointConfig(path, every_lists=7, stream_fingerprint=fingerprint)
        n_lists = sum(1 for _ in stream.iter_lists())
        with pytest.raises(RuntimeError):
            run_algorithm(
                TwoPassTriangleCounter(sample_size=48, seed=6),
                CrashingStream(stream, n_lists + n_lists // 2),  # dies mid-pass 2
                checkpoint=config,
            )

        checkpoint = load_checkpoint(path)
        require_matching_stream(checkpoint, stream)
        # A different-seed instance proves restore() replaces everything.
        resumed = run_algorithm(
            TwoPassTriangleCounter(sample_size=48, seed=999),
            stream,
            checkpoint=CheckpointConfig(path, every_lists=7),
            resume_from=checkpoint,
        )
        assert resumed.estimate == uninterrupted

    def test_resume_from_every_mid_pass_checkpoint(self, workload, tmp_path):
        """Each mid-pass checkpoint, not just the last, resumes to the
        uninterrupted run's estimate and peak space; the resumed pass
        still counts the lists it skipped."""
        _, stream = workload
        lists = list(stream.iter_lists())
        uninterrupted = run_algorithm(
            TwoPassTriangleCounter(sample_size=48, seed=6), stream
        )
        config = _KeepEveryCheckpoint(tmp_path / "run.ckpt", every_lists=7)
        run_algorithm(
            TwoPassTriangleCounter(sample_size=48, seed=6), stream, checkpoint=config
        )
        mid_pass = [c for c in config.kept if c.lists_done > 0]
        assert len(mid_pass) == 2 * (len(lists) // 7)
        for checkpoint in mid_pass:
            sink = InMemorySink()
            resumed = run_algorithm(
                TwoPassTriangleCounter(sample_size=48, seed=999),
                stream,
                resume_from=checkpoint,
                telemetry=Telemetry(sink=sink),
            )
            label = (checkpoint.pass_index, checkpoint.lists_done)
            assert resumed.estimate == uninterrupted.estimate, label
            assert resumed.peak_space_words == uninterrupted.peak_space_words, label
            first = sink.of_type(PassFinished)[0]
            assert first.pass_index == checkpoint.pass_index, label
            assert first.lists == len(lists), label
            assert first.pairs == sum(
                len(nbrs) for _, nbrs in lists[checkpoint.lists_done :]
            ), label

    def test_sharded_resume_from_pass_boundary(self, workload, tmp_path):
        _, stream = workload
        path = tmp_path / "sharded.ckpt"
        full = run_sharded(
            TwoPassTriangleCounter(sample_size=48, seed=6, sharded=True),
            stream,
            2,
            merge_seed=3,
            checkpoint=CheckpointConfig(path),
        )
        checkpoint = load_checkpoint(path)
        assert (checkpoint.pass_index, checkpoint.lists_done) == (2, 0)

        # Replay only the second pass from the pass-1 boundary: kill the run
        # right after the pass-1 checkpoint lands on disk, then resume.
        crash_path = tmp_path / "crash.ckpt"
        algo = TwoPassTriangleCounter(sample_size=48, seed=6, sharded=True)
        config = _CrashAfterFirstWrite(crash_path)
        with pytest.raises(RuntimeError):
            run_sharded(algo, stream, 2, merge_seed=3, checkpoint=config)
        boundary = load_checkpoint(crash_path)
        assert (boundary.pass_index, boundary.lists_done) == (1, 0)
        resumed = run_sharded(
            TwoPassTriangleCounter(sample_size=48, seed=999, sharded=True),
            stream,
            2,
            merge_seed=3,
            checkpoint=CheckpointConfig(crash_path),
            resume_from=boundary,
        )
        assert resumed.estimate == full.estimate

    def test_sharded_rejects_mid_pass_checkpoint(self, workload, tmp_path):
        _, stream = workload
        algo = TwoPassTriangleCounter(sample_size=16, seed=1, sharded=True)
        bogus = Checkpoint(
            algorithm_state=algo.snapshot(), pass_index=0, lists_done=5
        )
        with pytest.raises(SketchStateError):
            run_sharded(algo, stream, 2, resume_from=bogus)


class _KeepEveryCheckpoint(CheckpointConfig):
    """Keeps every checkpoint it writes, not just the latest on disk."""

    def __post_init__(self):
        super().__post_init__()
        self.kept = []

    def write(self, *args, **kwargs):
        record = super().write(*args, **kwargs)
        self.kept.append(load_checkpoint(self.path))
        return record


class _CrashAfterFirstWrite(CheckpointConfig):
    """Dies right after the first checkpoint hits disk (a kill mid-run)."""

    def write(self, *args, **kwargs):
        record = super().write(*args, **kwargs)
        if record.pass_index == 1:
            raise RuntimeError("simulated crash after pass-1 checkpoint")
        return record


class TestCheckpointFiles:
    def test_round_trip(self, workload, tmp_path):
        _, stream = workload
        algo = TwoPassTriangleCounter(sample_size=8, seed=1)
        checkpoint = Checkpoint(
            algorithm_state=algo.snapshot(),
            pass_index=1,
            lists_done=12,
            meter_state={"current_words": 40, "peak_words": 90},
            stream_fingerprint=fingerprint_stream(stream),
        )
        path = tmp_path / "c.ckpt"
        record = checkpoint.save(path)
        assert record.pass_index == 1
        assert record.lists_done == 12
        assert record.algorithm_kind == "triangle-two-pass"
        again = load_checkpoint(path)
        assert again.pass_index == 1
        assert again.lists_done == 12
        assert again.algorithm_state.payload == checkpoint.algorithm_state.payload
        assert again.matches_stream(fingerprint_stream(stream))

    def test_missing_file_returns_none(self, tmp_path):
        assert load_checkpoint_if_exists(tmp_path / "nope.ckpt") is None

    def test_fingerprint_mismatch_refused(self, workload, tmp_path):
        _, stream = workload
        other = AdjacencyListStream(gnm_random_graph(40, 200, seed=99), seed=98)
        algo = TwoPassTriangleCounter(sample_size=8, seed=1)
        checkpoint = Checkpoint(
            algorithm_state=algo.snapshot(),
            pass_index=0,
            lists_done=0,
            stream_fingerprint=fingerprint_stream(other),
        )
        with pytest.raises(SketchStateError):
            require_matching_stream(checkpoint, stream)

    def test_empty_fingerprint_accepts_any_stream(self, workload):
        _, stream = workload
        algo = TwoPassTriangleCounter(sample_size=8, seed=1)
        checkpoint = Checkpoint(
            algorithm_state=algo.snapshot(), pass_index=0, lists_done=0
        )
        require_matching_stream(checkpoint, stream)  # no raise

    def test_config_rejects_nonpositive_interval(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointConfig(tmp_path / "x.ckpt", every_lists=0)
