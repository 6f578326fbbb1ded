"""Tests for the shard-and-merge driver."""

import gc
import os
import subprocess
import sys
import textwrap
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.shared_memory import SharedMemory

import pytest

from repro.core.fourcycle_two_pass import TwoPassFourCycleCounter
from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.graph.counting import count_triangles
from repro.graph.generators import gnm_random_graph
from repro.sketch import driver
from repro.sketch.driver import register_algorithm_kind, restore_algorithm, run_sharded
from repro.sketch.merge import register_merger
from repro.sketch.state import SketchState, SketchStateError
from repro.streaming.algorithm import FixedValueAlgorithm, StreamingAlgorithm
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream
from repro.util.vectorized import columnar_enabled, scalar_oracle
from repro.util import vectorized, warmpool
from repro.util.warmpool import owned_block


class _ColumnarProbe(StreamingAlgorithm):
    """Records, per shard pass, the process it ran in and the columnar flag."""

    n_passes = 2
    kind = "columnar-probe"

    def __init__(self, seen=()):
        self.seen = tuple(seen)

    def begin_pass(self, pass_index):
        self.seen += ((os.getpid(), columnar_enabled()),)

    def result(self):
        return float(len(self.seen))

    def space_words(self):
        return 1

    def snapshot(self):
        return SketchState(self.kind, 1, {"seen": self.seen})

    def restore(self, state):
        self.seen = tuple(state.payload["seen"])

    @classmethod
    def from_state(cls, state):
        algorithm = cls()
        algorithm.restore(state)
        return algorithm


class _LateProbe(_ColumnarProbe):
    """A probe whose kind is registered only after the pool is running."""

    kind = "columnar-probe-late"


_TEST_PID = os.getpid()


class _CrashingProbe(_ColumnarProbe):
    """Kills the pool worker it runs in, as a crashed worker would."""

    kind = "crashing-probe"

    def begin_pass(self, pass_index):
        if os.getpid() == _TEST_PID:
            raise RuntimeError("the crashing probe only runs in pool workers")
        os._exit(3)


def _merge_seen(payloads, base, rng):
    known = tuple(base["seen"]) if base else ()
    added = tuple(item for payload in payloads for item in payload["seen"][len(known):])
    return {"seen": known + added}


register_merger(_ColumnarProbe.kind)(_merge_seen)
register_merger(_LateProbe.kind)(_merge_seen)
register_algorithm_kind(_ColumnarProbe.kind, _ColumnarProbe.from_state)
register_algorithm_kind(_CrashingProbe.kind, _CrashingProbe.from_state)


@pytest.fixture(scope="module")
def workload():
    graph = gnm_random_graph(50, 300, seed=11)
    return graph, AdjacencyListStream(graph, seed=12)


class TestExactness:
    def test_fourcycle_sharded_equals_conventional(self, workload):
        graph, stream = workload
        conventional = run_algorithm(
            TwoPassFourCycleCounter(sample_size=2 * graph.m, seed=7), stream
        ).estimate
        for n_shards in (1, 2, 4):
            result = run_sharded(
                TwoPassFourCycleCounter(sample_size=2 * graph.m, seed=7),
                stream,
                n_shards,
            )
            assert result.estimate == conventional
            assert result.n_shards == n_shards

    def test_triangle_full_sample_shard_invariant(self, workload):
        graph, stream = workload
        # Large enough that both the edge sample and the candidate
        # reservoir are unsaturated: the estimate is then the exact
        # triangle count, for every shard count.
        truth = count_triangles(graph)
        size = 2 * graph.m + 3 * truth
        for n_shards in (1, 2, 4):
            estimate = run_sharded(
                TwoPassTriangleCounter(sample_size=size, seed=7, sharded=True),
                stream,
                n_shards,
            ).estimate
            assert estimate == truth

    def test_serial_and_parallel_schedules_bit_identical(self, workload):
        graph, stream = workload
        serial = run_sharded(
            TwoPassTriangleCounter(sample_size=64, seed=3, sharded=True),
            stream,
            4,
            workers=None,
            merge_seed=5,
        )
        pooled = run_sharded(
            TwoPassTriangleCounter(sample_size=64, seed=3, sharded=True),
            stream,
            4,
            workers=4,
            merge_seed=5,
        )
        assert serial.estimate == pooled.estimate
        assert pooled.workers == 4

    def test_final_state_restored_into_caller_instance(self, workload):
        graph, stream = workload
        algo = TwoPassTriangleCounter(sample_size=2 * graph.m, seed=7, sharded=True)
        result = run_sharded(algo, stream, 2)
        assert algo.result() == result.estimate

    def test_serial_runs_convert_each_list_once(self, workload, monkeypatch):
        """Serial runs read the stream's own column memo, so a repeated
        run over one stream converts no list again; a raw iterable gets
        one memo per call, so each list converts at most once per call."""
        graph, _ = workload
        stream = AdjacencyListStream(graph, seed=13)  # a memo no test warmed
        converted = []
        convert = vectorized.as_vertex_array

        def counting(neighbors):
            converted.append(len(neighbors))
            return convert(neighbors)

        monkeypatch.setattr(vectorized, "as_vertex_array", counting)
        make = lambda: TwoPassFourCycleCounter(sample_size=16, seed=1)  # noqa: E731
        first = run_sharded(make(), stream, 2).estimate
        assert 0 < len(converted) <= stream.n
        converted.clear()
        assert run_sharded(make(), stream, 2).estimate == first
        assert converted == []
        assert run_sharded(make(), list(stream.iter_lists()), 2).estimate == first
        assert 0 < len(converted) <= stream.n

    def test_one_partition_per_stream_and_key(self, workload, monkeypatch):
        """Serial and pooled runs over one stream read one partition per
        ``(n_shards, strategy)``; a raw iterable partitions on every call."""
        graph, _ = workload
        stream = AdjacencyListStream(graph, seed=14)  # partitioned by no test
        calls = []
        partition = driver.partition_stream

        def counting(source, n_shards, strategy):
            calls.append((n_shards, strategy))
            return partition(source, n_shards, strategy)

        monkeypatch.setattr(driver, "partition_stream", counting)
        make = lambda: TwoPassFourCycleCounter(sample_size=16, seed=1)  # noqa: E731
        first = run_sharded(make(), stream, 2).estimate
        assert run_sharded(make(), stream, 2).estimate == first
        assert run_sharded(make(), stream, 2, workers=2).estimate == first
        assert calls == [(2, "balanced")]
        run_sharded(make(), stream, 2, strategy="hash")
        assert calls == [(2, "balanced"), (2, "hash")]
        lists = list(stream.iter_lists())
        for _ in range(2):
            assert run_sharded(make(), lists, 2).estimate == first
        assert calls[2:] == [(2, "balanced")] * 2

    def test_shard_pairs_cover_stream(self, workload):
        _, stream = workload
        result = run_sharded(
            TwoPassFourCycleCounter(sample_size=16, seed=1), stream, 3
        )
        assert sum(result.shard_pairs) == len(stream)
        assert result.pairs_per_pass == len(stream)


class TestRestoreRegistry:
    def test_round_trip_through_registry(self, workload):
        graph, stream = workload
        algo = TwoPassTriangleCounter(sample_size=32, seed=2, sharded=True)
        run_algorithm(algo, stream)
        clone = restore_algorithm(algo.snapshot())
        assert isinstance(clone, TwoPassTriangleCounter)
        assert clone.result() == algo.result()

    def test_unknown_kind_rejected(self):
        with pytest.raises(SketchStateError):
            restore_algorithm(SketchState("no-such-algorithm", 1, {}))


class TestErrors:
    def test_snapshotless_algorithm_rejected(self, workload):
        _, stream = workload
        with pytest.raises(SketchStateError):
            run_sharded(FixedValueAlgorithm(1.0), stream, 2)


class TestWarmPool:
    """The pooled schedule runs on one warm pool reused across calls."""

    def test_scalar_oracle_entered_after_pool_start_reaches_workers(self, workload):
        _, stream = workload
        warm = _ColumnarProbe()
        run_sharded(warm, stream, 2, workers=2)
        pool = warmpool._pool
        oracle = _ColumnarProbe()
        with scalar_oracle():
            run_sharded(oracle, stream, 2, workers=2)
        # The same warm pool ran both calls, off the parent process ...
        assert warmpool._pool is pool
        assert os.getpid() not in {pid for pid, _ in warm.seen + oracle.seen}
        # ... and applied the flag the parent had when each call was made.
        assert [flag for _, flag in warm.seen] == [True] * 4
        assert [flag for _, flag in oracle.seen] == [False] * 4

    def test_kind_registered_after_pool_start_is_usable(self, workload):
        _, stream = workload
        run_sharded(_ColumnarProbe(), stream, 2, workers=2)  # the pool is up
        register_algorithm_kind(_LateProbe.kind, _LateProbe.from_state)
        late = _LateProbe()
        result = run_sharded(late, stream, 2, workers=2)
        assert result.estimate == 4.0
        assert os.getpid() not in {pid for pid, _ in late.seen}

    def test_broken_pool_fails_the_call_then_recovers(self, workload):
        _, stream = workload
        with pytest.raises(BrokenProcessPool):
            run_sharded(_CrashingProbe(), stream, 2, workers=2)
        probe = _ColumnarProbe()
        run_sharded(probe, stream, 2, workers=2)
        assert probe.result() == 4.0

    def test_repeated_runs_on_one_stream_match_serial(self, workload):
        graph, stream = workload
        makers = (
            lambda: TwoPassTriangleCounter(sample_size=48, seed=4, sharded=True),
            lambda: TwoPassFourCycleCounter(sample_size=48, seed=4),
        )
        for round_ in range(2):
            for make in makers:
                for n_shards, strategy in ((2, "balanced"), (3, "hash"), (4, "contiguous")):
                    serial = run_sharded(make(), stream, n_shards, strategy=strategy,
                                         merge_seed=round_)
                    pooled = run_sharded(make(), stream, n_shards, strategy=strategy,
                                         workers=2, merge_seed=round_)
                    assert pooled.estimate == serial.estimate
                    assert pooled.shard_pairs == serial.shard_pairs
                    assert pooled.peak_space_words == serial.peak_space_words

    def test_raw_iterable_runs_pooled(self, workload):
        _, stream = workload
        lists = list(stream.iter_lists())
        serial = run_sharded(TwoPassFourCycleCounter(sample_size=32, seed=2), lists, 2)
        pooled = run_sharded(TwoPassFourCycleCounter(sample_size=32, seed=2), lists, 2,
                             workers=2)
        assert pooled.estimate == serial.estimate

    def test_dropped_stream_unlinks_its_block(self, workload):
        graph, _ = workload
        stream = AdjacencyListStream(graph, seed=99)
        run_sharded(TwoPassFourCycleCounter(sample_size=32, seed=2), stream, 2, workers=2)
        block = owned_block(stream, ("shards", 2, "balanced"),
                            lambda: pytest.fail("the run did not publish a block"))
        name = block.ref.name
        SharedMemory(name=name).close()  # alive while the stream is
        del block, stream
        gc.collect()
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=name)

    def test_no_leaked_shared_memory_warning_at_exit(self):
        script = textwrap.dedent("""
            from repro.core.triangle_two_pass import TwoPassTriangleCounter
            from repro.experiments.parallel import ExecutionConfig, TrialExecutor, trial_specs
            from repro.graph.generators import gnm_random_graph
            from repro.sketch.driver import run_sharded
            from repro.streaming.stream import AdjacencyListStream
            from repro.util.rng import resolve_rng

            graph = gnm_random_graph(40, 160, seed=1)
            kept = AdjacencyListStream(graph, seed=2)
            for n_shards in (2, 3):
                run_sharded(TwoPassTriangleCounter(sample_size=32, seed=1, sharded=True),
                            kept, n_shards, workers=2)
            dropped = AdjacencyListStream(graph, seed=3)
            run_sharded(TwoPassTriangleCounter(sample_size=32, seed=1, sharded=True),
                        dropped, 2, workers=2)
            del dropped
            run_sharded(TwoPassTriangleCounter(sample_size=32, seed=1, sharded=True),
                        list(kept.iter_lists()), 2, workers=2)
            with TrialExecutor(TwoPassTriangleCounter, graph,
                               ExecutionConfig(workers=2)) as executor:
                executor.run(trial_specs(resolve_rng(4), budget=16, runs=4))
            print("done")
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "done"
        assert "leaked shared_memory" not in proc.stderr
        assert "resource_tracker" not in proc.stderr
