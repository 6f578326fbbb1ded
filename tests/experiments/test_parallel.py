"""Tests for the parallel trial-execution layer.

The hard requirement: parallel execution must be *bit-identical* to the
historical serial loop for a fixed seed — same estimates, same peaks, same
AccuracyPoints.  Factories used with worker processes live at module level
so they pickle.
"""

import os
import random

import pytest

from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.experiments.harness import accuracy_sweep, measure_accuracy
from repro.experiments.parallel import (
    ExecutionConfig,
    TrialExecutor,
    TrialSpec,
    resolve_workers,
    run_trial,
    trial_specs,
)
from repro.streaming.algorithm import StreamingAlgorithm
from repro.util import warmpool
from repro.util.rng import resolve_rng, spawn_rng
from repro.util.vectorized import columnar_enabled, scalar_oracle


def _two_pass(budget, seed):
    return TwoPassTriangleCounter(sample_size=max(budget, 1), seed=seed)


class _WhereItRan(StreamingAlgorithm):
    """Estimates its process id, negated when the columnar path was off."""

    def __init__(self, budget, seed):
        self.value = 0.0

    def begin_pass(self, pass_index):
        self.value = float(os.getpid() if columnar_enabled() else -os.getpid())

    def result(self):
        return self.value

    def space_words(self):
        return 1


class TestResolveWorkers:
    def test_none_is_serial(self):
        assert resolve_workers(None) == 1

    def test_zero_means_all_cores(self):
        import os

        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestTrialSpecs:
    def test_deterministic_for_seed(self):
        s1 = trial_specs(resolve_rng(9), budget=50, runs=5)
        s2 = trial_specs(resolve_rng(9), budget=50, runs=5)
        assert s1 == s2
        assert [s.index for s in s1] == list(range(5))

    def test_matches_historical_spawn_semantics(self):
        """Specs reproduce the serial loop's spawn_rng(rng, 2i)/(2i+1) draws."""
        specs = trial_specs(resolve_rng(4), budget=10, runs=3)
        rng = resolve_rng(4)
        for i, spec in enumerate(specs):
            legacy_algo = spawn_rng(rng, stream=2 * i)
            legacy_stream = spawn_rng(rng, stream=2 * i + 1)
            assert random.Random(spec.algo_seed).getstate() == legacy_algo.getstate()
            assert random.Random(spec.stream_seed).getstate() == legacy_stream.getstate()


class TestTrialExecutor:
    def test_serial_matches_direct_run(self, triangle_workload):
        g = triangle_workload.graph
        specs = trial_specs(resolve_rng(3), budget=60, runs=3)
        with TrialExecutor(_two_pass, g) as ex:
            results = ex.run(specs)
        direct = [run_trial(_two_pass, g, s) for s in specs]
        assert [(r.index, r.estimate, r.peak_space_words) for r in results] == [
            (r.index, r.estimate, r.peak_space_words) for r in direct
        ]

    def test_parallel_matches_serial(self, triangle_workload):
        g = triangle_workload.graph
        specs = trial_specs(resolve_rng(8), budget=60, runs=4)
        with TrialExecutor(_two_pass, g) as ex_serial:
            serial = ex_serial.run(specs)
        with TrialExecutor(_two_pass, g, ExecutionConfig(workers=2)) as ex_par:
            parallel = ex_par.run(specs)
        assert [(r.index, r.estimate, r.peak_space_words) for r in serial] == [
            (r.index, r.estimate, r.peak_space_words) for r in parallel
        ]

    def test_reused_executor_and_graph_match_serial(self, triangle_workload):
        g = triangle_workload.graph
        batches = [trial_specs(resolve_rng(seed), budget=budget, runs=3)
                   for seed, budget in ((1, 40), (2, 80), (3, 40))]
        with TrialExecutor(_two_pass, g) as ex_serial:
            serial = [ex_serial.run(specs) for specs in batches]
        with TrialExecutor(_two_pass, g, ExecutionConfig(workers=2)) as ex_par:
            parallel = [ex_par.run(specs) for specs in batches]
        with TrialExecutor(_two_pass, g, ExecutionConfig(workers=2)) as ex_again:
            again = [ex_again.run(specs) for specs in batches]
        for runs in (parallel, again):
            assert [[(r.index, r.estimate, r.peak_space_words) for r in batch]
                    for batch in runs] == [
                [(r.index, r.estimate, r.peak_space_words) for r in batch]
                for batch in serial
            ]

    def test_scalar_oracle_entered_after_pool_start_reaches_workers(self, triangle_workload):
        g = triangle_workload.graph
        specs = trial_specs(resolve_rng(2), budget=10, runs=4)
        with TrialExecutor(_WhereItRan, g, ExecutionConfig(workers=2)) as ex:
            warm = [r.estimate for r in ex.run(specs)]
            pool = warmpool._pool
            with scalar_oracle():
                oracle = [r.estimate for r in ex.run(specs)]
        assert warmpool._pool is pool  # the same warm pool ran both batches
        assert all(pid > 0 and pid != os.getpid() for pid in warm)
        assert all(pid < 0 and -pid != os.getpid() for pid in oracle)

    def test_unpicklable_factory_rejected_before_any_task(self, triangle_workload):
        g = triangle_workload.graph
        specs = trial_specs(resolve_rng(1), budget=20, runs=2)
        factory = lambda budget, seed: _two_pass(budget, seed)  # noqa: E731
        with TrialExecutor(factory, g, ExecutionConfig(workers=2)) as ex:
            with pytest.raises(TypeError, match="factory must be picklable"):
                ex.run(specs)
        # The serial path never pickles, so lambdas stay fine there.
        with TrialExecutor(factory, g) as ex:
            assert len(ex.run(specs)) == 2

    def test_spec_is_picklable(self):
        import pickle

        spec = TrialSpec(index=0, budget=5, algo_seed=1, stream_seed=2)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestHarnessParallelDeterminism:
    def test_measure_accuracy_workers4_identical(self, triangle_workload):
        """The satellite regression test: workers=4 == serial, exactly."""
        kwargs = dict(
            graph=triangle_workload.graph,
            truth=triangle_workload.true_count,
            budget=80,
            runs=6,
            seed=7,
        )
        serial = measure_accuracy(_two_pass, **kwargs)
        parallel = measure_accuracy(_two_pass, workers=4, **kwargs)
        assert serial == parallel

    def test_accuracy_sweep_identical(self, triangle_workload):
        kwargs = dict(
            graph=triangle_workload.graph,
            truth=triangle_workload.true_count,
            budgets=[40, 80],
            runs=4,
            seed=5,
        )
        assert accuracy_sweep(_two_pass, **kwargs) == accuracy_sweep(
            _two_pass, workers=2, **kwargs
        )

    def test_workers_zero_resolves_to_cpu_count(self, triangle_workload):
        point = measure_accuracy(
            _two_pass,
            triangle_workload.graph,
            triangle_workload.true_count,
            budget=40,
            runs=2,
            seed=1,
            workers=0,
        )
        assert point.runs == 2
