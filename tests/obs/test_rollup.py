"""Cross-worker metric roll-up: parallel == serial after stripping timers."""

from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.experiments.parallel import (
    ExecutionConfig,
    TrialExecutor,
    run_trial,
    trial_specs,
)
from repro.obs.metrics import HISTOGRAM
from repro.obs.rollup import deterministic_rollup, rollup_metrics
from repro.util.rng import resolve_rng


def _two_pass(budget, seed):
    return TwoPassTriangleCounter(sample_size=max(budget, 1), seed=seed)


def test_collect_metrics_off_by_default(triangle_workload):
    specs = trial_specs(resolve_rng(5), budget=60, runs=2)
    result = run_trial(_two_pass, triangle_workload.graph, specs[0])
    assert result.metrics is None
    assert rollup_metrics([result.metrics]) == {}


def test_collect_metrics_does_not_change_estimates(triangle_workload):
    specs = trial_specs(resolve_rng(5), budget=60, runs=3)
    plain = [run_trial(_two_pass, triangle_workload.graph, s) for s in specs]
    metered = [
        run_trial(_two_pass, triangle_workload.graph, s, collect_metrics=True)
        for s in specs
    ]
    assert [r.estimate for r in plain] == [r.estimate for r in metered]
    assert [r.peak_space_words for r in plain] == [r.peak_space_words for r in metered]
    for r in metered:
        assert r.metrics is not None
        assert r.metrics["run_peak_space_words"]["high_water"] == r.peak_space_words


def test_parallel_rollup_equals_serial(triangle_workload):
    g = triangle_workload.graph
    specs = trial_specs(resolve_rng(8), budget=60, runs=4)
    with TrialExecutor(_two_pass, g, ExecutionConfig(collect_metrics=True)) as ex_serial:
        serial = ex_serial.run(specs)
    with TrialExecutor(
        _two_pass, g, ExecutionConfig(workers=2, collect_metrics=True)
    ) as ex_par:
        parallel = ex_par.run(specs)

    serial_roll = deterministic_rollup([r.metrics for r in serial])
    parallel_roll = deterministic_rollup([r.metrics for r in parallel])
    assert serial_roll == parallel_roll
    assert serial_roll, "roll-up must not be empty"
    # The full roll-up differs only in histograms (wall clock is schedule-bound).
    assert not any(
        blob["kind"] == HISTOGRAM for blob in serial_roll.values()
    )


def test_rollup_sums_counters_across_trials(triangle_workload):
    specs = trial_specs(resolve_rng(2), budget=60, runs=3)
    results = [
        run_trial(_two_pass, triangle_workload.graph, s, collect_metrics=True)
        for s in specs
    ]
    merged = rollup_metrics([r.metrics for r in results])
    single = results[0].metrics
    key = "stream_pairs_total{pass_index=0}"
    assert merged[key]["value"] == sum(r.metrics[key]["value"] for r in results)
    assert merged[key]["value"] == 3 * single[key]["value"]
