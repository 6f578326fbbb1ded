"""The bench-report comparison engine and its CLI exit codes."""

import json

import pytest

from repro.obs.bench_report import (
    CONTEXT,
    GATE,
    INVARIANT,
    RESOURCE_HIGH,
    RESOURCE_LOW,
    TIMING_LOW,
    classify,
    compare_pair,
    evaluate_gates,
    load_artifact,
    load_flat_metrics,
    main,
)
from repro.obs.sinks import JsonlSink
from repro.obs.telemetry import Telemetry

BASELINE = {
    "quick": True,
    "workload.n": 500,
    "serial.seconds": 2.0,
    "serial.peak_space_words": 1000,
    "parallel.bit_identical": True,
    "parallel.success_rate": 0.9,
    "estimate": 150.0,
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_classification():
    assert classify("parallel.bit_identical", True) == INVARIANT
    assert classify("estimate", 150.0) == INVARIANT
    assert classify("serial.peak_space_words", 1000) == RESOURCE_LOW
    assert classify("trials.success_rate", 0.9) == RESOURCE_HIGH
    assert classify("serial.seconds", 2.0) == TIMING_LOW
    assert classify("workload.n", 500) == CONTEXT
    assert classify("strategy", "balanced") == CONTEXT


def test_identical_files_pass():
    deltas = compare_pair(dict(BASELINE), dict(BASELINE), threshold=0.25)
    assert not [d for d in deltas if d.status == "regression"]


def test_space_regression_gates():
    current = dict(BASELINE, **{"serial.peak_space_words": 1400})
    deltas = compare_pair(current, BASELINE, threshold=0.25)
    (reg,) = [d for d in deltas if d.status == "regression"]
    assert reg.key == "serial.peak_space_words"
    assert reg.relative_delta == pytest.approx(0.4)


def test_timing_not_gated_by_default():
    current = dict(BASELINE, **{"serial.seconds": 10.0})
    deltas = compare_pair(current, BASELINE, threshold=0.25)
    assert not [d for d in deltas if d.status == "regression"]
    gated = compare_pair(current, BASELINE, threshold=0.25, gate_timing=True)
    assert [d.key for d in gated if d.status == "regression"] == ["serial.seconds"]


def test_invariant_flip_is_strict():
    current = dict(BASELINE, **{"parallel.bit_identical": False})
    deltas = compare_pair(current, BASELINE, threshold=0.25)
    (reg,) = [d for d in deltas if d.status == "regression"]
    assert reg.key == "parallel.bit_identical"


def test_estimate_drift_breaks_determinism():
    current = dict(BASELINE, estimate=151.0)
    deltas = compare_pair(current, BASELINE, threshold=0.25)
    (reg,) = [d for d in deltas if d.status == "regression"]
    assert "determinism" in reg.note


def test_success_rate_gates_downward_only():
    worse = compare_pair(dict(BASELINE, **{"parallel.success_rate": 0.5}),
                         BASELINE, threshold=0.25)
    assert [d.key for d in worse if d.status == "regression"] == [
        "parallel.success_rate"
    ]
    better = compare_pair(dict(BASELINE, **{"parallel.success_rate": 1.0}),
                          BASELINE, threshold=0.25)
    assert not [d for d in better if d.status == "regression"]


def test_threshold_override_glob():
    current = dict(BASELINE, **{"serial.peak_space_words": 1400})
    deltas = compare_pair(
        current, BASELINE, threshold=0.25, overrides=[("*peak_space*", 0.5)]
    )
    assert not [d for d in deltas if d.status == "regression"]


def test_context_mismatch_warns_not_gates():
    current = dict(BASELINE, **{"workload.n": 900})
    deltas = compare_pair(current, BASELINE, threshold=0.25)
    (warn,) = [d for d in deltas if d.status == "context-mismatch"]
    assert warn.key == "workload.n"
    assert not [d for d in deltas if d.status == "regression"]


def test_load_flat_metrics_nests(tmp_path):
    path = _write(tmp_path, "BENCH_x.json", {"a": {"b": [1, 2]}, "c": 3})
    assert load_flat_metrics(path) == {"a.b.0": 1, "a.b.1": 2, "c": 3}


def test_cli_exit_codes(tmp_path, capsys):
    base = _write(tmp_path, "BENCH_a.json", BASELINE)
    same = _write(tmp_path, "fresh.json", BASELINE)
    degraded = _write(
        tmp_path, "BENCH_bad.json",
        dict(BASELINE, **{"parallel.bit_identical": False,
                          "serial.peak_space_words": 2000}),
    )
    assert main([same, "--against", base]) == 0
    assert main([degraded, "--against", base, "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error" in out
    # Unreadable input is a usage error, not a crash.
    assert main([str(tmp_path / "missing.json"), "--against", base]) == 2


def test_cli_writes_report_file(tmp_path, capsys):
    base = _write(tmp_path, "BENCH_a.json", BASELINE)
    out_path = tmp_path / "report.md"
    assert main([base, "--against", base, "--format", "markdown",
                 "--out", str(out_path)]) == 0
    assert out_path.read_text().strip() == capsys.readouterr().out.strip()


def test_cli_compares_serve_telemetry_log_with_histograms(tmp_path, capsys):
    """A JSONL log holding a latency histogram flattens to total/count."""
    log = str(tmp_path / "serve.jsonl")
    with Telemetry(sink=JsonlSink(log)) as telemetry:
        for seconds in (0.001, 0.004):
            telemetry.observe_histogram(
                "serve_op_latency_seconds", seconds, op="feed", wire="json"
            )
    assert main([log, "--against", log, "--format", "json"]) == 0
    keys = {d["key"] for d in json.loads(capsys.readouterr().out)["pairs"][0]["deltas"]}
    series = "serve_op_latency_seconds{op=feed,wire=json}"
    assert {f"{series}.total_seconds", f"{series}.count"} <= keys
    assert classify(f"{series}.total_seconds", 0.005) == TIMING_LOW


def test_cli_pairing_mismatch_is_an_error(tmp_path, capsys):
    a = _write(tmp_path, "one.json", BASELINE)
    b = _write(tmp_path, "two.json", BASELINE)
    c = _write(tmp_path, "three.json", BASELINE)
    # No basename overlap and unequal counts: nothing sane to pair.
    assert main([a, "--against", b, c]) == 2


# -- self-declared gates ------------------------------------------------------

GATED = {
    "cpu_count": 4,
    "fast_path": {"triangle": {"columnar_speedup": 6.2}},
    "sweep": {"speedup": 1.4},
    "gates": [
        {"metric": "fast_path.triangle.columnar_speedup", "min": 5.0},
        {"metric": "sweep.speedup", "min": 1.0, "needs_parallelism": True},
    ],
}


def test_load_artifact_splits_gates(tmp_path):
    path = _write(tmp_path, "BENCH_g.json", GATED)
    flat, gates = load_artifact(path)
    assert gates == GATED["gates"]
    assert "gates.0.metric" not in flat
    assert flat["fast_path.triangle.columnar_speedup"] == 6.2


def test_gates_pass_when_floors_met():
    flat = {"cpu_count": 4, "fast_path.triangle.columnar_speedup": 6.2,
            "sweep.speedup": 1.4}
    deltas = evaluate_gates(flat, GATED["gates"])
    assert [d.status for d in deltas] == ["ok", "ok"]
    assert all(d.kind == GATE for d in deltas)


def test_gate_floor_violation_is_a_regression():
    flat = {"cpu_count": 4, "fast_path.triangle.columnar_speedup": 3.0,
            "sweep.speedup": 1.4}
    deltas = evaluate_gates(flat, GATED["gates"])
    (reg,) = [d for d in deltas if d.status == "regression"]
    assert reg.key == "gate:fast_path.triangle.columnar_speedup"
    assert "below floor" in reg.note


def test_parallel_gate_skipped_on_single_core_with_note():
    flat = {"cpu_count": 1, "fast_path.triangle.columnar_speedup": 6.2,
            "sweep.speedup": 0.8}  # would fail, but cannot be gated here
    deltas = evaluate_gates(flat, GATED["gates"])
    by_key = {d.key: d for d in deltas}
    assert by_key["gate:sweep.speedup"].status == "skipped"
    assert "cpu_count=1" in by_key["gate:sweep.speedup"].note
    # The machine-independent columnar gate still applies on one core.
    assert by_key["gate:fast_path.triangle.columnar_speedup"].status == "ok"


def test_gate_on_missing_metric_warns():
    deltas = evaluate_gates({"cpu_count": 4}, [{"metric": "nope.speedup", "min": 1.0}])
    assert [d.status for d in deltas] == ["missing"]


def test_malformed_gate_warns_not_crashes():
    deltas = evaluate_gates({"cpu_count": 4}, [{"min": 1.0}, {"metric": "x"}])
    assert [d.status for d in deltas] == ["missing", "missing"]


def test_gate_ceiling():
    deltas = evaluate_gates(
        {"overhead.fraction": 0.4}, [{"metric": "overhead.fraction", "max": 0.25}]
    )
    assert deltas[0].status == "regression"
    assert "above ceiling" in deltas[0].note


def test_cli_gates_exit_code_and_visibility(tmp_path, capsys):
    failing = dict(GATED, fast_path={"triangle": {"columnar_speedup": 2.0}})
    cur = _write(tmp_path, "BENCH_g.json", failing)
    base = _write(tmp_path, "base.json", GATED)
    assert main([cur, "--against", base, "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error" in out and "below floor" in out
    # A passing artifact shows its gate verdicts (ok + skipped note).
    passing = _write(tmp_path, "BENCH_ok.json", dict(GATED, cpu_count=1))
    assert main([passing, "--against", base]) == 0
    out = capsys.readouterr().out
    assert "gate met" in out and "skipped" in out
