"""BENCHMARK.json: schema, limits, bounds and the layer -> end-to-end map."""

import json
import re

from tests.benchsuite.conftest import REPO_ROOT, SUITE_DIR

MANIFEST = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
BASELINE = json.loads((SUITE_DIR / "baseline-nproc2.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_schema():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["command"] == ["python3", "benchmarks/suite/run.py"]
    assert isinstance(MANIFEST["run_seconds"], int) and 1 <= MANIFEST["run_seconds"] <= 60
    assert len(json.dumps(MANIFEST)) <= 64 * 1024


def test_paths_exist_and_hold_the_command():
    assert 1 <= len(MANIFEST["paths"]) <= 16
    for path in MANIFEST["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) and ".." not in path
        assert (REPO_ROOT / path).is_dir(), path
    script = MANIFEST["command"][1]
    assert any(script.startswith(path + "/") for path in MANIFEST["paths"])


def test_names_units_and_limits():
    workloads = MANIFEST["workloads"]
    e2e = MANIFEST["end_to_end"]
    layers = MANIFEST["per_layer"]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    for entry in workloads:
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200
    for entry in e2e:
        assert set(entry) == {"name", "unit", "better", "bound"}
    for entry in layers:
        assert set(entry) == {"name", "unit", "better"}
    names = [entry["name"] for entry in workloads + e2e + layers]
    assert len(names) == len(set(names))
    for entry in workloads + e2e + layers:
        assert NAME.match(entry["name"]), entry["name"]
    for entry in e2e + layers:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("higher", "lower")


def test_bounds_cover_the_calibration_baseline():
    """No bound is tighter than the spread the committed calibration saw."""
    bounds = {entry["name"]: entry["bound"] for entry in MANIFEST["end_to_end"]}
    assert set(bounds) == set(BASELINE["bounds"])
    for name, bound in bounds.items():
        assert BASELINE["bounds"][name] <= bound <= 0.25, name
    assert bounds["setup_s"] == max(bounds.values())


def test_every_workload_reports_setup_time():
    setup = [e for e in MANIFEST["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": setup[0]["bound"]}]
    for workload in MANIFEST["workloads"]:
        assert "setup_s" in BASELINE["workloads"][workload["name"]]["metrics"]


def test_every_layer_metric_maps_to_an_end_to_end_metric_and_workload():
    from layers import LAYER_EFFECTS
    from workloads import WORKLOADS

    e2e = {entry["name"] for entry in MANIFEST["end_to_end"]}
    workloads = {entry["name"] for entry in MANIFEST["workloads"]}
    assert workloads == set(WORKLOADS)
    assert {entry["name"] for entry in MANIFEST["per_layer"]} == set(LAYER_EFFECTS)
    for name, (moves, on) in LAYER_EFFECTS.items():
        assert set(moves) <= e2e, name
        assert set(on) <= workloads, name
        assert bool(moves) == bool(on), name  # validity-only metrics map to nothing
