"""Smoke runs of every workload: metric names, units, checks, failure paths."""

import json
import shutil
import subprocess
import sys

import pytest

from repro.obs.trace import read_chrome_trace
from tests.benchsuite.conftest import REPO_ROOT, SUITE_DIR

MANIFEST = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]


def run_suite(*args, cwd=REPO_ROOT, script=SUITE_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def units(section):
    return {entry["name"]: entry["unit"] for entry in MANIFEST[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    trace_file = tmp_path / "run.trace.json"
    done = run_suite("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--smoke", "--trace-out", str(trace_file))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = units("per_layer" if trace else "end_to_end")
    assert {name: body["unit"] for name, body in result["metrics"].items()} == expected
    for name, body in result["metrics"].items():
        assert isinstance(body["value"], float), name
    if trace:
        spans = read_chrome_trace(str(trace_file))
        assert {span.name for span in spans if span.category == "layer"} >= {
            "layer:runner", "layer:session", "layer:manager", "layer:server",
            "layer:router-w1", "layer:router-w2",
        }
    else:
        for name in ("pairs_per_s", "latency_p50_s", "setup_s"):
            assert result["metrics"][name]["value"] > 0, name


def test_wrong_reference_fails_the_run(monkeypatch, capsys):
    import run
    import workloads

    original = workloads.ShardedDense.references

    def off_by_one(self, inputs):
        refs = original(self, inputs)
        first = sorted(refs)[0]
        refs[first] += 1.0
        return refs

    monkeypatch.setattr(workloads.ShardedDense, "references", off_by_one)
    code = run.main(["--workload", "sharded-dense", "--seed", "5", "--seconds", "0.2",
                     "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


#: Runs a command as the subreaper of its descendants, then counts those
#: that outlived it: each was adopted by the harness, alive or a zombie.
ORPHAN_HARNESS = """
import subprocess, sys
sys.path.insert(0, sys.argv[1])
import run
run._adopt_orphans()
done = subprocess.run(sys.argv[2:], capture_output=True)
print(done.returncode, len(run._children()))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl and /proc")
def test_no_process_outlives_a_run():
    """The router host is a ``spawn`` child, which also starts multiprocessing's
    resource tracker; neither may be left running, or unreaped, when the run
    exits."""
    done = subprocess.run(
        [sys.executable, "-c", ORPHAN_HARNESS, str(SUITE_DIR), sys.executable,
         str(SUITE_DIR / "run.py"), "--workload", "dense-ingest", "--seed", "3",
         "--seconds", "0.2", "--smoke"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.stdout.split() == ["0", "0"], done.stdout + done.stderr


def test_fails_without_the_sources(tmp_path):
    """A checkout holding only BENCHMARK.json and the suite cannot run."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in MANIFEST["paths"]:
        shutil.copytree(REPO_ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_suite("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "benchmarks" / "suite" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
