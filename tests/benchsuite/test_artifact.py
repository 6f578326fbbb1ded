"""``run.py --out`` artifacts work with ``repro-cycles bench-report`` unchanged."""

import copy
import json
import subprocess
import sys

from repro.obs.bench_report import main as bench_report
from tests.benchsuite.conftest import REPO_ROOT, SUITE_DIR


def test_bench_report_gates_artifacts_with_per_metric_bounds(tmp_path):
    artifact = tmp_path / "suite.json"
    done = subprocess.run(
        [sys.executable, str(SUITE_DIR / "run.py"), "--workload", "sharded-dense",
         "--seed", "2", "--seconds", "0.2", "--smoke", "--out", str(artifact)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    document = json.loads(artifact.read_text())
    assert document["cpu_count"] >= 1
    assert document["gates"] == [
        {"metric": "workloads.sharded-dense.failed_ratio", "max": 0}
    ]
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    overrides = []
    for entry in manifest["end_to_end"]:
        overrides += ["--threshold-for",
                      f"workloads.*.metrics.{entry['name']}.*={entry['bound']}"]
    gate = ["--gate-timing", *overrides]

    # Same numbers: nothing regresses.
    assert bench_report([str(artifact), "--against", str(artifact), *gate]) == 0
    # The committed calibration baseline has the same shape.
    baseline = SUITE_DIR / "baseline-nproc2.json"
    assert bench_report([str(artifact), "--against", str(baseline)]) == 0

    # Throughput halved: beyond its bound, a regression.
    slower = copy.deepcopy(document)
    slower["workloads"]["sharded-dense"]["metrics"]["pairs_per_s"]["per_second"] /= 2
    slower_path = tmp_path / "slower" / "suite.json"
    slower_path.parent.mkdir()
    slower_path.write_text(json.dumps(slower))
    assert bench_report([str(slower_path), "--against", str(artifact), *gate]) == 1

    # Any failed op trips the failed_ratio gate on its own.
    failing = copy.deepcopy(document)
    failing["workloads"]["sharded-dense"]["failed_ratio"] = 0.01
    failing_path = tmp_path / "failing" / "suite.json"
    failing_path.parent.mkdir()
    failing_path.write_text(json.dumps(failing))
    assert bench_report([str(failing_path), "--against", str(artifact)]) == 1
