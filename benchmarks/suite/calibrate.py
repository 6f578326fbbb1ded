"""Calibrate the suite: repeat every workload, report spread and drift.

    python3 benchmarks/suite/calibrate.py [--runs 5] [--trace-runs 1] \\
        [--out benchmarks/suite/baseline-nproc2.json]

Runs two sets of ``--runs`` end-to-end runs per workload, alternating
between the sets, every run in a fresh process with its own ``--seed``.
For each metric it prints the median over all runs, the relative IQR
(quartile distance over median), each set's median, the drift between
the sets (in the metric's worse direction) and whether that drift stays
within the bound in ``BENCHMARK.json``.  It also proposes each bound:
``max(0.05, 3 x relative IQR, 1.25 x relative range)`` rounded up to a
hundredth, at most 0.25, taken over the workloads, with ``setup_s`` given
the largest of them.  The range term covers metrics with two modes (a
garbage collection that does or does not land before the peak): a change
no larger than what runs of the same code already showed is no regression.
``--trace-runs`` adds traced runs whose per-layer values are recorded too.

The output file is shaped like a ``run.py --out`` artifact (medians under
``workloads.<name>.metrics``), so ``repro-cycles bench-report`` compares a
fresh artifact against it directly; the statistics sit under
``calibration`` and the proposed bounds under ``bounds``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from measure import relative_iqr
from run import HERE, MANIFEST, artifact_leaf

#: Bound rule: the spread stays under a third of the bound, and the whole
#: range seen across calibration runs stays inside it with a quarter to spare.
SPREAD_FACTOR = 3.0
RANGE_FACTOR = 1.25
MIN_BOUND = 0.05
MAX_BOUND = 0.25


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def drift(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first (negative: better)."""
    change = (second - first) / abs(first) if first else 0.0
    return -change if better == "higher" else change


def propose_bound(values: Sequence[float]) -> float:
    middle = statistics.median(values)
    span = (max(values) - min(values)) / middle if middle else 0.0
    wanted = max(SPREAD_FACTOR * relative_iqr(values), RANGE_FACTOR * span)
    return min(MAX_BOUND, max(MIN_BOUND, math.ceil(wanted * 100) / 100))


def calibrate(workloads: Sequence[str], runs: int, seconds: float,
              trace_runs: int) -> Dict[str, Any]:
    manifest = json.loads(MANIFEST.read_text())
    e2e = {entry["name"]: entry for entry in manifest["end_to_end"]}
    layer_units = {entry["name"]: entry["unit"] for entry in manifest["per_layer"]}
    out: Dict[str, Any] = {
        "benchmark": "benchmarks/suite",
        "cpu_count": os.cpu_count() or 1,
        "nproc": os.cpu_count() or 1,
        "run_seconds": seconds,
        "runs_per_set": runs,
        "workloads": {},
        "calibration": {},
    }
    proposals: Dict[str, List[float]] = {name: [] for name in e2e}
    for index, workload in enumerate(workloads):
        sets: List[List[Dict[str, Any]]] = [[], []]
        for run in range(runs):
            for which in (0, 1):  # alternate the sets run by run
                seed = 1000 * index + 2 * run + which + 1
                result = run_once(workload, seed, seconds, 0)
                if not result["correct"]:
                    raise RuntimeError(f"{workload} seed {seed} failed its checks: {result}")
                sets[which].append(result)
                print(f"  {workload} set {'AB'[which]} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        metrics: Dict[str, Any] = {}
        stats: Dict[str, Any] = {}
        for name, entry in e2e.items():
            values = [r["metrics"][name]["value"] for s in sets for r in s]
            halves = [statistics.median(r["metrics"][name]["value"] for r in s) for s in sets]
            spread = relative_iqr(values)
            moved = drift(halves[0], halves[1], entry["better"])
            proposals[name].append(propose_bound(values))
            metrics[name] = {"unit": entry["unit"],
                             artifact_leaf(entry["unit"]): statistics.median(values)}
            stats[name] = {
                "median": statistics.median(values),
                "rel_iqr": spread,
                "set_medians": halves,
                "drift": moved,
                "bound": entry["bound"],
                "agree": moved <= entry["bound"],
                "spread_within_third": name == "setup_s" or spread <= entry["bound"] / 3,
            }
            print(f"{workload:>14} {name:<14} median {stats[name]['median']:<12.6g} "
                  f"rel IQR {spread:6.3f}  sets {halves[0]:.6g} / {halves[1]:.6g}  "
                  f"drift {moved:+.3f}  bound {entry['bound']:.2f}  "
                  f"{'agree' if stats[name]['agree'] else 'DISAGREE'}", flush=True)
        for seed in range(trace_runs):
            result = run_once(workload, 1000 * index + 900 + seed, seconds, 1)
            for name, body in result["metrics"].items():
                metrics[name] = {"unit": layer_units[name],
                                 artifact_leaf(layer_units[name]): body["value"]}
        out["workloads"][workload] = {"metrics": metrics}
        out["calibration"][workload] = stats
    bounds = {name: max(values) for name, values in proposals.items()}
    bounds["setup_s"] = max(bounds.values())
    out["bounds"] = bounds
    print("proposed bounds: " + ", ".join(f"{k}={v:.2f}" for k, v in bounds.items()))
    overrides = " ".join(f"--threshold-for 'workloads.*.metrics.{name}.*={entry['bound']}'"
                         for name, entry in e2e.items())
    print(f"compare: repro-cycles bench-report F --against BASELINE --gate-timing {overrides}")
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    manifest = json.loads(MANIFEST.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (two sets)")
    parser.add_argument("--trace-runs", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(manifest["run_seconds"]))
    parser.add_argument("--workload", action="append", default=None,
                        help="calibrate only this workload (repeatable)")
    parser.add_argument("--out", default=str(HERE / "baseline-nproc2.json"))
    args = parser.parse_args(argv)
    workloads = args.workload or [entry["name"] for entry in manifest["workloads"]]
    result = calibrate(workloads, args.runs, args.seconds, args.trace_runs)
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
