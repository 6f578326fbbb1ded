"""The repository benchmark: one workload per process, every metric by name.

    python3 benchmarks/suite/run.py --workload dense-ingest --seed 1 \\
        --seconds 15 --trace 0 [--out F] [--trace-out T] [--smoke]

Builds the workload's inputs from ``--seed``, runs one unmeasured
warm-up unit, measures for ``--seconds``, then checks every estimate
against the scalar-oracle reference.  With ``--trace 0`` it prints the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it also runs
the workload's inputs through every layer (see ``layers.py``), writes a
Chrome trace (``repro-cycles obs-report --trace T`` reads it) and prints
the per-layer metrics.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed.  ``--out F`` also writes the result in the
artifact shape ``repro-cycles bench-report`` reads.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # before any heavy import: set-up starts here

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"

#: How many times set-up runs; ``setup_s`` reports the median.
SETUP_REPEATS = 3

#: ``prctl`` option that makes a process the reaper of its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's sources, or give up."""
    if not (SRC / "repro" / "__init__.py").is_file() or not MANIFEST.is_file():
        print(f"run.py: no repro sources at {SRC} (or no {MANIFEST.name})", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"run.py: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def artifact_leaf(unit: str) -> str:
    """The leaf name under which ``bench-report`` classifies a value.

    bench-report reads a metric's direction from its key: ``*per_second*``
    is higher-better timing and ``*seconds*`` lower-better timing (both
    gated under ``--gate-timing``), ``*words*`` a lower-better resource.
    Other units keep a plain ``value`` leaf, which it reports ungated.
    """
    if unit.endswith("/s"):
        return "per_second"
    if unit == "s":
        return "seconds"
    if unit == "words":
        return "words"
    return "value"


def build_artifact(result: Dict[str, Any], units: Dict[str, str], *, workload: str,
                   seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    failed_ratio = result["failed"] / result["attempted"]
    return {
        "benchmark": "benchmarks/suite",
        "cpu_count": os.cpu_count() or 1,
        "nproc": os.cpu_count() or 1,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "workloads": {
            workload: {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "failed_ratio": failed_ratio,
                "metrics": {
                    name: {"unit": units[name], artifact_leaf(units[name]): body["value"]}
                    for name, body in result["metrics"].items()
                },
            }
        },
        "gates": [{"metric": f"workloads.{workload}.failed_ratio", "max": 0}],
    }


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write a bench-report artifact")
    parser.add_argument("--trace-out", default=None,
                        help="Chrome trace path (default .bench_out/ in the checkout)")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    _bootstrap()
    from layers import Ladder
    from measure import OpLog, clock, peak_rss_mb, percentile
    from repro.obs.trace import NULL_TRACER, Tracer, read_chrome_trace, write_chrome_trace
    from workloads import WORKLOADS

    import_s = clock() - _PROCESS_START
    manifest = json.loads(MANIFEST.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in manifest[section]}
    if args.workload not in WORKLOADS or args.workload not in {
            entry["name"] for entry in manifest["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](smoke=args.smoke)

    # Set-up (spawn, build, warm-up) runs several times; the median counts.
    setups: List[float] = []
    for attempt in range(SETUP_REPEATS):
        start = clock()
        workload.spawn()
        try:
            inputs = workload.build(args.seed)
            workload.warm_up(inputs)
        except BaseException:
            workload.close()
            raise
        setups.append(clock() - start)
        if attempt < SETUP_REPEATS - 1:
            workload.close()
    setup_s = import_s + statistics.median(setups)

    tracer = Tracer(seed=args.seed, root="suite") if args.trace else NULL_TRACER
    ladder: Optional[Ladder] = None
    with tracer:
        try:
            if args.trace:
                plan = [(args.seconds / 2, NULL_TRACER), (args.seconds / 2, tracer)]
            else:
                plan = [(args.seconds, NULL_TRACER)]
            phases = workload.run(inputs, plan)
        finally:
            workload.close()
        rss_mb = peak_rss_mb()
        if args.trace:
            ladder = Ladder(workload.ladder(inputs), tracer)
            ladder.run()

    ops = OpLog()
    # Checks run after every timed phase, on the single scalar oracle.
    references = workload.references(inputs)
    for phase in phases:
        ops.absorb(phase.ops)
        for key, estimate in phase.estimates:
            if estimate != references[key]:
                ops.reject(f"estimate {estimate!r} != reference {references[key]!r} ({key!r})")
        if workload.serve and not phase.latencies:
            ops.fail("no poll completed during the measured phase")

    if args.trace:
        assert ladder is not None
        ops.absorb(ladder.ops)
        trace_path = Path(args.trace_out) if args.trace_out else (
            ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}.trace.json")
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(str(trace_path), tracer.spans)
        values = ladder.metrics(read_chrome_trace(str(trace_path)))
        values["trace.overhead"] = (phases[0].rate() - phases[1].rate()) / phases[0].rate()
        lags = ladder.lags + [lag for phase in phases for lag in phase.lags]
        values["loadgen.lag_p99_s"] = percentile(lags, 0.99)
        values["loadgen.polls"] = len(lags)
        print(f"trace written to {trace_path}")
    else:
        phase = phases[0]
        values = {
            "pairs_per_s": phase.rate(),
            "latency_p50_s": percentile(phase.latencies, 0.50),
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        }
        print(f"samples: {len(phase.latencies)} latencies, {len(phase.units)} units, "
              f"{phase.pairs} pairs "
              f"in {phase.elapsed_s:.3f} s; import {import_s:.3f} s, set-ups "
              + ", ".join(f"{seconds:.3f}" for seconds in setups) + " s")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with "
                           f"BENCHMARK.json {section}")

    print(f"workload {args.workload} seed {args.seed} nproc {os.cpu_count()} "
          f"trace {args.trace}")
    for error in ops.errors:
        print(f"FAILED: {error}")
    for name in units:
        print(f"  {name:<30} {values[name]:>16.6g} {units[name]}")
    result = {
        "correct": ops.failed == 0 and ops.attempted > 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }
    if args.out:
        artifact = build_artifact(result, units, workload=args.workload, seed=args.seed,
                                  seconds=args.seconds, trace=args.trace)
        Path(args.out).write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A router's workers whose host process died would otherwise be
    re-parented to init, out of reach; as a subreaper this process gets
    them back and ``_reap_children`` stops them.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> List[int]:
    """This process's children, from each process's ``/proc/PID/stat``.

    (``/proc/PID/task/*/children`` would be simpler, but kernels built
    without ``CONFIG_PROC_CHILDREN`` lack it.)
    """
    me, pids = os.getpid(), []
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            # The fields after the parenthesised command: state, ppid, ...
            ppid = int(entry.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(entry.parent.name))
    return pids


def _wait_gone(pid: int, deadline: float) -> bool:
    """Reap ``pid`` if it ends before ``deadline``; True once it is gone."""
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.perf_counter() >= deadline:
            return False
        time.sleep(0.01)


def _reap_children(grace_s: float = 10.0) -> None:
    """Stop and wait for every process this run started, so none outlives it.

    Children (and adopted orphans) get SIGTERM, then SIGKILL after
    ``grace_s``.  multiprocessing's resource tracker, which a ``spawn``
    start launches and which otherwise exits only after this process,
    is stopped last through its own shutdown path: once every other
    holder of its pipe is gone, closing it ends the tracker.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    deadline = time.perf_counter() + grace_s
    while True:
        others = [pid for pid in _children() if pid != tracker_pid]
        if not others:
            break
        for pid in others:
            if not _wait_gone(pid, time.perf_counter()):
                sig = signal.SIGTERM if time.perf_counter() < deadline else signal.SIGKILL
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and tracker_pid is not None:
        stop()
    for pid in _children():  # whatever is still left, such as an unstoppable tracker
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _wait_gone(pid, time.perf_counter() + grace_s)


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def cli() -> int:
    _adopt_orphans()
    # A terminated run still unwinds, so the reaping below runs.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return main()
    finally:
        _reap_children()


if __name__ == "__main__":
    raise SystemExit(cli())
