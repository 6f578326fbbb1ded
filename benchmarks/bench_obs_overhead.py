"""Benchmark: telemetry/tracing overhead and the convergence verdict.

A plain script like ``bench_parallel_scaling.py`` (CI runs it with
``--quick``)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--quick]

It writes ``BENCH_obs.json`` with two sections:

1. **Overhead** — pairs/sec of the two-pass triangle counter under four
   configurations: a *bare* replica of the seed fast-path loop (no
   telemetry code at all), the default **off** path (``NULL_TELEMETRY`` +
   ``NULL_TRACER`` — the instrumented runner with every guard false), a
   **jsonl** run streaming events to a ``JsonlSink``, and a **trace** run
   recording hierarchical spans.  The committed gate is the boolean
   ``null_overhead_within_5pct``: the instrumented runner with telemetry
   off must stay within 5% of the bare loop (``bench-report`` classifies
   booleans as gated invariants, so a flip fails CI).
2. **Live plane** — serve-granularity ingest through a
   :class:`~repro.serve.manager.SessionManager` with the metrics-only
   registry on (``Telemetry(sink=None)`` plus per-op latency
   histograms — exactly what router workers run under the ``/metrics``
   plane) versus telemetry off.  The serve plane meters per feed
   *chunk*, not per adjacency list, so the committed gate
   ``live_overhead_within_5pct`` (live within 5% of off) holds with
   room even though per-batch runner metrics would not.
3. **Convergence** — a fully deterministic
   :class:`repro.obs.diagnostics.ConvergenceVerdict` for the two-pass
   triangle counter on a planted-triangle workload at the Theorem 3.7
   space setting.  Every ``*_ok`` boolean is true and gated: a future
   change that breaks the ``(1 ± ε)`` guarantee at the paper's budget
   flips a boolean and fails the perf gate, not just the unit tests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

if __package__ in (None, ""):  # script execution without PYTHONPATH=src
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.core.triangle_two_pass import TwoPassTriangleCounter, recommended_sample_size
from repro.experiments.parallel import run_trial, trial_specs
from repro.graph.generators import gnm_random_graph
from repro.graph.planted import planted_triangles
from repro.obs.diagnostics import diagnose
from repro.obs.sinks import JsonlSink
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer
from repro.streaming.runner import run_algorithm
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import AdjacencyListStream
from repro.util.rng import resolve_rng


def _bare_run(algorithm, stream) -> float:
    """Replica of the seed fast-path loop with zero telemetry code.

    Mirrors ``run_algorithm``'s batched dispatch, space polling and
    checkpoint-disabled check — everything the pre-observability runner
    did per list — so the delta against the instrumented runner isolates
    what the telemetry/tracing guards cost when disabled.
    """
    meter = SpaceMeter()
    checkpoint = None
    start = time.perf_counter()
    pairs_run = 0
    for pass_index in range(algorithm.n_passes):
        algorithm.begin_pass(pass_index)
        lists_done = 0
        for vertex, neighbors in stream.iter_lists():
            algorithm.begin_list(vertex)
            algorithm.process_list(vertex, neighbors)
            algorithm.end_list(vertex, neighbors)
            pairs_run += len(neighbors)
            lists_done += 1
            meter.observe(algorithm.space_words())
            if checkpoint is not None:
                pass
        algorithm.end_pass(pass_index)
        meter.observe(algorithm.space_words())
    elapsed = time.perf_counter() - start
    return pairs_run / elapsed if elapsed > 0 else 0.0


def bench_overhead(graph, budget: int, repeats: int, tmp_dir: str) -> dict:
    """Best-of-``repeats`` pairs/sec for bare / off / jsonl / trace modes."""
    stream = AdjacencyListStream(graph, seed=11)
    best = {"bare": 0.0, "off": 0.0, "jsonl": 0.0, "trace": 0.0}
    for _ in range(repeats):
        algo = TwoPassTriangleCounter(sample_size=budget, seed=5)
        best["bare"] = max(best["bare"], _bare_run(algo, stream))

        algo = TwoPassTriangleCounter(sample_size=budget, seed=5)
        run = run_algorithm(algo, stream)
        best["off"] = max(best["off"], run.pairs_per_second)

        algo = TwoPassTriangleCounter(sample_size=budget, seed=5)
        telemetry = Telemetry(sink=JsonlSink(os.path.join(tmp_dir, "bench.jsonl")))
        with telemetry:
            run = run_algorithm(algo, stream, telemetry=telemetry)
        best["jsonl"] = max(best["jsonl"], run.pairs_per_second)

        algo = TwoPassTriangleCounter(sample_size=budget, seed=5)
        tracer = Tracer(seed=5)
        with tracer:
            run = run_algorithm(algo, stream, tracer=tracer)
        best["trace"] = max(best["trace"], run.pairs_per_second)

    bare = best["bare"]
    return {
        "budget": budget,
        "repeats": repeats,
        "bare_pairs_per_second": best["bare"],
        "off_pairs_per_second": best["off"],
        "jsonl_pairs_per_second": best["jsonl"],
        "trace_pairs_per_second": best["trace"],
        "null_overhead_fraction": 1.0 - best["off"] / bare if bare > 0 else None,
        "jsonl_overhead_fraction": 1.0 - best["jsonl"] / bare if bare > 0 else None,
        "trace_overhead_fraction": 1.0 - best["trace"] / bare if bare > 0 else None,
        "null_overhead_within_5pct": best["off"] >= 0.95 * bare,
    }


def bench_live_plane(graph, pairs_target: int, chunk_pairs: int,
                     repeats: int) -> dict:
    """Serve-granularity ingest rate: metrics registry on vs off.

    Feeds one session through a :class:`SessionManager` in fixed-size
    chunks — the live plane's unit of instrumentation (one histogram
    observation plus a few counter bumps per chunk) — with telemetry
    off, then with the metrics-only registry the ``/metrics`` endpoint
    scrapes.
    """
    import asyncio

    from repro.obs.telemetry import NULL_TELEMETRY
    from repro.serve.client import InProcessClient
    from repro.serve.manager import SessionManager

    stream = AdjacencyListStream(graph, seed=11)
    pairs = []
    for vertex, neighbors in stream.iter_lists():
        pairs.extend((vertex, neighbor) for neighbor in neighbors)
        if len(pairs) >= pairs_target:
            break
    chunks = [
        pairs[i:i + chunk_pairs] for i in range(0, len(pairs), chunk_pairs)
    ]

    async def _rate(telemetry) -> float:
        manager = SessionManager(telemetry=telemetry)
        client = InProcessClient(manager)
        await client.open("bench-live", "triangle-exact", budget=256, seed=1)
        start = time.perf_counter()
        for chunk in chunks:
            await client.feed("bench-live", chunk)
        elapsed = time.perf_counter() - start
        await client.close_session("bench-live")
        return len(pairs) / elapsed if elapsed > 0 else 0.0

    best_off = best_live = 0.0
    for _ in range(repeats):
        best_off = max(best_off, asyncio.run(_rate(NULL_TELEMETRY)))
        live = Telemetry(sink=None)  # metrics-only: what /metrics scrapes
        with live:
            best_live = max(best_live, asyncio.run(_rate(live)))
    return {
        "pairs": len(pairs),
        "chunk_pairs": chunk_pairs,
        "repeats": repeats,
        "off_pairs_per_second": best_off,
        "live_pairs_per_second": best_live,
        "live_overhead_fraction": (
            1.0 - best_live / best_off if best_off > 0 else None
        ),
        "live_overhead_within_5pct": best_live >= 0.95 * best_off,
    }


def _trial_factory(budget, seed):
    """Module-level trial factory (kept picklable like the harness ones)."""
    return TwoPassTriangleCounter(sample_size=budget, seed=seed)


def bench_convergence(runs: int) -> dict:
    """Deterministic Theorem 3.7 verdict at the paper's space setting."""
    workload = planted_triangles(300, 30, seed=7)
    budget = recommended_sample_size(workload.m, workload.true_count, epsilon=0.5)
    specs = trial_specs(resolve_rng(123), budget, runs)
    estimates = [
        run_trial(_trial_factory, workload.graph, spec).estimate for spec in specs
    ]
    verdict = diagnose(
        estimates,
        workload.true_count,
        workload.m,
        budget,
        theorem="3.7",
        epsilon=0.5,
    )
    return verdict.to_flat_dict()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small graph / few repeats (CI smoke run)")
    parser.add_argument("--out", default="BENCH_obs.json", help="JSON artifact path")
    args = parser.parse_args(argv)

    # Even in quick mode the graph must be big enough that one measured
    # run takes tens of milliseconds, or the 5% gate drowns in timer noise.
    if args.quick:
        n, m, budget, repeats, runs = 1500, 15_000, 128, 5, 6
    else:
        n, m, budget, repeats, runs = 4000, 40_000, 512, 7, 12

    print(f"building G(n={n}, m={m}) workload ...")
    graph = gnm_random_graph(n, m, seed=1)

    import tempfile

    print(f"overhead: bare vs off vs jsonl vs trace, best of {repeats} ...")
    with tempfile.TemporaryDirectory() as tmp_dir:
        overhead = bench_overhead(graph, budget, repeats, tmp_dir)
    for mode in ("bare", "off", "jsonl", "trace"):
        print(f"  {mode:<5} {overhead[f'{mode}_pairs_per_second']:>12,.0f} pairs/s")
    print(f"  null overhead {overhead['null_overhead_fraction']:+.2%} "
          f"(within 5%: {overhead['null_overhead_within_5pct']})")

    print(f"live plane: manager ingest, metrics registry on vs off ...")
    live_plane = bench_live_plane(
        graph, pairs_target=m, chunk_pairs=512, repeats=max(3, repeats - 2)
    )
    print(f"  off  {live_plane['off_pairs_per_second']:>12,.0f} pairs/s")
    print(f"  live {live_plane['live_pairs_per_second']:>12,.0f} pairs/s")
    print(f"  live-plane overhead {live_plane['live_overhead_fraction']:+.2%} "
          f"(within 5%: {live_plane['live_overhead_within_5pct']})")

    print(f"convergence: Theorem 3.7 verdict, {runs} planted-triangle trials ...")
    convergence = bench_convergence(runs)
    print(f"  sample_size={convergence['sample_size']} "
          f"(required {convergence['required_size']}), "
          f"median rel err {convergence['median_relative_error']:.3g}, "
          f"success {convergence['success_rate']:.2f}, ok={convergence['ok']}")

    artifact = {
        "workload": {"n": n, "m": m, "quick": args.quick},
        "cpu_count": os.cpu_count(),
        "overhead": overhead,
        "live_plane": live_plane,
        "convergence": convergence,
    }
    with open(args.out, "w") as fh:
        json.dump(artifact, fh, indent=2)
    print(f"wrote {args.out}")

    if not overhead["null_overhead_within_5pct"]:
        print("ERROR: disabled telemetry costs more than 5% vs the bare loop")
        return 1
    if not live_plane["live_overhead_within_5pct"]:
        print("ERROR: metrics-only live plane costs more than 5% vs telemetry off")
        return 1
    if not convergence["ok"]:
        print("ERROR: convergence verdict failed at the paper's space setting")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
