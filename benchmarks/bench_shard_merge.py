"""Benchmark: shard-and-merge execution of the two-pass counters.

Like ``bench_parallel_scaling.py`` this is a plain script (CI runs it with
``--quick``)::

    PYTHONPATH=src python benchmarks/bench_shard_merge.py [--quick]

It measures, on a G(n, m) workload, and writes a JSON artifact (default
``BENCH_shard.json``):

1. **Merge identity** — merged per-shard ``BottomKSampler`` states must be
   bit-identical to one sampler fed the concatenated stream, for every
   partition strategy (this is the exactness anchor of the whole
   subsystem; failure exits nonzero).
2. **Sharded == conventional** — the 4-cycle counter's sharded run must
   equal its conventional run exactly (same seed), and the sharded
   triangle counter must be invariant to the shard count in the
   full-sample regime.
3. **Scaling** — wall time of 1/2/4/8-shard runs, serial vs. process
   fan-out, asserting serial and parallel schedules agree bit-for-bit.
4. **Shard balance** — pairs per shard under each partition strategy.
5. **Dense pool** (``dense``) — repeated 2-shard runs of both two-pass
   counters over one dense G(n, m) stream, warm serial against a
   2-worker pool: the warm pool and the stream's shared block make every
   run after the first ship nothing but merged states.

The artifact self-declares one **gate** (see :mod:`repro.obs.bench_report`):
``dense.pool_speedup >= 1.0``, marked ``needs_parallelism`` so
bench-report skips it, with a note, on a single-core machine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if __package__ in (None, ""):  # script execution without PYTHONPATH=src
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.core.fourcycle_two_pass import TwoPassFourCycleCounter
from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.experiments.parallel import resolve_workers
from repro.graph.generators import gnm_random_graph
from repro.sketch.driver import run_sharded
from repro.sketch.merge import merge_states
from repro.sketch.samplers import bottom_k_from_state, bottom_k_state
from repro.sketch.shard import STRATEGIES, partition_stream, shard_pair_counts
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream
from repro.util.sampling import BottomKSampler
from rounds import Rounds


def bench_merge_identity(stream, capacity):
    """Bottom-k merge == single sampler over the whole stream, per strategy."""
    reference = BottomKSampler(capacity, seed=17)
    empty_state = bottom_k_state(reference)  # shards start from this, as in the driver
    for src, dst in stream.iter_pairs():
        reference.offer((src, dst) if src <= dst else (dst, src))
    reference_state = bottom_k_state(reference)

    out = {}
    for strategy in STRATEGIES:
        for n_shards in (2, 4, 8):
            shards = partition_stream(stream, n_shards, strategy)
            states = []
            for shard in shards:
                part = bottom_k_from_state(empty_state)
                for src, dst in shard.iter_pairs():
                    part.offer((src, dst) if src <= dst else (dst, src))
                states.append(bottom_k_state(part))
            merged = merge_states(states)
            key = f"{strategy}/{n_shards}"
            out[key] = merged.payload == reference_state.payload
    return out


def bench_exactness(graph, stream):
    """Sharded runs must reproduce (4-cycle) / be invariant in (triangle)."""
    conventional = run_algorithm(
        TwoPassFourCycleCounter(sample_size=2 * graph.m, seed=3), stream
    ).estimate
    fourcycle_ok = True
    for n_shards in (1, 2, 4):
        est = run_sharded(
            TwoPassFourCycleCounter(sample_size=2 * graph.m, seed=3), stream, n_shards
        ).estimate
        fourcycle_ok = fourcycle_ok and est == conventional

    triangle_estimates = []
    for n_shards in (1, 2, 4):
        est = run_sharded(
            TwoPassTriangleCounter(sample_size=2 * graph.m, seed=3, sharded=True),
            stream,
            n_shards,
        ).estimate
        triangle_estimates.append(est)
    triangle_ok = len(set(triangle_estimates)) == 1
    return {
        "fourcycle_matches_conventional": fourcycle_ok,
        "triangle_shard_invariant": triangle_ok,
        "triangle_estimate": triangle_estimates[0],
    }


def bench_scaling(graph, stream, sample_size, shard_counts, workers):
    """Wall time per shard count, serial vs. pool, in one paired round
    after a warm-up (:mod:`rounds`); bit-identity asserted."""
    rows = []
    for n_shards in shard_counts:
        rounds = Rounds(("serial", "parallel"), 1)
        runs = {}
        for arm in rounds:
            algorithm = TwoPassTriangleCounter(sample_size=sample_size, seed=9, sharded=True)
            with rounds.timed(arm):
                runs[arm] = run_sharded(
                    algorithm, stream, n_shards,
                    workers=workers if arm == "parallel" else None, merge_seed=1,
                )
        rows.append(
            {
                "n_shards": n_shards,
                "serial_seconds": rounds.median("serial"),
                "parallel_seconds": rounds.median("parallel"),
                **rounds.ratio("speedup", "serial", "parallel"),
                "peak_shard_space_words": runs["parallel"].peak_space_words,
                "bit_identical": runs["serial"].estimate == runs["parallel"].estimate,
            }
        )
    return rows


def bench_dense(n, m, sample_size, repeats):
    """Warm serial vs. 2-worker pool on repeated runs over one dense stream.

    One unit runs both counters with 2 shards under one schedule.  The
    units run in ``repeats`` warmed, alternating paired rounds
    (:mod:`rounds`); the warm-up pays the serial path's graph memos, the
    pool's fork and the stream's shared block.  ``pool_speedup`` is the
    median of the rounds' own serial/pool time ratios.
    """
    graph = gnm_random_graph(n, m, seed=5)
    stream = AdjacencyListStream(graph, seed=6)
    makers = (
        lambda: TwoPassTriangleCounter(sample_size=sample_size, seed=9, sharded=True),
        lambda: TwoPassFourCycleCounter(sample_size=sample_size, seed=9),
    )
    rounds = Rounds(("serial", "pool"), repeats)
    estimates = {}
    for arm in rounds:
        algorithms = [make() for make in makers]
        workers = 2 if arm == "pool" else None
        with rounds.timed(arm):
            estimates[arm] = [
                run_sharded(algorithm, stream, 2, workers=workers).estimate
                for algorithm in algorithms
            ]
    return {
        "n": n,
        "m": m,
        "serial_seconds": rounds.median("serial"),
        "pool_seconds": rounds.median("pool"),
        **rounds.ratio("pool_speedup", "serial", "pool"),
        "effective_parallelism": min(2, os.cpu_count() or 1),
        "bit_identical": estimates["serial"] == estimates["pool"],
    }


def bench_balance(stream, n_shards):
    """Pairs per shard under each strategy (max/mean imbalance ratio)."""
    out = {}
    for strategy in STRATEGIES:
        counts = shard_pair_counts(partition_stream(stream, n_shards, strategy))
        mean = sum(counts) / len(counts)
        out[strategy] = {
            "pairs": counts,
            "imbalance": max(counts) / mean if mean > 0 else None,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small graph (CI smoke run)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes for the fan-out (0 = all cores)")
    parser.add_argument("--out", default="BENCH_shard.json",
                        help="JSON artifact path")
    args = parser.parse_args(argv)

    if args.quick:
        n, m, sample_size, shard_counts = 400, 4000, 256, (2, 4)
        dense_n, dense_m = 2000, 200_000  # the benchmark suite's dense graph
    else:
        n, m, sample_size, shard_counts = 4000, 40_000, 1024, (1, 2, 4, 8)
        dense_n, dense_m = 4000, 400_000

    print(f"building G(n={n}, m={m}) workload ...")
    graph = gnm_random_graph(n, m, seed=1)
    stream = AdjacencyListStream(graph, seed=2)

    print("bottom-k merge identity across strategies and shard counts ...")
    identity = bench_merge_identity(stream, capacity=sample_size)
    for key, ok in identity.items():
        print(f"  {key}: {'identical' if ok else 'DIVERGED'}")

    print("sharded vs conventional exactness (full-sample regime) ...")
    exact = bench_exactness(graph, stream)
    print(f"  4-cycle matches conventional: {exact['fourcycle_matches_conventional']}")
    print(f"  triangle shard-invariant:     {exact['triangle_shard_invariant']}")

    print(f"scaling: shard counts {shard_counts}, "
          f"{resolve_workers(args.workers)} workers ...")
    scaling = bench_scaling(graph, stream, sample_size, shard_counts, args.workers)
    for row in scaling:
        print(f"  shards={row['n_shards']}: serial {row['serial_seconds']:.2f}s, "
              f"pool {row['parallel_seconds']:.2f}s (x{row['speedup']:.2f}, "
              f"identical={row['bit_identical']})")

    print("shard balance at 4 shards ...")
    balance = bench_balance(stream, 4)
    for strategy, row in balance.items():
        print(f"  {strategy}: imbalance x{row['imbalance']:.3f}")

    print(f"dense pool: G(n={dense_n}, m={dense_m}), 2 shards, "
          f"warm serial vs 2 workers ...")
    dense = bench_dense(dense_n, dense_m, sample_size=512, repeats=5)
    print(f"  serial {dense['serial_seconds']:.3f}s, pool {dense['pool_seconds']:.3f}s "
          f"(x{dense['pool_speedup']:.2f}, identical={dense['bit_identical']})")

    artifact = {
        "workload": {"n": n, "m": m, "quick": args.quick},
        "cpu_count": os.cpu_count(),
        "merge_identity": identity,
        "exactness": exact,
        "scaling": scaling,
        "balance": balance,
        "dense": dense,
        "gates": [
            {"metric": "dense.pool_speedup", "min": 1.0, "needs_parallelism": True},
        ],
    }
    with open(args.out, "w") as fh:
        json.dump(artifact, fh, indent=2)
    print(f"wrote {args.out}")

    ok = (
        all(identity.values())
        and exact["fourcycle_matches_conventional"]
        and exact["triangle_shard_invariant"]
        and all(row["bit_identical"] for row in scaling)
        and dense["bit_identical"]
    )
    if not ok:
        print("ERROR: a merge-identity or exactness check failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
