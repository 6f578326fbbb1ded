"""Benchmark: parallel trial execution and the columnar/batched fast path.

A plain script (CI runs it with ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py [--quick]

It measures four things, three on large G(n, m) workloads, and writes a
JSON artifact (default ``BENCH_parallel.json``):

1. **Harness parallelism** — wall time of an ``accuracy_sweep`` serially
   vs. with ``--workers`` processes, asserting the two return
   bit-identical points, and recording the *effective* parallelism
   (``min(workers, cpu_count)`` — the honest speedup denominator).
2. **Counter fast path** — pairs/sec of three dispatch/kernel tiers for
   the two-pass triangle and 4-cycle counters, asserting identical
   estimates and peaks across all of them:

   * ``per_pair_scalar`` — per-pair ``process`` dispatch, scalar kernels
     (the historical baseline path, forced via ``scalar_oracle``);
   * ``batched_scalar`` — batched ``process_list`` dispatch, scalar
     kernels;
   * ``columnar`` — batched dispatch plus the numpy-vectorized hash /
     sampler / detection kernels (the default production path).

3. **Conventional over sharded** — process CPU of the paper's own
   triangle counter over its sharded mode
   (``fast_path.triangle_two_pass.conventional_over_sharded``); full size
   runs dense-ingest's job (G(2000, 200k), budget 512).
4. **Sparse fast path** (``fast_path_sparse``) — the same three tiers on
   Table 1's sparse regime: planted triangles / planted 4-cycles over
   noise with a mean list length of about 2, where the counters route
   lists below ``SHORT_LIST`` around the columnar kernels and the runner
   hands runs of such lists to them in one call.

Every rate and ratio here is timed in warmed, alternating, paired rounds
(:mod:`rounds`): a ratio is the median of the rounds' own ratios and
carries its spread.

The artifact self-declares **gates** (see
:mod:`repro.obs.bench_report`): at the full bench size the columnar path
must clear ``columnar_speedup >= 5`` on both counters and the
conventional triangle counter must stay within its
``conventional_over_sharded`` ceiling; at every size the
sparse production path must clear ``columnar_speedup`` floors of 1.5
(triangles) and 1.2 (4-cycles), so its per-list fixed cost cannot fall
back behind the scalar loops; and
the parallel sweep must show ``speedup > 1`` — the latter marked
``needs_parallelism`` so bench-report skips it (visibly, with a note)
when the artifact comes from a single-core machine, where no parallel
win is physically possible.  ``--quick`` shrinks the workload far below
the sizes where the columnar constant costs amortize, so quick gates
only assert sanity floors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

if __package__ in (None, ""):  # script execution without PYTHONPATH=src
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.core.fourcycle_two_pass import TwoPassFourCycleCounter
from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.experiments.harness import accuracy_sweep
from repro.experiments.parallel import resolve_workers
from repro.graph.generators import gnm_random_graph
from repro.graph.planted import planted_four_cycles, planted_triangles
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream
from repro.util.rng import derive_seed
from repro.util.vectorized import scalar_oracle
from rounds import Rounds


def _factory(budget, seed):
    """Module-level (hence picklable) trial factory for the sweep."""
    return TwoPassTriangleCounter(sample_size=max(budget, 1), seed=seed)


def bench_sweep(graph, truth, budgets, runs, workers):
    """Serial vs. parallel accuracy_sweep wall time + bit-identity check,
    in one paired round after a warm-up (:mod:`rounds`)."""
    rounds = Rounds(("serial", "parallel"), 1)
    points = {}
    for arm in rounds:
        with rounds.timed(arm):
            points[arm] = accuracy_sweep(
                _factory, graph, truth, budgets, runs=runs, seed=0,
                workers=workers if arm == "parallel" else None,
            )
    n_workers = resolve_workers(workers)
    return {
        "budgets": list(budgets),
        "runs": runs,
        "workers": n_workers,
        "effective_parallelism": min(n_workers, os.cpu_count() or 1),
        "serial_seconds": rounds.median("serial"),
        "parallel_seconds": rounds.median("parallel"),
        **rounds.ratio("speedup", "serial", "parallel"),
        "bit_identical": points["serial"] == points["parallel"],
    }


_FAST_PATH_ALGORITHMS = {
    "triangle_two_pass": lambda budget: TwoPassTriangleCounter(
        sample_size=budget, seed=5
    ),
    "fourcycle_two_pass": lambda budget: TwoPassFourCycleCounter(
        sample_size=budget, seed=5
    ),
}

#: tier name -> (use_fast_path, columnar kernels), slowest first.
_FAST_PATH_TIERS = {
    "per_pair_scalar": (False, False),
    "batched_scalar": (True, False),
    "columnar": (True, True),
}


def bench_fast_path(graphs, budget, repeats):
    """Per-pair scalar vs. batched scalar vs. columnar pairs/sec.

    ``graphs`` maps each counter's name to its workload graph.  The tiers
    run in ``repeats`` warmed, alternating paired rounds
    (:mod:`rounds`); a speedup is the median of the rounds' own time
    ratios against the per-pair tier, reported with its spread, and a
    tier's pairs/sec is from its median time.  Every tier must produce
    bit-identical estimates and space peaks (the scalar path is the
    columnar kernels' correctness oracle, so any daylight here is a
    bug, not noise).
    """
    out = {}
    for name, make in _FAST_PATH_ALGORITHMS.items():
        stream = AdjacencyListStream(graphs[name], seed=11)
        results = {}
        rounds = Rounds(_FAST_PATH_TIERS, repeats)
        for tier in rounds:
            fast, columnar = _FAST_PATH_TIERS[tier]
            algorithm = make(budget)
            with contextlib.nullcontext() if columnar else scalar_oracle():
                with rounds.timed(tier):
                    results[tier] = run_algorithm(algorithm, stream, use_fast_path=fast)
        pairs = algorithm.n_passes * len(stream)
        row = {"budget": budget, "rounds": repeats}
        for tier in _FAST_PATH_TIERS:
            row[f"{tier}_pairs_per_second"] = pairs / rounds.median(tier)
        row.update(rounds.ratio("batched_speedup", "per_pair_scalar", "batched_scalar"))
        row.update(rounds.ratio("columnar_speedup", "per_pair_scalar", "columnar"))
        row["bit_identical"] = all(
            run.estimate == results["per_pair_scalar"].estimate
            and run.peak_space_words == results["per_pair_scalar"].peak_space_words
            for run in results.values()
        )
        out[name] = row
    return out


def bench_conventional_over_sharded(graph, stream_seed, budget, seed, rounds):
    """Process CPU of the conventional triangle counter over its sharded
    mode, on one job.

    Both modes run ``run_algorithm`` in-process on the same stream, in
    ``rounds`` warmed, alternating paired rounds (:mod:`rounds`).  The
    ratio is the median of the rounds' own CPU ratios, reported with its
    spread; each mode's CPU time is its median.  Every round of a mode
    must reproduce its warm-up estimate.
    """
    stream = AdjacencyListStream(graph, seed=stream_seed)
    modes = {
        "conventional": lambda: TwoPassTriangleCounter(sample_size=budget, seed=seed),
        "sharded": lambda: TwoPassTriangleCounter(sample_size=budget, seed=seed, sharded=True),
    }
    estimates = {}
    identical = True
    paired = Rounds(modes, rounds)
    for mode in paired:
        algorithm = modes[mode]()
        with paired.timed(mode):
            estimate = run_algorithm(algorithm, stream).estimate
        identical = identical and estimates.setdefault(mode, estimate) == estimate
    row = {
        "conventional_cpu_s": paired.median("conventional", cpu=True),
        "sharded_cpu_s": paired.median("sharded", cpu=True),
        **paired.ratio("conventional_over_sharded", "conventional", "sharded", cpu=True),
        "conventional_over_sharded_budget": budget,
    }
    return row, identical


#: Ceiling of ``fast_path.triangle_two_pass.conventional_over_sharded`` at
#: full size: the paper's own counter (H order statistic, pass-1 pair
#: discards) may cost at most this many times its sharded mode's CPU on
#: the dense job.  The target is 2.0; the code reads about 2.2-2.35 (see
#: ROADMAP.md, item 6).
_CONVENTIONAL_CEILING = 2.5


#: Sparse columnar_speedup floors.  The triangle counter's scalar tiers
#: scan the whole k-edge sample per list, so probing neighbour pairs
#: instead pays several times over.  The 4-cycle counter's scalar scan
#: covers only the small wedge set Q, so its gain comes from the run
#: route: one hash kernel per run of short lists in place of scalar
#: offers, and one bulk space update per run in place of a poll per
#: list.  Without runs it read about 1.0x at full size; with them the
#: committed full-size artifact reads 3.1x (triangles: 9.3x).  Both
#: floors stay below the measurements, and far above the 0.25x of the
#: columnar kernels without the short-list route.
_SPARSE_FLOORS = {"triangle_two_pass": 1.5, "fourcycle_two_pass": 1.2}


def gate_declarations(quick: bool):
    """The artifact's self-declared bench-report gates.

    Full size: the columnar path must hold >= 5x over the per-pair scalar
    baseline on both two-pass counters, and the parallel sweep must beat
    serial (skipped on single-core machines).  Quick size: the dense
    workload is far too small to amortize columnar/pool constants, so
    only sanity floors are asserted (the columnar path must not be
    catastrophically slower than the per-pair loop).  Both sizes: on the
    sparse workload the production path must clear ``_SPARSE_FLOORS``,
    which it reaches only by routing short lists around the kernels.
    """
    counter_floor = 5.0 if not quick else 0.5
    gates = [
        {
            "metric": f"fast_path.{name}.columnar_speedup",
            "min": counter_floor,
        }
        for name in _FAST_PATH_ALGORITHMS
    ]
    gates.extend(
        {"metric": f"fast_path_sparse.{name}.columnar_speedup", "min": floor}
        for name, floor in _SPARSE_FLOORS.items()
    )
    if not quick:
        gates.append(
            {"metric": "sweep.speedup", "min": 1.0, "needs_parallelism": True}
        )
        gates.append({
            "metric": "fast_path.triangle_two_pass.conventional_over_sharded",
            "max": _CONVENTIONAL_CEILING,
        })
    return gates


def _print_fast_path(rows) -> None:
    for name, row in rows.items():
        low, high = row["columnar_speedup_spread"]
        print(f"  {name}: per-pair {row['per_pair_scalar_pairs_per_second']:,.0f} "
              f"pairs/s, batched {row['batched_scalar_pairs_per_second']:,.0f} "
              f"pairs/s (x{row['batched_speedup']:.2f}), columnar "
              f"{row['columnar_pairs_per_second']:,.0f} pairs/s "
              f"(x{row['columnar_speedup']:.2f}, rounds x{low:.2f}..x{high:.2f}, "
              f"identical={row['bit_identical']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small graph / few trials (CI smoke run)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes for the parallel sweep (0 = all cores)")
    parser.add_argument("--runs", type=int, default=10, help="trials per budget")
    parser.add_argument("--out", default="BENCH_parallel.json",
                        help="JSON artifact path")
    args = parser.parse_args(argv)

    # Full size n=4000, m=400000, k=512: dense enough (average degree 200)
    # that the columnar kernels' fixed per-list costs amortize and the
    # 5x columnar_speedup gate holds with margin; quick shrinks ~100x for
    # CI smoke coverage of the same code paths.
    if args.quick:
        n, m, budgets, runs, repeats = 600, 6000, (64, 128), min(args.runs, 6), 1
    else:
        n, m, budgets, runs, repeats = 4000, 400_000, (256, 512), args.runs, 3
    # Sparse planted graphs (mean list length about 2) at sample size 512:
    # quick is the sparse-sweep workload's size, full is 8x that.
    noise, planted = (2_500, 250) if args.quick else (20_000, 2_000)

    print(f"building G(n={n}, m={m}) workload ...")
    graph = gnm_random_graph(n, m, seed=1)
    # The sweep checks estimator determinism, not accuracy, so any truth
    # value works; 0 avoids an O(n^3)-ish exact count on the big graph.
    truth = 0.0

    cpu_count = os.cpu_count() or 1
    if cpu_count == 1:
        print("note: single-core machine — parallel speedup gates will be "
              "skipped by bench-report (cpu_count=1)")

    print(f"accuracy_sweep: {runs} trials x {len(budgets)} budgets, "
          f"serial vs {resolve_workers(args.workers)} workers ...")
    sweep = bench_sweep(graph, truth, budgets, runs, args.workers)
    print(f"  serial   {sweep['serial_seconds']:.2f}s")
    print(f"  parallel {sweep['parallel_seconds']:.2f}s "
          f"(x{sweep['speedup']:.2f}, identical={sweep['bit_identical']}, "
          f"effective parallelism {sweep['effective_parallelism']})")

    print("counter fast path: per-pair scalar vs batched scalar vs columnar ...")
    fast = bench_fast_path(
        {name: graph for name in _FAST_PATH_ALGORITHMS},
        budget=max(budgets), repeats=repeats,
    )
    _print_fast_path(fast)

    # Full size: dense-ingest's own job (G(2000, 200k), budget 512, suite
    # seed 1); quick: the quick dense graph.
    if args.quick:
        job_graph, job_seeds, job_budget, job_rounds = graph, (11, 5), max(budgets), 3
    else:
        job_graph = gnm_random_graph(2000, 200_000, seed=derive_seed(1, 1))
        job_seeds, job_budget, job_rounds = (derive_seed(1, 2), derive_seed(1, 3)), 512, 15
    print("conventional triangle counter over its sharded mode (process CPU) ...")
    job, job_identical = bench_conventional_over_sharded(
        job_graph, job_seeds[0], job_budget, job_seeds[1], job_rounds
    )
    triangle = fast["triangle_two_pass"]
    triangle.update(job)
    triangle["bit_identical"] = triangle["bit_identical"] and job_identical
    low, high = job["conventional_over_sharded_spread"]
    print(f"  conventional {job['conventional_cpu_s'] * 1e3:.0f} ms, sharded "
          f"{job['sharded_cpu_s'] * 1e3:.0f} ms: x{job['conventional_over_sharded']:.2f} "
          f"(rounds x{low:.2f}..x{high:.2f}, identical={job_identical})")

    print(f"sparse fast path: planted graphs over {noise} noise edges ...")
    sparse_graphs = {
        "triangle_two_pass": planted_triangles(noise, planted, seed=1).graph,
        "fourcycle_two_pass": planted_four_cycles(noise, planted, seed=2).graph,
    }
    fast_sparse = bench_fast_path(sparse_graphs, budget=512, repeats=3)
    _print_fast_path(fast_sparse)

    artifact = {
        "workload": {"n": n, "m": m, "quick": args.quick},
        "cpu_count": cpu_count,
        "sweep": sweep,
        "fast_path": fast,
        "fast_path_sparse": fast_sparse,
        "gates": gate_declarations(args.quick),
    }
    with open(args.out, "w") as fh:
        json.dump(artifact, fh, indent=2)
    print(f"wrote {args.out}")

    identical = sweep["bit_identical"] and all(
        row["bit_identical"]
        for row in list(fast.values()) + list(fast_sparse.values())
    )
    if not identical:
        print("ERROR: parallel or fast-path results diverged from baseline")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
