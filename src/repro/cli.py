"""Command-line interface: count cycles in graph files, generate workloads.

Installed as ``repro-cycles``.  Subcommands:

* ``count`` — stream a graph file in adjacency-list order and estimate its
  triangle or 4-cycle count with any of the implemented algorithms;
* ``generate`` — write a synthetic workload graph (random families or
  planted cycle counts) to an edge-list / adjacency-list file;
* ``validate`` — check that a raw pair file respects the adjacency-list
  streaming model's promise;
* ``experiment`` — regenerate paper artifacts (Table-1 rows, Figure-1
  panels, lemma checks, ablations; the registry in
  ``repro.experiments.artifacts``), print their tables and check each
  artifact's claims, exiting non-zero if one fails;
* ``algorithms`` — list every registered estimator (cycle length, passes,
  budget kind) and whether the serve subsystem supports its full session
  lifecycle;
* ``serve`` — run the async streaming counting service: sessions, chunked
  feeds, anytime-estimate polls, snapshots and cross-session sketch merge
  over a newline-JSON protocol (see ``docs/SERVING.md``);
* ``bench-report`` — compare benchmark artifacts (``BENCH_*.json`` or
  ``.jsonl`` telemetry logs) against baselines and exit non-zero on
  regression (the CI perf gate; see ``repro.obs.bench_report``);
* ``obs-report`` — render a run report (phase timeline, throughput,
  convergence curves) from one or more telemetry logs and/or trace files;
  ``obs-report stitch-trace`` merges per-process Chrome traces into one
  (see ``docs/OBSERVABILITY.md``);
* ``top`` — live terminal dashboard polling a routed fleet's ``/metrics``
  scrape endpoint (sessions, ingest rates, latency sparklines, SLO
  verdicts);
* ``lint`` — alias for the ``repro-lint`` static analyser (determinism and
  sketch-state contracts; see ``docs/LINTING.md``).

Examples::

    repro-cycles generate --family gnm --n 1000 --m 8000 --out g.adj
    repro-cycles count g.adj --length 3 --algorithm two-pass --sample-size 600
    repro-cycles count g.adj --length 4 --algorithm exact
    repro-cycles count g.adj --length 4 --shards 4 --workers 0
    repro-cycles count g.adj --checkpoint run.ckpt --resume
    repro-cycles count g.adj --telemetry run.jsonl --trace run.trace
    repro-cycles obs-report --log run.jsonl --trace run.trace --format html --out report.html
    repro-cycles experiment table1 --workers 2
    repro-cycles experiment all --quick
    repro-cycles bench-report fresh/BENCH_parallel.json --against BENCH_parallel.json
    repro-cycles algorithms
    repro-cycles serve --port 7340 --telemetry serve.jsonl --checkpoint-dir ckpt/
    repro-cycles serve --port 7340 --workers 4 --metrics-port 9640 --trace serve.trace
    repro-cycles top --port 9640 --once
    repro-cycles obs-report stitch-trace --trace serve.trace --trace serve.worker-0.trace --out fleet.trace
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.baselines.exact_stream import ExactCycleCounter
from repro.baselines.naive_sampling import NaiveSamplingTriangleCounter
from repro.baselines.one_pass_triangle import OnePassTriangleCounter
from repro.baselines.wedge_sampling import WedgeSamplingTriangleCounter
from repro.core.adaptive import AdaptiveTriangleCounter
from repro.core.boosting import MedianBoosted
from repro.core.fourcycle_two_pass import TwoPassFourCycleCounter
from repro.core.triangle_three_pass import ThreePassTriangleCounter
from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.graph import generators, planted
from repro.graph.graph import Graph
from repro.graph.io import (
    read_adjacency_list,
    read_edge_list,
    write_adjacency_list,
    write_edge_list,
)
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream, PairSequenceValidator

TRIANGLE_ALGORITHMS = (
    "two-pass", "three-pass", "one-pass", "wedge", "naive", "adaptive", "exact"
)
FOURCYCLE_ALGORITHMS = ("two-pass", "exact")


def _read_graph(path: str, fmt: Optional[str]) -> Graph:
    if fmt is None:
        fmt = "adj" if path.endswith(".adj") else "edges"
    if fmt == "adj":
        return read_adjacency_list(path)
    if fmt == "edges":
        return read_edge_list(path)
    raise SystemExit(f"unknown format {fmt!r} (choose 'adj' or 'edges')")


def _build_counter(args, graph: Graph):
    size = args.sample_size or max(1, graph.m // 10)
    if args.length == 3:
        if args.algorithm == "two-pass":
            return lambda seed: TwoPassTriangleCounter(size, seed=seed)
        if args.algorithm == "three-pass":
            return lambda seed: ThreePassTriangleCounter(size, seed=seed)
        if args.algorithm == "one-pass":
            rate = min(1.0, size / max(graph.m, 1))
            return lambda seed: OnePassTriangleCounter(rate, seed=seed)
        if args.algorithm == "wedge":
            return lambda seed: WedgeSamplingTriangleCounter(size, seed=seed)
        if args.algorithm == "naive":
            return lambda seed: NaiveSamplingTriangleCounter(size, seed=seed)
        if args.algorithm == "adaptive":
            # No prior T needed: geometric levels under the given ceiling.
            ceiling = args.sample_size or graph.m
            return lambda seed: AdaptiveTriangleCounter(ceiling, seed=seed)
        if args.algorithm == "exact":
            return lambda seed: ExactCycleCounter(3)
        raise SystemExit(f"triangle algorithms: {', '.join(TRIANGLE_ALGORITHMS)}")
    if args.length == 4:
        if args.algorithm == "two-pass":
            return lambda seed: TwoPassFourCycleCounter(max(size, 2), seed=seed)
        if args.algorithm == "exact":
            return lambda seed: ExactCycleCounter(4)
        raise SystemExit(f"4-cycle algorithms: {', '.join(FOURCYCLE_ALGORITHMS)}")
    if args.algorithm == "exact":
        return lambda seed: ExactCycleCounter(args.length)
    raise SystemExit(
        f"no sublinear algorithm exists for length {args.length} (Theorem 5.5); "
        "use --algorithm exact"
    )


def _checkpoint_setup(args, algo, stream):
    """Resolve ``--checkpoint`` / ``--resume`` into runner arguments."""
    from repro.sketch.checkpoint import (
        CheckpointConfig,
        fingerprint_stream,
        load_checkpoint_if_exists,
    )
    from repro.streaming.algorithm import supports_snapshot

    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint PATH")
    if not args.checkpoint:
        return None, None
    if algo is not None and not supports_snapshot(algo):
        raise SystemExit(
            f"--checkpoint requires an algorithm with snapshot support; "
            f"{type(algo).__name__} has none"
        )
    fingerprint = fingerprint_stream(stream)
    config = CheckpointConfig(
        args.checkpoint,
        every_lists=args.checkpoint_every,
        stream_fingerprint=fingerprint,
    )
    resume = None
    if args.resume:
        resume = load_checkpoint_if_exists(args.checkpoint)
        if resume is not None and not resume.matches_stream(fingerprint):
            raise SystemExit(
                f"checkpoint {args.checkpoint} was taken against a different "
                "stream; refusing to resume"
            )
        if resume is not None:
            print(
                f"resuming from {args.checkpoint} "
                f"(pass {resume.pass_index}, {resume.lists_done} lists done)"
            )
    return config, resume


def _count_sharded(args, graph: Graph, stream: AdjacencyListStream, telemetry, tracer) -> int:
    """The ``--shards N`` path: shard-and-merge execution of a two-pass counter."""
    from repro.sketch.driver import run_sharded

    if args.copies > 1:
        raise SystemExit("--shards is incompatible with --copies > 1")
    if args.algorithm != "two-pass" or args.length not in (3, 4):
        raise SystemExit(
            "--shards supports the two-pass algorithms only "
            "(--algorithm two-pass with --length 3 or 4)"
        )
    size = args.sample_size or max(1, graph.m // 10)
    if args.length == 3:
        algo = TwoPassTriangleCounter(size, seed=args.seed, sharded=True)
    else:
        algo = TwoPassFourCycleCounter(max(size, 2), seed=args.seed)
    config, resume = _checkpoint_setup(args, algo, stream)
    result = run_sharded(
        algo,
        stream,
        args.shards,
        workers=args.workers,
        merge_seed=args.seed,
        checkpoint=config,
        resume_from=resume,
        telemetry=telemetry,
        tracer=tracer,
    )
    print(f"graph: n={graph.n} m={graph.m}")
    print(f"estimated {args.length}-cycles: {result.estimate:.1f}")
    print(
        f"passes={result.passes} shards={result.n_shards} workers={result.workers}"
        f" peak_shard_space_words={result.peak_space_words}"
        f" (store-everything ~{2 * graph.m + graph.n})"
    )
    return 0


def cmd_count(args) -> int:
    """Estimate a graph file's cycle count and print estimate + space."""
    from repro.obs.telemetry import NULL_TELEMETRY, open_telemetry
    from repro.obs.trace import NULL_TRACER, Tracer, write_chrome_trace

    graph = _read_graph(args.input, args.format)
    stream = AdjacencyListStream(graph, seed=args.seed)
    if args.telemetry:
        try:
            telemetry = open_telemetry(args.telemetry)
        except ValueError as exc:
            raise SystemExit(str(exc))
    else:
        telemetry = NULL_TELEMETRY
    tracer = (
        Tracer(seed=args.seed, telemetry=telemetry if telemetry.enabled else None)
        if args.trace
        else NULL_TRACER
    )
    # The telemetry context flushes and closes the sink even when the run
    # dies mid-stream, so a failed run still leaves a parseable JSONL log;
    # the trace file is likewise written on the way out of a failing run.
    with telemetry:
        try:
            with tracer:
                if args.shards > 1:
                    return _count_sharded(args, graph, stream, telemetry, tracer)
                factory = _build_counter(args, graph)
                algo = (
                    MedianBoosted(factory, copies=args.copies, seed=args.seed)
                    if args.copies > 1
                    else factory(args.seed)
                )
                config, resume = _checkpoint_setup(args, algo, stream)
                result = run_algorithm(
                    algo, stream, checkpoint=config, resume_from=resume,
                    telemetry=telemetry, tracer=tracer,
                )
        finally:
            if args.trace and tracer.spans:
                write_chrome_trace(args.trace, tracer.spans)
    print(f"graph: n={graph.n} m={graph.m}")
    print(f"estimated {args.length}-cycles: {result.estimate:.1f}")
    print(
        f"passes={result.passes} peak_space_words={result.peak_space_words}"
        f" (store-everything ~{2 * graph.m + graph.n})"
    )
    return 0


def cmd_generate(args) -> int:
    """Generate a synthetic workload graph and write it to disk."""
    if args.family == "gnm":
        graph = generators.gnm_random_graph(args.n, args.m, seed=args.seed)
    elif args.family == "gnp":
        graph = generators.gnp_random_graph(args.n, args.p, seed=args.seed)
    elif args.family == "ba":
        graph = generators.barabasi_albert_graph(args.n, args.attach, seed=args.seed)
    elif args.family == "powerlaw":
        graph = generators.powerlaw_cluster_graph(
            args.n, args.attach, args.p, seed=args.seed
        )
    elif args.family == "planted-triangles":
        graph = planted.planted_triangles(args.m, args.count, seed=args.seed).graph
    elif args.family == "planted-4cycles":
        graph = planted.planted_four_cycles(args.m, args.count, seed=args.seed).graph
    else:
        raise SystemExit(f"unknown family {args.family!r}")
    if args.out.endswith(".adj"):
        write_adjacency_list(graph, args.out)
    else:
        write_edge_list(graph, args.out)
    print(f"wrote {args.out}: n={graph.n} m={graph.m}")
    return 0


def cmd_validate(args) -> int:
    """Validate a graph file against the adjacency-list stream model.

    Prints the full :class:`PairSequenceSummary` on success and returns 0;
    on a model violation or an unreadable/malformed file the offending
    detail goes to stderr and the exit code is 1 (so shell pipelines and
    CI steps can gate on validity).  ``StreamFormatError`` subclasses
    ``ValueError``, so one catch covers parse and model failures alike.

    Validation streams through the incremental
    :class:`~repro.streaming.stream.PairSequenceValidator` — the same
    checker the serve subsystem applies to session chunks — one adjacency
    list at a time, so the pair sequence is never materialised.
    """
    try:
        graph = _read_graph(args.input, args.format)
        stream = AdjacencyListStream(graph, seed=args.seed)
        validator = PairSequenceValidator()
        for vertex, neighbors in stream.iter_lists():
            validator.feed((vertex, u) for u in neighbors)
        summary = validator.finish()
    except (ValueError, OSError) as exc:
        print(f"INVALID: {args.input}: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {args.input} streams as a valid adjacency-list sequence")
    print(f"  pairs:           {summary.pairs}")
    print(f"  lists:           {summary.lists}")
    print(f"  edges:           {summary.edges}")
    print(f"  max list length: {summary.max_list_length}")
    return 0


def cmd_experiment(args) -> int:
    """Regenerate paper artifacts, print their tables, and check their claims."""
    from repro.experiments.artifacts import run_artifact, select

    size = "quick" if args.quick else "full"
    failed = total = 0
    for artifact in select(args.which):
        print(f"\n== {artifact.id} ({size}): {artifact.title}")
        for text, holds in run_artifact(artifact, quick=args.quick, workers=args.workers):
            print(f"{'PASS' if holds else 'FAIL'}  {artifact.id}: {text}")
            total += 1
            failed += not holds
    print(f"\n{total - failed}/{total} claims pass")
    return 1 if failed else 0


def cmd_algorithms(args) -> int:
    """List the registry: every estimator with its shape and serve support."""
    import json as _json

    from repro.streaming.registry import iter_specs, serve_capabilities

    rows = []
    for spec in iter_specs():
        caps = serve_capabilities(spec)
        rows.append(
            {
                "name": spec.name,
                "cycle_length": spec.cycle_length,
                "passes": spec.n_passes,
                "budget_kind": spec.budget_kind,
                "snapshot": caps.snapshot,
                "anytime": caps.anytime,
                "serve_compatible": caps.serve_compatible,
                "summary": spec.summary,
            }
        )
    if args.json:
        print(_json.dumps(rows, indent=2))
        return 0
    name_width = max(len(r["name"]) for r in rows)
    header = f"{'name':<{name_width}}  len passes budget       serve  summary"
    print(header)
    print("-" * len(header))
    for r in rows:
        serve_flag = "yes" if r["serve_compatible"] else "no"
        print(
            f"{r['name']:<{name_width}}  {r['cycle_length']:>3} {r['passes']:>6} "
            f"{r['budget_kind']:<12} {serve_flag:<6} {r['summary']}"
        )
    print(
        f"\n{len(rows)} algorithms; serve = snapshot/restore + anytime estimates "
        "(full session lifecycle incl. merge)"
    )
    return 0


def cmd_serve(args) -> int:
    """Run the asyncio streaming-counting service until interrupted.

    Sessions bind to registry algorithms; clients stream pair chunks,
    poll anytime estimates, snapshot and merge (see ``docs/SERVING.md``).
    With ``--checkpoint-dir`` a graceful shutdown freezes every live
    snapshot-capable session there, and ``--resume`` restores them on the
    next start.  ``--telemetry``/``--trace`` wire the serve metrics and
    per-session spans to the same files every other runner uses.

    ``--workers N`` scales out horizontally: N persistent worker
    processes behind a hash-sharding router, with binary pair-batch
    framing negotiated per connection and cross-worker merges that stay
    bit-identical to single-process runs.

    ``--metrics-port`` (router mode) exposes the live observability
    plane: a ``/metrics`` Prometheus scrape endpoint aggregating
    per-worker metric snapshots, relay-latency histograms and SLO gauges
    (thresholds via the ``--slo-*`` flags; see ``docs/OBSERVABILITY.md``
    and ``repro-cycles top``).  In router mode ``--telemetry``/``--trace``
    name the *router's* artifacts; each worker writes a
    ``.worker-<i>`` sibling, and the per-process trace files stitch into
    one tree with ``repro-cycles obs-report stitch-trace``.
    """
    import asyncio

    from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, open_telemetry
    from repro.obs.trace import NULL_TRACER, Tracer, write_chrome_trace
    from repro.serve.manager import SessionManager
    from repro.serve.net import install_stop_handlers
    from repro.serve.protocol import ServeError
    from repro.serve.server import ServeServer

    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.metrics_port is not None and not args.workers:
        print("--metrics-port requires --workers (the scrape endpoint "
              "aggregates the router's worker fleet)", file=sys.stderr)
        return 2

    if args.workers:
        from repro.obs.slo import SLOPolicy
        from repro.serve.router import ServeRouter, worker_artifact_path

        try:
            telemetry = (
                open_telemetry(args.telemetry) if args.telemetry
                else (Telemetry(sink=None) if args.metrics_port is not None
                      else NULL_TELEMETRY)
            )
        except ValueError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 2
        tracer = (
            Tracer(seed=0, telemetry=telemetry, root="serve")
            if args.trace
            else NULL_TRACER
        )
        slo = (
            SLOPolicy(
                poll_p99_seconds=args.slo_poll_p99,
                feed_pairs_per_second=args.slo_feed_rate,
                verdict_age_seconds=args.slo_verdict_age,
                loop_lag_p99_seconds=args.slo_loop_lag_p99,
            )
            if args.metrics_port is not None
            else None
        )
        router = ServeRouter(
            args.workers,
            args.host,
            args.port,
            max_sessions=args.max_sessions,
            byte_budget=args.byte_budget,
            space_budget=args.space_budget,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            metrics_port=args.metrics_port,
            slo=slo,
            slo_interval_s=args.slo_interval,
            telemetry=telemetry,
            tracer=tracer,
            worker_telemetry_paths=(
                [worker_artifact_path(args.telemetry, i) for i in range(args.workers)]
                if args.telemetry else None
            ),
            worker_trace_paths=(
                [worker_artifact_path(args.trace, i) for i in range(args.workers)]
                if args.trace else None
            ),
        )
        router.spawn_workers()  # fork before the event loop exists

        async def _route() -> None:
            await router.start()
            install_stop_handlers(router.stop)
            print(
                f"routing {args.workers} worker(s) on "
                f"{args.host}:{router.bound_port}",
                flush=True,
            )
            if args.metrics_port is not None:
                print(
                    f"metrics on http://{args.host}:"
                    f"{router.metrics_bound_port}/metrics",
                    flush=True,
                )
            await router.serve_until_stopped()

        exit_code = 0
        try:
            if tracer is not NULL_TRACER:
                with tracer:
                    asyncio.run(_route())
            else:
                asyncio.run(_route())
        except KeyboardInterrupt:
            pass  # workers share the SIGINT and checkpoint themselves
        except OSError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            exit_code = 1
        finally:
            router.join_workers()
            if args.trace and tracer.spans:
                write_chrome_trace(args.trace, tracer.spans)
            telemetry.close()
        return exit_code

    telemetry = open_telemetry(args.telemetry) if args.telemetry else NULL_TELEMETRY
    tracer = (
        Tracer(seed=0, telemetry=telemetry, root="serve")
        if args.trace
        else NULL_TRACER
    )

    async def _serve() -> None:
        manager = SessionManager(
            max_sessions=args.max_sessions,
            default_byte_budget=args.byte_budget,
            default_space_budget_words=args.space_budget,
            telemetry=telemetry,
            tracer=tracer,
        )
        server = ServeServer(
            manager,
            args.host,
            args.port,
            shutdown_checkpoint_dir=args.checkpoint_dir,
        )
        await server.start()
        if args.resume:
            try:
                restored = await manager.load_checkpoints(args.checkpoint_dir)
                print(f"resumed {len(restored)} checkpointed session(s)")
            except ServeError as exc:
                print(f"no sessions resumed: {exc.message}")
        install_stop_handlers(server.stop)
        print(f"serving on {args.host}:{server.bound_port}", flush=True)
        await server.serve_until_stopped()

    exit_code = 0
    try:
        if tracer is not NULL_TRACER:
            with tracer:
                asyncio.run(_serve())
        else:
            asyncio.run(_serve())
    except KeyboardInterrupt:
        pass  # graceful path already ran inside serve_until_stopped's finally
    except OSError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        exit_code = 1
    finally:
        if args.trace and tracer.spans:
            write_chrome_trace(args.trace, tracer.spans)
        telemetry.close()
    return exit_code


def cmd_bench_report(args) -> int:
    """Compare benchmark artifacts against baselines; exit 1 on regression."""
    from repro.obs.bench_report import run_report

    return run_report(args)


def cmd_obs_report(args) -> int:
    """Render a run report from telemetry / trace files; exit 2 on bad input."""
    from repro.obs.obs_report import run_obs_report

    return run_obs_report(args)


def cmd_top(args) -> int:
    """Live /metrics dashboard; exit 2 when --once cannot scrape."""
    from repro.obs.top import run_top

    return run_top(args)


def cmd_lint(args) -> int:
    """Alias for the ``repro-lint`` console script (same flags, same codes)."""
    from repro.lint.cli import main as lint_main

    return lint_main(args.lint_args)


def build_parser() -> argparse.ArgumentParser:
    """Build the repro-cycles argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-cycles",
        description="Cycle counting in the adjacency-list streaming model (PODS'19)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="estimate a graph file's cycle count")
    count.add_argument("input", help="graph file (.adj or edge list)")
    count.add_argument("--format", choices=("adj", "edges"), default=None)
    count.add_argument("--length", type=int, default=3, help="cycle length (default 3)")
    count.add_argument(
        "--algorithm",
        default="two-pass",
        help="two-pass | three-pass | one-pass | wedge | naive | adaptive | exact",
    )
    count.add_argument("--sample-size", type=int, default=None, help="m' (default m/10)")
    count.add_argument("--copies", type=int, default=1, help="median-boost copies")
    count.add_argument("--seed", type=int, default=0)
    count.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split the stream into N vertex shards and merge sketch states "
        "(two-pass algorithms only; default 1 = conventional run)",
    )
    count.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes for --shards fan-out (0 = all CPU cores, default serial; "
        "serial and parallel schedules give identical results)",
    )
    count.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="write resumable snapshots to PATH during the run",
    )
    count.add_argument(
        "--checkpoint-every",
        type=int,
        default=1000,
        metavar="LISTS",
        help="adjacency lists between checkpoints (default 1000; sharded runs "
        "checkpoint at pass boundaries regardless)",
    )
    count.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="write streaming telemetry to PATH (.jsonl event log; .prom/.txt "
        "Prometheus-style textfile); omit for the zero-overhead null sink",
    )
    count.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a hierarchical span trace to PATH as Chrome trace-event "
        "JSON (load in Perfetto / chrome://tracing); span identity derives "
        "from --seed and structure, so serial and parallel runs trace "
        "identically modulo timings",
    )
    count.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint PATH if it exists (fresh run otherwise); "
        "refuses a checkpoint taken against a different stream",
    )
    count.set_defaults(func=cmd_count)

    gen = sub.add_parser("generate", help="write a synthetic workload graph")
    gen.add_argument("--family", required=True,
                     help="gnm | gnp | ba | powerlaw | planted-triangles | planted-4cycles")
    gen.add_argument("--n", type=int, default=1000)
    gen.add_argument("--m", type=int, default=5000,
                     help="edges (gnm) or noise edges (planted families)")
    gen.add_argument("--p", type=float, default=0.1,
                     help="edge probability (gnp) / triad probability (powerlaw)")
    gen.add_argument("--attach", type=int, default=3, help="attachment degree (ba/powerlaw)")
    gen.add_argument("--count", type=int, default=100, help="planted cycle count")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help=".adj or edge-list output path")
    gen.set_defaults(func=cmd_generate)

    val = sub.add_parser(
        "validate",
        help="validate a file against the stream model",
        description="Validate a graph file against the adjacency-list "
        "streaming model and print its stream summary (pairs, lists, edges, "
        "max list length).  Exits 0 on success, 1 on a model violation "
        "(details on stderr).",
    )
    val.add_argument("input")
    val.add_argument("--format", choices=("adj", "edges"), default=None)
    val.add_argument("--seed", type=int, default=0)
    val.set_defaults(func=cmd_validate)

    exp = sub.add_parser(
        "experiment",
        help="regenerate paper artifacts and check their claims (exit 1 on a failed claim)",
    )
    exp.add_argument(
        "which",
        help="an artifact id (table1/crossover), an id prefix (table1, figure1) "
        "or 'all'; an unknown id lists them",
    )
    exp.add_argument(
        "--quick",
        action="store_true",
        help="reduced run counts and sweeps (same seeds) for smoke runs",
    )
    exp.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel trial workers for the sweeps (0 = all CPU cores, "
        "default serial); results are bit-identical to serial runs",
    )
    exp.set_defaults(func=cmd_experiment)

    algos = sub.add_parser(
        "algorithms",
        help="list the registered algorithms and their serve support",
        description="List every registered streaming algorithm: cycle "
        "length, pass count, how its budget knob is interpreted, and "
        "whether the serve subsystem supports the full session lifecycle "
        "(snapshot/restore + anytime estimates) for it.",
    )
    algos.add_argument("--json", action="store_true", help="machine-readable output")
    algos.set_defaults(func=cmd_algorithms)

    serve = sub.add_parser(
        "serve",
        help="run the async streaming counting service",
        description="Serve registry algorithms over the newline-JSON "
        "protocol (see docs/SERVING.md): clients open sessions, stream "
        "adjacency pairs in chunks, poll anytime estimates with "
        "convergence verdicts, snapshot, and merge sketches across "
        "sessions.  Ctrl-C shuts down gracefully, checkpointing live "
        "sessions when --checkpoint-dir is set.",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7340,
                       help="TCP port (0 picks a free one; default 7340)")
    serve.add_argument("--max-sessions", type=int, default=10_000,
                       help="hard cap on concurrently open sessions")
    serve.add_argument("--byte-budget", type=int, default=None,
                       help="default per-session request-payload byte budget")
    serve.add_argument("--space-budget", type=int, default=None,
                       help="default per-session cap on algorithm space (words)")
    serve.add_argument("--checkpoint-dir", default=None,
                       help="directory where graceful shutdown freezes live sessions")
    serve.add_argument("--resume", action="store_true",
                       help="restore sessions checkpointed in --checkpoint-dir")
    serve.add_argument("--telemetry", default=None,
                       help="write serve telemetry (JSONL) to this path; in "
                       "router mode workers write .worker-<i> siblings")
    serve.add_argument("--trace", default=None,
                       help="write per-session trace spans (Chrome trace) to "
                       "this path; in router mode workers write .worker-<i> "
                       "siblings that stitch via obs-report stitch-trace")
    serve.add_argument("--workers", type=int, default=0,
                       help="scale out: run a hash-sharding router over N "
                       "worker processes (0 = single in-process server)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="serve a Prometheus /metrics scrape endpoint on "
                       "this port (0 picks a free one); requires --workers")
    serve.add_argument("--slo-poll-p99", type=float, default=2.0,
                       help="SLO: p99 poll latency ceiling in seconds "
                       "(0 disables; default 2.0)")
    serve.add_argument("--slo-feed-rate", type=float, default=0.0,
                       help="SLO: ingest throughput floor in pairs/s over the "
                       "evaluation window (0 disables; default 0)")
    serve.add_argument("--slo-verdict-age", type=float, default=300.0,
                       help="SLO: ceiling on seconds since a convergence poll "
                       "last refreshed a verdict (0 disables; default 300)")
    serve.add_argument("--slo-loop-lag-p99", type=float, default=0.25,
                       help="SLO: p99 event-loop lag ceiling in seconds "
                       "(0 disables; default 0.25)")
    serve.add_argument("--slo-interval", type=float, default=5.0,
                       help="seconds between SLO evaluations (default 5)")
    serve.set_defaults(func=cmd_serve)

    from repro.obs.bench_report import build_parser as build_bench_parser

    bench = sub.add_parser(
        "bench-report",
        help="compare benchmark artifacts; exit 1 on regression (CI gate)",
        description="Compare BENCH_*.json artifacts (or .jsonl telemetry "
        "logs) against baselines.  Machine-independent metrics (space "
        "words, bit-identity invariants, estimates, imbalance) gate with "
        "the relative --threshold; wall-time metrics are informational "
        "unless --gate-timing.  Exits 1 when any gated metric regresses.",
    )
    build_bench_parser(bench)
    bench.set_defaults(func=cmd_bench_report)

    from repro.obs.obs_report import build_parser as build_obs_parser

    obs = sub.add_parser(
        "obs-report",
        help="render a run report from telemetry and/or trace files",
        description="Render a self-contained run report (phase timeline, "
        "throughput, sampler occupancy, convergence curves) from a "
        "--telemetry JSONL log and/or a --trace Chrome trace file.  "
        "Formats: text, html (single file, CI-artifact ready).",
    )
    build_obs_parser(obs)
    obs.set_defaults(func=cmd_obs_report)

    from repro.obs.top import build_parser as build_top_parser

    top = sub.add_parser(
        "top",
        help="live terminal view of a routed serve fleet's /metrics",
        description="Poll a router's /metrics scrape endpoint and render a "
        "live dashboard: per-worker sessions and ingest rates, latency "
        "histogram sparklines, and SLO pass/fail gauges.  --once prints a "
        "single frame and exits (CI mode).",
    )
    build_top_parser(top)
    top.set_defaults(func=cmd_top)

    lint = sub.add_parser(
        "lint",
        help="run the repro-lint static analyser",
        add_help=False,  # forward --help to repro-lint itself
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER)
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    arg_list = list(sys.argv[1:] if argv is None else argv)
    if arg_list[:1] == ["lint"]:
        # Forwarded before argparse sees it: REMAINDER swallows positional
        # tails fine but lets leading options (e.g. --list-rules) leak to
        # this parser, which would reject them.
        from repro.lint.cli import main as lint_main

        return lint_main(arg_list[1:])
    args = build_parser().parse_args(arg_list)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
