"""Benchmark: the serve service under a 1000-session concurrent fleet.

A plain artifact-writing script (CI runs it with ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick] [--out PATH]
    PYTHONPATH=src python benchmarks/bench_serve.py --quick --workers 2 --binary

Starts one :class:`~repro.serve.server.ServeServer` in-process — or, with
``--workers N``, a :class:`~repro.serve.router.ServeRouter` fronting N
forked worker processes — then drives it over real TCP with the load
generator: every session streams a full two-pass planted-triangle
workload in chunks, polls anytime estimates mid-flood, and finishes to a
final estimate.  With ``--binary`` the fleet feeds via the binary
pair-batch frame instead of JSON lines.  After the fleet run, an ingest
microbench streams one dense G(n, m) graph through a single session
twice — once as JSON feed frames, once as binary frames, identical
chunking and pipelining — against the same live endpoint.  Last, a stall
probe polls a session from a second connection right behind each burst
of feed frames on the first (:func:`measure_poll_stall`).

The artifact (default ``BENCH_serve.json``) records fleet size, peak
concurrency, pairs/sec, client-observed poll latency percentiles, the
bit-identity audit (every session's final estimate must equal the batch
runner's, exactly), the JSON-vs-binary ingest comparison and the stall
probe's count.

Self-declared gates (evaluated by ``repro-cycles bench-report``):

* ``serve.concurrent_peak >= 1000`` — one server process must actually
  hold the whole fleet open at once, even under ``--quick``;
* ``serve.all_bit_identical >= 1`` — serving is an execution mode, not
  an approximation: one mismatched estimate anywhere fails the bench;
* ``serve.poll_p99_seconds <= 2.0`` (direct) / ``<= 4.0`` (routed) — an
  anytime poll issued while all sessions flood feeds must still answer
  inside the latency SLO.  The ceilings are **derived from the default
  ** :class:`~repro.obs.slo.SLOPolicy` (direct = the policy's
  ``poll_p99_seconds``, routed = 2x it for the extra relay hop under a
  full-fleet flood), so CI gates and the router's live ``router_slo_*``
  gauges enforce one vocabulary;
* ``serve.hist_poll_p99_seconds`` — the p99 computed from the full
  poll-latency *histogram* the artifact now records
  (``serve.poll_histogram``, the same exponential-bounds blob the live
  ``/metrics`` endpoint exposes), guarding the sampled and the bucketed
  views against disagreeing.  Its ceiling is twice the sampled one:
  the bucketed quantile is an upper bound that can overshoot by one
  power-of-two bucket;
* ``serve.pairs_per_second >= 2000`` — a sanity floor on fleet ingest
  throughput (the quick workload does ~400k pairs; the gate only
  catches order-of-magnitude collapses, not machine noise);
* ``ingest.wire_binary_speedup >= 10`` — decoding a binary pair-batch
  frame (header unpack + ``np.frombuffer``) must beat JSON-parsing the
  equivalent feed line by an order of magnitude.  This is the layer the
  binary format replaces, so it is where the format must prove itself;
* ``ingest.binary_speedup >= 1.3`` — the *end-to-end* single-session
  gain is structurally smaller than the wire-layer gain because both
  formats share the per-pair validator and estimator-kernel cost that
  dominates once frames are cheap to decode (measured ~2x here); the
  gate guards the direction, the artifact records the real ratio;
* ``ingest.binary_pairs_per_second >= 100000`` — a floor on absolute
  binary-path ingest, an order of magnitude above the fleet-discipline
  JSON throughput this bench recorded before binary framing existed
  (~42k pairs/s), with headroom for slow CI machines (measured ~800k);
* ``ingest.session_over_kernel <= 1.5`` — the same dense stream fed
  in-process through a strict :class:`~repro.serve.session.ServeSession`
  (``feed_arrays`` over the binary chunking, both passes, first-pass
  validation included) may take at most 1.5x the time of
  :func:`~repro.streaming.runner.run_algorithm` over it.  This isolates
  what the serve layer adds on top of the estimator kernel, with no
  transport in the way.  ``ingest.session_bit_identical >= 1`` requires
  the two estimates to be bit-identical.
* ``stall.feed_replies_per_poll <= 16`` — a poll sent on a second
  connection right behind a 32-frame feed burst must be answered within
  the burst's first half (median over the bursts; see
  :func:`measure_poll_stall`).  A server that ran a connection's
  buffered frames back to back before reading other sockets answered it
  after all 32; taking turns answers it after about 1 (server) to 4
  (router) feeds.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import sys
import time

if __package__ in (None, ""):  # script execution without PYTHONPATH=src
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.obs.metrics import histogram_quantile
from repro.obs.slo import SLOPolicy
from repro.serve.loadgen import (
    INGEST_ALGORITHM,
    INGEST_BUDGET,
    INGEST_CHUNK_PAIRS,
    INGEST_SEED,
    ingest_workload,
    run_ingest_async,
    run_load_async,
)
from repro.serve.manager import SessionManager
from repro.serve.protocol import MAX_FRAME_BYTES, encode_binary_feed, encode_frame
from repro.serve.router import ServeRouter
from repro.serve.server import ServeServer
from repro.serve.session import ServeSession
from repro.streaming.registry import get as get_spec
from repro.streaming.runner import run_algorithm

#: The ISSUE-level floor: quick mode may shrink graphs, never the fleet.
MIN_SESSIONS = 1000

#: The stall probe's bursts: 32 feed frames of 128 pairs, 66 KB, which
#: reach the server in one or two socket reads.
STALL_BURST_FRAMES = 32
STALL_FRAME_PAIRS = 128
#: Ceiling on ``stall.feed_replies_per_poll``: half a burst.
STALL_MAX_FEEDS_PER_POLL = STALL_BURST_FRAMES // 2


def gates_for(workers: int, slo: SLOPolicy = None) -> list:
    """The artifact's self-declared gates, shaped by the serving mode.

    Latency ceilings are derived from the :class:`SLOPolicy` — the same
    vocabulary the router's live ``router_slo_*`` gauges enforce.  The
    poll SLO is mode-dependent: the router adds one relay hop, and
    under a full-fleet feed flood that roughly triples client-observed
    poll latency (0.8s direct vs ~2.3s routed, measured), so routed
    artifacts declare twice the policy ceiling where direct ones
    declare it as-is (defaults: 2.0s direct, 4.0s routed).
    """
    if slo is None:
        slo = SLOPolicy()
    poll_ceiling = slo.poll_p99_seconds * (1.0 if workers == 0 else 2.0)
    gates = [
        {"metric": "serve.concurrent_peak", "min": MIN_SESSIONS},
        {"metric": "serve.all_bit_identical", "min": 1},
        {"metric": "serve.poll_p99_seconds", "max": poll_ceiling},
        # The bucketed quantile reports the bucket's upper bound, which
        # can overshoot the sampled p99 by one power-of-two bucket.
        {"metric": "serve.hist_poll_p99_seconds", "max": 2.0 * poll_ceiling},
        {"metric": "serve.pairs_per_second", "min": 2000},
        {"metric": "ingest.wire_binary_speedup", "min": 10.0},
        {"metric": "ingest.binary_speedup", "min": 1.3},
        {"metric": "ingest.binary_pairs_per_second", "min": 100_000},
        {"metric": "ingest.session_over_kernel", "max": 1.5},
        {"metric": "ingest.session_bit_identical", "min": 1},
        {"metric": "stall.feed_replies_per_poll", "max": STALL_MAX_FEEDS_PER_POLL},
    ]
    if slo.feed_pairs_per_second > 0:
        gates.append(
            {"metric": "serve.pairs_per_second", "min": slo.feed_pairs_per_second}
        )
    return gates


#: Default (single-server) gate set, kept for importers and docs.
GATES = gates_for(0)


#: Alternating kernel/session runs behind ``ingest.session_over_kernel``.
SESSION_VS_KERNEL_REPEATS = 9


def session_vs_kernel() -> dict:
    """In-process session ingest against the bare kernel, same stream.

    Runs the wire microbench's workload (:func:`ingest_workload`).  The
    session path is a strict :class:`ServeSession` fed the stream's
    binary chunking through ``feed_arrays`` for every pass; the kernel
    path is :func:`run_algorithm` over the stream.  Each repeat times one
    kernel run and then one session run back to back, so both sides of a
    pair see the same host load; ``session_over_kernel`` is the median of
    the per-pair time ratios and the rates are from the median times,
    counting the pairs of all passes.  Over 5 calls on a shared 2-CPU
    host, with binary sessions reading each long list's column from its
    frame, the ratio read 1.32-1.39 (median 1.36).
    """
    stream, pairs, srcs, dsts = ingest_workload()
    step = INGEST_CHUNK_PAIRS
    chunks = [
        (srcs[start : start + step], dsts[start : start + step])
        for start in range(0, len(pairs), step)
    ]
    spec = get_spec(INGEST_ALGORITHM)
    passes = spec.make(INGEST_BUDGET, seed=INGEST_SEED).n_passes
    kernel_times, session_times = [], []
    identical = True
    for _ in range(SESSION_VS_KERNEL_REPEATS):
        begin = time.perf_counter()
        expected = run_algorithm(
            spec.make(INGEST_BUDGET, seed=INGEST_SEED), stream
        ).estimate
        kernel_times.append(time.perf_counter() - begin)
        begin = time.perf_counter()
        session = ServeSession.open(
            "ingest-session", INGEST_ALGORITHM, INGEST_BUDGET, INGEST_SEED
        )
        final: dict = {}
        for _ in range(passes):
            for chunk in chunks:
                session.feed_arrays(*chunk)
            final = session.finish_pass()
        session_times.append(time.perf_counter() - begin)
        identical = identical and final.get("estimate") == expected
    total = passes * len(pairs)
    ratios = [s / k for s, k in zip(session_times, kernel_times)]
    return {
        "session_pairs_per_second": total / statistics.median(session_times),
        "kernel_pairs_per_second": total / statistics.median(kernel_times),
        "session_over_kernel": statistics.median(ratios),
        "session_bit_identical": int(identical),
    }


async def measure_poll_stall(host: str, port: int) -> dict:
    """Feed replies the server sends on one connection while a poll waits.

    The ingest workload's first pass (:func:`ingest_workload`) goes into
    a live session as bursts of :data:`STALL_BURST_FRAMES` binary feed
    frames on one connection.  Right behind each burst, with no await in
    between, a second connection polls the same session.  The session's
    pair count in the poll's reply says how many of the burst's feeds
    the server had handled, and answered, before the poll:
    ``feed_replies_per_poll`` is the median of that count over the
    bursts.  A server that takes turns between connections answers the
    poll behind about one feed; one that runs a connection's buffered
    frames back to back first answers it behind the whole burst.  The
    count is read from the server's own state, so it follows from
    scheduling, not from the host's speed or the client's.
    """
    _, pairs, srcs, dsts = ingest_workload()
    step, size = STALL_FRAME_PAIRS, STALL_BURST_FRAMES
    frames = [
        encode_binary_feed(100 + i, "stall", srcs[start : start + step],
                           dsts[start : start + step])
        for i, start in enumerate(range(0, len(pairs), step))
    ]
    bursts = [
        b"".join(frames[start : start + size])
        for start in range(0, len(frames) - size + 1, size)
    ]
    ingest = await asyncio.open_connection(host, port, limit=MAX_FRAME_BYTES)
    watch = await asyncio.open_connection(host, port, limit=MAX_FRAME_BYTES)

    async def reply(link):
        response = json.loads(await link[0].readline())
        if not response.get("ok"):
            raise RuntimeError(f"stall probe request failed: {response}")
        return response

    async def rpc(link, message):
        link[1].write(encode_frame(message))
        return await reply(link)

    poll = encode_frame({"id": 2, "op": "poll", "session": "stall"})
    await rpc(ingest, {"id": 0, "op": "hello", "binary": 1})
    await rpc(ingest, {"id": 1, "op": "open", "session": "stall",
                       "algorithm": INGEST_ALGORITHM, "budget": INGEST_BUDGET,
                       "seed": INGEST_SEED})
    # Both links carry a request first, so a router's lazily opened
    # upstream links exist before the first burst.
    for link in (ingest, watch):
        link[1].write(poll)
        await reply(link)

    samples = []
    for index, burst in enumerate(bursts):
        ingest[1].write(burst)
        watch[1].write(poll)
        seen = (await reply(watch))["pairs_this_pass"]
        samples.append(seen // step - index * size)
        for _ in range(size):
            await reply(ingest)
    await rpc(ingest, {"id": 3, "op": "close", "session": "stall"})
    for _, writer in (ingest, watch):
        writer.close()
        await writer.wait_closed()
    return {
        "bursts": len(samples),
        "burst_frames": size,
        "feed_replies_per_poll": statistics.median(samples),
    }


async def _drive(port, sessions, connections, chunk_pairs, use_binary):
    """Fleet run, ingest microbench and stall probe against one live endpoint."""
    fleet = await run_load_async(
        sessions=sessions,
        host="127.0.0.1",
        port=port,
        connections=connections,
        chunk_pairs=chunk_pairs,
        use_binary=use_binary,
    )
    ingest = await run_ingest_async(host="127.0.0.1", port=port)
    stall = await measure_poll_stall("127.0.0.1", port)
    return fleet, ingest, stall


async def _run_single(sessions, connections, chunk_pairs, use_binary):
    manager = SessionManager(max_sessions=max(sessions + 16, 1024))
    server = ServeServer(manager, port=0)
    await server.start()
    server_task = asyncio.ensure_future(server.serve_until_stopped())
    try:
        return await _drive(
            server.bound_port, sessions, connections, chunk_pairs, use_binary
        )
    finally:
        server.stop()
        await server_task


async def _run_routed(router, sessions, connections, chunk_pairs, use_binary):
    await router.start()
    router_task = asyncio.ensure_future(router.serve_until_stopped())
    try:
        return await _drive(
            router.bound_port, sessions, connections, chunk_pairs, use_binary
        )
    finally:
        router.stop()
        await router_task


def run(
    quick: bool = False,
    sessions: int = None,
    connections: int = 32,
    chunk_pairs: int = 96,
    workers: int = 0,
    binary: bool = False,
) -> dict:
    if sessions is None:
        sessions = MIN_SESSIONS if quick else 2 * MIN_SESSIONS
    if workers > 0:
        router = ServeRouter(
            workers, port=0, max_sessions=max(sessions + 16, 1024)
        )
        router.spawn_workers()
        try:
            fleet, ingest, stall = asyncio.run(
                _run_routed(router, sessions, connections, chunk_pairs, binary)
            )
        finally:
            router.join_workers()
    else:
        fleet, ingest, stall = asyncio.run(
            _run_single(sessions, connections, chunk_pairs, binary)
        )
    slo = SLOPolicy()
    serve = fleet.to_dict()
    # The bucketed view of the same latencies the percentile fields
    # summarise; its p99 is gated alongside the sampled p99 so the two
    # views cannot silently diverge.
    serve["hist_poll_p99_seconds"] = histogram_quantile(serve["poll_histogram"], 0.99)
    ingest.update(session_vs_kernel())
    return {
        "workload": {
            "quick": quick,
            "sessions": sessions,
            "connections": connections,
            "chunk_pairs": chunk_pairs,
            "workers": workers,
            "binary": binary,
        },
        "cpu_count": os.cpu_count() or 1,
        "slo": slo.to_dict(),
        "serve": serve,
        "ingest": ingest,
        "stall": stall,
        "gates": gates_for(workers, slo),
    }


def render(artifact: dict) -> None:
    workload = artifact["workload"]
    serve = artifact["serve"]
    ingest = artifact["ingest"]
    mode = (
        f"router({workload['workers']} workers)" if workload["workers"]
        else "single-server"
    )
    frames = "binary" if workload["binary"] else "json"
    print(
        f"[{mode} {frames}-fleet] "
        f"sessions={serve['sessions']} peak={serve['concurrent_peak']} "
        f"pairs/s={serve['pairs_per_second']:.0f} "
        f"poll p50/p95/p99={serve['poll_p50_seconds']*1e3:.1f}/"
        f"{serve['poll_p95_seconds']*1e3:.1f}/{serve['poll_p99_seconds']*1e3:.1f} ms "
        f"(hist p99<={serve['hist_poll_p99_seconds']*1e3:.1f} ms) "
        f"bit_identical={serve['bit_identical_sessions']}/{serve['sessions']}"
    )
    print(
        f"[ingest {ingest['pairs']} pairs x{ingest['chunk_pairs']}] "
        f"json={ingest['json_pairs_per_second']/1e3:.0f}k "
        f"binary={ingest['binary_pairs_per_second']/1e3:.0f}k pairs/s "
        f"(end-to-end {ingest['binary_speedup']:.2f}x, "
        f"wire decode {ingest['wire_binary_speedup']:.1f}x)"
    )
    print(
        f"[in-process] session={ingest['session_pairs_per_second']/1e3:.0f}k "
        f"kernel={ingest['kernel_pairs_per_second']/1e3:.0f}k pairs/s "
        f"(session/kernel time {ingest['session_over_kernel']:.2f}x, "
        f"bit_identical={ingest['session_bit_identical']})"
    )
    stall = artifact["stall"]
    print(
        f"[stall] a poll behind a {stall['burst_frames']}-frame feed burst is "
        f"answered after {stall['feed_replies_per_poll']} feeds "
        f"(median of {stall['bursts']} bursts)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced parameters for CI smoke runs")
    parser.add_argument("--sessions", type=int, default=None,
                        help=f"fleet size (floor {MIN_SESSIONS}; default 1000 quick / 2000 full)")
    parser.add_argument("--connections", type=int, default=32,
                        help="TCP connections the fleet multiplexes over")
    parser.add_argument("--chunk-pairs", type=int, default=96,
                        help="pairs per feed chunk")
    parser.add_argument("--workers", type=int, default=0,
                        help="front the fleet with a session router over N "
                             "worker processes (0 = single in-process server)")
    parser.add_argument("--binary", action="store_true",
                        help="fleet feeds use binary pair-batch frames")
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="artifact path (default BENCH_serve.json)")
    args = parser.parse_args(argv)
    if args.sessions is not None and args.sessions < MIN_SESSIONS:
        parser.error(f"--sessions must be at least {MIN_SESSIONS}")
    if args.workers < 0:
        parser.error("--workers must be >= 0")
    artifact = run(
        quick=args.quick, sessions=args.sessions, connections=args.connections,
        chunk_pairs=args.chunk_pairs, workers=args.workers, binary=args.binary,
    )
    render(artifact)
    with open(args.out, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
