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
microbench streams one dense G(n, m) graph through a single session as
JSON feed frames and as binary frames, identical chunking and
pipelining, against the same live endpoint.  Last, a stall probe polls
a session from a second connection right behind each burst of feed
frames on the first (:func:`measure_poll_stall`).

Every ratio gate here, and every rate behind one, is timed in warmed,
alternating, paired rounds (:mod:`rounds`): a ratio is the median of the
rounds' own ratios and carries its spread.

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
import contextlib
import json
import os
import statistics
import sys

if __package__ in (None, ""):  # script execution without PYTHONPATH=src
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

import numpy as np

from repro.graph.generators import gnm_random_graph
from repro.obs.metrics import histogram_quantile
from repro.obs.slo import SLOPolicy
from repro.serve.loadgen import run_load_async
from repro.serve.manager import SessionManager
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    decode_binary_feed,
    decode_frame,
    encode_binary_feed,
    encode_frame,
)
from repro.serve.router import ServeRouter
from repro.serve.server import ServeServer
from repro.serve.session import ServeSession
from repro.streaming.registry import get as get_spec
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream
from rounds import Rounds

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


#: The dense ingest session (see :func:`ingest_workload`), fed in
#: fixed-size chunks.
INGEST_CHUNK_PAIRS = 1024
INGEST_ALGORITHM = "triangle-two-pass"
INGEST_BUDGET = 64
INGEST_SEED = 5

#: Paired rounds behind ``ingest.session_over_kernel``.
SESSION_VS_KERNEL_REPEATS = 9


def ingest_workload():
    """The ingest workload's ``(stream, pairs, srcs, dsts)``.

    A G(2000, 60k) graph (average degree 60): the wire microbench
    (:func:`run_ingest_async`), :func:`session_vs_kernel` and the stall
    probe all run exactly this.  ``pairs`` is the stream's pair
    sequence; ``srcs``/``dsts`` are the same pairs as ``uint64``
    columns, the layout binary frames carry.
    """
    graph = gnm_random_graph(2000, 60_000, seed=17)
    stream = AdjacencyListStream(graph, seed=23)
    pairs = list(stream.iter_pairs())
    srcs = np.array([p[0] for p in pairs], dtype=np.uint64)
    dsts = np.array([p[1] for p in pairs], dtype=np.uint64)
    return stream, pairs, srcs, dsts


async def _reply(link) -> dict:
    """Read one reply from ``link`` (a reader/writer pair); raise unless ok."""
    response = json.loads(await link[0].readline())
    if not response.get("ok"):
        raise RuntimeError(f"benchmark request failed: {response}")
    return response


async def _rpc(link, message) -> dict:
    link[1].write(encode_frame(message))
    return await _reply(link)


async def _ingest_one_mode(host, port, rounds, arm, frames):
    """One fully pipelined single-session ingest pass, timed as ``arm``.

    Writes pre-encoded feed frames back-to-back (draining on transport
    backpressure only) while a reader task consumes the responses — the
    same pipelined window for both wire formats, so the comparison
    measures server-side wire handling + ingest, not client encode cost
    or round-trip stalls.  Opening and closing the session is untimed.
    """
    session_id = f"ingest-{arm}"
    link = await asyncio.open_connection(host, port, limit=MAX_FRAME_BYTES)
    writer = link[1]
    await _rpc(link, {"id": 0, "op": "hello", "binary": 1})
    await _rpc(link, {"id": 1, "op": "open", "session": session_id,
                      "algorithm": INGEST_ALGORITHM, "budget": INGEST_BUDGET,
                      "seed": INGEST_SEED})

    async def read_responses():
        for _ in frames:
            await _reply(link)

    with rounds.timed(arm):
        responses = asyncio.ensure_future(read_responses())
        for frame in frames:
            writer.write(frame)
            if writer.transport.get_write_buffer_size() > (1 << 20):
                await writer.drain()
        await writer.drain()
        await responses

    await _rpc(link, {"id": 2, "op": "close", "session": session_id})
    writer.close()
    with contextlib.suppress(ConnectionResetError, BrokenPipeError, OSError):
        await writer.wait_closed()


async def run_ingest_async(*, host: str, port: int) -> dict:
    """The JSON-vs-binary ingest comparison (one session, one pass each).

    Both modes ingest the *same* pair stream (:func:`ingest_workload`)
    with the *same* chunking and pipelining against the same live
    endpoint; only the wire format of the feed frames differs.  The two
    modes run in 2 paired rounds (:mod:`rounds`): each mode's pairs/s is
    from its median time and ``binary_speedup`` is the median of the
    rounds' own JSON/binary time ratios.

    The stream is a dense G(n, m) graph (average degree ``2m/n``), so
    adjacency lists are long enough for per-pair wire + validation cost
    to dominate per-list algorithm overhead — the regime the binary
    format exists for.  A sparse stream (degree ~2) measures per-list
    kernel-call overhead instead, which both formats pay identically.
    """
    _, pairs, srcs, dsts = ingest_workload()
    step = INGEST_CHUNK_PAIRS
    frames = {"json": [], "binary": []}
    for index, start in enumerate(range(0, len(pairs), step)):
        chunk = pairs[start : start + step]
        frames["json"].append(encode_frame({
            "id": 100 + index, "op": "feed", "session": "ingest-json",
            "pairs": [[int(v), int(u)] for v, u in chunk],
        }))
        frames["binary"].append(encode_binary_feed(
            100 + index, "ingest-binary",
            srcs[start : start + len(chunk)], dsts[start : start + len(chunk)],
        ))

    rounds = Rounds(("json", "binary"), 2)
    for arm in rounds:
        await _ingest_one_mode(host, port, rounds, arm, frames[arm])
    return {
        "pairs": len(pairs),
        "chunk_pairs": step,
        "algorithm": INGEST_ALGORITHM,
        "json_pairs_per_second": len(pairs) / rounds.median("json"),
        "binary_pairs_per_second": len(pairs) / rounds.median("binary"),
        **rounds.ratio("binary_speedup", "json", "binary"),
        "json_bytes": sum(len(f) for f in frames["json"]),
        "binary_bytes": sum(len(f) for f in frames["binary"]),
        **_measure_wire_decode(frames, len(pairs)),
    }


def _measure_wire_decode(frames, n_pairs: int) -> dict:
    """Codec-layer comparison: frame bytes → usable feed payload.

    This isolates what the binary format actually replaces — JSON parse
    of a pairs array versus a header unpack plus ``np.frombuffer`` view —
    with no session, validator, or estimator cost attached, in 3 paired
    rounds.  (End-to-end feed throughput blends this with per-pair work
    both formats share, which is why ``binary_speedup`` is far smaller
    than ``wire_binary_speedup``.)
    """
    rounds = Rounds(("json", "binary"), 3)
    for arm in rounds:
        with rounds.timed(arm):
            if arm == "json":
                for frame in frames["json"]:
                    decode_frame(frame.rstrip(b"\n"))["pairs"]
            else:
                for frame in frames["binary"]:
                    decode_binary_feed(frame)
    return {
        "wire_json_decode_pairs_per_second": n_pairs / rounds.median("json"),
        "wire_binary_decode_pairs_per_second": n_pairs / rounds.median("binary"),
        **rounds.ratio("wire_binary_speedup", "json", "binary"),
    }


def session_vs_kernel() -> dict:
    """In-process session ingest against the bare kernel, same stream.

    Runs the wire microbench's workload (:func:`ingest_workload`).  The
    session path is a strict :class:`ServeSession` fed the stream's
    binary chunking through ``feed_arrays`` for every pass; the kernel
    path is :func:`run_algorithm` over the stream.  The two run in
    :data:`SESSION_VS_KERNEL_REPEATS` paired rounds (:mod:`rounds`);
    ``session_over_kernel`` is the median of the rounds' own
    session/kernel time ratios and the rates are from the median times,
    counting the pairs of all passes.
    """
    stream, pairs, srcs, dsts = ingest_workload()
    step = INGEST_CHUNK_PAIRS
    chunks = [
        (srcs[start : start + step], dsts[start : start + step])
        for start in range(0, len(pairs), step)
    ]
    spec = get_spec(INGEST_ALGORITHM)
    passes = spec.make(INGEST_BUDGET, seed=INGEST_SEED).n_passes
    estimates = {"kernel": set(), "session": set()}
    rounds = Rounds(("kernel", "session"), SESSION_VS_KERNEL_REPEATS)
    for arm in rounds:
        if arm == "kernel":
            algorithm = spec.make(INGEST_BUDGET, seed=INGEST_SEED)
            with rounds.timed(arm):
                estimate = run_algorithm(algorithm, stream).estimate
        else:
            with rounds.timed(arm):
                session = ServeSession.open(
                    "ingest-session", INGEST_ALGORITHM, INGEST_BUDGET, INGEST_SEED
                )
                for _ in range(passes):
                    for chunk in chunks:
                        session.feed_arrays(*chunk)
                    final = session.finish_pass()
            estimate = final.get("estimate")
        estimates[arm].add(estimate)
    total = passes * len(pairs)
    return {
        "session_pairs_per_second": total / rounds.median("session"),
        "kernel_pairs_per_second": total / rounds.median("kernel"),
        **rounds.ratio("session_over_kernel", "session", "kernel"),
        # Every call of both paths gave one and the same estimate.
        "session_bit_identical": int(
            len(estimates["kernel"]) == 1 and estimates["session"] == estimates["kernel"]
        ),
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
    poll = encode_frame({"id": 2, "op": "poll", "session": "stall"})
    await _rpc(ingest, {"id": 0, "op": "hello", "binary": 1})
    await _rpc(ingest, {"id": 1, "op": "open", "session": "stall",
                       "algorithm": INGEST_ALGORITHM, "budget": INGEST_BUDGET,
                       "seed": INGEST_SEED})
    # Both links carry a request first, so a router's lazily opened
    # upstream links exist before the first burst.
    for link in (ingest, watch):
        link[1].write(poll)
        await _reply(link)

    samples = []
    for index, burst in enumerate(bursts):
        ingest[1].write(burst)
        watch[1].write(poll)
        seen = (await _reply(watch))["pairs_this_pass"]
        samples.append(seen // step - index * size)
        for _ in range(size):
            await _reply(ingest)
    await _rpc(ingest, {"id": 3, "op": "close", "session": "stall"})
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
