"""Load generation for the serve service, with bit-identity auditing.

Drives N concurrent sessions against a server (TCP, a handful of
multiplexed connections — not one socket per session) or an in-process
manager, and measures what the serve benchmarks gate on:

* **peak concurrency** — all sessions are opened before any is closed,
  so the server's ``open_high_water`` must reach N;
* **throughput** — pairs ingested per wall second across the fleet;
* **poll latency** — client-observed p50/p95/p99 over mid-stream
  anytime-estimate polls issued while feeds are in flight;
* **bit identity** — sessions share a small set of distinct
  (graph, algorithm seed) configurations; each configuration's offline
  reference estimate is computed once with the batch runner, and every
  session's final estimate must equal it **exactly**.  One mismatch
  anywhere fails the whole run (``all_bit_identical = 0``).

The streams are planted-triangle graphs (known truth), so polls can also
carry convergence verdicts without extra bookkeeping.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.planted import planted_triangles
from repro.obs.metrics import Histogram
from repro.serve.client import InProcessClient, ServeClient, _ClientOps
from repro.serve.manager import SessionManager
from repro.streaming.registry import get as get_spec
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream

__all__ = [
    "LoadConfig",
    "LoadResult",
    "run_load",
    "run_load_async",
]


def _clock() -> float:
    return time.perf_counter()  # repro-lint: disable=DET003 -- the load generator measures wall-clock latency/throughput; nothing deterministic consumes these


@dataclass(frozen=True)
class LoadConfig:
    """One distinct workload shape sessions are assigned round-robin."""

    algorithm: str = "triangle-two-pass"
    budget: int = 64
    noise_edges: int = 60
    triangles: int = 10
    graph_seed: int = 7
    stream_seed: int = 11
    algo_seed: int = 5


@dataclass
class _Prepared:
    config: LoadConfig
    pairs: List[Tuple[Any, Any]]
    srcs: np.ndarray
    dsts: np.ndarray
    truth: int
    m: int
    reference: float
    passes: int


@dataclass
class LoadResult:
    """Everything ``BENCH_serve.json`` and the smoke test consume."""

    sessions: int
    concurrent_peak: int
    pairs_total: int
    elapsed_seconds: float
    pairs_per_second: float
    polls: int
    poll_p50_seconds: float
    poll_p95_seconds: float
    poll_p99_seconds: float
    poll_max_seconds: float
    #: Full client-observed poll-latency distribution over the standard
    #: exponential bounds (the same blob shape the live ``/metrics``
    #: histograms expose), so BENCH_serve.json keeps the whole shape,
    #: not just three percentiles.
    poll_histogram: Dict[str, Any]
    bit_identical_sessions: int
    mismatched_sessions: int
    all_bit_identical: int
    configs: int

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


# Nearest-rank, not interpolated like util.stats: the BENCH_serve.json
# poll-latency gates were set against these values.
def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[index]


def default_configs(n_configs: int = 4) -> List[LoadConfig]:
    """A small family of distinct workloads (varying graphs and seeds)."""
    return [
        LoadConfig(
            budget=48 + 16 * i,
            noise_edges=50 + 10 * i,
            triangles=8 + 2 * i,
            graph_seed=100 + i,
            stream_seed=200 + i,
            algo_seed=300 + i,
        )
        for i in range(n_configs)
    ]


def _prepare(configs: Sequence[LoadConfig]) -> List[_Prepared]:
    """Materialise streams and offline reference estimates, once per config."""
    prepared = []
    for config in configs:
        planted = planted_triangles(
            noise_edges=config.noise_edges,
            triangles=config.triangles,
            seed=config.graph_seed,
        )
        stream = AdjacencyListStream(planted.graph, seed=config.stream_seed)
        spec = get_spec(config.algorithm)
        reference = run_algorithm(
            spec.make(config.budget, seed=config.algo_seed), stream
        )
        pairs = list(stream.iter_pairs())
        prepared.append(
            _Prepared(
                config=config,
                pairs=pairs,
                srcs=np.array([p[0] for p in pairs], dtype=np.uint64),
                dsts=np.array([p[1] for p in pairs], dtype=np.uint64),
                truth=planted.true_count,
                m=stream.m,
                reference=reference.estimate,
                passes=spec.n_passes,
            )
        )
    return prepared


async def _drive_session(
    client: _ClientOps,
    session_id: str,
    work: _Prepared,
    *,
    chunk_pairs: int,
    polls_per_pass: int,
    poll_latencies: List[float],
    started: asyncio.Event,
    use_binary: bool = False,
) -> bool:
    """Feed one full multi-pass stream; return estimate bit-identity."""
    config = work.config
    await client.open(
        session_id, config.algorithm, config.budget, seed=config.algo_seed
    )
    await started.wait()  # all sessions open before any data flows
    chunks = [
        work.pairs[i : i + chunk_pairs]
        for i in range(0, len(work.pairs), chunk_pairs)
    ]
    poll_every = max(1, len(chunks) // max(polls_per_pass, 1))
    final: Optional[Dict[str, Any]] = None
    for pass_index in range(work.passes):
        for chunk_index, chunk in enumerate(chunks):
            if use_binary:
                start_pair = chunk_index * chunk_pairs
                await client.feed_binary(
                    session_id,
                    work.srcs[start_pair : start_pair + len(chunk)],
                    work.dsts[start_pair : start_pair + len(chunk)],
                )
            else:
                await client.feed(session_id, chunk)
            if chunk_index % poll_every == poll_every - 1:
                start = _clock()
                await client.poll(session_id)
                poll_latencies.append(_clock() - start)
        final = await client.finish_pass(session_id)
    assert final is not None and final["done"]
    estimate = final["estimate"]
    await client.close_session(session_id)
    return estimate == work.reference


async def run_load_async(
    *,
    sessions: int = 1000,
    host: Optional[str] = None,
    port: Optional[int] = None,
    manager: Optional[SessionManager] = None,
    connections: int = 8,
    chunk_pairs: int = 64,
    polls_per_pass: int = 2,
    n_configs: int = 4,
    configs: Optional[Sequence[LoadConfig]] = None,
    use_binary: bool = False,
) -> LoadResult:
    """Run the fleet; TCP when ``host``/``port`` given, else in-process.

    All ``sessions`` are opened before the first feed is sent (a barrier
    event), so peak server concurrency equals the fleet size by
    construction — the server either holds that many live sessions or
    errors out.  With ``use_binary`` every feed travels as a binary
    pair-batch frame (negotiated per connection); estimates must still be
    bit-identical — the wire format is transport, not semantics.
    """
    prepared = _prepare(configs if configs is not None else default_configs(n_configs))
    clients: List[_ClientOps] = []
    if host is not None and port is not None:
        for _ in range(max(1, connections)):
            client = await ServeClient(host, port).connect()
            if use_binary and not await client.negotiate_binary():
                raise RuntimeError("server refused binary framing")
            clients.append(client)
    else:
        shared = InProcessClient(manager)
        clients.append(shared)

    poll_latencies: List[float] = []
    started = asyncio.Event()
    tasks = []
    for index in range(sessions):
        tasks.append(
            asyncio.ensure_future(
                _drive_session(
                    clients[index % len(clients)],
                    f"load-{index:05d}",
                    prepared[index % len(prepared)],
                    chunk_pairs=chunk_pairs,
                    polls_per_pass=polls_per_pass,
                    poll_latencies=poll_latencies,
                    started=started,
                    use_binary=use_binary,
                )
            )
        )
    begin = _clock()
    try:
        # _drive_session blocks on `started` right after its open returns,
        # so every session is admitted before the flood begins.
        while sum(1 for t in tasks if t.done()) == 0:
            stats = await clients[0].stats()
            if stats["sessions_open"] >= sessions:
                break
            await asyncio.sleep(0.01)
        started.set()
        outcomes = await asyncio.gather(*tasks)
        stats = await clients[0].stats()
    finally:
        started.set()
        for task in tasks:
            if not task.done():
                task.cancel()
        for client in clients:
            await client.aclose()
    elapsed = _clock() - begin

    identical = sum(1 for ok in outcomes if ok)
    pairs_total = sum(
        len(prepared[i % len(prepared)].pairs) * prepared[i % len(prepared)].passes
        for i in range(sessions)
    )
    latencies = sorted(poll_latencies)
    histogram = Histogram()
    for latency in latencies:
        histogram.observe(max(0.0, latency))
    return LoadResult(
        sessions=sessions,
        concurrent_peak=int(stats["open_high_water"]),
        pairs_total=pairs_total,
        elapsed_seconds=elapsed,
        pairs_per_second=pairs_total / elapsed if elapsed > 0 else 0.0,
        polls=len(latencies),
        poll_p50_seconds=_percentile(latencies, 0.50),
        poll_p95_seconds=_percentile(latencies, 0.95),
        poll_p99_seconds=_percentile(latencies, 0.99),
        poll_max_seconds=latencies[-1] if latencies else 0.0,
        poll_histogram=histogram.dump(),
        bit_identical_sessions=identical,
        mismatched_sessions=len(outcomes) - identical,
        all_bit_identical=int(identical == len(outcomes)),
        configs=len(prepared),
    )


def run_load(**kwargs: Any) -> LoadResult:
    """Synchronous wrapper: one fresh event loop per load run."""
    return asyncio.run(run_load_async(**kwargs))
