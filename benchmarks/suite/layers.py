"""The per-layer ladder: one workload's inputs through every entry point.

A traced run replays the workload's jobs through each layer's public
entry point in turn, innermost first::

    run_algorithm -> ServeSession -> InProcessClient (manager)
        -> ServeServer over TCP -> router, 1 worker -> router, 2 workers

with a ``layer:<name>`` span around each, so a layer's self time is its
span minus the next-inner layer's span over the same work.  The shard
driver and the trial pool get the same treatment (serial vs pooled).
``LAYER_EFFECTS`` records, before any measurement, which end-to-end
metric each layer metric should move and on which workloads.
"""

from __future__ import annotations

import asyncio
import pickle
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

from measure import LiveSessions, OpenLoopPoller, OpLog, clock, percentile
from repro.experiments.parallel import ExecutionConfig, TrialExecutor, trial_specs
from repro.obs.trace import SpanRecord, Tracer
from repro.serve.client import InProcessClient
from repro.serve.manager import SessionManager
from repro.serve.protocol import (
    decode_binary_feed,
    decode_frame,
    decode_pairs,
    encode_frame,
    encode_pairs,
)
from repro.serve.session import ServeSession
from repro.sketch.driver import run_sharded
from repro.sketch.shard import partition_stream
from repro.streaming.registry import get as get_spec
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import PairSequenceValidator
from repro.util.rng import resolve_rng
from workloads import (
    WORKERS,
    LadderSpec,
    ServerHost,
    SpecFactory,
    binary_frames,
    client_session,
    connect_client,
    ids_by_worker,
    stream_columns,
)

_SERVE = ("dense-ingest", "session-fleet")
_OFFLINE = ("sparse-sweep", "sharded-dense")
_ALL = _SERVE + _OFFLINE

#: layer metric -> (end-to-end metrics it should move, workloads it should
#: move them on).  An empty workload tuple marks a validity-only metric.
LAYER_EFFECTS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "runner.pairs_per_s": (("pairs_per_s",), ("sparse-sweep", "sharded-dense", "dense-ingest")),
    "runner.lists_per_s": (("pairs_per_s",), ("sparse-sweep", "sharded-dense")),
    "runner.peak_space_words": (("peak_rss_mb",), ("sparse-sweep", "sharded-dense")),
    "stream.build_s": (("pairs_per_s", "setup_s"), ("sparse-sweep",)),
    "stream.validate_pairs_per_s": (("pairs_per_s",), ("dense-ingest",)),
    "protocol.decode_pairs_per_s": (("pairs_per_s",), ("session-fleet",)),
    "protocol.bytes_per_pair": (("pairs_per_s",), ("session-fleet",)),
    "session.pairs_per_s": (("pairs_per_s",), ("dense-ingest",)),
    "session.self_s": (("pairs_per_s",), ("dense-ingest",)),
    "session.poll_s": (("latency_p50_s",), _SERVE),
    "manager.pairs_per_s": (("pairs_per_s",), ("session-fleet",)),
    "manager.self_s": (("pairs_per_s", "latency_p50_s"), ("session-fleet",)),
    "server.pairs_per_s": (("pairs_per_s",), ("session-fleet",)),
    "server.self_s": (("pairs_per_s", "latency_p50_s"), ("session-fleet",)),
    "server.poll_p50_s": (("latency_p50_s",), _SERVE),
    "router.w1.pairs_per_s": (("pairs_per_s",), ("session-fleet",)),
    "router.w2.pairs_per_s": (("pairs_per_s",), ("session-fleet",)),
    "router.self_s": (("pairs_per_s", "latency_p50_s"), ("session-fleet",)),
    "router.w2_over_w1": (("pairs_per_s",), ("session-fleet",)),
    "router.poll_p50_s": (("latency_p50_s",), ("session-fleet",)),
    "shard.partition_s": (("pairs_per_s",), ("sharded-dense",)),
    "shard.imbalance": (("pairs_per_s",), ("sharded-dense",)),
    "driver.shipped_bytes": (("pairs_per_s", "peak_rss_mb"), ("sharded-dense",)),
    "driver.serial_s": (("pairs_per_s",), ("sharded-dense",)),
    "driver.pool_s": (("pairs_per_s", "latency_p50_s"), ("sharded-dense",)),
    "driver.pool_speedup": (("pairs_per_s",), ("sharded-dense",)),
    "merge.s": (("pairs_per_s",), ("sharded-dense",)),
    "parallel.serial_pairs_per_s": (("pairs_per_s",), ("sparse-sweep",)),
    "parallel.pool_pairs_per_s": (("pairs_per_s",), ("sparse-sweep",)),
    "parallel.speedup": (("pairs_per_s",), ("sparse-sweep",)),
    "loadgen.lag_p99_s": ((), ()),
    "loadgen.polls": ((), ()),
    "trace.overhead": (("pairs_per_s",), _ALL),
}

#: Conventional-mode counters refuse ``run_sharded``; the driver runs
#: their shard-mergeable registry twin instead.
_SHARDABLE = {"triangle-two-pass": "triangle-two-pass-sharded"}


class Ladder:
    """Runs one workload's ladder and gathers the facts its metrics need."""

    def __init__(self, spec: LadderSpec, tracer: Tracer):
        self.spec = spec
        self.tracer = tracer
        self.ops = OpLog()
        self.facts: Dict[str, float] = {}
        self.expected: List[float] = []  # per job: the runner's estimate
        self.poll_latencies: Dict[str, List[float]] = {}
        self.lags: List[float] = []
        self._streams: List[Any] = []
        self._chunks: List[List[Any]] = []
        self._lists = 0  # adjacency lists the runner layer consumed

    @property
    def passes(self) -> int:
        return get_spec(self.spec.jobs[0].algorithm).n_passes

    def _pairs(self, repeat: int = 1) -> int:
        return sum(repeat * self.passes * 2 * job.graph.m for job in self.spec.jobs)

    # -- codec and validator -------------------------------------------------

    def stage(self) -> None:
        """Build each job's stream and feed chunks; time codec and validator."""
        builds, validate_s, decode_s, wire_bytes, pairs = [], 0.0, 0.0, 0, 0
        size = self.spec.chunk_pairs
        for job in self.spec.jobs:
            start = clock()
            stream = job.stream()
            builds.append(clock() - start)
            srcs, dsts = stream_columns(stream)
            if self.spec.binary:
                chunks: List[Any] = [(srcs[i:i + size], dsts[i:i + size])
                                     for i in range(0, len(srcs), size)]
                frames = binary_frames("ladder", srcs, dsts, size)
            else:
                flat = list(stream.iter_pairs())
                chunks = [flat[i:i + size] for i in range(0, len(flat), size)]
                frames = [encode_frame({"id": i, "op": "feed", "session": "ladder",
                                        "pairs": encode_pairs(chunk)})
                          for i, chunk in enumerate(chunks)]
            self._streams.append(stream)
            self._chunks.append(chunks)
            validator = PairSequenceValidator()
            start = clock()
            for chunk in chunks:
                if self.spec.binary:
                    validator.feed_array(*chunk)
                else:
                    validator.feed(chunk)
            validator.finish()
            validate_s += clock() - start
            start = clock()
            for frame in frames:
                if self.spec.binary:
                    decode_binary_feed(frame)
                else:
                    decode_pairs(decode_frame(frame.rstrip(b"\n"))["pairs"])
            decode_s += clock() - start
            wire_bytes += sum(len(frame) for frame in frames)
            pairs += len(srcs)
        self.facts.update({
            "stream.build_s": statistics.median(builds),
            "stream.validate_pairs_per_s": pairs / validate_s,
            "protocol.decode_pairs_per_s": pairs / decode_s,
            "protocol.bytes_per_pair": wire_bytes / pairs,
        })

    # -- serve ladder ----------------------------------------------------------

    def _check(self, index: int, estimate: Optional[float], layer: str) -> None:
        if estimate is not None and estimate != self.expected[index]:
            self.ops.reject(f"{layer}: estimate {estimate!r} != runner {self.expected[index]!r}")

    def run_runner(self) -> None:
        peak, lists = 0, 0
        with self.tracer.span("layer:runner", category="layer"):
            for index, job in enumerate(self.spec.jobs):
                for rep in range(self.spec.repeat):
                    algorithm = get_spec(job.algorithm).make(job.budget, seed=job.algo_seed)
                    with self.tracer.span(f"job:{index}.{rep}", category="job"):
                        result = run_algorithm(algorithm, self._streams[index],
                                               tracer=self.tracer)
                    if rep == 0:
                        self.expected.append(result.estimate)
                    self.ops.ok()
                    peak = max(peak, result.peak_space_words)
                    lists += result.passes * job.graph.n
        self.facts["runner.peak_space_words"] = peak
        self._lists = lists

    def run_session(self) -> None:
        polls: List[float] = []
        binary = self.spec.binary
        with self.tracer.span("layer:session", category="layer"):
            for index, job in enumerate(self.spec.jobs):
                chunks = self._chunks[index]
                poll_every = max(1, len(chunks) // 8)
                for rep in range(self.spec.repeat):
                    session = ServeSession.open(f"s{index}.{rep}", job.algorithm,
                                                job.budget, job.algo_seed)
                    final: Dict[str, Any] = {}
                    for _ in range(self.passes):
                        for position, chunk in enumerate(chunks):
                            if binary:
                                session.feed_arrays(*chunk)
                            else:
                                session.feed(chunk)
                            if position % poll_every == 0:
                                start = clock()
                                session.poll()
                                polls.append(clock() - start)
                        final = session.finish_pass()
                    self.ops.ok()
                    self._check(index, final.get("estimate"), "session")
        self.facts["session.poll_s"] = statistics.mean(polls)

    async def _sessions(self, client: Any, layer: str, live: Optional[LiveSessions]) -> None:
        """Every job's sessions, in waves of one session per router worker."""
        work = [index for index in range(len(self.spec.jobs)) for _ in range(self.spec.repeat)]
        with self.tracer.span(f"layer:{layer}", category="layer"):
            for start in range(0, len(work), WORKERS):
                wave = work[start:start + WORKERS]
                ids = ids_by_worker(f"{layer}-{start}")
                estimates = await asyncio.gather(*(
                    client_session(client, session_id, self.spec.jobs[index],
                                   self._chunks[index], self.passes, self.ops,
                                   binary=self.spec.binary, live=live)
                    for session_id, index in zip(ids, wave)
                ))
                for index, estimate in zip(wave, estimates):
                    self._check(index, estimate, layer)

    def run_manager(self) -> None:
        asyncio.run(self._sessions(InProcessClient(SessionManager()), "manager", None))

    async def _over_tcp(self, port: int, layer: str) -> None:
        client = await connect_client(port, binary=self.spec.binary)
        poll_client = await connect_client(port)
        live = LiveSessions(lambda n: 0)
        poller = OpenLoopPoller(poll_client.poll, live, self.spec.poll_hz, self.ops)
        poller.start()
        try:
            await self._sessions(client, layer, live)
        finally:
            await poller.stop()
            await client.aclose()
            await poll_client.aclose()
        self.poll_latencies[layer] = poller.latencies
        self.lags.extend(poller.lags)

    def run_hosted(self, workers: int) -> None:
        """The server (``workers=0``) or router layer, in its own process."""
        host = ServerHost(workers)
        try:
            asyncio.run(self._over_tcp(host.port, f"router-w{workers}" if workers else "server"))
        finally:
            host.close()

    # -- shard driver and trial pool --------------------------------------------

    def run_driver(self) -> None:
        partition_s, imbalance, shipped = 0.0, 0.0, 0
        for index, job in enumerate(self.spec.jobs):
            stream = self._streams[index]
            start = clock()
            shards = partition_stream(stream, WORKERS)
            partition_s += clock() - start
            loads = [len(shard) for shard in shards]
            imbalance = max(imbalance, max(loads) * len(loads) / sum(loads))
            shipped += len(pickle.dumps({shard.index: shard.lists for shard in shards}))
        self.facts.update({"shard.partition_s": partition_s, "shard.imbalance": imbalance,
                           "driver.shipped_bytes": shipped})
        estimates: Dict[str, List[float]] = {}
        for mode, workers in (("serial", None), ("pool", WORKERS)):
            with self.tracer.span(f"layer:driver-{mode}", category="layer"):
                for index, job in enumerate(self.spec.jobs):
                    name = _SHARDABLE.get(job.algorithm, job.algorithm)
                    algorithm = get_spec(name).make(job.budget, seed=job.algo_seed)
                    with self.tracer.span(f"job:{index}", category="job"):
                        result = run_sharded(algorithm, self._streams[index], WORKERS,
                                             workers=workers, tracer=self.tracer)
                    self.ops.ok()
                    estimates.setdefault(mode, []).append(result.estimate)
        if estimates["serial"] != estimates["pool"]:
            self.ops.reject("driver: pooled estimates differ from serial ones")

    def run_parallel(self) -> None:
        estimates: Dict[int, List[float]] = {}
        for workers in (1, WORKERS):
            with self.tracer.span(f"layer:parallel-w{workers}", category="layer"):
                for index, job in enumerate(self.spec.jobs):
                    specs = trial_specs(resolve_rng(job.algo_seed), job.budget, WORKERS)
                    with TrialExecutor(SpecFactory(job.algorithm), job.graph,
                                       ExecutionConfig(workers=workers)) as executor:
                        results = executor.run(specs)
                    self.ops.ok(len(results))
                    estimates.setdefault(workers, []).extend(r.estimate for r in results)
        if estimates[1] != estimates[WORKERS]:
            self.ops.reject("parallel: pooled trial estimates differ from serial ones")

    def run(self) -> None:
        self.stage()
        self.run_runner()
        self.run_session()
        self.run_manager()
        self.run_hosted(0)
        self.run_hosted(1)
        self.run_hosted(WORKERS)
        self.run_driver()
        self.run_parallel()

    # -- metrics -----------------------------------------------------------------

    def metrics(self, spans: Sequence[SpanRecord]) -> Dict[str, float]:
        """Every layer metric, from the facts and the (re-read) trace spans."""
        took = {span.name.split(":", 1)[1]: span.end_s - span.start_s
                for span in spans if span.category == "layer"}
        merge_s = sum(span.end_s - span.start_s for span in spans
                      if span.name.startswith("merge:") and "/layer:driver-serial/" in span.path)
        serve_pairs = self._pairs(self.spec.repeat)
        trial_pairs = self._pairs(WORKERS)
        out = dict(self.facts)
        out.update({
            "runner.pairs_per_s": serve_pairs / took["runner"],
            "runner.lists_per_s": self._lists / took["runner"],
            "session.pairs_per_s": serve_pairs / took["session"],
            "manager.pairs_per_s": serve_pairs / took["manager"],
            "server.pairs_per_s": serve_pairs / took["server"],
            "router.w1.pairs_per_s": serve_pairs / took["router-w1"],
            "router.w2.pairs_per_s": serve_pairs / took[f"router-w{WORKERS}"],
            "router.w2_over_w1": took["router-w1"] / took[f"router-w{WORKERS}"],
            "server.poll_p50_s": percentile(self.poll_latencies["server"], 0.5),
            "router.poll_p50_s": percentile(self.poll_latencies[f"router-w{WORKERS}"], 0.5),
            "driver.serial_s": took["driver-serial"],
            "driver.pool_s": took["driver-pool"],
            "driver.pool_speedup": took["driver-serial"] / took["driver-pool"],
            "merge.s": merge_s,
            "parallel.serial_pairs_per_s": trial_pairs / took["parallel-w1"],
            "parallel.pool_pairs_per_s": trial_pairs / took[f"parallel-w{WORKERS}"],
            "parallel.speedup": took["parallel-w1"] / took[f"parallel-w{WORKERS}"],
        })
        for inner, outer, name in (("runner", "session", "session"),
                                   ("session", "manager", "manager"),
                                   ("manager", "server", "server"),
                                   ("server", "router-w1", "router")):
            out[f"{name}.self_s"] = took[outer] - took[inner]
        return out
