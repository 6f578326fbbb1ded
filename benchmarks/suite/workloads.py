"""The suite's four workloads: inputs, set-up, measured phases, references.

Every input — graph, stream order, algorithm seed — derives from the
run's ``--seed``; the system under test only ever sees generated inputs.
Each workload has the same life cycle:

1. ``spawn()`` starts the servers (the router forks its workers *before*
   any input exists, so worker RSS is the server's own);
2. ``build(seed)`` makes the inputs;
3. ``warm_up(inputs)`` runs one unmeasured unit of work (set-up is
   spawn + build + warm-up, repeated and reported as a median);
4. ``run(inputs, plan)`` runs one measured phase per ``(seconds, tracer)``
   entry of the plan;
5. ``references(inputs)`` recomputes every estimate under the scalar
   oracle, after timing, so the checks cost the measurement nothing.

Load comes from this one process over at most ``WORKERS`` client
connections, and every pool or router runs ``WORKERS`` workers.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import multiprocessing
import os
import signal
import socket
import statistics
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from measure import OP_TIMEOUT_S, LiveSessions, OpenLoopPoller, OpLog, clock
from repro.experiments.parallel import (
    ExecutionConfig,
    TrialExecutor,
    TrialSpec,
    run_trial,
    trial_specs,
)
from repro.graph.generators import gnm_random_graph
from repro.graph.graph import Graph
from repro.graph.planted import planted_four_cycles, planted_triangles
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serve.client import ServeClient
from repro.serve.loadgen import default_configs
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_binary_feed,
    encode_frame,
)
from repro.serve.manager import SessionManager
from repro.serve.router import ServeRouter, worker_for
from repro.serve.server import ServeServer
from repro.sketch.driver import run_sharded
from repro.streaming.registry import get as get_spec
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream
from repro.util.rng import derive_seed, resolve_rng, spawn_rng
from repro.util.vectorized import scalar_oracle

#: Client connections, pool workers and router workers (the box has 2 cores).
WORKERS = 2

#: One measured phase: how long it measures, and the tracer it records to.
Plan = Sequence[Tuple[float, Tracer]]


@dataclass(frozen=True)
class SpecFactory:
    """A picklable ``factory(budget, seed)`` over one registry algorithm."""

    algorithm: str

    def __call__(self, budget: int, seed: Any) -> Any:
        return get_spec(self.algorithm).make(budget, seed=seed)


@dataclass(frozen=True)
class Job:
    """One algorithm over one graph: what a session, trial or run executes."""

    algorithm: str
    budget: int
    algo_seed: int
    graph: Graph
    stream_seed: int

    def stream(self) -> AdjacencyListStream:
        return AdjacencyListStream(self.graph, seed=self.stream_seed)

    def reference(self) -> float:
        """The estimate recomputed on the single scalar oracle."""
        with scalar_oracle():
            algorithm = get_spec(self.algorithm).make(self.budget, seed=self.algo_seed)
            return run_algorithm(algorithm, self.stream()).estimate


@dataclass
class Phase:
    """What one measured phase produced (latencies are per poll or per op)."""

    pairs: int = 0
    elapsed_s: float = 0.0
    #: (pairs, seconds) per unit of work: a session, a sweep, a pair of runs
    units: List[Tuple[int, float]] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    ops: OpLog = field(default_factory=OpLog)
    #: (reference key, estimate) for every completed session, trial or run
    estimates: List[Tuple[Any, float]] = field(default_factory=list)

    def rate(self) -> float:
        """Median pairs per second over the phase's units of work.

        A median over units keeps one unit slowed by a burst of outside
        load from moving the run's result.
        """
        return statistics.median(pairs / seconds for pairs, seconds in self.units)


def stream_columns(stream: AdjacencyListStream) -> Tuple[np.ndarray, np.ndarray]:
    """One pass of ``stream`` as two uint64 columns (sources, neighbours)."""
    heads, lists = zip(*stream.iter_lists())
    lengths = [len(nbrs) for nbrs in lists]
    srcs = np.repeat(np.array(heads, dtype=np.uint64), lengths)
    dsts = np.fromiter(
        itertools.chain.from_iterable(lists), dtype=np.uint64, count=sum(lengths)
    )
    return srcs, dsts


def binary_frames(session_id: str, srcs: np.ndarray, dsts: np.ndarray,
                  frame_pairs: int) -> List[bytes]:
    return [
        encode_binary_feed(index + 1, session_id, srcs[start:start + frame_pairs],
                           dsts[start:start + frame_pairs])
        for index, start in enumerate(range(0, len(srcs), frame_pairs))
    ]


def ids_by_worker(prefix: str) -> List[str]:
    """One session id per router worker, in worker order."""
    found: Dict[int, str] = {}
    for index in itertools.count():
        candidate = f"{prefix}-{index}"
        found.setdefault(worker_for(candidate, WORKERS), candidate)
        if len(found) == WORKERS:
            return [found[worker] for worker in range(WORKERS)]
    raise AssertionError("unreachable")


# -- session drivers (shared with the layer ladder) ----------------------------


class PipelinedLink:
    """One raw connection that pipelines binary feed frames.

    Frames are written back to back (draining only on transport
    backpressure) while their replies are read, so the client adds no
    round-trip stall between frames.
    """

    def __init__(self, ops: OpLog):
        self.ops = ops
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._ids = itertools.count(1)

    async def connect(self, port: int) -> "PipelinedLink":
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=MAX_FRAME_BYTES
        )
        await self.rpc({"op": "hello", "binary": 1})
        return self

    async def _reply(self) -> Dict[str, Any]:
        """The next reply; an error reply raises, so the op counts as failed."""
        assert self._reader is not None
        line = await asyncio.wait_for(self._reader.readline(), OP_TIMEOUT_S)
        if not line:
            raise ConnectionError("server closed the connection")
        reply = decode_frame(line.strip())
        if not reply.get("ok"):
            raise RuntimeError(json.dumps(reply.get("error")))
        return reply

    async def rpc(self, message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        assert self._writer is not None
        self._writer.write(encode_frame({"id": next(self._ids), **message}))
        await self._writer.drain()
        return await self.ops.call(self._reply())

    async def pipeline(self, frames: Sequence[bytes]) -> bool:
        """Send every frame, read every reply; False if any reply failed."""
        assert self._writer is not None
        replies = asyncio.ensure_future(self._read_replies(len(frames)))
        for frame in frames:
            self._writer.write(frame)
            if self._writer.transport.get_write_buffer_size() > (1 << 20):
                await self._writer.drain()
        await self._writer.drain()
        return await replies

    async def _read_replies(self, count: int) -> bool:
        results = [await self.ops.call(self._reply()) for _ in range(count)]
        return all(result is not None for result in results)

    async def aclose(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


async def pipelined_session(link: PipelinedLink, session_id: str, job: Job,
                            frames: Sequence[bytes], passes: int,
                            live: Optional[LiveSessions]) -> Optional[float]:
    """Open, stream every pass as pipelined binary frames, close."""
    opened = await link.rpc({"op": "open", "session": session_id,
                             "algorithm": job.algorithm, "budget": job.budget,
                             "seed": job.algo_seed})
    if opened is None:
        return None
    if live is not None:
        live.add(session_id)
    final: Optional[Dict[str, Any]] = None
    try:
        for _ in range(passes):
            if not await link.pipeline(frames):
                return None
            final = await link.rpc({"op": "finish_pass", "session": session_id})
            if final is None:
                return None
    finally:
        if live is not None:
            await live.retire(session_id)
        await link.rpc({"op": "close", "session": session_id})
    return final.get("estimate") if final is not None else None


async def client_session(client: Any, session_id: str, job: Job,
                         chunks: Sequence[Any], passes: int, ops: OpLog, *,
                         binary: bool, live: Optional[LiveSessions] = None,
                         opened: bool = False) -> Optional[float]:
    """One closed-loop session over any client: each feed awaits its reply.

    ``chunks`` are pair lists (JSON feeds) or ``(srcs, dsts)`` columns
    (binary feeds).  Returns the final estimate, or ``None`` on a failure.
    """
    if not opened and await ops.call(
        client.open(session_id, job.algorithm, job.budget, seed=job.algo_seed)
    ) is None:
        return None
    if live is not None:
        live.add(session_id)
    estimate: Optional[float] = None
    try:
        final = None
        for _ in range(passes):
            for chunk in chunks:
                if binary:
                    out = await ops.call(client.feed_binary(session_id, *chunk))
                else:
                    out = await ops.call(client.feed(session_id, chunk))
                if out is None:
                    return None
            final = await ops.call(client.finish_pass(session_id))
            if final is None:
                return None
        estimate = final.get("estimate") if final is not None else None
    finally:
        if live is not None:
            await live.retire(session_id)
        await ops.call(client.close_session(session_id))
    return estimate


class FeedLog:
    """A client whose JSON feeds also log ``(completion time, pairs)``."""

    def __init__(self, client: ServeClient) -> None:
        self.client = client
        self.feeds: List[Tuple[float, int]] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self.client, name)

    async def feed(self, session_id: str, pairs: Sequence[Tuple[int, int]]) -> Any:
        reply = await self.client.feed(session_id, pairs)
        self.feeds.append((clock(), len(pairs)))
        return reply


async def connect_client(port: int, binary: bool = False) -> ServeClient:
    client = await ServeClient("127.0.0.1", port).connect()
    if binary and not await client.negotiate_binary():
        raise RuntimeError("server refused binary framing")
    return client


# -- the workloads --------------------------------------------------------------


class Workload:
    """Base life cycle; offline workloads need no servers."""

    name = ""
    serve = False

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    @property
    def frame_pairs(self) -> int:
        """Pairs per binary feed frame."""
        return 512 if self.smoke else 4096

    def dense_graph(self, seed: int) -> Graph:
        """G(n=2000, m=200k): 400k pairs per pass, mean list length 200."""
        n, m = (300, 6000) if self.smoke else (2000, 200_000)
        return gnm_random_graph(n, m, seed=derive_seed(seed, 1))

    def spawn(self) -> None:
        pass

    def close(self) -> None:
        pass

    def build(self, seed: int) -> Any:
        raise NotImplementedError

    def warm_up(self, inputs: Any) -> None:
        raise NotImplementedError

    def run(self, inputs: Any, plan: Plan) -> List[Phase]:
        raise NotImplementedError

    def references(self, inputs: Any) -> Dict[Any, float]:
        raise NotImplementedError

    def ladder(self, inputs: Any) -> "LadderSpec":
        raise NotImplementedError


@dataclass(frozen=True)
class LadderSpec:
    """How the per-layer ladder replays a workload's inputs."""

    jobs: Tuple[Job, ...]
    binary: bool
    chunk_pairs: int
    repeat: int = 1  # runs of each job per layer
    poll_hz: float = 100.0


def _host_server(conn: Any, workers: int) -> None:
    """Child-process body: a server (or a router over ``workers`` workers)."""
    router = ServeRouter(workers) if workers else None
    if router is not None:
        router.spawn_workers()
    service: Any = router if router is not None else ServeServer(SessionManager())

    async def serve() -> None:
        await service.start()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, service.stop)
        conn.send(service.bound_port)
        conn.close()
        await service.serve_until_stopped()

    try:
        asyncio.run(serve())
    finally:
        if router is not None:
            router.join_workers()


class ServerHost:
    """A ``ServeServer`` (``workers=0``) or ``ServeRouter`` in its own process,
    as ``repro-cycles serve [--workers N]`` runs it.

    Keeping the server out of the load generator's process keeps the
    generator's inputs (and its garbage collections) off the server's
    event loop.
    """

    def __init__(self, workers: int):
        context = multiprocessing.get_context("spawn")
        parent, child = context.Pipe(duplex=False)
        self.process = context.Process(target=_host_server, args=(child, workers))
        self.process.start()
        child.close()
        if not parent.poll(60):
            self.process.terminate()
            self.process.join(5)
            raise RuntimeError("the server did not report its port")
        self.port = int(parent.recv())
        parent.close()

    def close(self) -> None:
        """Stop through the protocol's ``shutdown`` op, which also stops a
        router's workers at once; SIGTERM is the fallback for a server that
        cannot answer."""
        try:
            with socket.create_connection(("127.0.0.1", self.port), timeout=OP_TIMEOUT_S) as sock:
                sock.sendall(encode_frame({"id": 0, "op": "shutdown"}))
                sock.makefile("rb").readline()
        except OSError:
            pass
        self.process.join(OP_TIMEOUT_S)
        if self.process.is_alive() and self.process.pid is not None:
            os.kill(self.process.pid, signal.SIGTERM)
            self.process.join(OP_TIMEOUT_S)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(5)


class ServeWorkload(Workload):
    """A workload driven over TCP through a 2-worker router process."""

    serve = True

    def spawn(self) -> None:
        self.host = ServerHost(WORKERS)

    def close(self) -> None:
        self.host.close()

    def warm_up(self, inputs: Any) -> None:
        ops = OpLog()
        asyncio.run(self.warm(self.host.port, inputs, ops))
        if ops.failed:
            raise RuntimeError(f"warm-up failed: {ops.errors}")

    def run(self, inputs: Any, plan: Plan) -> List[Phase]:
        # The generator's inputs are built; keep its collector off them.
        gc.collect()
        gc.freeze()
        try:
            return asyncio.run(self.drive(self.host.port, inputs, plan))
        finally:
            gc.unfreeze()

    async def warm(self, port: int, inputs: Any, ops: OpLog) -> None:
        raise NotImplementedError

    async def drive(self, port: int, inputs: Any, plan: Plan) -> List[Phase]:
        raise NotImplementedError


@dataclass
class DenseInputs:
    job: Job
    passes: int
    pairs_per_pass: int
    frames: List[List[bytes]]  # per worker-alternating session id
    session_ids: List[str]


class DenseIngest(ServeWorkload):
    """Long adjacency lists as pipelined binary frames, one session at a time."""

    name = "dense-ingest"
    POLL_HZ = 100.0

    def build(self, seed: int) -> DenseInputs:
        job = Job("triangle-two-pass", 512, derive_seed(seed, 3), self.dense_graph(seed),
                  derive_seed(seed, 2))
        srcs, dsts = stream_columns(job.stream())
        ids = ids_by_worker("dense")
        return DenseInputs(
            job=job,
            passes=get_spec(job.algorithm).n_passes,
            pairs_per_pass=len(srcs),
            frames=[binary_frames(sid, srcs, dsts, self.frame_pairs) for sid in ids],
            session_ids=ids,
        )

    async def warm(self, port: int, inputs: DenseInputs, ops: OpLog) -> None:
        link = await PipelinedLink(ops).connect(port)
        try:
            await pipelined_session(link, inputs.session_ids[0], inputs.job,
                                    inputs.frames[0], inputs.passes, None)
        finally:
            await link.aclose()

    async def drive(self, port: int, inputs: DenseInputs, plan: Plan) -> List[Phase]:
        link = await PipelinedLink(OpLog()).connect(port)
        poll_client = await connect_client(port)
        try:
            return [await self._phase(link, poll_client, inputs, seconds, tracer, index)
                    for index, (seconds, tracer) in enumerate(plan)]
        finally:
            await link.aclose()
            await poll_client.aclose()

    async def _phase(self, link: PipelinedLink, poll_client: ServeClient,
                     inputs: DenseInputs, seconds: float, tracer: Tracer,
                     index: int) -> Phase:
        phase = Phase()
        link.ops = phase.ops
        live = LiveSessions(lambda n: 0)
        poller = OpenLoopPoller(poll_client.poll, live, self.POLL_HZ, phase.ops)
        begin = clock()
        poller.start()
        session = 0
        while session == 0 or clock() - begin < seconds:
            slot = session % WORKERS
            sid = inputs.session_ids[slot]
            start = clock()
            with tracer.span(f"phase{index}.session:{session}", category="session"):
                estimate = await pipelined_session(link, sid, inputs.job, inputs.frames[slot],
                                                   inputs.passes, live)
            if estimate is not None:
                phase.estimates.append((inputs.job.algorithm, estimate))
                pairs = inputs.passes * inputs.pairs_per_pass
                phase.pairs += pairs
                phase.units.append((pairs, clock() - start))
            session += 1
        phase.elapsed_s = clock() - begin
        await poller.stop()
        phase.latencies, phase.lags = poller.latencies, poller.lags
        return phase

    def references(self, inputs: DenseInputs) -> Dict[Any, float]:
        return {inputs.job.algorithm: inputs.job.reference()}

    def ladder(self, inputs: DenseInputs) -> LadderSpec:
        return LadderSpec(jobs=(inputs.job,), binary=True, repeat=WORKERS,
                          chunk_pairs=self.frame_pairs, poll_hz=self.POLL_HZ)


@dataclass
class FleetInputs:
    jobs: List[Job]
    chunk_lists: List[List[List[Tuple[int, int]]]]  # per job: one pass as feed chunks
    passes: int
    poll_seed: int


class SessionFleet(ServeWorkload):
    """Hundreds of small concurrent sessions, JSON feeds on one connection."""

    name = "session-fleet"
    CHUNK_PAIRS = 96
    POLL_HZ = 200.0
    WINDOW_S = 1.0  # about 200 polls and 300 feeds per window

    def build(self, seed: int) -> FleetInputs:
        jobs, chunk_lists = [], []
        for index, config in enumerate(default_configs()):
            config = replace(
                config,
                graph_seed=derive_seed(seed, 10 + index),
                stream_seed=derive_seed(seed, 20 + index),
                algo_seed=derive_seed(seed, 30 + index),
            )
            graph = planted_triangles(config.noise_edges, config.triangles,
                                      seed=config.graph_seed).graph
            job = Job(config.algorithm, config.budget, config.algo_seed, graph,
                      config.stream_seed)
            pairs = list(job.stream().iter_pairs())
            jobs.append(job)
            chunk_lists.append([pairs[i:i + self.CHUNK_PAIRS]
                                for i in range(0, len(pairs), self.CHUNK_PAIRS)])
        return FleetInputs(jobs=jobs, chunk_lists=chunk_lists,
                           passes=get_spec(jobs[0].algorithm).n_passes,
                           poll_seed=derive_seed(seed, 40))

    @property
    def sessions(self) -> int:
        return 40 if self.smoke else 500

    @property
    def stagger_s(self) -> float:
        """The slots' first sessions start spread over this long, about
        two thirds of a session's life, so opens and closes stay spread out
        instead of arriving in waves."""
        return 0.2 if self.smoke else 4.0

    async def warm(self, port: int, inputs: FleetInputs, ops: OpLog) -> None:
        client = await connect_client(port)
        try:
            await asyncio.gather(*(
                client_session(client, f"warm-{index}", job, inputs.chunk_lists[index],
                               inputs.passes, ops, binary=False)
                for index, job in enumerate(inputs.jobs)
            ))
        finally:
            await client.aclose()

    async def drive(self, port: int, inputs: FleetInputs, plan: Plan) -> List[Phase]:
        feed_client = await connect_client(port)
        poll_client = await connect_client(port)
        try:
            return [await self._phase(feed_client, poll_client, inputs, seconds, tracer, index)
                    for index, (seconds, tracer) in enumerate(plan)]
        finally:
            await feed_client.aclose()
            await poll_client.aclose()

    async def _phase(self, feed_client: ServeClient, poll_client: ServeClient,
                     inputs: FleetInputs, seconds: float, tracer: Tracer,
                     index: int) -> Phase:
        """Keep ``sessions`` sessions open for ``seconds``, then let them finish.

        Each slot runs sessions back to back, so once every slot has
        started the fleet stays at full size until the first slot stops;
        that stretch is what the phase's windows measure.  Every session
        still runs to the end.
        """
        phase = Phase()
        live = LiveSessions(resolve_rng(derive_seed(inputs.poll_seed, index)).randrange)
        poller = OpenLoopPoller(poll_client.poll, live, self.POLL_HZ, phase.ops)
        client = FeedLog(feed_client)
        poller.start()
        begin = clock()
        full = begin + self.stagger_s  # every slot has started
        stops: List[float] = []  # when each slot stopped: the fleet shrinks from the first

        async def slot(number: int) -> None:
            await asyncio.sleep(self.stagger_s * number / self.sessions)
            for turn in itertools.count():
                k = (number + turn) % len(inputs.jobs)
                estimate = await client_session(
                    client, f"phase{index}.{number:04d}.{turn}", inputs.jobs[k],
                    inputs.chunk_lists[k], inputs.passes, phase.ops, binary=False, live=live)
                if estimate is not None:
                    phase.estimates.append((k, estimate))
                    phase.pairs += inputs.passes * sum(len(c) for c in inputs.chunk_lists[k])
                if clock() - full >= seconds:
                    break
            stops.append(clock())

        await asyncio.gather(*(slot(number) for number in range(self.sessions)))
        phase.elapsed_s = clock() - begin
        await poller.stop()
        phase.lags = poller.lags
        tracer.record_span(f"phase{index}.fleet", category="unit", start_s=begin, end_s=clock())
        self._windows(phase, full, min(stops), client.feeds, poller)
        return phase

    def _windows(self, phase: Phase, begin: float, end: float,
                 feeds: Sequence[Tuple[float, int]], poller: OpenLoopPoller) -> None:
        """Make the phase's units equal windows of about ``WINDOW_S``
        between ``begin`` and ``end``.

        Each window counts the pairs whose feed completed in it and keeps
        the median latency of the polls due in it.  A median over windows
        then keeps a burst of outside load from moving the run's result,
        as the median over units does on the other workloads.
        """
        count = max(1, int((end - begin) // self.WINDOW_S))
        width = (end - begin) / count
        pairs = [0] * count
        polls: List[List[float]] = [[] for _ in range(count)]
        for at, size in feeds:
            if begin <= at < end:
                pairs[min(count - 1, int((at - begin) / width))] += size
        for at, latency in zip(poller.dues, poller.latencies):
            if begin <= at < end:
                polls[min(count - 1, int((at - begin) / width))].append(latency)
        phase.units = [(size, width) for size in pairs]
        phase.latencies = [statistics.median(window) for window in polls if window]

    def references(self, inputs: FleetInputs) -> Dict[Any, float]:
        return {index: job.reference() for index, job in enumerate(inputs.jobs)}

    def ladder(self, inputs: FleetInputs) -> LadderSpec:
        return LadderSpec(jobs=tuple(inputs.jobs), binary=False,
                          chunk_pairs=self.CHUNK_PAIRS, repeat=2 if self.smoke else 25,
                          poll_hz=self.POLL_HZ)


class OfflineWorkload(Workload):
    """A workload of in-process runs: repeated units until the time is up."""

    def unit(self, inputs: Any, phase: Phase, tracer: Tracer, index: int) -> None:
        raise NotImplementedError

    def warm_up(self, inputs: Any) -> None:
        self.unit(inputs, Phase(), NULL_TRACER, 0)

    def run(self, inputs: Any, plan: Plan) -> List[Phase]:
        phases = []
        for seconds, tracer in plan:
            phase = Phase()
            begin = clock()
            while not phase.units or clock() - begin < seconds:
                start, before = clock(), phase.pairs
                self.unit(inputs, phase, tracer, len(phase.units))
                took = clock() - start
                phase.units.append((phase.pairs - before, took))
                # Latency per unit, not per run or trial: a unit always holds
                # the same mix, so its percentiles do not straddle two kinds.
                phase.latencies.append(took)
            phase.elapsed_s = clock() - begin
            phases.append(phase)
        return phases


@dataclass
class SweepInputs:
    jobs: List[Job]
    specs: List[List[TrialSpec]]  # per job: every trial of one sweep
    pairs_per_trial: List[int]


class SparseSweep(OfflineWorkload):
    """Table-1-style trial sweeps over sparse planted graphs in a 2-worker pool."""

    name = "sparse-sweep"
    BUDGETS = (128, 512)
    RUNS = 2  # trials per budget per sweep: one per pool worker

    def build(self, seed: int) -> SweepInputs:
        noise, cycles = (400, 40) if self.smoke else (2_500, 250)
        graphs = (
            ("triangle-two-pass", planted_triangles(noise, cycles, seed=derive_seed(seed, 1))),
            ("fourcycle-two-pass", planted_four_cycles(noise, cycles, seed=derive_seed(seed, 2))),
        )
        jobs, specs, sizes = [], [], []
        for index, (algorithm, planted) in enumerate(graphs):
            rng = resolve_rng(derive_seed(seed, 10 + index))
            trials = [spec for budget in self.BUDGETS
                      for spec in trial_specs(spawn_rng(rng), budget, self.RUNS)]
            jobs.append(Job(algorithm, self.BUDGETS[0], derive_seed(seed, 20 + index),
                            planted.graph, derive_seed(seed, 30 + index)))
            specs.append(trials)
            sizes.append(get_spec(algorithm).n_passes * 2 * planted.graph.m)
        return SweepInputs(jobs=jobs, specs=specs, pairs_per_trial=sizes)

    def warm_up(self, inputs: SweepInputs) -> None:
        self._sweeps(inputs, Phase(), NULL_TRACER, 0, self.BUDGETS[:1])

    def unit(self, inputs: SweepInputs, phase: Phase, tracer: Tracer, index: int) -> None:
        self._sweeps(inputs, phase, tracer, index, self.BUDGETS)

    def _sweeps(self, inputs: SweepInputs, phase: Phase, tracer: Tracer, index: int,
                budgets: Sequence[int]) -> None:
        """One sweep per algorithm, a fresh pool each, as ``accuracy_sweep`` runs."""
        for which, job in enumerate(inputs.jobs):
            by_budget: Dict[int, List[TrialSpec]] = {}
            for spec in inputs.specs[which]:
                by_budget.setdefault(spec.budget, []).append(spec)
            with tracer.span(f"unit:{index}:{job.algorithm}", category="unit"), \
                    TrialExecutor(SpecFactory(job.algorithm), job.graph,
                                  ExecutionConfig(workers=WORKERS)) as executor:
                for budget in budgets:
                    for result in executor.run(by_budget[budget]):
                        phase.ops.ok()
                        phase.pairs += inputs.pairs_per_trial[which]
                        phase.estimates.append(((which, budget, result.index), result.estimate))

    def references(self, inputs: SweepInputs) -> Dict[Any, float]:
        refs: Dict[Any, float] = {}
        with scalar_oracle():
            for index, job in enumerate(inputs.jobs):
                factory = SpecFactory(job.algorithm)
                for spec in inputs.specs[index]:
                    refs[(index, spec.budget, spec.index)] = run_trial(
                        factory, job.graph, spec).estimate
        return refs

    def ladder(self, inputs: SweepInputs) -> LadderSpec:
        return LadderSpec(jobs=tuple(inputs.jobs), binary=True, chunk_pairs=self.frame_pairs)


@dataclass
class ShardInputs:
    jobs: List[Job]
    stream: AdjacencyListStream


class ShardedDense(OfflineWorkload):
    """Shard-and-merge runs over the dense graph in a fresh 2-worker pool."""

    name = "sharded-dense"
    SHARDS = 2
    ALGORITHMS = ("triangle-two-pass-sharded", "fourcycle-two-pass")

    def build(self, seed: int) -> ShardInputs:
        graph = self.dense_graph(seed)
        jobs = [Job(name, 512, derive_seed(seed, 3 + index), graph, derive_seed(seed, 2))
                for index, name in enumerate(self.ALGORITHMS)]
        return ShardInputs(jobs=jobs, stream=jobs[0].stream())

    def unit(self, inputs: ShardInputs, phase: Phase, tracer: Tracer, index: int) -> None:
        for job in inputs.jobs:
            algorithm = get_spec(job.algorithm).make(job.budget, seed=job.algo_seed)
            with tracer.span(f"unit:{index}:{job.algorithm}", category="unit"):
                result = run_sharded(algorithm, inputs.stream, self.SHARDS,
                                     workers=WORKERS, tracer=tracer)
            phase.ops.ok()
            phase.pairs += result.passes * result.pairs_per_pass
            phase.estimates.append((job.algorithm, result.estimate))

    def references(self, inputs: ShardInputs) -> Dict[Any, float]:
        refs = {}
        with scalar_oracle():
            for job in inputs.jobs:
                algorithm = get_spec(job.algorithm).make(job.budget, seed=job.algo_seed)
                refs[job.algorithm] = run_sharded(algorithm, job.stream(), self.SHARDS).estimate
        return refs

    def ladder(self, inputs: ShardInputs) -> LadderSpec:
        return LadderSpec(jobs=tuple(inputs.jobs), binary=True, chunk_pairs=self.frame_pairs)


WORKLOADS = {cls.name: cls for cls in (DenseIngest, SessionFleet, SparseSweep, ShardedDense)}
