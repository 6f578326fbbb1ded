"""Horizontal scale-out: a session router over persistent worker processes.

One asyncio process caps `repro.serve` at a core's worth of ingest.  The
router front-end lifts that the same way the offline driver does — by
sharding over warm workers and merging through the bit-exact shard-merge
layer:

* **Workers** are persistent child processes (forked before the router's
  event loop exists, mirroring the warm pool of
  ``util/warmpool.py``), each running an ordinary
  :class:`~repro.serve.server.ServeServer` on a loopback port.  Their
  ports travel back over a pipe; readiness is confirmed with
  :func:`~repro.serve.net.wait_for_port`.
* **Routing** is deterministic hash placement:
  ``crc32(session_id) % n_workers``.  Any router (or a restarted one)
  computes the same placement — no routing table to persist.
* **Hot ops relay raw.**  Per client connection the router lazily opens
  one upstream socket per needed worker (binary negotiated on open, the
  single hello ack consumed before the pump task starts) and forwards
  feed/poll/finish_pass/snapshot frames verbatim — correlation ids pass
  through untouched, responses pump back under the client write lock, and
  binary pair-batch frames are routed by parsing only the 16-byte header
  plus session id.  A client may pipeline frames; each worker answers
  one upstream link's requests one at a time, in arrival order, and
  takes turns between links, so the router adds no head-of-line
  coupling between sessions on different workers.
* **Control ops** (open/close/merge/stats/shutdown) go through one shared
  :class:`~repro.serve.client.ServeClient` per worker so the router can
  orchestrate cross-worker merges.  A merge
  whose sources live on several workers snapshots the remote sources,
  restores them under temporary ids on the target's worker (restore
  preserves the lineage origin), and merges there — the same
  origin/fork-point rule as a single-process merge, so a multi-worker run
  merged at pass boundaries stays **bit-identical to** ``run_sharded``
  (pinned in ``tests/serve/test_router.py``).
* **Live plane** (optional): with ``metrics_port`` set the router runs a
  tiny HTTP listener serving Prometheus text exposition at ``/metrics``.
  Workers run metrics-only telemetry (``Telemetry(sink=None)`` — no I/O
  on their hot paths) and ship full metric snapshots through the
  ``stats`` control op (``metrics: 1``); the router labels each with its
  ``worker`` index, merges them with
  :func:`~repro.obs.metrics.merge_snapshots`, folds in its own registry
  (relay latency histograms, loop lag, scrape counters, SLO gauges) and
  refuses to expose any series whose name is missing from
  :data:`~repro.obs.names.METRIC_NAMES`.  An :class:`SLOPolicy` is
  evaluated periodically over the same fleet snapshot and exported as
  ``router_slo_*`` gauges.  Trace contexts negotiated on ``open`` are
  observed in flight: the router records a ``relay:worker-<k>`` span
  under the client's ``session:<sid>`` path, so per-process trace files
  (client, router, workers) stitch into one tree by span id
  (``repro-cycles obs-report stitch-trace``).

The router is a :class:`~repro.serve.net.FrontEnd`: frame reading,
framing-error replies, the write lock, the stop event, the lag probe and
the ``serve_until_stopped`` skeleton are the layer it shares with
:class:`~repro.serve.server.ServeServer`, so both answer every framing
case alike.  The router keeps only the routing above.

Shutdown: the ``shutdown`` op fans out to every worker (each checkpoints
its live sessions to its own ``worker-<i>`` directory exactly as a bare
server would), then stops the router.  ``join_workers`` reaps the
children synchronously after the event loop exits.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time
import zlib
from pathlib import Path
from typing import Any, Coroutine, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import Snapshot, label_snapshot, merge_snapshots
from repro.obs.names import METRIC_NAMES, unregistered_series
from repro.obs.sinks import render_textfile
from repro.obs.slo import SLOPolicy, evaluate_slo
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, open_telemetry
from repro.obs.trace import (
    NULL_TRACER,
    TraceContext,
    Tracer,
    encode_span,
    write_chrome_trace,
)
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.manager import SessionManager
from repro.serve.net import (
    Connection,
    FrontEnd,
    close_writer,
    install_stop_handlers,
    wait_for_port,
)
from repro.serve.protocol import (
    BAD_REQUEST,
    INTERNAL,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    UNKNOWN_OP,
    ServeError,
    encode_frame,
    error_response,
    get_int,
    get_str,
    ok_response,
    request_id,
)
from repro.serve.server import ServeServer, _algorithms_listing, parse_trace_field

__all__ = [
    "ServeRouter",
    "worker_for",
    "worker_artifact_path",
    "SCRAPE_CONTENT_TYPE",
]

#: Content type of the ``/metrics`` exposition (Prometheus text format).
SCRAPE_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_RELAY_HELP = "router-side relay latency histogram per relayed op"


def _now() -> float:
    return time.perf_counter()  # repro-lint: disable=DET003 -- relay latency metrics and span timestamps are wall time by design; no estimator state depends on them

#: Ops the router answers (or orchestrates) itself; everything else with a
#: ``session`` field relays raw to the owning worker.
_ROUTER_OPS = ("hello", "algorithms", "open", "close", "merge", "shutdown")

#: Prefix for the transient ids a cross-worker merge parks snapshots under.
_MERGE_TEMP_PREFIX = "__router-merge__"


def worker_for(session_id: str, n_workers: int) -> int:
    """Deterministic hash placement of a session onto a worker index."""
    return zlib.crc32(session_id.encode("utf-8")) % n_workers


def worker_artifact_path(base: str, index: int) -> str:
    """Per-worker sibling of a base artifact path: ``serve.trace`` →
    ``serve.worker-3.trace`` (full multi-part suffixes preserved, so
    ``serve.trace.json`` → ``serve.worker-3.trace.json``)."""
    path = Path(base)
    suffix = "".join(path.suffixes)
    stem = path.name[: len(path.name) - len(suffix)] if suffix else path.name
    return str(path.with_name(f"{stem}.worker-{index}{suffix}"))


# -- worker process ------------------------------------------------------------


def _worker_main(index: int, conn: Any, config: Dict[str, Any]) -> None:
    """Entry point of one worker process: a bare serve server on port 0.

    Runs in the child after fork; sends the bound port back through the
    pipe, then serves until stopped (the ``shutdown`` op from the router,
    or SIGINT delivered to the foreground process group — either way the
    server's shutdown path checkpoints live sessions first).
    """

    async def _run() -> None:
        telemetry = NULL_TELEMETRY
        if config.get("telemetry_path"):
            telemetry = open_telemetry(str(config["telemetry_path"]))
        elif config.get("metrics"):
            # Metrics-only: the registry accumulates (shipped to the
            # router through `stats` with `metrics: 1`), events drop —
            # the live plane costs the worker no I/O.
            telemetry = Telemetry(sink=None)
        tracer: Tracer = NULL_TRACER
        if config.get("trace_path"):
            tracer = Tracer(
                seed=int(config.get("trace_seed", 0)),
                telemetry=None,
                root=f"worker-{index}",
            )
        manager = SessionManager(
            max_sessions=config.get("max_sessions", 10_000),
            default_byte_budget=config.get("byte_budget"),
            default_space_budget_words=config.get("space_budget"),
            telemetry=telemetry,
            tracer=tracer,
        )
        server = ServeServer(
            manager,
            "127.0.0.1",
            0,
            shutdown_checkpoint_dir=config.get("checkpoint_dir"),
        )
        await server.start()
        install_stop_handlers(server.stop)
        if config.get("resume") and config.get("checkpoint_dir"):
            try:
                await manager.load_checkpoints(config["checkpoint_dir"])
            except ServeError:
                pass  # nothing to resume is a fresh start, not a failure
        conn.send(server.bound_port)
        conn.close()
        try:
            if tracer.enabled:
                with tracer:
                    await server.serve_until_stopped()
            else:
                await server.serve_until_stopped()
        finally:
            if tracer.enabled and config.get("trace_path"):
                write_chrome_trace(str(config["trace_path"]), tracer.spans)
            telemetry.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass  # graceful path already ran inside serve_until_stopped's finally


class _Connection(Connection):
    """Per-client-connection routing state."""

    __slots__ = ("upstreams", "pumps")

    def __init__(self, writer: asyncio.StreamWriter):
        super().__init__(writer)
        # worker index -> (reader, writer) raw relay link
        self.upstreams: Dict[int, Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = {}
        self.pumps: List[asyncio.Task] = []


class ServeRouter(FrontEnd):
    """The multi-worker front-end: spawn, route, merge, reap."""

    def __init__(
        self,
        n_workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions: int = 10_000,
        byte_budget: Optional[int] = None,
        space_budget: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        metrics_port: Optional[int] = None,
        slo: Optional[SLOPolicy] = None,
        slo_interval_s: float = 5.0,
        telemetry: Telemetry = NULL_TELEMETRY,
        tracer: Tracer = NULL_TRACER,
        worker_telemetry_paths: Optional[Sequence[Optional[str]]] = None,
        worker_trace_paths: Optional[Sequence[Optional[str]]] = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        for label, paths in (
            ("worker_telemetry_paths", worker_telemetry_paths),
            ("worker_trace_paths", worker_trace_paths),
        ):
            if paths is not None and len(paths) != n_workers:
                raise ValueError(f"{label} must list one path per worker")
        super().__init__(host, port, telemetry)
        self.n_workers = n_workers
        self.checkpoint_dir = checkpoint_dir
        self.metrics_port = metrics_port
        self.slo = slo
        self.slo_interval_s = slo_interval_s
        self.tracer = tracer
        self._worker_telemetry_paths = (
            list(worker_telemetry_paths) if worker_telemetry_paths else [None] * n_workers
        )
        self._worker_trace_paths = (
            list(worker_trace_paths) if worker_trace_paths else [None] * n_workers
        )
        self._worker_config = {
            "max_sessions": max_sessions,
            "byte_budget": byte_budget,
            "space_budget": space_budget,
            "resume": resume,
            # The scrape/SLO planes need worker registries accumulating
            # even when the workers write no telemetry files of their own.
            "metrics": metrics_port is not None or slo is not None,
            "trace_seed": int(tracer.seed),
        }
        self.worker_ports: List[int] = []
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._controls: List[Optional[ServeClient]] = []
        self._control_lock = asyncio.Lock()
        # Live-plane state: open-negotiated trace contexts per session,
        # the last verdict-refreshing poll, and the previous SLO window's
        # (monotonic time, fleet pairs total) anchor for throughput.
        self._session_trace: Dict[str, Tuple[TraceContext, float]] = {}
        self._last_poll_s: Optional[float] = None
        self._started_s: Optional[float] = None
        self._slo_window: Optional[Tuple[float, float]] = None

    # -- worker lifecycle (synchronous: fork before the event loop) -----------

    def worker_checkpoint_dir(self, index: int) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        return str(Path(self.checkpoint_dir) / f"worker-{index}")

    def spawn_workers(self, timeout: float = 20.0) -> List[int]:
        """Fork the worker fleet and collect their bound ports.

        Must run before the router's event loop starts (fork-safety): the
        children inherit a clean pre-loop state, exactly like the warm
        shard pools of the offline driver.
        """
        if self._processes:
            raise RuntimeError("workers already spawned")
        ctx = multiprocessing.get_context("fork")
        for index in range(self.n_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            config = dict(self._worker_config)
            config["checkpoint_dir"] = self.worker_checkpoint_dir(index)
            config["telemetry_path"] = self._worker_telemetry_paths[index]
            config["trace_path"] = self._worker_trace_paths[index]
            process = ctx.Process(
                target=_worker_main,
                args=(index, child_conn, config),
                daemon=True,
                name=f"repro-serve-worker-{index}",
            )
            process.start()
            child_conn.close()
            if not parent_conn.poll(timeout):
                raise RuntimeError(f"worker {index} did not report a port")
            port = int(parent_conn.recv())
            parent_conn.close()
            if not wait_for_port("127.0.0.1", port, timeout=timeout):
                raise RuntimeError(f"worker {index} never started listening")
            self.worker_ports.append(port)
            self._processes.append(process)
        self._controls = [None] * self.n_workers
        return list(self.worker_ports)

    def join_workers(self, timeout: float = 10.0) -> None:
        """Reap worker processes — call after the event loop exits.

        Escalates gently: a short join first (a foreground Ctrl-C already
        delivered SIGINT to the whole process group, so workers are
        usually mid-checkpoint), then SIGINT for stragglers (their own
        graceful shutdown path, checkpoints included), then terminate.
        """
        for process in self._processes:
            process.join(1.0)
        for process in self._processes:
            if process.is_alive() and process.pid is not None:
                try:
                    os.kill(process.pid, signal.SIGINT)
                except (ProcessLookupError, OSError):
                    pass
        for process in self._processes:
            process.join(timeout)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(1.0)
        self._processes = []

    def worker_index(self, session_id: str) -> int:
        """The worker a session id routes to (public for tests/benches)."""
        return worker_for(session_id, self.n_workers)

    # -- router service --------------------------------------------------------

    @property
    def metrics_bound_port(self) -> int:
        if self._metrics_server is None or not self._metrics_server.sockets:
            raise RuntimeError("the router has no /metrics listener")
        return self._metrics_server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if not self.worker_ports:
            raise RuntimeError("spawn_workers() must run before start()")
        await super().start()
        self._started_s = _now()
        if self.metrics_port is not None:
            self._metrics_server = await self._listen(
                self._handle_scrape, self.metrics_port
            )
        if self.telemetry.enabled:
            self.telemetry.set_gauge(
                "router_workers",
                self.n_workers,
                help="worker processes behind the router",
            )

    def _background(self) -> List[Coroutine[Any, Any, None]]:
        coros = super()._background()
        if self.telemetry.enabled and self.slo is not None:
            coros.append(self._slo_loop())
        return coros

    async def _wind_down(self) -> None:
        try:
            await asyncio.shield(self._close_controls())
        except asyncio.CancelledError:
            pass

    async def _close_controls(self) -> None:
        for client in self._controls:
            if client is not None:
                await client.aclose()
        self._controls = [None] * self.n_workers

    async def _control(self, index: int) -> ServeClient:
        async with self._control_lock:
            client = self._controls[index]
            if client is None:
                client = ServeClient("127.0.0.1", self.worker_ports[index])
                await client.connect()
                self._controls[index] = client
            return client

    # -- raw relay -------------------------------------------------------------

    async def _upstream(
        self, conn: _Connection, index: int
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        link = conn.upstreams.get(index)
        if link is None:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", self.worker_ports[index], limit=MAX_FRAME_BYTES
            )
            # Negotiate binary and consume the single hello ack *before*
            # the pump starts, so the pump relays only correlated
            # responses and never needs to filter.
            writer.write(encode_frame({"id": 0, "op": "hello", "binary": 1}))
            await writer.drain()
            await reader.readline()
            link = (reader, writer)
            conn.upstreams[index] = link
            conn.pumps.append(asyncio.ensure_future(self._pump(reader, conn)))
        return link

    async def _pump(self, reader: asyncio.StreamReader, conn: _Connection) -> None:
        """Relay one worker's response lines verbatim to the client."""
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                await conn.write(line)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass

    async def _relay(
        self,
        conn: _Connection,
        session_id: str,
        frame: bytes,
        op: str = "feed",
        wire: str = "json",
    ) -> None:
        _, writer = await self._upstream(conn, self.worker_index(session_id))
        if self.telemetry.enabled:
            start = _now()
            writer.write(frame)
            await writer.drain()
            # Write-side latency only: responses pump back asynchronously,
            # so this histogram surfaces upstream backpressure, not the
            # worker's service time (that lives in serve_op_latency_seconds).
            self.telemetry.observe_histogram(
                "router_relay_seconds", _now() - start, help=_RELAY_HELP, op=op, wire=wire
            )
        else:
            writer.write(frame)
            await writer.drain()

    # -- router-local ops ------------------------------------------------------

    @staticmethod
    def _rewrite(req_id: Any, out: Dict[str, Any]) -> Dict[str, Any]:
        """A control-client response, re-correlated to the client's id."""
        fields = {k: v for k, v in out.items() if k not in ("id", "ok")}
        return ok_response(req_id, **fields)

    async def _handle_local(
        self, conn: _Connection, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        req_id = request_id(message)
        try:
            op = str(message.get("op"))
            if op == "hello":
                return ok_response(
                    req_id,
                    protocol=PROTOCOL_VERSION,
                    server="repro-router",
                    workers=self.n_workers,
                    binary=1 if conn.binary else 0,
                )
            if op == "algorithms":
                return ok_response(req_id, algorithms=_algorithms_listing())
            if op == "open":
                session_id = get_str(message, "session")
                trace_ctx = parse_trace_field(message)
                out = await self._forward(
                    self.worker_index(session_id), message
                )
                if trace_ctx is not None and self.tracer.enabled:
                    # The worker records session:<sid> under this context;
                    # the router adds its relay view on close (same span
                    # ids → the stitcher merges the files into one tree).
                    self._session_trace[session_id] = (trace_ctx, _now())
                return self._rewrite(req_id, out)
            if op == "close":
                session_id = get_str(message, "session")
                out = await self._forward(
                    self.worker_index(session_id), message
                )
                self._record_relay_span(session_id)
                return self._rewrite(req_id, out)
            if op == "merge":
                return await self._merge(message)
            if op == "stats":
                return await self._stats(req_id)
            if op == "shutdown":
                for sid in list(self._session_trace):
                    self._record_relay_span(sid)
                for index in range(self.n_workers):
                    try:
                        client = await self._control(index)
                        await client.request("shutdown")
                    except (ServeClientError, ConnectionError, OSError):
                        pass  # a dead worker cannot checkpoint; reap anyway
                response = ok_response(req_id, stopping=True, workers=self.n_workers)
                self.stop()
                return response
            raise ServeError(UNKNOWN_OP, f"unknown op {op!r}")
        except ServeError as exc:
            return error_response(req_id, exc)
        except ServeClientError as exc:
            return error_response(req_id, ServeError(exc.code, exc.message))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - a bad request must not kill the router
            return error_response(
                req_id, ServeError(INTERNAL, f"{type(exc).__name__}: {exc}")
            )

    async def _forward(self, index: int, message: Dict[str, Any]) -> Dict[str, Any]:
        """One control-plane request to a worker, as the router itself."""
        client = await self._control(index)
        params = {
            k: v for k, v in message.items() if k not in ("id", "op") and not k.startswith("_")
        }
        return await client.request(str(message["op"]), **params)

    async def _stats(self, req_id: Any) -> Dict[str, Any]:
        per_worker: List[Dict[str, Any]] = []
        for index in range(self.n_workers):
            client = await self._control(index)
            out = await client.request("stats")
            per_worker.append(
                {
                    "worker": index,
                    "sessions_open": out.get("sessions_open", 0),
                    "sessions_total": out.get("sessions_total", 0),
                    "open_high_water": out.get("open_high_water", 0),
                }
            )
        return ok_response(
            req_id,
            workers=per_worker,
            sessions_open=sum(w["sessions_open"] for w in per_worker),
            sessions_total=sum(w["sessions_total"] for w in per_worker),
            open_high_water=sum(w["open_high_water"] for w in per_worker),
        )

    # -- live plane: /metrics, SLO loop, relay spans ---------------------------

    def _record_relay_span(self, session_id: str) -> None:
        """Record the router's relay view of a traced session on close."""
        entry = self._session_trace.pop(session_id, None)
        if entry is None or not self.tracer.enabled:
            return
        ctx, opened = entry
        worker = self.worker_index(session_id)
        # Anchor under the client's session:<sid> path so the relay span
        # parents onto the very span the worker records — same seed, same
        # structural path, same ids in every process.
        child = Tracer.from_context(
            TraceContext(seed=ctx.seed, path=f"{ctx.path}/session:{session_id}")
        )
        record = child.record_span(
            f"relay:worker-{worker}",
            category="relay",
            start_s=opened,
            end_s=_now(),
            worker=float(worker),
        )
        if record is not None:
            self.tracer.adopt([encode_span(record)])

    async def _fleet_snapshot(self) -> Snapshot:
        """The merged metric view: router registry + per-worker snapshots.

        Worker snapshots arrive through the ``stats`` control op
        (``metrics: 1``) and are labelled with their worker index before
        merging, so per-worker series stay distinguishable while
        fleet-wide pooling (:func:`~repro.obs.slo.pooled_histogram`)
        still works.  A worker that cannot answer drops out of the
        scrape; it must not take the router's whole live plane with it.
        """
        snapshots: List[Snapshot] = []
        if self.telemetry.enabled:
            snapshots.append(self.telemetry.metrics_snapshot())
        for index in range(self.n_workers):
            try:
                client = await self._control(index)
                out = await client.request("stats", metrics=1)
            except (ServeClientError, ConnectionError, OSError):
                continue
            snapshots.append(
                label_snapshot(out.get("metrics") or {}, worker=str(index))
            )
        return merge_snapshots(snapshots)

    async def _render_metrics(self) -> str:
        """Prometheus text exposition of the fleet snapshot.

        Refuses (raises ``ValueError``) if any series name is missing
        from :data:`~repro.obs.names.METRIC_NAMES` — the runtime
        counterpart of lint rule OBS001.
        """
        if self.telemetry.enabled:
            self.telemetry.count(
                "router_scrapes_total", help="/metrics scrapes served by the router"
            )
        merged = await self._fleet_snapshot()
        rogue = unregistered_series(merged)
        if rogue:
            raise ValueError(
                "refusing to expose unregistered metric series: "
                + ", ".join(rogue[:5])
                + ("..." if len(rogue) > 5 else "")
            )
        return render_textfile(merged, METRIC_NAMES)

    async def _handle_scrape(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One ``GET /metrics`` over a minimal HTTP/1.1 exchange."""
        try:
            request_line = await reader.readline()
            while True:  # drain headers; scrapers send no body
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            method = parts[0] if parts else ""
            target = parts[1].split("?", 1)[0] if len(parts) > 1 else ""
            if method != "GET":
                status, ctype = "405 Method Not Allowed", "text/plain"
                body = b"only GET is supported\n"
            elif target not in ("/metrics", "/metrics/"):
                status, ctype = "404 Not Found", "text/plain"
                body = b"try /metrics\n"
            else:
                try:
                    text = await self._render_metrics()
                    status, ctype = "200 OK", SCRAPE_CONTENT_TYPE
                    body = text.encode("utf-8")
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 - a failed scrape must answer, not kill the listener
                    status, ctype = "500 Internal Server Error", "text/plain"
                    body = f"scrape failed: {type(exc).__name__}: {exc}\n".encode("utf-8")
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            await close_writer(writer)

    @staticmethod
    def _counter_total(snapshot: Snapshot, name: str) -> float:
        total = 0.0
        for series_key, blob in snapshot.items():
            if series_key.partition("{")[0] == name:
                total += float(blob.get("value", 0.0))
        return total

    async def _slo_loop(self) -> None:
        """Periodically evaluate the SLO policy over the fleet snapshot."""
        assert self.slo is not None
        while True:
            await asyncio.sleep(self.slo_interval_s)
            try:
                merged = await self._fleet_snapshot()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - one failed control round skips one evaluation
                continue
            self._evaluate_slo(merged)

    def _evaluate_slo(self, snapshot: Snapshot) -> None:
        """One SLO evaluation pass: compute rates/ages, export gauges."""
        assert self.slo is not None
        now = _now()
        pairs = self._counter_total(snapshot, "serve_session_pairs_total")
        if self._slo_window is None:
            # First pass anchors the throughput window; a zero-rate
            # verdict before any window exists would be a false alarm.
            self._slo_window = (now, pairs)
            return
        then, prev = self._slo_window
        rate = max(0.0, (pairs - prev) / (now - then)) if now > then else 0.0
        self._slo_window = (now, pairs)
        anchored = (
            self._last_poll_s
            if self._last_poll_s is not None
            else (self._started_s if self._started_s is not None else now)
        )
        age = max(0.0, now - anchored)
        statuses = evaluate_slo(
            self.slo, snapshot, pairs_per_second=rate, verdict_age_seconds=age
        )
        if not self.telemetry.enabled:
            return
        for status in statuses:
            self.telemetry.set_gauge(
                "router_slo_ok",
                1.0 if status.ok else 0.0,
                help="1 when the labelled SLO objective currently holds, else 0",
                objective=status.objective,
            )
            if status.objective == "poll_p99_seconds":
                self.telemetry.set_gauge(
                    "router_slo_poll_p99_seconds",
                    status.value,
                    help="p99 poll latency estimated from the live histogram",
                )
            elif status.objective == "feed_pairs_per_second":
                self.telemetry.set_gauge(
                    "router_slo_feed_pairs_per_second",
                    status.value,
                    help="ingest throughput over the last SLO evaluation window",
                )
            elif status.objective == "verdict_age_seconds":
                self.telemetry.set_gauge(
                    "router_slo_verdict_age_seconds",
                    status.value,
                    help="seconds since a convergence poll last refreshed a verdict",
                )
            elif status.objective == "loop_lag_p99_seconds":
                self.telemetry.set_gauge(
                    "router_slo_loop_lag_p99_seconds",
                    status.value,
                    help="p99 event-loop lag estimated from the live histogram",
                )

    async def _merge(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Cross-worker merge via snapshot → restore-on-target → local merge.

        Restoring a snapshot preserves the source's lineage origin, so the
        target worker's local merge applies the exact origin/fork-point
        rule a single-process merge would — bit-identical results.
        """
        req_id = request_id(message)
        target = get_str(message, "target")
        sources = message.get("sources")
        if not isinstance(sources, list) or not all(
            isinstance(s, str) for s in sources
        ):
            raise ServeError(BAD_REQUEST, "'sources' must be a list of session ids")
        merge_seed = get_int(message, "merge_seed", 0)
        close_sources = bool(message.get("close_sources", True))
        target_worker = self.worker_index(target)
        local_sources: List[str] = []
        remote_sources: List[Tuple[int, str]] = []
        for sid in sources:
            index = self.worker_index(sid)
            if index == target_worker:
                local_sources.append(sid)
            else:
                remote_sources.append((index, sid))
        target_client = await self._control(target_worker)
        temp_ids: List[str] = []
        consumed = False
        try:
            for index, sid in remote_sources:
                client = await self._control(index)
                snap = await client.request("snapshot", session=sid)
                temp = f"{_MERGE_TEMP_PREFIX}{sid}"
                await target_client.request("open", session=temp, state=snap["state"])
                temp_ids.append(temp)
            out = await target_client.request(
                "merge",
                target=target,
                sources=local_sources + temp_ids,
                merge_seed=merge_seed,
                close_sources=close_sources,
            )
            consumed = close_sources
        finally:
            if not consumed:
                # The parked snapshot copies are router plumbing: they go
                # unless a successful merge already consumed them.
                for temp in temp_ids:
                    try:
                        await target_client.request("close", session=temp)
                    except ServeClientError:
                        pass
        if close_sources:
            for index, sid in remote_sources:
                client = await self._control(index)
                try:
                    await client.request("close", session=sid)
                except ServeClientError:
                    pass
            for sid in sources:
                self._record_relay_span(sid)
        return self._rewrite(req_id, out)

    # -- connection hooks ------------------------------------------------------

    def _connection(self, writer: asyncio.StreamWriter) -> _Connection:
        return _Connection(writer)

    async def _disconnect(self, conn: _Connection) -> None:
        for pump in conn.pumps:
            pump.cancel()
        for _, up_writer in conn.upstreams.values():
            try:
                up_writer.close()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _on_json(
        self, conn: _Connection, message: Dict[str, Any], line: bytes
    ) -> bool:
        op = message.get("op")
        if op in _ROUTER_OPS or "session" not in message:
            response = await self._handle_local(conn, message)
            await conn.send(response)
            return not (op == "shutdown" and response.get("ok"))
        # Hot path: feed/poll/finish_pass/snapshot/stats — relay the
        # original line verbatim to the owning worker.
        try:
            session_id = get_str(message, "session")
        except ServeError as exc:
            await conn.send(error_response(request_id(message), exc))
            return True
        if op == "poll":
            self._last_poll_s = _now()
        await self._relay(conn, session_id, line, op=str(op))
        return True

    async def _on_binary(
        self,
        conn: _Connection,
        req_id: int,
        session_id: str,
        srcs: Any,
        dsts: Any,
        header: bytes,
        body: bytes,
    ) -> None:
        # Relay the original header and body bytes verbatim.
        await self._relay(conn, session_id, header + body, op="feed", wire="binary")
