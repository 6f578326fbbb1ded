"""The asyncio TCP front-end and the transport-free request dispatcher.

Two layers, deliberately separable:

* :func:`handle_request` — takes a decoded request dict and a
  :class:`~repro.serve.manager.SessionManager`, returns a response dict.
  No sockets, no framing: the :class:`~repro.serve.client.InProcessClient`
  and the tests drive it directly, so every op is exercised without a
  running event-loop server.
* :class:`ServeServer` — a :class:`~repro.serve.net.FrontEnd`, the
  connection and lifecycle layer it shares with the router (frame
  reading, framing-error replies, the write lock, the stop event, the
  lag probe).  What is the server's own: each connection's requests
  are handled **one at a time, in arrival order** — handle, reply, then
  yield one event-loop turn so other connections' ready sockets are read
  before this connection's next buffered frame.  A poll on one
  connection therefore waits behind at most about one feed of another
  connection's burst, not behind a whole socket buffer of them.
  Same-session order and a merge that sees every earlier feed on its
  connection hold by construction; the socket buffer is the
  backpressure.

Graceful shutdown (``stop()``, or the ``shutdown`` op) stops accepting
connections, optionally checkpoints every live session via
:meth:`SessionManager.checkpoint_all`, closes the rest, and flushes
telemetry — all inside ``try/finally`` so a cancelled serve task still
leaves parseable telemetry behind.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from repro.obs.trace import TraceContext
from repro.serve.manager import SessionManager
from repro.serve.net import Connection, FrontEnd
from repro.serve.protocol import (
    BAD_REQUEST,
    INTERNAL,
    PROTOCOL_VERSION,
    UNKNOWN_OP,
    VALIDATE_STRICT,
    ServeError,
    decode_pairs,
    decode_state,
    encode_state,
    error_response,
    get_int,
    get_opt_number,
    get_str,
    ok_response,
    request_id,
    require_op,
)
from repro.streaming.registry import iter_specs, serve_capabilities

__all__ = ["handle_request", "ServeServer"]

def parse_trace_field(message: Dict[str, Any]) -> Optional[TraceContext]:
    """Decode the optional ``trace`` field of an ``open`` request.

    ``{"seed": int, "path": str}`` — the client tracer's context at the
    point it opened the session.  Malformed contexts raise
    ``BAD_REQUEST`` rather than silently losing the stitch.
    """
    blob = message.get("trace")
    if blob is None:
        return None
    if (
        not isinstance(blob, dict)
        or not isinstance(blob.get("seed"), int)
        or isinstance(blob.get("seed"), bool)
        or not isinstance(blob.get("path"), str)
        or not blob["path"]
    ):
        raise ServeError(
            BAD_REQUEST, "'trace' must be {'seed': int, 'path': str}"
        )
    return TraceContext(seed=blob["seed"], path=blob["path"])


def _algorithms_listing() -> list:
    """The registry as the ``algorithms`` op reports it (and the CLI)."""
    listing = []
    for spec in iter_specs():
        caps = serve_capabilities(spec)
        listing.append(
            {
                "name": spec.name,
                "cycle_length": spec.cycle_length,
                "passes": spec.n_passes,
                "budget_kind": spec.budget_kind,
                "summary": spec.summary,
                "snapshot": caps.snapshot,
                "anytime": caps.anytime,
                "serve_compatible": caps.serve_compatible,
            }
        )
    return listing


async def handle_request(
    manager: SessionManager, message: Dict[str, Any]
) -> Dict[str, Any]:
    """Dispatch one decoded request; always returns a response dict.

    Protocol failures become ``ok: false`` responses with the error's
    stable code; unexpected exceptions become ``INTERNAL`` (the server
    must never die because one session misbehaved).
    """
    req_id = request_id(message)
    try:
        op = require_op(message)
        if op == "hello":
            return ok_response(
                req_id,
                protocol=PROTOCOL_VERSION,
                server="repro-cycles",
                sessions_open=manager.open_count,
                # Capability flag: opens on this server may carry a
                # trace context; binary frames inherit the session's.
                trace=1,
            )
        if op == "algorithms":
            return ok_response(req_id, algorithms=_algorithms_listing())
        if op == "open":
            session_id = get_str(message, "session")
            trace_ctx = parse_trace_field(message)
            state_blob = message.get("state")
            if state_blob is not None:
                session = await manager.restore(session_id, decode_state(state_blob))
            else:
                session = await manager.open(
                    session_id,
                    get_str(message, "algorithm"),
                    get_int(message, "budget"),
                    message.get("seed"),
                    validate_mode=get_str(message, "validate", VALIDATE_STRICT),
                    byte_budget=message.get("byte_budget"),
                    space_budget_words=message.get("space_budget"),
                )
            if trace_ctx is not None:
                manager.set_trace_context(session.session_id, trace_ctx)
            return ok_response(
                req_id,
                session=session.session_id,
                algorithm=session.spec.name,
                passes=session.algorithm.n_passes,
                start_pass=session.pass_index,
            )
        if op == "feed":
            session_id = get_str(message, "session")
            nbytes = message.get("_nbytes", 0)
            arrays = message.get("_arrays")
            if arrays is not None:
                out = await manager.feed_arrays(
                    session_id, arrays[0], arrays[1], nbytes=int(nbytes)
                )
            else:
                pairs = decode_pairs(message.get("pairs"))
                out = await manager.feed(session_id, pairs, nbytes=int(nbytes))
            return ok_response(req_id, **out)
        if op == "finish_pass":
            out = await manager.finish_pass(get_str(message, "session"))
            return ok_response(req_id, **out)
        if op == "poll":
            theorem = message.get("theorem")
            if theorem is not None and not isinstance(theorem, str):
                raise ServeError(BAD_REQUEST, "'theorem' must be a string")
            epsilon = get_opt_number(message, "epsilon")
            out = await manager.poll(
                get_str(message, "session"),
                truth=get_opt_number(message, "truth"),
                m=get_opt_number(message, "m"),
                epsilon=float(epsilon) if epsilon is not None else 0.5,
                theorem=theorem,
            )
            return ok_response(req_id, **out)
        if op == "snapshot":
            state = await manager.snapshot(get_str(message, "session"))
            return ok_response(req_id, state=encode_state(state))
        if op == "merge":
            sources = message.get("sources")
            if not isinstance(sources, list) or not all(
                isinstance(s, str) for s in sources
            ):
                raise ServeError(
                    BAD_REQUEST, "'sources' must be a list of session ids"
                )
            merged = await manager.merge(
                get_str(message, "target"),
                sources,
                merge_seed=get_int(message, "merge_seed", 0),
                close_sources=bool(message.get("close_sources", True)),
            )
            return ok_response(
                req_id,
                session=merged.session_id,
                sources=len(sources),
                pass_index=merged.pass_index,
            )
        if op == "stats":
            session_id = message.get("session")
            if session_id is None:
                extra: Dict[str, Any] = {}
                if message.get("metrics"):
                    # Ship the full metric snapshot (the router's scrape
                    # aggregation path); JSON-safe by construction.
                    extra["metrics"] = manager.telemetry.metrics_snapshot()
                return ok_response(
                    req_id,
                    sessions_open=manager.open_count,
                    sessions_total=manager.sessions_total,
                    open_high_water=manager.open_high_water,
                    **extra,
                )
            out = await manager.stats(get_str(message, "session"))
            return ok_response(req_id, **out)
        if op == "close":
            out = await manager.close(get_str(message, "session"))
            return ok_response(req_id, **out)
        raise ServeError(UNKNOWN_OP, f"unknown op {op!r}")
    except ServeError as exc:
        if manager.telemetry.enabled:
            manager.telemetry.count(
                "serve_errors_total",
                help="requests rejected with a protocol error",
                code=exc.code,
            )
        return error_response(req_id, exc)
    except asyncio.CancelledError:
        raise
    except Exception as exc:  # noqa: BLE001 - one bad request must not kill the server
        if manager.telemetry.enabled:
            manager.telemetry.count(
                "serve_errors_total",
                help="requests rejected with a protocol error",
                code=INTERNAL,
            )
        return error_response(
            req_id, ServeError(INTERNAL, f"{type(exc).__name__}: {exc}")
        )


class ServeServer(FrontEnd):
    """The TCP service: the shared :class:`~repro.serve.net.FrontEnd`
    connection loop over :func:`handle_request`.

    ``shutdown_checkpoint_dir`` makes shutdown durable: every live
    snapshot-capable session is frozen there before closing (a restarted
    server resumes them with ``SessionManager.load_checkpoints``).
    """

    def __init__(
        self,
        manager: SessionManager,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        shutdown_checkpoint_dir: Optional[str] = None,
    ):
        super().__init__(host, port, manager.telemetry)
        self.manager = manager
        self.shutdown_checkpoint_dir = shutdown_checkpoint_dir

    def _count_request(self) -> None:
        if self.telemetry.enabled:
            self.telemetry.count(
                "serve_requests_total",
                help="protocol requests handled by the server",
            )

    async def _reply(self, conn: Connection, response: Dict[str, Any]) -> None:
        await conn.send(response)
        # One loop turn before this connection's next buffered frame, so
        # other connections' ready sockets are read between its requests.
        await asyncio.sleep(0)

    async def _on_binary(
        self,
        conn: Connection,
        req_id: int,
        session_id: str,
        srcs: Any,
        dsts: Any,
        header: bytes,
        body: bytes,
    ) -> None:
        self._count_request()
        message = {
            "id": req_id,
            "op": "feed",
            "session": session_id,
            "_arrays": (srcs, dsts),
            "_nbytes": len(header) + len(body),
        }
        await self._reply(conn, await handle_request(self.manager, message))

    async def _on_json(
        self, conn: Connection, message: Dict[str, Any], line: bytes
    ) -> bool:
        self._count_request()
        op = message.get("op")
        if op == "shutdown":
            await conn.send(ok_response(request_id(message), stopping=True))
            self.stop()
            return False
        message["_nbytes"] = len(line)
        response = await handle_request(self.manager, message)
        if op == "hello" and response.get("ok"):
            response["binary"] = 1 if conn.binary else 0
        await self._reply(conn, response)
        return True

    async def _wind_down(self) -> None:
        # Checkpoint live sessions, close the rest, flush telemetry — so
        # a cancelled serve task still leaves a parseable telemetry trail
        # and durable session state.
        try:
            await asyncio.shield(self.manager.shutdown(self.shutdown_checkpoint_dir))
        finally:
            self.telemetry.flush()
