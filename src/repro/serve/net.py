"""The connection and lifecycle layer both serve front-ends share.

:class:`FrontEnd` sits under :class:`~repro.serve.server.ServeServer`
and :class:`~repro.serve.router.ServeRouter` and holds every decision
the two make alike, once:

* **frame reading** — first-byte dispatch (``BINARY_MAGIC`` opens a
  binary pair-batch frame, anything else is a JSON line), blank lines
  skipped, ``MAX_FRAME_BYTES`` as the read limit, binary bodies decoded
  into zero-copy ``np.frombuffer`` views;
* **framing-error replies** — one reply and one connection outcome per
  case (the table in ``docs/SERVING.md``);
* **connection state** — :class:`Connection`: the negotiated ``binary``
  flag and the write lock every response goes out under; peer resets
  and writer teardown are handled here;
* **lifecycle** — the stop event, ``bound_port``, the event-loop lag
  probe and the ``serve_until_stopped`` skeleton.

A front-end keeps only its own behaviour: what a well-framed request
does (``_on_json``, ``_on_binary``), per-connection cleanup
(``_disconnect``) and the wind-down after its listeners close
(``_wind_down``).  :func:`install_stop_handlers` routes SIGINT/SIGTERM
to ``stop`` in the CLI and in router workers.

:func:`wait_for_port` is synchronous: it runs before an event loop
exists (router worker spawn), in shell one-liners
(``python -c "from repro.serve.net import wait_for_port; ..."``) and in
benchmark harnesses, retrying a real TCP connect until a freshly
spawned listener answers.  Async callers dispatch through
``asyncio.to_thread`` (ASY001).
"""

from __future__ import annotations

import asyncio
import signal
import socket
import time
from typing import Any, Awaitable, Callable, Coroutine, Dict, List, Optional

import numpy as np

from repro.obs.telemetry import Telemetry
from repro.serve.protocol import (
    BAD_FRAME,
    BAD_REQUEST,
    BINARY_HEADER_BYTES,
    BINARY_MAGIC,
    BINARY_NOT_NEGOTIATED,
    FRAME_TOO_LARGE,
    MAX_FRAME_BYTES,
    ServeError,
    decode_binary_body,
    decode_binary_header,
    decode_frame,
    encode_frame,
    error_response,
)

__all__ = [
    "wait_for_port",
    "install_stop_handlers",
    "close_writer",
    "Connection",
    "FrontEnd",
    "LAG_PROBE_INTERVAL_S",
]

#: Cadence of the event-loop lag probe (sleep-overshoot sampling).
LAG_PROBE_INTERVAL_S = 0.25

_LOOP_LAG_HELP = "event-loop scheduling lag histogram (sleep overshoot)"

_PEER_GONE = (ConnectionResetError, BrokenPipeError)

#: The codes ``decode_binary_header`` refuses a header with.  The refusal
#: comes before a request id is known, and the declared lengths cannot be
#: trusted, so the byte stream can no longer be re-framed: the reply
#: carries no id and the connection closes.  A refused *body* (also
#: ``BAD_FRAME``) is answered with its request id and the connection kept.
_UNFRAMEABLE = (BAD_FRAME, FRAME_TOO_LARGE)


def wait_for_port(
    host: str, port: int, timeout: float = 10.0, interval: float = 0.05
) -> bool:
    """Poll until a TCP connect to ``host:port`` succeeds.

    Returns ``True`` as soon as a connection is accepted, ``False`` once
    ``timeout`` seconds elapse without one.  Each attempt is its own
    short-lived socket, so a listener that comes up mid-poll is seen on
    the next attempt at the latest.
    """
    deadline = time.monotonic() + timeout  # repro-lint: disable=DET003 -- readiness polling is inherently wall-clock; nothing estimator-visible depends on it
    while True:
        try:
            with socket.create_connection((host, port), timeout=max(interval, 0.25)):
                return True
        except OSError:
            if time.monotonic() >= deadline:  # repro-lint: disable=DET003 -- same readiness deadline as above
                return False
            time.sleep(interval)


def install_stop_handlers(stop: Callable[[], None]) -> None:
    """Route SIGINT/SIGTERM to ``stop`` on the running loop, explicitly.

    The default KeyboardInterrupt path is not enough: a process launched
    with ``&`` from a non-interactive shell (CI smoke runs), and router
    workers forked from it, inherit SIGINT as *ignored*, so ``kill -INT``
    would be silently dropped and the graceful checkpoint path never
    run.  An explicit loop handler overrides the inherited disposition.
    """
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(signal.SIGINT, stop)
        loop.add_signal_handler(signal.SIGTERM, stop)
    except NotImplementedError:  # pragma: no cover - non-POSIX event loop
        pass


async def close_writer(writer: asyncio.StreamWriter) -> None:
    """Close a stream writer, tolerating a peer that is already gone."""
    try:
        writer.close()
        await writer.wait_closed()
    except (*_PEER_GONE, OSError, asyncio.CancelledError):
        pass


class Connection:
    """One client connection: the negotiated ``binary`` flag and a locked writer.

    Every response goes out under ``write_lock``, so concurrent tasks
    answering on one socket never interleave partial lines.  Front-ends
    subclass it for their own per-connection state.
    """

    __slots__ = ("writer", "write_lock", "binary")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.binary = False

    async def write(self, data: bytes) -> None:
        """Write already-framed bytes (a whole response line)."""
        async with self.write_lock:
            self.writer.write(data)
            await self.writer.drain()

    def send(self, response: Dict[str, Any]) -> Awaitable[None]:
        """Write one response dict as a JSON line (await the result)."""
        return self.write(encode_frame(response))


class FrontEnd:
    """Connection loop and lifecycle shared by the server and the router.

    Subclasses implement ``_on_json`` and ``_on_binary`` and may override
    ``_connection``, ``_disconnect``, ``_background`` and ``_wind_down``.
    """

    def __init__(self, host: str, port: int, telemetry: Telemetry):
        self.host = host
        self.port = port
        self.telemetry = telemetry
        self._listeners: List[asyncio.AbstractServer] = []
        self._stopping = asyncio.Event()

    # -- lifecycle -------------------------------------------------------------

    @property
    def bound_port(self) -> int:
        """The concrete port after binding (``port=0`` picks a free one)."""
        if not self._listeners or not self._listeners[0].sockets:
            raise RuntimeError(f"{type(self).__name__} is not started")
        return self._listeners[0].sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the protocol listener."""
        await self._listen(self._handle_connection, self.port, limit=MAX_FRAME_BYTES)

    async def _listen(
        self, handler: Any, port: Optional[int], **kwargs: Any
    ) -> asyncio.AbstractServer:
        """Start a listener that ``serve_until_stopped`` closes on the way out."""
        listener = await asyncio.start_server(handler, self.host, port, **kwargs)
        self._listeners.append(listener)
        return listener

    def stop(self) -> None:
        """Request shutdown (idempotent; safe from any task, before ``start`` too)."""
        self._stopping.set()

    async def serve_until_stopped(self) -> None:
        """Run until ``stop()``, then wind down.

        The ``finally`` block is the graceful-shutdown path *and* the
        cancellation path, so killing the serve task mid-run still runs
        the front-end's wind-down.
        """
        if not self._listeners:
            await self.start()
        tasks = [asyncio.ensure_future(coro) for coro in self._background()]
        try:
            await self._stopping.wait()
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            for listener in self._listeners:
                listener.close()
                await listener.wait_closed()
            await self._wind_down()

    def _background(self) -> List[Coroutine[Any, Any, None]]:
        """Coroutines that run while serving, cancelled on the way out."""
        return [self._lag_probe()] if self.telemetry.enabled else []

    async def _wind_down(self) -> None:
        """Front-end cleanup after the listeners close."""

    async def _lag_probe(self) -> None:
        """Sample event-loop scheduling lag as sleep overshoot, forever."""
        while True:
            start = time.perf_counter()  # repro-lint: disable=DET003 -- loop-lag telemetry is wall time by design; no estimator state depends on it
            await asyncio.sleep(LAG_PROBE_INTERVAL_S)
            lag = time.perf_counter() - start - LAG_PROBE_INTERVAL_S  # repro-lint: disable=DET003 -- loop-lag telemetry is wall time by design; no estimator state depends on it
            self.telemetry.observe_histogram(
                "serve_loop_lag_seconds", max(0.0, lag), help=_LOOP_LAG_HELP
            )

    # -- connection loop -------------------------------------------------------

    def _connection(self, writer: asyncio.StreamWriter) -> Connection:
        """Per-connection state for a new client."""
        return Connection(writer)

    async def _disconnect(self, conn: Connection) -> None:
        """Front-end cleanup before the client's writer closes."""

    async def _on_json(
        self, conn: Connection, message: Dict[str, Any], line: bytes
    ) -> bool:
        """Handle one decoded JSON request; ``False`` hangs up afterwards."""
        raise NotImplementedError

    async def _on_binary(
        self,
        conn: Connection,
        req_id: int,
        session_id: str,
        srcs: "np.ndarray[Any, np.dtype[np.uint64]]",
        dsts: "np.ndarray[Any, np.dtype[np.uint64]]",
        header: bytes,
        body: bytes,
    ) -> None:
        """Handle one decoded binary feed frame on a negotiated connection."""
        raise NotImplementedError

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = self._connection(writer)
        try:
            while True:
                try:
                    first = await reader.readexactly(1)
                except asyncio.IncompleteReadError:
                    break
                if first[0] == BINARY_MAGIC:
                    req_id = None
                    try:
                        header = first + await reader.readexactly(
                            BINARY_HEADER_BYTES - 1
                        )
                        session_len, n_pairs, req_id = decode_binary_header(header)
                        body = await reader.readexactly(session_len + 16 * n_pairs)
                        if not conn.binary:
                            raise ServeError(
                                BINARY_NOT_NEGOTIATED,
                                "binary frames require a hello with "
                                "'binary': 1 on this connection first",
                            )
                        session_id, srcs, dsts = decode_binary_body(
                            body, session_len, n_pairs
                        )
                    except asyncio.IncompleteReadError:
                        break  # peer died mid-frame
                    except ServeError as exc:
                        await conn.send(error_response(req_id, exc))
                        if exc.code in _UNFRAMEABLE and req_id is None:
                            break
                        continue
                    await self._on_binary(
                        conn, req_id, session_id, srcs, dsts, header, body
                    )
                    continue
                if first == b"\n":
                    continue
                try:
                    line = first + await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await conn.send(
                        error_response(
                            None,
                            ServeError(
                                BAD_REQUEST, f"frame exceeds {MAX_FRAME_BYTES} bytes"
                            ),
                        )
                    )
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    message = decode_frame(stripped)
                except ServeError as exc:
                    await conn.send(error_response(None, exc))
                    continue
                if message.get("op") == "hello" and message.get("binary"):
                    conn.binary = True
                if not await self._on_json(conn, message, line):
                    break
        except _PEER_GONE:
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels handlers parked in a read; exiting
            # quietly here keeps worker/server shutdown logs clean.
            pass
        finally:
            await self._disconnect(conn)
            await close_writer(writer)
