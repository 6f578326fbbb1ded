"""Clients for the serve protocol: TCP (multiplexed) and in-process.

:class:`ServeClient` speaks the newline-JSON protocol over one TCP
connection and **multiplexes**: every request carries a fresh
correlation id, a single reader task resolves responses to their waiting
futures, so any number of sessions can be driven concurrently over one
socket (the load generator runs hundreds of sessions per connection —
no ulimit games).

:class:`InProcessClient` exposes the identical surface but calls
:func:`repro.serve.server.handle_request` directly against a
:class:`~repro.serve.manager.SessionManager` — no sockets, no server
task.  Tests and embedded users get the full protocol semantics
(including error codes) with zero transport noise; anything that works
in-process works over TCP because both paths share the dispatcher.

Failures surface as :class:`ServeClientError` carrying the server's
stable error code.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serve.manager import SessionManager
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    decode_binary_feed,
    decode_frame,
    encode_binary_feed,
    encode_frame,
    encode_pairs,
    ServeError,
)
from repro.serve.server import handle_request

__all__ = ["ServeClientError", "ServeClient", "InProcessClient"]


class ServeClientError(Exception):
    """An ``ok: false`` response, surfaced with its stable error code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def _unwrap(response: Dict[str, Any]) -> Dict[str, Any]:
    if response.get("ok"):
        return response
    error = response.get("error") or {}
    raise ServeClientError(
        str(error.get("code", "INTERNAL")), str(error.get("message", "unknown error"))
    )


class _ClientOps:
    """The op helpers both clients share; subclasses provide ``request``."""

    async def request(self, op: str, **params: Any) -> Dict[str, Any]:
        raise NotImplementedError

    async def hello(self) -> Dict[str, Any]:
        return await self.request("hello")

    async def algorithms(self) -> List[Dict[str, Any]]:
        return (await self.request("algorithms"))["algorithms"]

    async def open(
        self,
        session: str,
        algorithm: str = "",
        budget: int = 0,
        seed: Any = None,
        *,
        validate: Optional[str] = None,
        byte_budget: Optional[int] = None,
        space_budget: Optional[int] = None,
        state: Optional[Dict[str, Any]] = None,
        trace: Optional[Any] = None,
    ) -> Dict[str, Any]:
        params: Dict[str, Any] = {"session": session}
        if state is not None:
            params["state"] = state
        else:
            params.update(algorithm=algorithm, budget=budget)
            if seed is not None:
                params["seed"] = seed
        if validate is not None:
            params["validate"] = validate
        if byte_budget is not None:
            params["byte_budget"] = byte_budget
        if space_budget is not None:
            params["space_budget"] = space_budget
        if trace is not None:
            # A TraceContext (or an equivalent dict): the server records
            # this session's span under our (seed, path) so per-process
            # traces stitch by span id.
            if isinstance(trace, dict):
                params["trace"] = {"seed": int(trace["seed"]), "path": str(trace["path"])}
            else:
                params["trace"] = {"seed": int(trace.seed), "path": str(trace.path)}
        return await self.request("open", **params)

    async def feed(
        self, session: str, pairs: Sequence[Tuple[Any, Any]]
    ) -> Dict[str, Any]:
        return await self.request("feed", session=session, pairs=encode_pairs(pairs))

    async def finish_pass(self, session: str) -> Dict[str, Any]:
        return await self.request("finish_pass", session=session)

    async def poll(
        self,
        session: str,
        *,
        truth: Optional[float] = None,
        m: Optional[int] = None,
        epsilon: Optional[float] = None,
        theorem: Optional[str] = None,
    ) -> Dict[str, Any]:
        params: Dict[str, Any] = {"session": session}
        if truth is not None:
            params["truth"] = truth
        if m is not None:
            params["m"] = m
        if epsilon is not None:
            params["epsilon"] = epsilon
        if theorem is not None:
            params["theorem"] = theorem
        return await self.request("poll", **params)

    async def snapshot(self, session: str) -> Dict[str, Any]:
        return (await self.request("snapshot", session=session))["state"]

    async def merge(
        self,
        target: str,
        sources: Sequence[str],
        *,
        merge_seed: int = 0,
        close_sources: bool = True,
    ) -> Dict[str, Any]:
        return await self.request(
            "merge",
            target=target,
            sources=list(sources),
            merge_seed=merge_seed,
            close_sources=close_sources,
        )

    async def stats(
        self, session: Optional[str] = None, *, metrics: bool = False
    ) -> Dict[str, Any]:
        if session is None:
            if metrics:
                return await self.request("stats", metrics=1)
            return await self.request("stats")
        return await self.request("stats", session=session)

    async def close_session(self, session: str) -> Dict[str, Any]:
        return await self.request("close", session=session)


class ServeClient(_ClientOps):
    """A multiplexing TCP client for one serve server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._write_lock = asyncio.Lock()
        self._closed = False
        self._binary = False

    async def connect(self) -> "ServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_FRAME_BYTES
        )
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return self

    async def _read_loop(self) -> None:
        assert self._reader is not None
        error: Optional[BaseException] = None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    response = decode_frame(line.strip())
                except ServeError:
                    continue  # a torn/garbage line cannot be correlated
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError) as exc:
            error = exc
        finally:
            failure = error or ConnectionError("server closed the connection")
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(failure)
            self._pending.clear()

    async def request(self, op: str, **params: Any) -> Dict[str, Any]:
        if self._writer is None or self._closed:
            raise RuntimeError("client is not connected")
        req_id = next(self._ids)
        message = {"id": req_id, "op": op}
        message.update(params)
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        self._pending[req_id] = future
        async with self._write_lock:
            self._writer.write(encode_frame(message))
            await self._writer.drain()
        return _unwrap(await future)

    async def negotiate_binary(self) -> bool:
        """Offer binary pair-batch framing; ``True`` if the server accepts.

        Responses stay newline-JSON either way, so the multiplexing
        reader loop is untouched — only feed *requests* change shape.
        """
        out = await self.request("hello", binary=1)
        self._binary = bool(out.get("binary"))
        return self._binary

    async def feed_binary(self, session: str, srcs: Any, dsts: Any) -> Dict[str, Any]:
        """Feed one columnar uint64 pair batch as a binary frame."""
        if self._writer is None or self._closed:
            raise RuntimeError("client is not connected")
        if not self._binary:
            raise RuntimeError(
                "binary framing not negotiated; call negotiate_binary() first"
            )
        req_id = next(self._ids)
        frame = encode_binary_feed(req_id, session, srcs, dsts)
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        self._pending[req_id] = future
        async with self._write_lock:
            self._writer.write(frame)
            await self._writer.drain()
        return _unwrap(await future)

    async def shutdown_server(self) -> None:
        """Ask the server to stop (fire-and-confirm)."""
        await self.request("shutdown")

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def __aenter__(self) -> "ServeClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()


class InProcessClient(_ClientOps):
    """The same client surface, dispatching straight into a manager."""

    def __init__(self, manager: Optional[SessionManager] = None):
        self.manager = manager if manager is not None else SessionManager()
        self._ids = itertools.count(1)

    async def request(self, op: str, **params: Any) -> Dict[str, Any]:
        message: Dict[str, Any] = {"id": next(self._ids), "op": op}
        message.update(params)
        if op == "feed":
            # Mirror the server's payload accounting without a transport.
            message["_nbytes"] = len(encode_frame(message))
        return _unwrap(await handle_request(self.manager, message))

    async def feed_binary(self, session: str, srcs: Any, dsts: Any) -> Dict[str, Any]:
        """Binary feed surface parity: round-trip the codec in-process."""
        frame = encode_binary_feed(0, session, srcs, dsts)
        _, sid, dec_srcs, dec_dsts = decode_binary_feed(frame)
        message: Dict[str, Any] = {
            "id": next(self._ids),
            "op": "feed",
            "session": sid,
            "_arrays": (dec_srcs, dec_dsts),
            "_nbytes": len(frame),
        }
        return _unwrap(await handle_request(self.manager, message))

    async def aclose(self) -> None:
        return None

    async def __aenter__(self) -> "InProcessClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        return None
