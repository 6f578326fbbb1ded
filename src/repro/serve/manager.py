"""The session table: budgets, backpressure, merge, checkpointing.

:class:`SessionManager` is the asyncio layer over the synchronous
:class:`~repro.serve.session.ServeSession` cores.  It owns

* the **session table** — id → session;
* **admission control** — a hard cap on open sessions
  (``SESSION_LIMIT``) and a refusal once shutdown begins;
* **cross-session merge** — sibling sessions (same spec, budget, origin
  and pass position) fold into one via the bit-exact shard-merge layer,
  exactly the pass-boundary merge ``run_sharded`` performs;
* **graceful-shutdown checkpointing** — :meth:`checkpoint_all` freezes
  every snapshot-capable live session to a directory (atomic writes, a
  manifest for ids), and :meth:`load_checkpoints` resurrects them.

The one concurrency invariant: **no op awaits between reading a session
and finishing with it**.  Feed, poll, snapshot, stats, close and merge
run start to finish without yielding, so no other request can observe
or change a session halfway through one, and no per-session lock is
needed.  :meth:`checkpoint_all` captures every session as bytes in one
synchronous sweep before its first await; its off-loop file I/O touches
only those bytes, so sessions opened, fed, merged or closed while the
files are written cannot disturb it.

All telemetry in the serve vocabulary (``serve_*`` metrics, the
``Session*`` events) is emitted here, never in the session cores, so the
cores stay trivially testable.  Trace spans for sessions are recorded
post-hoc with :meth:`~repro.obs.trace.Tracer.record_span` — concurrent
sessions interleave arbitrarily, which the stack-based span context
manager cannot represent.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.events import (
    ServeCheckpointed,
    SessionClosed,
    SessionOpened,
    SessionsMerged,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.trace import NULL_TRACER, TraceContext, Tracer, encode_span
from repro.serve.protocol import (
    BAD_STATE,
    MERGE_INCOMPATIBLE,
    NO_SUCH_SESSION,
    SERVER_SHUTDOWN,
    SESSION_EXISTS,
    SESSION_LIMIT,
    UNSUPPORTED,
    VALIDATE_STRICT,
    ServeError,
)
from repro.serve.session import ServeSession
from repro.sketch.merge import MergeError, merge_states, require_exact_merge
from repro.sketch.state import SketchState, SketchStateError, write_atomic
from repro.streaming.algorithm import supports_snapshot

__all__ = ["SessionManager"]

#: Manifest filename written next to per-session snapshot files.
MANIFEST_NAME = "serve-checkpoint.json"

_SESSIONS_OPEN_HELP = "serve sessions currently open (high water = peak concurrency)"
_OP_LATENCY_HELP = "per-operation serve latency histogram (op=feed|poll|merge|snapshot, wire=json|binary)"


def _now() -> float:
    return time.perf_counter()  # repro-lint: disable=DET003 -- serve latency metrics and span timestamps are wall time by design; no estimator state depends on them


# Synchronous checkpoint-file helpers, always dispatched off the event
# loop via asyncio.to_thread by the coroutines below them (ASY001).


def _write_checkpoint_sync(
    directory: Path, files: Dict[str, bytes], manifest: Dict[str, Any]
) -> None:
    """Write each captured session file, then the manifest, atomically."""
    directory.mkdir(parents=True, exist_ok=True)
    for filename, data in files.items():
        write_atomic(directory / filename, data)
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    write_atomic(directory / MANIFEST_NAME, text.encode("utf-8"))


def _read_manifest_sync(manifest_path: Path) -> Optional[str]:
    if not manifest_path.exists():
        return None
    return manifest_path.read_text()


class SessionManager:
    """Open/feed/poll/snapshot/merge/close sessions from many connections.

    Every public coroutine raises :class:`ServeError` with a stable code
    on failure; the transport layer maps those to error responses without
    interpreting them.
    """

    def __init__(
        self,
        *,
        max_sessions: int = 10_000,
        default_byte_budget: Optional[int] = None,
        default_space_budget_words: Optional[int] = None,
        telemetry: Telemetry = NULL_TELEMETRY,
        tracer: Tracer = NULL_TRACER,
    ):
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        self.max_sessions = max_sessions
        self.default_byte_budget = default_byte_budget
        self.default_space_budget_words = default_space_budget_words
        self.telemetry = telemetry
        self.tracer = tracer
        self._sessions: Dict[str, ServeSession] = {}
        self._opened_at: Dict[str, float] = {}
        #: Hello/open-negotiated trace contexts: the session span records
        #: under the *client's* (seed, path), so the same logical span
        #: gets the same id in every process and stitching can dedupe.
        self._trace_ctx: Dict[str, TraceContext] = {}
        self._closing = False
        self.sessions_total = 0
        self.open_high_water = 0

    # -- bookkeeping ----------------------------------------------------------

    @property
    def open_count(self) -> int:
        return len(self._sessions)

    def session_ids(self) -> List[str]:
        return sorted(self._sessions)

    def _get(self, session_id: str) -> ServeSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise ServeError(
                NO_SUCH_SESSION, f"no open session {session_id!r}"
            )
        return session

    def _admit(self, session_id: str) -> None:
        if self._closing:
            raise ServeError(SERVER_SHUTDOWN, "server is shutting down")
        if session_id in self._sessions:
            raise ServeError(
                SESSION_EXISTS, f"session {session_id!r} is already open"
            )
        if len(self._sessions) >= self.max_sessions:
            raise ServeError(
                SESSION_LIMIT,
                f"session table full ({self.max_sessions} open); close or "
                "merge sessions first",
            )

    def _install(self, session: ServeSession, *, resumed: bool) -> None:
        self._sessions[session.session_id] = session
        self._opened_at[session.session_id] = _now()
        self.sessions_total += 1
        self.open_high_water = max(self.open_high_water, len(self._sessions))
        if self.telemetry.enabled:
            self.telemetry.emit(
                SessionOpened(
                    session_id=session.session_id,
                    algorithm=session.spec.name,
                    budget=session.budget,
                    start_pass=session.pass_index,
                    resumed=resumed,
                )
            )
            self.telemetry.count(
                "serve_sessions_total", help="serve sessions ever opened"
            )
            self._gauge_open_sessions()

    def _gauge_open_sessions(self) -> None:
        self.telemetry.set_gauge(
            "serve_sessions_open", len(self._sessions), help=_SESSIONS_OPEN_HELP
        )

    def set_trace_context(self, session_id: str, ctx: TraceContext) -> None:
        """Adopt a client-negotiated trace context for one session."""
        if session_id in self._sessions:
            self._trace_ctx[session_id] = ctx

    def _record_session_span(self, session: ServeSession, opened: float) -> None:
        sid = session.session_id
        ctx = self._trace_ctx.pop(sid, None)
        if not self.tracer.enabled:
            return
        attrs = dict(
            pairs=session.pairs_total,
            chunks=session.chunks,
            polls=session.polls,
            passes_completed=session.passes_completed,
        )
        # Under a negotiated (seed, path) the client's and every relay's
        # view of this session share one span id.
        tracer = Tracer.from_context(ctx) if ctx is not None else self.tracer
        record = tracer.record_span(
            f"session:{sid}",
            category="session",
            start_s=opened,
            end_s=_now(),
            **attrs,
        )
        if ctx is not None:
            self.tracer.adopt([encode_span(record)])

    def _uninstall(self, session: ServeSession, reason: str) -> None:
        sid = session.session_id
        opened = self._opened_at.pop(sid, 0.0)
        del self._sessions[sid]
        if self.telemetry.enabled:
            self.telemetry.emit(
                SessionClosed(
                    session_id=sid,
                    pairs=session.pairs_total,
                    chunks=session.chunks,
                    polls=session.polls,
                    passes_completed=session.passes_completed,
                    estimate=session.estimate_now(),
                    reason=reason,
                )
            )
            self._gauge_open_sessions()
        self._record_session_span(session, opened)

    # -- lifecycle ops ---------------------------------------------------------

    async def open(
        self,
        session_id: str,
        algorithm: str,
        budget: int,
        seed: Any = None,
        *,
        validate_mode: str = VALIDATE_STRICT,
        byte_budget: Optional[int] = None,
        space_budget_words: Optional[int] = None,
    ) -> ServeSession:
        """Open a fresh session on a registry algorithm."""
        self._admit(session_id)
        session = ServeSession.open(
            session_id,
            algorithm,
            budget,
            seed,
            validate_mode=validate_mode,
            byte_budget=(
                byte_budget if byte_budget is not None else self.default_byte_budget
            ),
            space_budget_words=(
                space_budget_words
                if space_budget_words is not None
                else self.default_space_budget_words
            ),
        )
        self._install(session, resumed=False)
        return session

    async def restore(self, session_id: str, state: SketchState) -> ServeSession:
        """Open a session resumed from a ``serve-session`` snapshot."""
        self._admit(session_id)
        session = ServeSession.restore_snapshot(session_id, state)
        self._install(session, resumed=True)
        return session

    def _observe_op(self, op: str, seconds: float, wire: str = "json") -> None:
        self.telemetry.observe_histogram(
            "serve_op_latency_seconds", seconds, help=_OP_LATENCY_HELP, op=op, wire=wire
        )

    async def feed(
        self, session_id: str, pairs: Sequence, *, nbytes: int = 0
    ) -> Dict[str, Any]:
        """Ingest a JSON chunk."""
        return await self._ingest(
            session_id, nbytes, "json", lambda session: session.feed(pairs)
        )

    async def feed_arrays(
        self, session_id: str, srcs: Any, dsts: Any, *, nbytes: int = 0
    ) -> Dict[str, Any]:
        """Ingest a binary columnar chunk."""
        return await self._ingest(
            session_id, nbytes, "binary", lambda session: session.feed_arrays(srcs, dsts)
        )

    async def _ingest(
        self, session_id: str, nbytes: int, wire: str,
        ingest: Callable[[ServeSession], Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Byte accounting and feed telemetry around one chunk."""
        session = self._get(session_id)
        start = _now()
        session.account_bytes(nbytes)
        out = ingest(session)
        if self.telemetry.enabled:
            self._observe_op("feed", _now() - start, wire)
            self.telemetry.count(
                "serve_session_pairs_total",
                out["pairs"],
                help="adjacency pairs ingested across all serve sessions",
            )
            self.telemetry.count(
                "serve_session_chunks_total",
                help="feed chunks ingested across all serve sessions",
            )
            if nbytes:
                self.telemetry.count(
                    "serve_bytes_total",
                    nbytes,
                    help="approximate request payload bytes accepted",
                )
        return out

    async def finish_pass(self, session_id: str) -> Dict[str, Any]:
        return self._get(session_id).finish_pass()

    async def poll(self, session_id: str, **kwargs: Any) -> Dict[str, Any]:
        session = self._get(session_id)
        start = _now()
        out = session.poll(**kwargs)
        if self.telemetry.enabled:
            self._observe_op("poll", _now() - start)
            self.telemetry.count(
                "serve_polls_total", help="anytime-estimate polls answered"
            )
        return out

    async def snapshot(self, session_id: str) -> SketchState:
        start = _now()
        state = self._get(session_id).snapshot_state()
        if self.telemetry.enabled:
            self._observe_op("snapshot", _now() - start)
            self._count_snapshot()
        return state

    def _count_snapshot(self) -> None:
        self.telemetry.count(
            "serve_snapshots_total",
            help="session snapshots taken (client-requested or shutdown)",
        )

    async def stats(self, session_id: str) -> Dict[str, Any]:
        return self._get(session_id).stats()

    async def close(self, session_id: str, reason: str = "client") -> Dict[str, Any]:
        """Close one session, returning its closing stats."""
        session = self._get(session_id)
        out = session.stats()
        self._uninstall(session, reason)
        return out

    # -- merge -----------------------------------------------------------------

    async def merge(
        self,
        target_id: str,
        source_ids: Sequence[str],
        *,
        merge_seed: int = 0,
        close_sources: bool = True,
    ) -> ServeSession:
        """Fold sibling sessions' sketches into one new session.

        Sources must sit at the same pass boundary (no pass in progress),
        share spec, budget and origin state — the same preconditions the
        sharded driver's pass-boundary merge enjoys by construction.  The
        merged session opens at that boundary under ``target_id``; its
        next pass may legally cover a different slice of the stream than
        any source saw (per-pass length checks restart), which is exactly
        how shard → full-stream pass sequences work.
        """
        merge_start = _now()
        if len(source_ids) < 1:
            raise ServeError(MERGE_INCOMPATIBLE, "merge needs at least one source")
        if len(set(source_ids)) != len(source_ids):
            raise ServeError(MERGE_INCOMPATIBLE, "duplicate merge source ids")
        self._admit(target_id)
        sources = [self._get(sid) for sid in source_ids]
        first = sources[0]
        for other in sources[1:]:
            if other.merge_fingerprint() != first.merge_fingerprint():
                raise ServeError(
                    MERGE_INCOMPATIBLE,
                    f"sessions {first.session_id!r} and {other.session_id!r} "
                    f"disagree on (algorithm, budget, pass position): "
                    f"{first.merge_fingerprint()} vs {other.merge_fingerprint()}",
                )
        if first.pass_started:
            raise ServeError(
                MERGE_INCOMPATIBLE,
                "merge requires all sources at a pass boundary "
                "(finish_pass first)",
            )
        for session in sources:
            if not supports_snapshot(session.algorithm):
                raise ServeError(
                    UNSUPPORTED,
                    f"algorithm {session.spec.name!r} has no sketch state; "
                    "its sessions cannot be merged",
                )
            try:
                require_exact_merge(session.algorithm)
            except SketchStateError as exc:
                raise ServeError(MERGE_INCOMPATIBLE, str(exc)) from exc
        origin = first.origin_state
        for other in sources[1:]:
            if other.origin_state != origin:
                raise ServeError(
                    MERGE_INCOMPATIBLE,
                    f"sessions {first.session_id!r} and {other.session_id!r} "
                    "started from different origin states (different seeds "
                    "or budgets); their counters share no merge base",
                )
        snapshots = [session.algorithm.snapshot() for session in sources]
        try:
            merged_state = merge_states(snapshots, base=origin, seed=merge_seed)
        except MergeError as exc:
            raise ServeError(MERGE_INCOMPATIBLE, str(exc)) from exc
        from repro.sketch.driver import restore_algorithm

        algorithm = restore_algorithm(merged_state)
        merged = ServeSession(
            target_id,
            first.spec,
            algorithm,
            budget=first.budget,
            validate_mode=first.validate_mode,
            byte_budget=first.byte_budget,
            space_budget_words=first.space_budget_words,
            # The merged state is the new lineage fork point: sessions
            # forked from here (snapshot -> restore) merge with *it* as
            # their base, mirroring run_sharded's per-pass base threading.
            origin_state=merged_state,
        )
        merged.pass_index = first.pass_index
        merged.passes_completed = first.passes_completed
        merged.done = first.done
        merged.pairs_total = sum(s.pairs_total for s in sources)
        self._install(merged, resumed=False)
        if self.telemetry.enabled:
            self.telemetry.emit(
                SessionsMerged(
                    target_id=target_id,
                    source_ids=",".join(source_ids),
                    n_sources=len(sources),
                )
            )
            self.telemetry.count(
                "serve_merges_total",
                help="cross-session sketch merges performed",
            )
            self._observe_op("merge", _now() - merge_start)
        if close_sources:
            for session in sources:
                self._uninstall(session, "merged")
        return merged

    # -- checkpointing / shutdown ----------------------------------------------

    async def checkpoint_all(self, directory: Any) -> Dict[str, Any]:
        """Freeze every snapshot-capable live session to ``directory``.

        Writes one atomic sketch-state file per session plus a manifest
        mapping session ids to filenames; sessions whose algorithms lack
        snapshot support are listed as skipped rather than failing the
        checkpoint.  Sessions stay open afterwards.  Every session is
        captured as bytes in one synchronous sweep before the first
        await; the file writes then run off the event loop
        (``asyncio.to_thread``) on those bytes alone, so other requests
        keep flowing while the checkpoint streams to disk.
        """
        directory = Path(directory)
        files: Dict[str, bytes] = {}
        saved: Dict[str, str] = {}
        skipped: List[str] = []
        for index, sid in enumerate(self.session_ids()):
            session = self._sessions[sid]
            if not supports_snapshot(session.algorithm):
                skipped.append(sid)
                continue
            filename = f"session-{index:05d}.sketch"
            files[filename] = session.snapshot_state().to_bytes()
            saved[sid] = filename
            if self.telemetry.enabled:
                self._count_snapshot()
        manifest = {"version": 1, "sessions": saved, "skipped": skipped}
        await asyncio.to_thread(_write_checkpoint_sync, directory, files, manifest)
        if self.telemetry.enabled:
            self.telemetry.emit(
                ServeCheckpointed(directory=str(directory), sessions=len(saved))
            )
        return {"directory": str(directory), "sessions": len(saved), "skipped": skipped}

    async def load_checkpoints(self, directory: Any) -> List[str]:
        """Resurrect every session a :meth:`checkpoint_all` run saved."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        raw = await asyncio.to_thread(_read_manifest_sync, manifest_path)
        if raw is None:
            raise ServeError(
                BAD_STATE, f"no checkpoint manifest at {manifest_path}"
            )
        manifest = json.loads(raw)
        restored: List[str] = []
        for sid, filename in sorted(manifest.get("sessions", {}).items()):
            state = await asyncio.to_thread(SketchState.load, directory / filename)
            await self.restore(sid, state)
            restored.append(sid)
        return restored

    async def shutdown(
        self, checkpoint_dir: Optional[Any] = None
    ) -> Dict[str, Any]:
        """Stop admitting sessions; optionally checkpoint, then close all.

        Safe under cancellation in the sense that it never leaves the
        manager half-admitting: the closing flag flips first.
        """
        self._closing = True
        out: Dict[str, Any] = {"checkpointed": 0}
        if checkpoint_dir is not None and self._sessions:
            summary = await self.checkpoint_all(checkpoint_dir)
            out["checkpointed"] = summary["sessions"]
            out["checkpoint_dir"] = summary["directory"]
        for sid in self.session_ids():
            self._uninstall(self._sessions[sid], "shutdown")
        out["closed"] = True
        return out
