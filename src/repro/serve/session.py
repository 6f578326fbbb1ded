"""One client's stream: a registry algorithm fed incrementally.

A :class:`ServeSession` owns a live :class:`StreamingAlgorithm` and
replays the exact hook discipline of the batch runner
(:func:`repro.streaming.runner.run_algorithm`) against pairs that arrive
in arbitrary chunks:

* a chunk's pairs are cut into adjacency lists, and the lists it closes
  (a later pair has a new source) go in one
  :meth:`~repro.streaming.runner.PassCursor.push_lists` call of the same
  cursor the runner drives, so the hooks fire in the same order with the
  same fast-path and run-route decisions; runs end at chunk ends;
* the chunk's last list stays open, since the next chunk may extend it;
* ``begin_pass`` is lazy (first chunk of the pass), ``end_pass`` runs in
  :meth:`finish_pass` after the final open list is pushed.

JSON and binary chunks differ only in how they are validated and cut
into adjacency-list segments, and in that a binary chunk lends the long
lists it closes their ``uint64`` columns; both then share one ingest
path.  A chunk rejected mid-way ingests exactly the pairs the validator
accepted before the offending one, on either wire.

Because the hook sequence is identical, a session's estimates are
**bit-identical** to an offline ``run_algorithm`` over the same pairs —
that property is what the serve benchmarks gate on.

The first pass is validated incrementally with the same
:class:`~repro.streaming.stream.PairSequenceValidator` the CLI's
``validate`` command uses; later passes are checked for length against
the first (streams must replay identically).

Sessions are deliberately synchronous and transport-free — the asyncio
layer (:mod:`repro.serve.manager`) calls them without awaiting mid-op,
so each call is atomic with respect to the event loop.
Everything here raises :class:`~repro.serve.protocol.ServeError` with a
stable code, never transport exceptions.
"""

from __future__ import annotations

from itertools import compress
from operator import ne
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.diagnostics import THEOREM_FOURCYCLE, THEOREM_TRIANGLE, diagnose
from repro.serve.protocol import (
    BAD_REQUEST,
    BAD_STATE,
    BUDGET_EXCEEDED,
    NO_SUCH_ALGORITHM,
    SESSION_DONE,
    SESSION_STATE_KIND,
    SESSION_STATE_VERSION,
    SPACE_BUDGET_EXCEEDED,
    STREAM_FORMAT,
    UNSUPPORTED,
    VALIDATE_MODES,
    VALIDATE_OFF,
    VALIDATE_STRICT,
    ServeError,
)
from repro.sketch.state import SketchState, SketchStateError
from repro.streaming.algorithm import (
    StreamingAlgorithm,
    supports_current_estimate,
    supports_snapshot,
)
from repro.streaming.registry import AlgorithmSpec, get as get_spec
from repro.streaming.runner import PassCursor
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import (
    PairSequenceValidator,
    Segments,
    StreamFormatError,
    split_segments,
)
from repro.util import vectorized

__all__ = ["ServeSession"]


def _nested_state(state: SketchState) -> Dict[str, Any]:
    """An inner sketch state as a plain dict inside a session payload.

    The *outer* session state's codec handles tuples/sets recursively, so
    the inner payload rides along untouched and round-trips structurally
    equal.
    """
    return {"kind": state.kind, "version": state.version, "payload": state.payload}


def _split_pairs(pairs: Sequence[Tuple[Any, Any]]) -> Segments:
    """The :func:`~repro.streaming.stream.split_segments` result for a
    non-empty list of scalar pairs (JSON chunks, labels of any type)."""
    srcs, dsts = zip(*pairs)
    n = len(srcs)
    starts = [0, *compress(range(1, n), map(ne, srcs[1:], srcs)), n]
    return starts, [srcs[i] for i in starts[:-1]], list(dsts)


def _unnest_state(blob: Any) -> SketchState:
    if not isinstance(blob, dict):
        raise SketchStateError("nested sketch state must be a dict")
    return SketchState(
        kind=str(blob["kind"]), version=int(blob["version"]), payload=blob["payload"]
    )


class _FrameColumns:
    """A session cursor's column provider: the long lists a binary frame
    closes, each mapped to its slice of the frame's ``dsts`` column.

    :meth:`hold` maps a frame's lists just before they are pushed and
    :meth:`clear` drops them right after, so no frame outlives its chunk.
    Like :class:`~repro.util.vectorized.ColumnMemo` it is keyed by vertex
    and checks the list object's identity; any other list (one spanning
    frames, every JSON list) is converted by
    :func:`~repro.util.vectorized.as_vertex_array`.  The views share the
    frame's memory, which is read-only.  It holds no reference to the
    session, so a dropped session is freed at once.
    """

    __slots__ = ("_views",)

    def __init__(self) -> None:
        self._views: Dict[Any, Tuple[List[Any], Any]] = {}

    def __call__(self, vertex: Any, neighbors: Sequence[Any]) -> Any:
        entry = self._views.get(vertex)
        if entry is not None and entry[0] is neighbors:
            return entry[1]
        return vectorized.as_vertex_array(neighbors)

    def hold(self, lists: List[Tuple[Any, List[Any]]], starts: List[int], dsts: Any) -> None:
        """Map each long list of ``lists``, list ``i`` being
        ``dsts[starts[i]:starts[i + 1]]``, to that view."""
        short, views = vectorized.SHORT_LIST, self._views
        for (vertex, neighbors), a, b in zip(lists, starts, starts[1:]):
            if b - a >= short:
                views[vertex] = (neighbors, dsts[a:b])

    def clear(self) -> None:
        self._views.clear()


class ServeSession:
    """A registry algorithm being fed one adjacency-list stream.

    Build fresh instances with :meth:`open`, resurrect snapshots with
    :meth:`restore_snapshot`.  ``origin_state`` — the algorithm's sketch
    state at the moment the lineage started (before any pairs) — is kept
    for the whole life of the session: it is the merge *base* that turns
    sibling sessions' counters into deltas (see
    :func:`repro.sketch.merge.merge_states`).
    """

    def __init__(
        self,
        session_id: str,
        spec: AlgorithmSpec,
        algorithm: StreamingAlgorithm,
        *,
        budget: int,
        validate_mode: str = VALIDATE_STRICT,
        byte_budget: Optional[int] = None,
        space_budget_words: Optional[int] = None,
        origin_state: Optional[SketchState] = None,
    ):
        if validate_mode not in VALIDATE_MODES:
            raise ServeError(
                BAD_REQUEST,
                f"validate mode {validate_mode!r} not in {VALIDATE_MODES}",
            )
        self.session_id = session_id
        self.spec = spec
        self.algorithm = algorithm
        self.budget = budget
        self.validate_mode = validate_mode
        self.byte_budget = byte_budget
        self.space_budget_words = space_budget_words
        self.origin_state = origin_state

        self._columns = _FrameColumns()
        self._cursor = PassCursor(algorithm, column_provider=self._columns)
        self._meter = SpaceMeter()
        self.pass_index = 0
        self.pass_started = False
        self.passes_completed = 0
        self.done = False
        self.pairs_total = 0
        self.pairs_this_pass = 0
        self.pairs_per_pass: Optional[int] = None
        self.lists_this_pass = 0
        self.chunks = 0
        self.polls = 0
        self.bytes_used = 0
        self._open_list: Optional[Tuple[Any, List[Any]]] = None
        self._validator: Optional[PairSequenceValidator] = None
        if validate_mode != VALIDATE_OFF:
            self._validator = PairSequenceValidator(
                check_reverse=(validate_mode == VALIDATE_STRICT)
            )

    # -- construction --------------------------------------------------------

    @classmethod
    def open(
        cls,
        session_id: str,
        algorithm_name: str,
        budget: int,
        seed: Any = None,
        *,
        validate_mode: str = VALIDATE_STRICT,
        byte_budget: Optional[int] = None,
        space_budget_words: Optional[int] = None,
    ) -> "ServeSession":
        """A fresh session on a registry algorithm.

        ``origin_state`` is captured immediately (for algorithms with
        snapshot support) so later merges have their base even if the
        client never snapshots explicitly.
        """
        try:
            spec = get_spec(algorithm_name)
        except KeyError as exc:
            raise ServeError(NO_SUCH_ALGORITHM, str(exc)) from exc
        if budget < 1:
            raise ServeError(BAD_REQUEST, "budget must be a positive integer")
        algorithm = spec.make(budget, seed=seed)
        origin = algorithm.snapshot() if supports_snapshot(algorithm) else None
        return cls(
            session_id,
            spec,
            algorithm,
            budget=budget,
            validate_mode=validate_mode,
            byte_budget=byte_budget,
            space_budget_words=space_budget_words,
            origin_state=origin,
        )

    # -- feeding -------------------------------------------------------------

    def _require_live(self) -> None:
        if self.done:
            raise ServeError(
                SESSION_DONE,
                f"session {self.session_id!r} already completed all "
                f"{self.algorithm.n_passes} passes",
            )

    def account_bytes(self, nbytes: int) -> None:
        """Charge a request's payload against the session byte budget."""
        if self.byte_budget is not None and self.bytes_used + nbytes > self.byte_budget:
            raise ServeError(
                BUDGET_EXCEEDED,
                f"session {self.session_id!r} byte budget exhausted: "
                f"{self.bytes_used} + {nbytes} > {self.byte_budget}",
            )
        self.bytes_used += nbytes

    def _begin_pass(self) -> None:
        """Lazy ``begin_pass``: the first chunk (or finish) of a pass opens it."""
        if not self.pass_started:
            self.algorithm.begin_pass(self.pass_index)
            self.pass_started = True

    def _push(self, lists: List[Tuple[Any, List[Any]]]) -> None:
        """Push complete adjacency lists through the pass cursor, then
        drop the frame columns held for them."""
        try:
            self._cursor.push_lists(lists, self._meter)
        finally:
            self._columns.clear()
        self.lists_this_pass += len(lists)

    def feed(self, pairs: Sequence[Tuple[Any, Any]]) -> Dict[str, Any]:
        """Ingest one chunk of ``(source, neighbour)`` pairs.

        Chunk boundaries are invisible to the algorithm: a list split
        across chunks is buffered until its source changes.  Raises
        ``STREAM_FORMAT`` on a model violation (first pass), after
        ingesting the pairs before the offending one;
        ``SPACE_BUDGET_EXCEEDED`` when the algorithm's live state outgrows
        the session's cap.
        """
        return self._ingest(
            len(pairs),
            lambda validator: validator.feed(pairs),
            lambda k: _split_pairs(pairs[:k] if k < len(pairs) else pairs),
        )

    def feed_arrays(self, srcs: Any, dsts: Any) -> Dict[str, Any]:
        """Ingest one binary chunk: two equal-length ``uint64`` columns.

        Semantically identical to :meth:`feed` over ``zip(srcs, dsts)`` —
        same hooks, same validation, same errors — but the list-boundary
        split and validation are vectorized.  The lists reach the
        algorithm as Python lists, as JSON ones do, and each long list
        the chunk closes brings its ``uint64`` column as a view of
        ``dsts``: the cursor's column provider (:class:`_FrameColumns`)
        holds those views for one push, so the run route converts
        nothing.  A list that spans chunks is converted from its Python
        list.  The kernels only read the views; a decoded frame's
        columns are read-only.
        """
        n = int(len(srcs))
        segments = split_segments(srcs, dsts) if n else None

        def accepted(k: int) -> Segments:
            return split_segments(srcs[:k], dsts[:k]) if k < n else segments

        return self._ingest(
            n, lambda validator: validator.feed_array(srcs, dsts, segments), accepted,
            dsts,
        )

    def _ingest(
        self, n: int, validate: Callable[[PairSequenceValidator], None],
        segments_of: Callable[[int], Segments], dsts: Any = None,
    ) -> Dict[str, Any]:
        """The path both wires share once a chunk of ``n`` pairs is decoded.

        ``validate`` runs the first-pass validator over the chunk;
        ``segments_of(k)`` cuts its first ``k`` pairs into the arguments
        of :meth:`_ingest_segments`, which also gets the binary chunk's
        neighbour column ``dsts`` (None for JSON).  Exactly the pairs the
        validator accepted are ingested; a violation is raised after them.
        """
        self._require_live()
        self._begin_pass()
        accepted, error = n, None
        validator = self._validator if self.pass_index == 0 else None
        if validator is not None:
            before = validator.pairs_seen
            try:
                validate(validator)
            except StreamFormatError as exc:
                accepted, error = validator.pairs_seen - before, exc
        if accepted:
            self._ingest_segments(*segments_of(accepted), dsts)
        if error is not None:
            raise ServeError(STREAM_FORMAT, str(error)) from error
        self.chunks += 1
        if (
            self.pairs_per_pass is not None
            and self.pairs_this_pass > self.pairs_per_pass
        ):
            raise ServeError(
                STREAM_FORMAT,
                f"pass {self.pass_index} is longer than pass 0 "
                f"({self.pairs_this_pass} > {self.pairs_per_pass} pairs): "
                "multi-pass streams must replay identically",
            )
        if self.space_budget_words is not None:
            words = self.algorithm.space_words()
            if words > self.space_budget_words:
                raise ServeError(
                    SPACE_BUDGET_EXCEEDED,
                    f"session {self.session_id!r} live state {words} words "
                    f"exceeds cap {self.space_budget_words}",
                )
        return {"pairs": n, "pairs_total": self.pairs_total, "pass": self.pass_index}

    def _ingest_segments(
        self, starts: List[int], heads: List[Any], dst_list: List[Any], dsts: Any
    ) -> None:
        """Push the lists a validated chunk closes; keep its last one open.

        The first segment extends the open list when it has the same
        source.  Given the binary chunk's column ``dsts``, the lists the
        chunk holds whole are mapped to their views of it for this push.
        """
        lists = [(head, dst_list[a:b]) for head, a, b in zip(heads, starts, starts[1:])]
        if dsts is not None:
            self._columns.hold(lists[:-1], starts, dsts)
        open_list = self._open_list
        if open_list is not None:
            if open_list[0] == heads[0]:
                open_list[1].extend(lists[0][1])
                lists[0] = open_list
            else:
                lists.insert(0, open_list)
        self._open_list = lists.pop()
        self._push(lists)
        self.pairs_this_pass += starts[-1]
        self.pairs_total += starts[-1]

    def finish_pass(self) -> Dict[str, Any]:
        """Close the current pass: flush the open list, run end-of-pass checks.

        On the first pass this is where stream validation completes (the
        reverse-pair check needs the whole stream).  Finishing the last
        pass marks the session done and freezes the final estimate.
        """
        self._require_live()
        # An empty pass is legal (empty stream); mirror the runner, which
        # always brackets a pass even over zero lists.
        self._begin_pass()
        if self._open_list is not None:
            self._push([self._open_list])
            self._open_list = None
        if self.pass_index == 0 and self._validator is not None:
            try:
                self._validator.finish()
            except StreamFormatError as exc:
                raise ServeError(STREAM_FORMAT, str(exc)) from exc
        if self.pairs_per_pass is not None and self.pairs_this_pass != self.pairs_per_pass:
            raise ServeError(
                STREAM_FORMAT,
                f"pass {self.pass_index} fed {self.pairs_this_pass} pairs but "
                f"pass 0 fed {self.pairs_per_pass}: multi-pass streams must "
                "replay identically",
            )
        self.algorithm.end_pass(self.pass_index)
        if self.pairs_per_pass is None:
            self.pairs_per_pass = self.pairs_this_pass
        self.passes_completed += 1
        self.pass_index += 1
        self.pass_started = False
        pairs_this_pass = self.pairs_this_pass
        self.pairs_this_pass = 0
        self.lists_this_pass = 0
        if self.pass_index >= self.algorithm.n_passes:
            self.done = True
        out: Dict[str, Any] = {
            "pass": self.pass_index - 1,
            "pairs": pairs_this_pass,
            "passes_remaining": max(self.algorithm.n_passes - self.pass_index, 0),
            "done": self.done,
        }
        if self.done:
            out["estimate"] = self.algorithm.result()
        return out

    # -- polling -------------------------------------------------------------

    def estimate_now(self) -> Optional[float]:
        """The best estimate available right now (``None`` if none yet)."""
        if self.done:
            return self.algorithm.result()
        if supports_current_estimate(self.algorithm):
            return self.algorithm.current_estimate()
        return None

    def poll(
        self,
        *,
        truth: Optional[float] = None,
        m: Optional[int] = None,
        epsilon: float = 0.5,
        theorem: Optional[str] = None,
    ) -> Dict[str, Any]:
        """The session's anytime estimate, position and space, right now.

        With ``truth`` and ``m`` supplied the estimate is additionally run
        through :func:`repro.obs.diagnostics.diagnose` and the resulting
        :class:`ConvergenceVerdict` attached flat under ``"verdict"`` —
        the same booleans the bench-report gates consume.  The theorem
        defaults from the algorithm's cycle length (3 → 3.7, 4 → 4.6).
        """
        self.polls += 1
        estimate = self.estimate_now()
        out: Dict[str, Any] = {
            "estimate": estimate,
            "pass": self.pass_index,
            "pairs_total": self.pairs_total,
            "pairs_this_pass": self.pairs_this_pass,
            "space_words": self.algorithm.space_words(),
            "done": self.done,
            "anytime": supports_current_estimate(self.algorithm),
        }
        if truth is not None and m is not None and estimate is not None:
            picked = theorem or (
                THEOREM_FOURCYCLE if self.spec.cycle_length == 4 else THEOREM_TRIANGLE
            )
            try:
                verdict = diagnose(
                    [estimate],
                    truth,
                    int(m),
                    self.budget,
                    theorem=picked,
                    epsilon=epsilon,
                )
            except ValueError as exc:
                raise ServeError(BAD_REQUEST, f"cannot diagnose: {exc}") from exc
            out["verdict"] = verdict.to_flat_dict()
        return out

    def result(self) -> float:
        """The final estimate; only available once all passes finished."""
        if not self.done:
            raise ServeError(
                BAD_REQUEST,
                f"session {self.session_id!r} has not finished its passes "
                f"({self.pass_index}/{self.algorithm.n_passes})",
            )
        return self.algorithm.result()

    # -- snapshot / restore ---------------------------------------------------

    def snapshot_state(self) -> SketchState:
        """Freeze the whole session — algorithm, validator, position — as
        one self-contained :class:`SketchState` of kind ``serve-session``.

        The algorithm is always at a list boundary when this runs (hooks
        only fire on complete lists), so its own snapshot is well-formed;
        the half-assembled open list rides along verbatim.
        """
        if not supports_snapshot(self.algorithm):
            raise ServeError(
                UNSUPPORTED,
                f"algorithm {self.spec.name!r} does not implement the sketch "
                "state protocol; sessions cannot be snapshotted",
            )
        payload: Dict[str, Any] = {
            "spec": self.spec.name,
            "budget": self.budget,
            "algorithm": _nested_state(self.algorithm.snapshot()),
            "origin": (
                _nested_state(self.origin_state)
                if self.origin_state is not None
                else None
            ),
            "pass_index": self.pass_index,
            "pass_started": self.pass_started,
            "passes_completed": self.passes_completed,
            "done": self.done,
            "pairs_total": self.pairs_total,
            "pairs_this_pass": self.pairs_this_pass,
            "pairs_per_pass": self.pairs_per_pass,
            "lists_this_pass": self.lists_this_pass,
            "chunks": self.chunks,
            "open_list": (
                (self._open_list[0], tuple(self._open_list[1]))
                if self._open_list is not None
                else None
            ),
            "validator": (
                self._validator.state_dict() if self._validator is not None else None
            ),
            "validate_mode": self.validate_mode,
            "byte_budget": self.byte_budget,
            "bytes_used": self.bytes_used,
            "space_budget_words": self.space_budget_words,
        }
        return SketchState(SESSION_STATE_KIND, SESSION_STATE_VERSION, payload)

    @classmethod
    def restore_snapshot(cls, session_id: str, state: SketchState) -> "ServeSession":
        """Resurrect a session from :meth:`snapshot_state` output.

        The restored session continues bit-exactly: same algorithm state,
        same validator bookkeeping, same half-open list, same position.
        """
        state.require(SESSION_STATE_KIND, SESSION_STATE_VERSION)
        payload = state.payload
        try:
            spec = get_spec(str(payload["spec"]))
            algorithm_state = _unnest_state(payload["algorithm"])
            from repro.sketch.driver import restore_algorithm

            algorithm = restore_algorithm(algorithm_state)
            origin_blob = payload.get("origin")
            origin = _unnest_state(origin_blob) if origin_blob is not None else None
            session = cls(
                session_id,
                spec,
                algorithm,
                budget=int(payload["budget"]),
                validate_mode=str(payload["validate_mode"]),
                byte_budget=payload.get("byte_budget"),
                space_budget_words=payload.get("space_budget_words"),
                origin_state=origin,
            )
            session.pass_index = int(payload["pass_index"])
            session.pass_started = bool(payload["pass_started"])
            session.passes_completed = int(payload["passes_completed"])
            session.done = bool(payload["done"])
            session.pairs_total = int(payload["pairs_total"])
            session.pairs_this_pass = int(payload["pairs_this_pass"])
            per_pass = payload.get("pairs_per_pass")
            session.pairs_per_pass = int(per_pass) if per_pass is not None else None
            session.lists_this_pass = int(payload["lists_this_pass"])
            session.chunks = int(payload["chunks"])
            open_list = payload.get("open_list")
            if open_list is not None:
                src, neighbors = open_list
                session._open_list = (src, list(neighbors))
            session.bytes_used = int(payload["bytes_used"])
            validator_state = payload.get("validator")
            if validator_state is not None:
                session._validator = PairSequenceValidator()
                session._validator.load_state_dict(dict(validator_state))
            else:
                session._validator = None
        except (KeyError, TypeError, ValueError, SketchStateError) as exc:
            raise ServeError(
                BAD_STATE, f"malformed serve-session state: {exc}"
            ) from exc
        return session

    # -- merge support --------------------------------------------------------

    def merge_fingerprint(self) -> Tuple[Any, ...]:
        """What must agree for two sessions' sketches to be mergeable."""
        return (
            self.spec.name,
            self.budget,
            self.pass_index,
            self.pass_started,
            self.done,
        )

    def stats(self) -> Dict[str, Any]:
        """Position and accounting facts for the ``stats`` op."""
        return {
            "session": self.session_id,
            "algorithm": self.spec.name,
            "budget": self.budget,
            "pass": self.pass_index,
            "passes": self.algorithm.n_passes,
            "passes_completed": self.passes_completed,
            "pairs_total": self.pairs_total,
            "pairs_this_pass": self.pairs_this_pass,
            "chunks": self.chunks,
            "polls": self.polls,
            "space_words": self.algorithm.space_words(),
            "bytes_used": self.bytes_used,
            "byte_budget": self.byte_budget,
            "space_budget_words": self.space_budget_words,
            "validate_mode": self.validate_mode,
            "done": self.done,
        }
