"""The serve wire protocol: ops, error codes, framing, snapshot encoding.

The protocol is **newline-delimited JSON** — one request object per line,
one response object per line — chosen so a session can be driven from
``nc``/``socat`` and logs stay greppable.  Requests carry a client-chosen
correlation ``id`` (echoed verbatim in the response), an ``op``, and
op-specific parameters; any number of sessions multiplex over one
connection, and responses may interleave across ids (the client matches
on ``id``, not order).

Request::

    {"id": 7, "op": "feed", "session": "s3", "pairs": [[0, 1], [0, 4]]}

Response::

    {"id": 7, "ok": true, "pairs": 2, "pairs_total": 128}
    {"id": 7, "ok": false, "error": {"code": "STREAM_FORMAT", "message": "..."}}

Ops: ``hello``, ``algorithms``, ``open``, ``feed``, ``finish_pass``,
``poll``, ``snapshot``, ``merge``, ``close``, ``stats``, ``shutdown``.
See ``docs/SERVING.md`` for the full parameter tables.

**Binary pair-batch frames.**  JSON pair arrays dominate ingest CPU, so
feeds may instead travel as length-prefixed binary frames: a 16-byte
little-endian header (magic ``0xB1``, frame version, session-id length,
pair count, request id) followed by the UTF-8 session id and two
columnar ``uint64`` payloads (all sources, then all destinations).  A
connection must negotiate binary framing first (``hello`` with
``binary: 1``); control frames and every response stay JSON, so the two
framings interleave freely on one connection.  See
:func:`encode_binary_feed` / :func:`decode_binary_feed` and the wire
spec in ``docs/SERVING.md``.

**Trace context.**  ``hello`` advertises ``trace: 1``; an ``open`` may
then carry ``trace: {"seed": int, "path": str}`` — the client tracer's
context at the open site.  The server records the session's span under
that (seed, path), so client, router-relay and worker views of one
session share a deterministic span id and per-process trace files
stitch into a single tree (``obs-report stitch-trace``).  Binary frames
carry no trace field; they inherit the context of the session they
reference, negotiated at ``open``.  Both fields are optional and
ignorable, so they need no protocol version bump.

Session snapshots travel as the JSON-dict form of a
:class:`~repro.sketch.state.SketchState` of kind ``serve-session`` —
self-contained (spec name, budget, algorithm state, validator state,
open-list buffer, position), so a snapshot taken on one server restores
on another with no side channel.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.sketch.state import SketchState, SketchStateError

#: Bumped on wire-visible changes; ``hello`` reports it so clients can refuse.
#: Version 2 added binary pair-batch frames.  Version 3 removed the
#: ``auth`` op and its three quota codes.
PROTOCOL_VERSION = 3

#: Session-snapshot container identity (see ``session.py`` for the payload).
SESSION_STATE_KIND = "serve-session"
SESSION_STATE_VERSION = 1

#: Default cap on one encoded request line (backpressure: a client cannot
#: buffer an unbounded chunk server-side; asyncio's reader enforces it).
MAX_FRAME_BYTES = 4 * 1024 * 1024

# -- error codes --------------------------------------------------------------

BAD_REQUEST = "BAD_REQUEST"
UNKNOWN_OP = "UNKNOWN_OP"
NO_SUCH_ALGORITHM = "NO_SUCH_ALGORITHM"
NO_SUCH_SESSION = "NO_SUCH_SESSION"
SESSION_EXISTS = "SESSION_EXISTS"
SESSION_DONE = "SESSION_DONE"
STREAM_FORMAT = "STREAM_FORMAT"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"
SPACE_BUDGET_EXCEEDED = "SPACE_BUDGET_EXCEEDED"
SESSION_LIMIT = "SESSION_LIMIT"
UNSUPPORTED = "UNSUPPORTED"
MERGE_INCOMPATIBLE = "MERGE_INCOMPATIBLE"
BAD_STATE = "BAD_STATE"
SERVER_SHUTDOWN = "SERVER_SHUTDOWN"
INTERNAL = "INTERNAL"
BAD_FRAME = "BAD_FRAME"
FRAME_TOO_LARGE = "FRAME_TOO_LARGE"
BINARY_NOT_NEGOTIATED = "BINARY_NOT_NEGOTIATED"

ERROR_CODES = (
    BAD_REQUEST,
    UNKNOWN_OP,
    NO_SUCH_ALGORITHM,
    NO_SUCH_SESSION,
    SESSION_EXISTS,
    SESSION_DONE,
    STREAM_FORMAT,
    BUDGET_EXCEEDED,
    SPACE_BUDGET_EXCEEDED,
    SESSION_LIMIT,
    UNSUPPORTED,
    MERGE_INCOMPATIBLE,
    BAD_STATE,
    SERVER_SHUTDOWN,
    INTERNAL,
    BAD_FRAME,
    FRAME_TOO_LARGE,
    BINARY_NOT_NEGOTIATED,
)

#: Validation modes a session can be opened with.
VALIDATE_STRICT = "strict"  # full adjacency-list promise incl. reverse pairs
VALIDATE_LISTS = "lists"  # contiguity/duplicates only (shard slices)
VALIDATE_OFF = "off"

VALIDATE_MODES = (VALIDATE_STRICT, VALIDATE_LISTS, VALIDATE_OFF)


class ServeError(Exception):
    """A protocol-level failure with a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message

    def to_dict(self) -> Dict[str, str]:
        return {"code": self.code, "message": self.message}


# -- framing ------------------------------------------------------------------


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One protocol message as a complete wire line (single write)."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one wire line; raises :class:`ServeError` on garbage."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(BAD_REQUEST, f"unparseable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ServeError(BAD_REQUEST, "frame must be a JSON object")
    return message


def request_id(message: Dict[str, Any]) -> Any:
    """The correlation id of a decoded request (``None`` if absent)."""
    return message.get("id")


def require_op(message: Dict[str, Any]) -> str:
    """Extract and check the ``op`` field of a decoded request."""
    op = message.get("op")
    if not isinstance(op, str) or not op:
        raise ServeError(BAD_REQUEST, "request needs a string 'op' field")
    return op


def ok_response(req_id: Any, **fields: Any) -> Dict[str, Any]:
    """A success response echoing ``req_id``."""
    response = {"id": req_id, "ok": True}
    response.update(fields)
    return response


def error_response(req_id: Any, error: ServeError) -> Dict[str, Any]:
    """A failure response echoing ``req_id``."""
    return {"id": req_id, "ok": False, "error": error.to_dict()}


# -- parameter extraction -----------------------------------------------------


def get_str(message: Dict[str, Any], key: str, default: Any = ...) -> str:
    value = message.get(key, default)
    if value is ...:
        raise ServeError(BAD_REQUEST, f"request needs a string {key!r} field")
    if not isinstance(value, str):
        raise ServeError(BAD_REQUEST, f"{key!r} must be a string")
    return value

def get_int(message: Dict[str, Any], key: str, default: Any = ...) -> int:
    value = message.get(key, default)
    if value is ...:
        raise ServeError(BAD_REQUEST, f"request needs an integer {key!r} field")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeError(BAD_REQUEST, f"{key!r} must be an integer")
    return value


def get_opt_number(message: Dict[str, Any], key: str) -> Any:
    value = message.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServeError(BAD_REQUEST, f"{key!r} must be a number")
    return value


def decode_pairs(raw: Any) -> List[Tuple[Any, Any]]:
    """Decode a feed chunk's ``pairs`` field into vertex-pair tuples.

    Vertices are JSON scalars (ints or strings — the same labels graph
    files carry); each entry must be a two-element array.
    """
    if not isinstance(raw, list):
        raise ServeError(BAD_REQUEST, "'pairs' must be a list of [src, dst] pairs")
    pairs: List[Tuple[Any, Any]] = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ServeError(
                BAD_REQUEST, f"pair entry {entry!r} is not a [src, dst] pair"
            )
        src, dst = entry
        for vertex in (src, dst):
            if isinstance(vertex, bool) or not isinstance(vertex, (int, str)):
                raise ServeError(
                    BAD_REQUEST, f"vertex {vertex!r} must be an int or string label"
                )
        pairs.append((src, dst))
    return pairs


def encode_pairs(pairs: Sequence[Tuple[Any, Any]]) -> List[Any]:
    """Wire form of a pair chunk (inverse of :func:`decode_pairs`).

    The caller's list goes out as is: ``json`` writes a tuple pair as
    the same ``[src, dst]`` array, so rebuilding every pair would only
    cost client time.  Any other sequence is copied into a list.
    """
    return pairs if isinstance(pairs, list) else list(pairs)


# -- binary pair-batch frames -------------------------------------------------
#
# Layout (all little-endian)::
#
#     offset  size  field
#     0       1     magic          0xB1
#     1       1     frame version  1
#     2       2     session_len    uint16, UTF-8 byte length of the session id
#     4       4     n_pairs        uint32
#     8       8     req_id         uint64, echoed in the JSON response
#     16      session_len          session id, UTF-8
#     ...     8 * n_pairs          sources, uint64 columnar
#     ...     8 * n_pairs          destinations, uint64 columnar
#
# The first byte can never collide with JSON framing (a JSON line starts
# with ``{`` = 0x7B), so a reader dispatches on it.  Responses to binary
# feeds are ordinary JSON lines — only the hot request direction is binary.

#: First byte of a binary frame; distinguishes it from a JSON line.
BINARY_MAGIC = 0xB1
#: Bumped independently of PROTOCOL_VERSION on binary-layout changes.
BINARY_FRAME_VERSION = 1

_BINARY_HEADER = struct.Struct("<BBHIQ")
#: Fixed header size in bytes (16).
BINARY_HEADER_BYTES = _BINARY_HEADER.size


def encode_binary_feed(
    req_id: int,
    session: str,
    srcs: "np.ndarray[Any, np.dtype[np.uint64]]",
    dsts: "np.ndarray[Any, np.dtype[np.uint64]]",
) -> bytes:
    """A feed chunk as one binary frame (header + session + columns)."""
    if srcs.shape != dsts.shape or srcs.ndim != 1:
        raise ServeError(BAD_FRAME, "srcs/dsts must be equal-length 1-d arrays")
    session_bytes = session.encode("utf-8")
    if len(session_bytes) > 0xFFFF:
        raise ServeError(BAD_FRAME, "session id exceeds 65535 UTF-8 bytes")
    n = int(srcs.shape[0])
    if n > 0xFFFFFFFF:
        raise ServeError(BAD_FRAME, "chunk exceeds uint32 pair count")
    header = _BINARY_HEADER.pack(
        BINARY_MAGIC, BINARY_FRAME_VERSION, len(session_bytes), n, req_id
    )
    frame = b"".join(
        (
            header,
            session_bytes,
            np.ascontiguousarray(srcs, dtype="<u8").tobytes(),
            np.ascontiguousarray(dsts, dtype="<u8").tobytes(),
        )
    )
    if len(frame) > MAX_FRAME_BYTES:
        raise ServeError(
            FRAME_TOO_LARGE,
            f"binary frame is {len(frame)} bytes (cap {MAX_FRAME_BYTES})",
        )
    return frame


def decode_binary_header(header: bytes) -> Tuple[int, int, int]:
    """Parse a 16-byte binary header into ``(session_len, n_pairs, req_id)``.

    Validates magic, frame version, and the total frame size against
    ``MAX_FRAME_BYTES`` so a reader can refuse before allocating the body.
    """
    if len(header) != BINARY_HEADER_BYTES:
        raise ServeError(BAD_FRAME, "truncated binary header")
    magic, version, session_len, n_pairs, req_id = _BINARY_HEADER.unpack(header)
    if magic != BINARY_MAGIC:
        raise ServeError(BAD_FRAME, f"bad binary magic 0x{magic:02X}")
    if version != BINARY_FRAME_VERSION:
        raise ServeError(BAD_FRAME, f"unsupported binary frame version {version}")
    total = BINARY_HEADER_BYTES + session_len + 16 * n_pairs
    if total > MAX_FRAME_BYTES:
        raise ServeError(
            FRAME_TOO_LARGE,
            f"binary frame is {total} bytes (cap {MAX_FRAME_BYTES})",
        )
    return session_len, n_pairs, req_id


def decode_binary_body(
    body: bytes, session_len: int, n_pairs: int
) -> Tuple[str, "np.ndarray[Any, np.dtype[np.uint64]]", "np.ndarray[Any, np.dtype[np.uint64]]"]:
    """Parse a binary frame body into ``(session, srcs, dsts)`` columns."""
    if len(body) != session_len + 16 * n_pairs:
        raise ServeError(BAD_FRAME, "truncated binary frame body")
    try:
        session = body[:session_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ServeError(BAD_FRAME, f"session id is not UTF-8: {exc}") from exc
    columns = np.frombuffer(body, dtype="<u8", count=2 * n_pairs, offset=session_len)
    srcs = columns[:n_pairs].astype(np.uint64, copy=False)
    dsts = columns[n_pairs:].astype(np.uint64, copy=False)
    return session, srcs, dsts


def decode_binary_feed(
    frame: bytes,
) -> Tuple[int, str, "np.ndarray[Any, np.dtype[np.uint64]]", "np.ndarray[Any, np.dtype[np.uint64]]"]:
    """Invert :func:`encode_binary_feed` on a complete frame (tests, tools).

    The server never materialises whole frames this way — it reads the
    header and body separately off the socket — but round-tripping through
    one buffer is the natural property-test surface.
    """
    session_len, n_pairs, req_id = decode_binary_header(
        frame[:BINARY_HEADER_BYTES]
    )
    session, srcs, dsts = decode_binary_body(
        frame[BINARY_HEADER_BYTES:], session_len, n_pairs
    )
    return req_id, session, srcs, dsts


# -- session-snapshot wire form ----------------------------------------------


def encode_state(state: SketchState) -> Dict[str, Any]:
    """A sketch state as its JSON-dict wire form."""
    return state.to_json_dict()


def decode_state(blob: Any) -> SketchState:
    """Invert :func:`encode_state`; raises :class:`ServeError` on garbage."""
    if not isinstance(blob, dict):
        raise ServeError(BAD_STATE, "state must be a JSON object")
    try:
        return SketchState.from_json_dict(blob)
    except (SketchStateError, KeyError, TypeError, ValueError) as exc:
        raise ServeError(BAD_STATE, f"malformed sketch state: {exc}") from exc
