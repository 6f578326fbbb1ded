"""Serializable sketch state: the container and its JSON/binary codecs.

A :class:`SketchState` is a versioned, typed bag of state captured from a
streaming algorithm or sampler: ``kind`` identifies the producer (and
selects a merger in :mod:`repro.sketch.merge`), ``version`` guards against
schema drift, and ``payload`` holds plain Python data — ints, floats,
strings, lists, dicts, tuples, sets and frozensets, arbitrarily nested.

Two codecs are provided:

* **JSON** (:meth:`SketchState.to_json` / :meth:`SketchState.from_json`) —
  human-inspectable.  Tuples, sets and frozensets do not survive plain
  JSON, so values are encoded with a small tag scheme (``{"$t": [...]}``
  for tuples, ``{"$s": [...]}`` / ``{"$f": [...]}`` for sets/frozensets,
  ``{"$d": [[k, v], ...]}`` for dicts with non-string keys) that the
  decoder reverses exactly.  RNG states (``random.Random.getstate()``
  tuples) round-trip through this unchanged.
* **binary** (:meth:`SketchState.to_bytes` / :meth:`SketchState.from_bytes`)
  — a magic-tagged, zlib-compressed framing of the JSON form, used for
  on-disk checkpoints where the 625-word Mersenne Twister states would
  bloat plain text.

States also pickle cheaply (payloads are plain data), which is how the
shard driver ships them to worker processes.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

PathLike = Union[str, Path]

#: Binary codec framing: magic, format version, payload length.
_MAGIC = b"SKCH"
_BINARY_VERSION = 1
_HEADER = struct.Struct(">4sBI")

_TAGS = ("$t", "$s", "$f", "$d")


class SketchStateError(ValueError):
    """Raised when a serialised sketch state is malformed or mismatched."""


def write_atomic(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file and a rename.

    A reader sees either the previous file or the complete new one, never
    a torn write.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def encode_value(value: Any) -> Any:
    """Encode a payload value into JSON-representable form (tagged)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"$t": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, (set, frozenset)):
        tag = "$f" if isinstance(value, frozenset) else "$s"
        encoded = [encode_value(v) for v in value]
        # Canonical order: serialisations of equal sets must be equal.
        encoded.sort(key=lambda e: json.dumps(e, sort_keys=True))
        return {tag: encoded}
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and not (set(value) & set(_TAGS)):
            return {k: encode_value(v) for k, v in value.items()}
        return {"$d": [[encode_value(k), encode_value(v)] for k, v in value.items()]}
    raise SketchStateError(f"cannot encode {type(value).__name__} value {value!r}")


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        if len(value) == 1:
            tag, inner = next(iter(value.items()))
            if tag == "$t":
                return tuple(decode_value(v) for v in inner)
            if tag == "$s":
                return {decode_value(v) for v in inner}
            if tag == "$f":
                return frozenset(decode_value(v) for v in inner)
            if tag == "$d":
                return {decode_value(k): decode_value(v) for k, v in inner}
        return {k: decode_value(v) for k, v in value.items()}
    return value


@dataclass
class SketchState:
    """Versioned serialisable state captured from a sketch or algorithm."""

    kind: str
    version: int
    payload: Dict[str, Any] = field(default_factory=dict)

    def require(self, kind: str, version: int) -> None:
        """Assert this state matches the expected ``kind`` and ``version``."""
        if self.kind != kind:
            raise SketchStateError(
                f"expected state kind {kind!r}, got {self.kind!r}"
            )
        if self.version != version:
            raise SketchStateError(
                f"unsupported {kind!r} state version {self.version} "
                f"(this build reads version {version})"
            )

    # -- JSON codec ---------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        """The JSON-representable form of this state."""
        return {
            "kind": self.kind,
            "version": self.version,
            "payload": encode_value(self.payload),
        }

    @classmethod
    def from_json_dict(cls, blob: Dict[str, Any]) -> "SketchState":
        """Reconstruct a state from :meth:`to_json_dict` output."""
        if not isinstance(blob, dict) or not {"kind", "version", "payload"} <= set(blob):
            raise SketchStateError("malformed sketch state blob")
        payload = decode_value(blob["payload"])
        if not isinstance(payload, dict):
            raise SketchStateError("sketch state payload must decode to a dict")
        return cls(kind=str(blob["kind"]), version=int(blob["version"]), payload=payload)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SketchState":
        """Parse a state from :meth:`to_json` output."""
        return cls.from_json_dict(json.loads(text))

    # -- binary codec -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to the compact binary framing."""
        body = zlib.compress(self.to_json(indent=None).encode("utf-8"), level=6)
        return _HEADER.pack(_MAGIC, _BINARY_VERSION, len(body)) + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "SketchState":
        """Parse a state from :meth:`to_bytes` output."""
        if len(data) < _HEADER.size:
            raise SketchStateError("truncated sketch state: missing header")
        magic, fmt_version, length = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise SketchStateError(f"bad sketch state magic {magic!r}")
        if fmt_version != _BINARY_VERSION:
            raise SketchStateError(f"unsupported binary format version {fmt_version}")
        body = data[_HEADER.size:]
        if len(body) != length:
            raise SketchStateError(
                f"truncated sketch state: expected {length} payload bytes, "
                f"got {len(body)}"
            )
        return cls.from_json(zlib.decompress(body).decode("utf-8"))

    # -- files --------------------------------------------------------------

    def save(self, path: PathLike) -> None:
        """Write the binary form to ``path`` atomically (write-then-rename)."""
        write_atomic(path, self.to_bytes())

    @classmethod
    def load(cls, path: PathLike) -> "SketchState":
        """Read a state written by :meth:`save`."""
        return cls.from_bytes(Path(path).read_bytes())
