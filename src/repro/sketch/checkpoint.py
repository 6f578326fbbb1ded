"""Checkpoint/resume for long streaming runs.

A checkpoint is a :class:`~repro.sketch.state.SketchState` snapshot of the
algorithm wrapped with its position in the run (pass index, lists already
processed in that pass), the space meter's accumulated statistics, and a
fingerprint of the stream — enough for a resumed run with the same stream
to finish with *identical* results to one that was never interrupted.

The runner (:func:`repro.streaming.runner.run_algorithm`) drives the
writes through a :class:`CheckpointConfig`; loading and validation happen
here.  Files use the binary sketch codec and are written atomically
(write-then-rename), so a kill mid-write leaves the previous checkpoint
intact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.sketch.state import SketchState, SketchStateError

PathLike = Union[str, Path]

CHECKPOINT_KIND = "checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class CheckpointRecord:
    """Summary of one written checkpoint."""

    path: str
    algorithm_kind: str
    pass_index: int
    lists_done: int
    space_words: int


def fingerprint_stream(stream) -> Dict[str, Any]:
    """Digest a stream's identity: sizes plus a hash of the exact ordering.

    Costs one extra pass over the stream's lists (cheap relative to any
    run worth checkpointing); the digest changes if the list order, any
    neighbour order, or the graph itself changes.
    """
    digest = hashlib.sha256()
    lists = 0
    pairs = 0
    for vertex, neighbors in stream.iter_lists():
        digest.update(repr(vertex).encode("utf-8"))
        digest.update(b":")
        digest.update(repr(tuple(neighbors)).encode("utf-8"))
        digest.update(b"\n")
        lists += 1
        pairs += len(neighbors)
    return {"lists": lists, "pairs": pairs, "order_digest": digest.hexdigest()}


@dataclass
class Checkpoint:
    """A resumable position in a streaming run."""

    algorithm_state: SketchState
    pass_index: int
    lists_done: int
    meter_state: Dict[str, Any] = field(default_factory=dict)
    stream_fingerprint: Dict[str, Any] = field(default_factory=dict)

    def to_state(self) -> SketchState:
        return SketchState(
            CHECKPOINT_KIND,
            CHECKPOINT_VERSION,
            {
                "algorithm": {
                    "kind": self.algorithm_state.kind,
                    "version": self.algorithm_state.version,
                    "payload": self.algorithm_state.payload,
                },
                "pass_index": self.pass_index,
                "lists_done": self.lists_done,
                "meter": self.meter_state,
                "stream": self.stream_fingerprint,
            },
        )

    @classmethod
    def from_state(cls, state: SketchState) -> "Checkpoint":
        state.require(CHECKPOINT_KIND, CHECKPOINT_VERSION)
        algo = state.payload["algorithm"]
        return cls(
            algorithm_state=SketchState(
                kind=algo["kind"], version=int(algo["version"]), payload=algo["payload"]
            ),
            pass_index=int(state.payload["pass_index"]),
            lists_done=int(state.payload["lists_done"]),
            meter_state=dict(state.payload.get("meter", {})),
            stream_fingerprint=dict(state.payload.get("stream", {})),
        )

    def save(self, path: PathLike) -> CheckpointRecord:
        """Write atomically; return a summary record."""
        self.to_state().save(path)
        return CheckpointRecord(
            path=str(path),
            algorithm_kind=self.algorithm_state.kind,
            pass_index=self.pass_index,
            lists_done=self.lists_done,
            space_words=int(self.meter_state.get("current_words", 0)),
        )

    def matches_stream(self, fingerprint: Dict[str, Any]) -> bool:
        """Whether this checkpoint was taken against ``fingerprint``'s stream."""
        if not self.stream_fingerprint:
            return True  # nothing recorded: accept (caller's risk)
        return self.stream_fingerprint == fingerprint


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Load a checkpoint written by :meth:`Checkpoint.save`."""
    return Checkpoint.from_state(SketchState.load(path))


def load_checkpoint_if_exists(path: PathLike) -> Optional[Checkpoint]:
    """Load ``path`` if present, else None (the ``--resume`` CLI contract)."""
    return load_checkpoint(path) if Path(path).exists() else None


@dataclass
class CheckpointConfig:
    """How a run writes checkpoints.

    ``every_lists`` bounds the replay a crash can cost; each write
    overwrites ``path`` (the latest checkpoint is the only one needed —
    resume replays deterministically from it).  ``stream_fingerprint`` is
    stamped into every checkpoint when provided so a later ``--resume``
    can refuse a mismatched input.  ``history`` accumulates a record per
    write for reporting.
    """

    path: PathLike
    every_lists: int = 1000
    stream_fingerprint: Dict[str, Any] = field(default_factory=dict)
    history: List[CheckpointRecord] = field(default_factory=list)

    def __post_init__(self):
        if self.every_lists < 1:
            raise ValueError("every_lists must be at least 1")

    def write(
        self,
        algorithm_state: SketchState,
        pass_index: int,
        lists_done: int,
        meter_state: Optional[Dict[str, Any]] = None,
    ) -> CheckpointRecord:
        """Write one checkpoint; called by the runner at list boundaries."""
        checkpoint = Checkpoint(
            algorithm_state=algorithm_state,
            pass_index=pass_index,
            lists_done=lists_done,
            meter_state=meter_state or {},
            stream_fingerprint=dict(self.stream_fingerprint),
        )
        record = checkpoint.save(self.path)
        self.history.append(record)
        return record


def require_matching_stream(checkpoint: Checkpoint, stream) -> None:
    """Raise unless ``checkpoint`` was taken against ``stream``."""
    fingerprint = fingerprint_stream(stream)
    if not checkpoint.matches_stream(fingerprint):
        raise SketchStateError(
            "checkpoint was taken against a different stream "
            f"(recorded {checkpoint.stream_fingerprint.get('order_digest', '?')[:12]}..., "
            f"current {fingerprint['order_digest'][:12]}...); "
            "refusing to resume"
        )
