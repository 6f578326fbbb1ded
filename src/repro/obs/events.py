"""Typed telemetry events emitted by the instrumented runners.

Each event is a frozen dataclass registered in :data:`EVENT_TYPES`;
:func:`encode_event` / :func:`decode_event` round-trip them through the
JSON-safe wire form the JSONL sink writes (``{"event": <type name>,
...fields}``).  Field values are restricted to JSON scalars plus flat
``str -> number`` dicts so a decoded event compares equal to the
original.

The vocabulary covers the streaming runner (pass boundaries, per-pass
throughput, space high-water marks, sampler/reservoir occupancy), the
shard-and-merge driver (per-shard passes, merges), the serve sessions,
trace spans, and a final :class:`MetricsReport`
carrying the run's full metric-registry snapshot.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Mapping, Type

__all__ = [
    "TelemetryEvent",
    "RunStarted",
    "PassStarted",
    "PassFinished",
    "SpaceHighWater",
    "OccupancySample",
    "ShardPassFinished",
    "MergeCompleted",
    "RunFinished",
    "MetricsReport",
    "EstimateSample",
    "SessionOpened",
    "SessionClosed",
    "SessionsMerged",
    "ServeCheckpointed",
    "SpanFinished",
    "EVENT_TYPES",
    "encode_event",
    "decode_event",
]


@dataclass(frozen=True)
class TelemetryEvent:
    """Base class; exists so sinks can type against one thing."""


@dataclass(frozen=True)
class RunStarted(TelemetryEvent):
    """A runner began executing an algorithm over a stream."""

    algorithm: str
    passes: int
    pairs_per_pass: int


@dataclass(frozen=True)
class PassStarted(TelemetryEvent):
    """Pass ``pass_index`` (0-based) is about to consume the stream."""

    pass_index: int


@dataclass(frozen=True)
class PassFinished(TelemetryEvent):
    """Pass boundary: one full pass over the (shard's) stream completed."""

    pass_index: int
    lists: int
    pairs: int
    seconds: float
    pairs_per_second: float


@dataclass(frozen=True)
class SpaceHighWater(TelemetryEvent):
    """The algorithm's reported space exceeded every earlier reading."""

    pass_index: int
    lists_done: int
    words: int


@dataclass(frozen=True)
class OccupancySample(TelemetryEvent):
    """Periodic sampler/reservoir occupancy and churn readings.

    ``gauges`` is whatever the algorithm's ``observables()`` reports —
    e.g. ``edge_sampler_occupancy``, ``pair_reservoir_evictions``.
    """

    pass_index: int
    lists_done: int
    gauges: Dict[str, float]


@dataclass(frozen=True)
class ShardPassFinished(TelemetryEvent):
    """One shard finished one pass (emitted by the sharded driver)."""

    shard_index: int
    pass_index: int
    pairs: int
    peak_space_words: int


@dataclass(frozen=True)
class MergeCompleted(TelemetryEvent):
    """All shard states of one pass were folded into the merged state."""

    pass_index: int
    n_shards: int


@dataclass(frozen=True)
class RunFinished(TelemetryEvent):
    """Terminal event: the run's result and resource summary."""

    estimate: float
    peak_space_words: int
    mean_space_words: float
    passes: int
    pairs: int
    seconds: float
    pairs_per_second: float


@dataclass(frozen=True)
class MetricsReport(TelemetryEvent):
    """Final dump of the run's metric registry (see ``metrics.Snapshot``)."""

    metrics: Dict[str, Dict[str, Any]]


@dataclass(frozen=True)
class EstimateSample(TelemetryEvent):
    """Anytime estimate, polled at the runner's space-poll cadence.

    Emitted only for algorithms exposing ``current_estimate()``; the
    sequence of samples over a run is the estimator's convergence
    trajectory (see :mod:`repro.obs.diagnostics`).
    """

    pass_index: int
    lists_done: int
    estimate: float


@dataclass(frozen=True)
class SessionOpened(TelemetryEvent):
    """A serve session was created (see :mod:`repro.serve`)."""

    session_id: str
    algorithm: str
    budget: int
    start_pass: int
    resumed: bool


@dataclass(frozen=True)
class SessionClosed(TelemetryEvent):
    """A serve session ended (client close, merge consumption, shutdown).

    ``estimate`` is the final result when the session completed all its
    passes, else the last anytime estimate, else ``None``.
    """

    session_id: str
    pairs: int
    chunks: int
    polls: int
    passes_completed: int
    estimate: "float | None"
    reason: str


@dataclass(frozen=True)
class SessionsMerged(TelemetryEvent):
    """Sketches of several sessions were merged into one state."""

    target_id: str
    source_ids: str  # comma-joined (event fields are flat scalars)
    n_sources: int


@dataclass(frozen=True)
class ServeCheckpointed(TelemetryEvent):
    """Graceful shutdown checkpointed the live sessions to a directory."""

    directory: str
    sessions: int


@dataclass(frozen=True)
class SpanFinished(TelemetryEvent):
    """One hierarchical trace span closed (see :mod:`repro.obs.trace`).

    ``span_id``/``parent_id`` are deterministic functions of the trace
    seed and the structural ``path`` (``run/pass:0/shard:2`` …), so the
    span *tree* is schedule-invariant; only ``start_s``/``end_s`` carry
    wall time.  ``attrs`` is restricted to schedule-invariant numbers
    (pair counts, budgets — never durations).
    """

    name: str
    category: str
    path: str
    span_id: str
    parent_id: str
    start_s: float
    end_s: float
    attrs: Dict[str, float]


EVENT_TYPES: Dict[str, Type[TelemetryEvent]] = {
    cls.__name__: cls
    for cls in (
        RunStarted,
        PassStarted,
        PassFinished,
        SpaceHighWater,
        OccupancySample,
        ShardPassFinished,
        MergeCompleted,
        RunFinished,
        MetricsReport,
        EstimateSample,
        SessionOpened,
        SessionClosed,
        SessionsMerged,
        ServeCheckpointed,
        SpanFinished,
    )
}


def encode_event(event: TelemetryEvent) -> Dict[str, Any]:
    """JSON-safe wire form: ``{"event": <type name>, ...fields}``."""
    name = type(event).__name__
    if name not in EVENT_TYPES:
        raise TypeError(f"{name} is not a registered telemetry event type")
    blob = asdict(event)
    blob["event"] = name
    return blob


def decode_event(blob: Mapping[str, Any]) -> TelemetryEvent:
    """Invert :func:`encode_event`; unknown types raise ``ValueError``."""
    data = dict(blob)
    name = data.pop("event", None)
    cls = EVENT_TYPES.get(name or "")
    if cls is None:
        raise ValueError(f"unknown telemetry event type {name!r}")
    allowed = {f.name for f in fields(cls)}
    unexpected = set(data) - allowed
    if unexpected:
        raise ValueError(f"{name} does not take fields {sorted(unexpected)}")
    return cls(**data)
