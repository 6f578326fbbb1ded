"""Pluggable telemetry sinks.

A sink is an event consumer with an ``enabled`` class attribute — the
hot-path contract is that when telemetry is off the runner pays exactly
one attribute lookup (``telemetry.enabled``) and no call.  Four sinks:

* :class:`NullSink` — the default; ``enabled = False``, every method a
  no-op.  :data:`NULL_SINK` is the shared instance.
* :class:`InMemorySink` — appends events to a list (tests, roll-ups).
* :class:`JsonlSink` — one JSON object per event per line, append-only;
  :func:`read_jsonl_events` parses a log back into typed events.
* :class:`TextfileSink` — Prometheus-style textfile exporter.  It keeps
  the last :class:`~repro.obs.events.MetricsReport` it sees and renders
  it on ``close()``; :func:`parse_textfile` inverts the format back into
  a metric snapshot (and help texts), so the in-memory model round-trips.

Textfile conventions (node-exporter textfile-collector compatible):
``# HELP``/``# TYPE`` headers per family (``counter``, ``gauge`` or
``histogram``, all Prometheus text-format types), gauges also export
their ``<name>_high_water`` mark, and histograms expand to the standard
cumulative ``<name>_bucket{le="..."}`` series (ending at ``le="+Inf"``)
plus ``<name>_sum`` / ``<name>_count``.
"""

from __future__ import annotations

import json
import math
from typing import IO, Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.events import MetricsReport, TelemetryEvent, decode_event, encode_event
from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    Snapshot,
    format_series,
    parse_series,
)


class TelemetrySink:
    """Base sink: receives typed events; subclasses decide what to keep."""

    enabled = True

    def emit(self, event: TelemetryEvent) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered output to durable storage without closing.

        Long-lived consumers (the serve subsystem) call this at quiet
        points so a later hard kill — ``SIGKILL``, a cancelled asyncio
        task that never reaches ``close()`` — loses at most the events
        since the last flush, never the whole log.
        """

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class NullSink(TelemetrySink):
    """Discard everything; ``enabled`` is False so hot paths skip work."""

    enabled = False

    def emit(self, event: TelemetryEvent) -> None:
        pass


#: Shared default sink — telemetry off.
NULL_SINK = NullSink()


class TeeSink(TelemetrySink):
    """Fan every event out to several child sinks (e.g. JSONL + trace).

    ``close()`` closes every child, continuing past failures and
    re-raising the first one, so a broken child can't leave siblings
    unflushed.
    """

    def __init__(self, *sinks: TelemetrySink):
        self.sinks: List[TelemetrySink] = list(sinks)

    def emit(self, event: TelemetryEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        first_error: Optional[BaseException] = None
        for sink in self.sinks:
            try:
                sink.close()
            except BaseException as exc:  # noqa: BLE001 - must close all
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error


class InMemorySink(TelemetrySink):
    """Keep every event in order; the reference model for round-trip tests."""

    def __init__(self) -> None:
        self.events: List[TelemetryEvent] = []

    def emit(self, event: TelemetryEvent) -> None:
        self.events.append(event)

    def of_type(self, event_type: type) -> List[TelemetryEvent]:
        """Events of one type, in emission order."""
        return [e for e in self.events if isinstance(e, event_type)]

    def metrics(self) -> Optional[Snapshot]:
        """The last :class:`MetricsReport` snapshot, if one was emitted."""
        reports = self.of_type(MetricsReport)
        return reports[-1].metrics if reports else None


class JsonlSink(TelemetrySink):
    """Append one JSON object per event to ``path`` (created eagerly).

    Each event is serialised to a complete line *first* and written with a
    single ``write`` call — never streamed piecewise into the file — so an
    asyncio cancellation (or any exception) landing between events can
    never leave a torn half-line behind: whatever made it to disk parses.
    ``flush_every`` bounds the tail a hard kill can lose; the default
    flushes after every event, which long-lived servers relax for
    throughput and supplement with explicit :meth:`flush` calls at quiet
    points.
    """

    def __init__(self, path: str, flush_every: int = 1):
        if flush_every < 1:
            raise ValueError("flush_every must be at least 1")
        self.path = path
        self.flush_every = flush_every
        self._since_flush = 0
        self._fh: Optional[IO[str]] = open(path, "w")

    def emit(self, event: TelemetryEvent) -> None:
        if self._fh is None:
            raise ValueError(f"JsonlSink({self.path!r}) is closed")
        line = json.dumps(encode_event(event), sort_keys=True)
        self._fh.write(line + "\n")
        self._since_flush += 1
        if self._since_flush >= self.flush_every:
            self._fh.flush()
            self._since_flush = 0

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._since_flush = 0

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_jsonl_events(path: str) -> List[TelemetryEvent]:
    """Parse a :class:`JsonlSink` log back into typed events."""
    events: List[TelemetryEvent] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(decode_event(json.loads(line)))
            except (json.JSONDecodeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad telemetry line: {exc}") from exc
    return events


# -- Prometheus-style textfile ------------------------------------------------

def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _unescape_label(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _sample_line(name: str, labels: Mapping[str, str], value: float) -> str:
    if labels:
        inner = ",".join(
            f'{k}="{_escape_label(str(labels[k]))}"' for k in sorted(labels)
        )
        return f"{name}{{{inner}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def render_textfile(snapshot: Snapshot, help_texts: Optional[Mapping[str, str]] = None) -> str:
    """Render a metric snapshot in Prometheus textfile exposition format."""
    by_family: Dict[str, List[Tuple[Dict[str, str], Dict[str, Any]]]] = {}
    kinds: Dict[str, str] = {}
    for series_key in sorted(snapshot):
        blob = snapshot[series_key]
        name, labels = parse_series(series_key)
        if kinds.setdefault(name, blob["kind"]) != blob["kind"]:
            raise ValueError(f"family {name!r} mixes kinds in snapshot")
        by_family.setdefault(name, []).append((labels, blob))
    lines: List[str] = []
    for name in sorted(by_family):
        help_text = (help_texts or {}).get(name, "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        kind = kinds[name]
        lines.append(f"# TYPE {name} {kind}")
        for labels, blob in by_family[name]:
            if kind == COUNTER:
                lines.append(_sample_line(name, labels, blob["value"]))
            elif kind == GAUGE:
                lines.append(_sample_line(name, labels, blob["value"]))
                lines.append(
                    _sample_line(f"{name}_high_water", labels, blob["high_water"])
                )
            else:  # histogram
                running = 0
                for bound, n in zip(blob["bounds"], blob["buckets"]):
                    running += n
                    le = dict(labels, le=_format_value(float(bound)))
                    lines.append(_sample_line(f"{name}_bucket", le, running))
                inf = dict(labels, le="+Inf")
                lines.append(_sample_line(f"{name}_bucket", inf, blob["count"]))
                lines.append(_sample_line(f"{name}_sum", labels, blob["total"]))
                lines.append(_sample_line(f"{name}_count", labels, blob["count"]))
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_sample(line: str) -> Tuple[str, Dict[str, str], float]:
    """Split one exposition line into (series name, labels, value)."""
    if "{" in line:
        name, _, rest = line.partition("{")
        body, _, tail = rest.rpartition("}")
        labels: Dict[str, str] = {}
        if body:
            for part in body.split(","):
                key, _, raw = part.partition("=")
                labels[key.strip()] = _unescape_label(raw.strip().strip('"'))
        value_text = tail.strip()
    else:
        name, _, value_text = line.partition(" ")
        labels = {}
    value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
    if value.is_integer():
        # Counters/gauges written from ints must compare equal on reload.
        return name.strip(), labels, int(value)
    return name.strip(), labels, value


def parse_textfile(text: str) -> Tuple[Snapshot, Dict[str, str]]:
    """Invert :func:`render_textfile`: ``(snapshot, help_texts)``.

    Gauges reassemble from their value + ``_high_water`` pair and
    histograms from their cumulative ``_bucket{le=...}`` ladder plus
    ``_sum``/``_count``, guided by the ``# TYPE`` declarations.
    """
    kinds: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            kinds[name] = kind.strip()
        elif line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = help_text
        elif line.startswith("#"):
            continue
        else:
            samples.append(_parse_sample(line))
    # Map each possible sample name to (family, slot in the blob).
    slots: Dict[str, Tuple[str, str]] = {}
    for name, kind in kinds.items():
        if kind == COUNTER:
            slots[name] = (name, "value")
        elif kind == GAUGE:
            slots[name] = (name, "value")
            slots[f"{name}_high_water"] = (name, "high_water")
        elif kind == HISTOGRAM:
            slots[f"{name}_bucket"] = (name, "_bucket")
            slots[f"{name}_sum"] = (name, "total")
            slots[f"{name}_count"] = (name, "count")
        else:
            raise ValueError(f"unknown TYPE {kind!r} for family {name!r}")
    defaults = {
        COUNTER: lambda: {"kind": COUNTER, "value": 0},
        GAUGE: lambda: {"kind": GAUGE, "value": 0, "high_water": 0},
        HISTOGRAM: lambda: {"kind": HISTOGRAM, "total": 0.0, "count": 0, "_cum": {}},
    }
    snapshot: Snapshot = {}
    for sample_name, labels, value in samples:
        if sample_name not in slots:
            raise ValueError(f"sample {sample_name!r} has no # TYPE declaration")
        family, slot = slots[sample_name]
        if slot == "_bucket":
            # The ``le`` bound is part of the sample, not of the series.
            le_text = labels.pop("le", None)
            if le_text is None:
                raise ValueError(f"histogram sample {sample_name!r} lacks an le label")
            bound = float(le_text.replace("+Inf", "inf"))
            series_key = format_series(family, labels)
            blob = snapshot.setdefault(series_key, defaults[HISTOGRAM]())
            blob["_cum"][bound] = int(value)
            continue
        series_key = format_series(family, labels)
        blob = snapshot.setdefault(series_key, defaults[kinds[family]]())
        blob[slot] = value
    # De-cumulate histogram bucket ladders back into per-bucket counts.
    for blob in snapshot.values():
        if blob["kind"] != HISTOGRAM:
            continue
        cum = blob.pop("_cum", {})
        bounds = sorted(b for b in cum if math.isfinite(b))
        running = 0
        buckets: List[int] = []
        for bound in bounds:
            if cum[bound] < running:
                raise ValueError("histogram bucket ladder is not cumulative")
            buckets.append(cum[bound] - running)
            running = cum[bound]
        buckets.append(int(blob["count"]) - running)
        if buckets[-1] < 0:
            raise ValueError("histogram _count is below the last finite bucket")
        blob["bounds"] = [float(b) for b in bounds]
        blob["buckets"] = buckets
    return snapshot, helps


class TextfileSink(TelemetrySink):
    """Write the final metric snapshot to ``path`` in textfile format.

    Ordinary events are dropped — this sink exports metrics, and the
    metric registry arrives as the terminal :class:`MetricsReport` that
    ``Telemetry.close()`` emits.  The file is (re)written atomically-ish
    on ``close()``: last report wins, matching node-exporter textfile
    collector semantics where each scrape sees one consistent snapshot.
    """

    def __init__(self, path: str, help_texts: Optional[Mapping[str, str]] = None):
        self.path = path
        self.help_texts = dict(help_texts or {})
        self._last: Optional[Snapshot] = None
        self._closed = False

    def emit(self, event: TelemetryEvent) -> None:
        if self._closed:
            raise ValueError(f"TextfileSink({self.path!r}) is closed")
        if isinstance(event, MetricsReport):
            self._last = event.metrics

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with open(self.path, "w") as fh:
            fh.write(render_textfile(self._last or {}, self.help_texts))
