"""The telemetry facade the instrumented runners talk to.

A :class:`Telemetry` bundles a metric registry with one sink: events go
to the sink as they happen, metrics accumulate in the registry, and
``close()`` emits a terminal :class:`~repro.obs.events.MetricsReport`
(so JSONL logs and textfiles end with the full metric state) before
closing the sink.

The zero-overhead contract: :data:`NULL_TELEMETRY` (the default
everywhere) has ``enabled = False`` as a *class* attribute, so an
instrumented hot path guards its work with one attribute lookup::

    if telemetry.enabled:
        telemetry.emit(SpaceHighWater(...))

and pays nothing else when telemetry is off.  Instrumented code must
never call ``emit``/``count``/``set_gauge`` outside such a guard.

:func:`open_telemetry` maps a CLI ``--telemetry PATH`` to a sink by
extension: ``.jsonl`` gets the JSONL event log, ``.prom`` / ``.txt`` the
Prometheus-style textfile, ``.trace`` / ``.trace.json`` the Chrome
trace-event file.  Unrecognised extensions raise ``ValueError`` — a
typo'd path must not silently change the artifact format.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.obs.events import MetricsReport, TelemetryEvent
from repro.obs.metrics import MetricRegistry, Snapshot
from repro.obs.sinks import JsonlSink, TelemetrySink, TextfileSink

__all__ = ["Telemetry", "NULL_TELEMETRY", "open_telemetry"]


class Telemetry:
    """Metric registry + event sink, with convenience recorders."""

    enabled = True

    def __init__(
        self,
        sink: Optional[TelemetrySink] = None,
        registry: Optional[MetricRegistry] = None,
    ):
        # ``sink=None`` means metrics-only: events are dropped but the
        # registry still accumulates (the per-trial roll-up mode).
        self.sink = sink
        self.registry = registry if registry is not None else MetricRegistry()
        self._closed = False

    # -- events ---------------------------------------------------------------

    def emit(self, event: TelemetryEvent) -> None:
        if self.sink is not None:
            self.sink.emit(event)

    # -- metric conveniences --------------------------------------------------

    def count(self, name: str, amount: float = 1, help: str = "", **labels: str) -> None:
        """Increment counter ``name`` (creating the family on first use)."""
        family = self.registry.counter(name, help=help, labelnames=tuple(sorted(labels)))
        family.labels(**labels).inc(amount)

    def set_gauge(self, name: str, value: float, help: str = "", **labels: str) -> None:
        """Set gauge ``name`` (its high-water mark updates automatically)."""
        family = self.registry.gauge(name, help=help, labelnames=tuple(sorted(labels)))
        family.labels(**labels).set(value)

    def observe_histogram(self, name: str, value: float, help: str = "", **labels: str) -> None:
        """Record one observation on histogram ``name`` (fixed bounds)."""
        family = self.registry.histogram(name, help=help, labelnames=tuple(sorted(labels)))
        family.labels(**labels).observe(value)

    def metrics_snapshot(self) -> Snapshot:
        return self.registry.snapshot()

    # -- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        """Flush the sink's buffered output (no-op for buffer-less sinks).

        The serve subsystem calls this at request-loop quiet points so a
        cancelled or killed server still leaves a parseable event log up
        to the last flush — the asyncio extension of the CLI's
        context-manager guarantee.
        """
        if self.sink is not None and not self._closed:
            self.sink.flush()

    def close(self) -> None:
        """Emit the final :class:`MetricsReport` and close the sink."""
        if self._closed:
            return
        self._closed = True
        if self.sink is not None:
            if isinstance(self.sink, TextfileSink):
                self.sink.help_texts.update(
                    {f.name: f.help for f in self.registry.families() if f.help}
                )
            self.sink.emit(MetricsReport(metrics=self.registry.snapshot()))
            self.sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _NullTelemetry(Telemetry):
    """Telemetry that is off: every recorder is a no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(sink=None, registry=MetricRegistry())

    def emit(self, event: TelemetryEvent) -> None:
        pass

    def count(self, name: str, amount: float = 1, help: str = "", **labels: str) -> None:
        pass

    def set_gauge(self, name: str, value: float, help: str = "", **labels: str) -> None:
        pass

    def observe_histogram(self, name: str, value: float, help: str = "", **labels: str) -> None:
        pass

    def close(self) -> None:
        pass


#: The shared default: telemetry off, one attribute lookup on hot paths.
NULL_TELEMETRY = _NullTelemetry()

_TEXTFILE_SUFFIXES: Tuple[str, ...] = (".prom", ".txt")
_TRACE_SUFFIXES: Tuple[str, ...] = (".trace", ".trace.json")
_JSONL_SUFFIXES: Tuple[str, ...] = (".jsonl",)


def open_telemetry(path: str) -> Telemetry:
    """Build a :class:`Telemetry` writing to ``path`` (sink by extension).

    Raises ``ValueError`` for unrecognised extensions so a typo'd path
    fails loudly instead of silently picking a format.
    """
    # Local import: trace.py imports sinks from this package.
    from repro.obs.trace import TraceSink

    if any(path.endswith(suffix) for suffix in _TRACE_SUFFIXES):
        return Telemetry(sink=TraceSink(path))
    if any(path.endswith(suffix) for suffix in _TEXTFILE_SUFFIXES):
        return Telemetry(sink=TextfileSink(path))
    if any(path.endswith(suffix) for suffix in _JSONL_SUFFIXES):
        return Telemetry(sink=JsonlSink(path))
    known = _JSONL_SUFFIXES + _TEXTFILE_SUFFIXES + _TRACE_SUFFIXES
    raise ValueError(
        f"telemetry path {path!r} has an unrecognised extension; "
        f"expected one of {', '.join(known)}"
    )
