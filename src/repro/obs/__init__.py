"""``repro.obs`` — streaming telemetry: metrics, events, sinks, reports.

Public surface:

* :class:`~repro.obs.telemetry.Telemetry` / :data:`NULL_TELEMETRY` /
  :func:`open_telemetry` — the facade instrumented code talks to;
* the event vocabulary in :mod:`repro.obs.events`;
* sinks (:class:`InMemorySink`, :class:`JsonlSink`, :class:`TextfileSink`,
  :data:`NULL_SINK`) in :mod:`repro.obs.sinks`;
* metric machinery (:class:`MetricRegistry`, :func:`merge_snapshots`,
  :func:`strip_timers`) in :mod:`repro.obs.metrics`;
* roll-ups (:func:`rollup_metrics`, :func:`deterministic_rollup`) in
  :mod:`repro.obs.rollup`;
* hierarchical trace spans (:class:`Tracer`, :data:`NULL_TRACER`,
  :class:`TraceSink`, Chrome trace export) in :mod:`repro.obs.trace`;
* convergence diagnostics (:func:`estimate_trace`, :func:`diagnose`,
  :class:`ConvergenceVerdict`) in :mod:`repro.obs.diagnostics`;
* the metric/event name registry in :mod:`repro.obs.names`;
* the benchmark comparison engine in :mod:`repro.obs.bench_report`
  and the run dashboard in :mod:`repro.obs.obs_report`.
"""

from repro.obs.diagnostics import (
    ConvergenceVerdict,
    EstimatePoint,
    diagnose,
    estimate_trace,
    required_sample_size,
)
from repro.obs.events import (
    EVENT_TYPES,
    EstimateSample,
    MergeCompleted,
    MetricsReport,
    OccupancySample,
    PassFinished,
    PassStarted,
    RunFinished,
    RunStarted,
    ShardPassFinished,
    SpaceHighWater,
    SpanFinished,
    TelemetryEvent,
    decode_event,
    encode_event,
)
from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    HISTOGRAM_BOUNDS,
    Histogram,
    MetricFamily,
    MetricRegistry,
    Snapshot,
    format_series,
    histogram_quantile,
    label_snapshot,
    merge_snapshots,
    parse_series,
    strip_timers,
)
from repro.obs.names import METRIC_NAMES, is_valid_metric_name, unregistered_series
from repro.obs.rollup import deterministic_rollup, rollup_metrics
from repro.obs.sinks import (
    NULL_SINK,
    InMemorySink,
    JsonlSink,
    NullSink,
    TeeSink,
    TelemetrySink,
    TextfileSink,
    parse_textfile,
    read_jsonl_events,
    render_textfile,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, open_telemetry
from repro.obs.trace import (
    NULL_TRACER,
    SpanRecord,
    TraceContext,
    Tracer,
    TraceSink,
    chrome_trace_events,
    read_chrome_trace,
    span_id_for,
    span_tree,
    spans_from_events,
    stitch_chrome_traces,
    stitch_spans,
    write_chrome_trace,
)
from repro.obs.slo import SLOPolicy, SLOStatus, evaluate_slo, pooled_histogram

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "open_telemetry",
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
    "SpanFinished",
    "EVENT_TYPES",
    "encode_event",
    "decode_event",
    "TelemetrySink",
    "NullSink",
    "NULL_SINK",
    "InMemorySink",
    "JsonlSink",
    "TeeSink",
    "TextfileSink",
    "read_jsonl_events",
    "render_textfile",
    "parse_textfile",
    "MetricRegistry",
    "MetricFamily",
    "Snapshot",
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "HISTOGRAM_BOUNDS",
    "Histogram",
    "histogram_quantile",
    "format_series",
    "parse_series",
    "label_snapshot",
    "merge_snapshots",
    "strip_timers",
    "unregistered_series",
    "rollup_metrics",
    "deterministic_rollup",
    "Tracer",
    "NULL_TRACER",
    "TraceContext",
    "TraceSink",
    "SpanRecord",
    "span_id_for",
    "span_tree",
    "spans_from_events",
    "chrome_trace_events",
    "write_chrome_trace",
    "read_chrome_trace",
    "stitch_spans",
    "stitch_chrome_traces",
    "SLOPolicy",
    "SLOStatus",
    "evaluate_slo",
    "pooled_histogram",
    "EstimatePoint",
    "estimate_trace",
    "ConvergenceVerdict",
    "diagnose",
    "required_sample_size",
    "METRIC_NAMES",
    "is_valid_metric_name",
]
