"""Sink round-trips: JSONL event logs, Prometheus textfiles, null no-ops."""

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    MetricsReport,
    PassFinished,
    RunStarted,
    SpaceHighWater,
    decode_event,
    encode_event,
)
from repro.obs.metrics import MetricRegistry
from repro.obs.sinks import (
    NULL_SINK,
    InMemorySink,
    JsonlSink,
    NullSink,
    TextfileSink,
    parse_textfile,
    read_jsonl_events,
    render_textfile,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, open_telemetry

EVENTS = [
    RunStarted(algorithm="TwoPassTriangleCounter", passes=2, pairs_per_pass=550),
    SpaceHighWater(pass_index=0, lists_done=3, words=17),
    PassFinished(pass_index=0, lists=100, pairs=550, seconds=0.01, pairs_per_second=55000.0),
    MetricsReport(metrics={"pairs_total": {"kind": "counter", "value": 550}}),
]


def test_event_codec_round_trip():
    for event in EVENTS:
        blob = encode_event(event)
        assert blob["event"] == type(event).__name__
        assert decode_event(blob) == event


def test_decode_rejects_unknown_type_and_fields():
    with pytest.raises(ValueError):
        decode_event({"event": "NoSuchEvent"})
    with pytest.raises(ValueError):
        decode_event({"event": "PassStarted", "pass_index": 0, "bogus": 1})
    assert len(EVENT_TYPES) == 15


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "run.jsonl")
    sink = JsonlSink(path)
    for event in EVENTS:
        sink.emit(event)
    sink.close()
    assert read_jsonl_events(path) == EVENTS
    with pytest.raises(ValueError):
        sink.emit(EVENTS[0])


def test_jsonl_reader_flags_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"event": "PassStarted", "pass_index": 0}\nnot json\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        read_jsonl_events(str(path))


def test_in_memory_sink_filters():
    sink = InMemorySink()
    for event in EVENTS:
        sink.emit(event)
    assert sink.of_type(SpaceHighWater) == [EVENTS[1]]
    assert sink.metrics() == {"pairs_total": {"kind": "counter", "value": 550}}


def test_null_sink_is_disabled_no_op():
    assert NullSink.enabled is False
    assert NULL_SINK.emit(EVENTS[0]) is None
    NULL_SINK.close()


def test_null_telemetry_records_nothing():
    assert NULL_TELEMETRY.enabled is False
    NULL_TELEMETRY.count("x_total")
    NULL_TELEMETRY.set_gauge("y", 3)
    NULL_TELEMETRY.observe_histogram("z_seconds", 0.1)
    NULL_TELEMETRY.emit(EVENTS[0])
    NULL_TELEMETRY.close()
    assert NULL_TELEMETRY.metrics_snapshot() == {}


def test_textfile_round_trip():
    registry = MetricRegistry()
    family = registry.counter("pairs_total", help="pairs consumed", labelnames=("pass",))
    family.labels(**{"pass": "0"}).inc(550)
    family.labels(**{"pass": "1"}).inc(550)
    gauge = registry.gauge("space_words", help="live space").labels()
    gauge.set(12)
    gauge.set(7)
    registry.histogram("pass_seconds").labels().observe(0.25)
    snapshot = registry.snapshot()
    text = render_textfile(snapshot, {"pairs_total": "pairs consumed"})

    assert "# HELP pairs_total pairs consumed" in text
    assert "# TYPE pairs_total counter" in text
    assert 'pairs_total{pass="0"} 550' in text
    assert "space_words_high_water 12" in text
    assert "pass_seconds_count 1" in text
    types = {line.split()[-1] for line in text.splitlines() if line.startswith("# TYPE")}
    assert types == {"counter", "gauge", "histogram"}

    parsed, helps = parse_textfile(text)
    assert parsed == snapshot
    assert helps == {"pairs_total": "pairs consumed"}


def test_textfile_sink_writes_last_report(tmp_path):
    path = str(tmp_path / "metrics.prom")
    sink = TextfileSink(path)
    sink.emit(MetricsReport(metrics={"a_total": {"kind": "counter", "value": 1}}))
    sink.emit(MetricsReport(metrics={"a_total": {"kind": "counter", "value": 2}}))
    sink.close()
    with open(path) as fh:
        snapshot, _ = parse_textfile(fh.read())
    assert snapshot == {"a_total": {"kind": "counter", "value": 2}}


def test_telemetry_close_emits_final_metrics_report():
    sink = InMemorySink()
    telemetry = Telemetry(sink=sink)
    telemetry.count("events_total", 3)
    telemetry.close()
    telemetry.close()  # idempotent
    reports = sink.of_type(MetricsReport)
    assert len(reports) == 1
    assert reports[0].metrics["events_total"]["value"] == 3


def test_open_telemetry_picks_sink_by_extension(tmp_path):
    jsonl = open_telemetry(str(tmp_path / "log.jsonl"))
    assert isinstance(jsonl.sink, JsonlSink)
    jsonl.close()
    prom = open_telemetry(str(tmp_path / "metrics.prom"))
    assert isinstance(prom.sink, TextfileSink)
    prom.close()


def test_open_telemetry_trace_extension(tmp_path):
    from repro.obs.trace import TraceSink

    trace = open_telemetry(str(tmp_path / "run.trace"))
    assert isinstance(trace.sink, TraceSink)
    trace.close()
    trace_json = open_telemetry(str(tmp_path / "run.trace.json"))
    assert isinstance(trace_json.sink, TraceSink)
    trace_json.close()


def test_open_telemetry_rejects_unknown_extension(tmp_path):
    with pytest.raises(ValueError, match="unrecognised extension"):
        open_telemetry(str(tmp_path / "metrics.csv"))
    assert not (tmp_path / "metrics.csv").exists()


def test_tee_sink_fans_out_and_closes_all():
    from repro.obs.sinks import TeeSink

    first, second = InMemorySink(), InMemorySink()
    tee = TeeSink(first, second)
    for event in EVENTS:
        tee.emit(event)
    tee.close()
    assert first.events == EVENTS
    assert second.events == EVENTS


def test_telemetry_context_manager_closes_on_exception(tmp_path):
    path = str(tmp_path / "fail.jsonl")
    with pytest.raises(RuntimeError):
        with open_telemetry(path) as telemetry:
            telemetry.emit(EVENTS[0])
            telemetry.count("events_total")
            raise RuntimeError("mid-run failure")
    # The sink was flushed and closed on the exception path: the log is
    # complete, parseable JSONL ending in the final MetricsReport.
    events = read_jsonl_events(path)
    assert events[0] == EVENTS[0]
    assert isinstance(events[-1], MetricsReport)
    assert events[-1].metrics["events_total"]["value"] == 1
