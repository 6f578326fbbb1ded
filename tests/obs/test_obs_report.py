"""The obs-report dashboard: loading run artifacts and rendering them."""

import json

import pytest

from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.graph.planted import planted_triangles
from repro.obs.obs_report import (
    RunData,
    _downsample,
    _sparkline,
    _timeline_rows,
    build_parser,
    load_run_data,
    main,
    render_report,
    run_obs_report,
)
from repro.obs.sinks import JsonlSink, TeeSink
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer, TraceSink, write_chrome_trace
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream

WORKLOAD = planted_triangles(120, 12, seed=7)


@pytest.fixture(scope="module")
def run_artifacts(tmp_path_factory):
    """One traced, telemetered run shared by every rendering test."""
    tmp = tmp_path_factory.mktemp("obs_report")
    log = str(tmp / "run.jsonl")
    trace = str(tmp / "run.trace")
    telemetry = Telemetry(sink=TeeSink(JsonlSink(log), TraceSink(trace)))
    tracer = Tracer(seed=3, telemetry=telemetry)
    with telemetry:
        with tracer:
            run = run_algorithm(
                TwoPassTriangleCounter(64, seed=5),
                AdjacencyListStream(WORKLOAD.graph, seed=9),
                telemetry=telemetry,
                tracer=tracer,
            )
    if tracer.spans:
        write_chrome_trace(trace, tracer.spans)
    return {"log": log, "trace": trace, "estimate": run.estimate}


class TestLoadRunData:
    def test_requires_at_least_one_input(self):
        with pytest.raises(ValueError, match="telemetry log"):
            load_run_data(None, None)

    def test_log_only(self, run_artifacts):
        data = load_run_data(run_artifacts["log"], None)
        assert data.events and data.spans  # spans recovered from SpanFinished
        assert data.trace_path is None

    def test_trace_only(self, run_artifacts):
        data = load_run_data(None, run_artifacts["trace"])
        assert data.events == [] and data.spans
        assert {s.path for s in data.spans} >= {"run", "run/pass:0", "run/pass:1"}

    def test_both_prefers_trace_file_for_spans(self, run_artifacts):
        data = load_run_data(run_artifacts["log"], run_artifacts["trace"])
        trace_only = load_run_data(None, run_artifacts["trace"])
        assert {s.span_id for s in data.spans} == {s.span_id for s in trace_only.spans}
        assert data.events


class TestRendering:
    @pytest.mark.parametrize("fmt", ["text", "html"])
    def test_all_formats_have_the_core_sections(self, run_artifacts, fmt):
        data = load_run_data(run_artifacts["log"], run_artifacts["trace"])
        report = render_report(data, fmt=fmt, truth=float(WORKLOAD.true_count))
        for fragment in ("TwoPassTriangleCounter", "pass:0", "pairs"):
            assert fragment in report
        # Convergence section references the anytime estimates.
        assert "onvergence" in report

    def test_html_is_self_contained(self, run_artifacts):
        data = load_run_data(run_artifacts["log"], run_artifacts["trace"])
        html = render_report(data, fmt="html", truth=float(WORKLOAD.true_count))
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "<style>" in html and "<svg" in html
        assert "http://" not in html and "https://" not in html  # no external assets

    def test_unknown_format_rejected(self, run_artifacts):
        data = load_run_data(run_artifacts["log"], None)
        with pytest.raises(ValueError, match="unknown obs-report format"):
            render_report(data, fmt="pdf")

    def test_log_only_timeline_falls_back_to_passes(self, run_artifacts):
        data = load_run_data(run_artifacts["log"], None)
        no_spans = RunData(
            events=data.events, spans=[], log_path=data.log_path, trace_path=None
        )
        rows = _timeline_rows(no_spans)
        assert [r.label for r in rows] == ["pass:0", "pass:1"]
        # Laid end to end: each pass starts where the previous ended.
        assert rows[1].start_s == pytest.approx(rows[0].start_s + rows[0].duration_s)


class TestCli:
    def test_exit_0_and_writes_out(self, run_artifacts, tmp_path, capsys):
        out = tmp_path / "report.html"
        args = build_parser().parse_args(
            [
                "--log", run_artifacts["log"],
                "--trace", run_artifacts["trace"],
                "--truth", str(WORKLOAD.true_count),
                "--format", "html",
                "--out", str(out),
            ]
        )
        assert run_obs_report(args) == 0
        assert "pass:0" in out.read_text()
        assert str(out) in capsys.readouterr().err

    def test_exit_2_without_inputs(self, capsys):
        assert main([]) == 2
        assert "--log and/or --trace" in capsys.readouterr().err

    def test_exit_2_on_unreadable_file(self, tmp_path, capsys):
        assert main(["--log", str(tmp_path / "missing.jsonl")]) == 2
        assert "missing.jsonl" in capsys.readouterr().err

    def test_exit_2_on_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("not json at all")
        assert main(["--trace", str(bad)]) == 2
        capsys.readouterr()

    def test_stdout_when_no_out(self, run_artifacts, capsys):
        assert main(["--log", run_artifacts["log"]]) == 0
        assert "pass:0" in capsys.readouterr().out


class TestHelpers:
    def test_sparkline_maps_range_to_blocks(self):
        line = _sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"
        assert _sparkline([]) == ""
        assert _sparkline([5.0, 5.0]) == "▁▁"  # flat series

    def test_downsample_keeps_ends_and_bounds_length(self):
        from repro.obs.diagnostics import EstimatePoint

        points = [
            EstimatePoint(pass_index=1, lists_done=i, estimate=float(i))
            for i in range(500)
        ]
        sampled = _downsample(points, limit=60)
        assert len(sampled) <= 60
        assert sampled[0] == points[0] and sampled[-1] == points[-1]
        assert _downsample(points[:3], limit=60) == points[:3]


def test_chrome_trace_schema_of_fixture(run_artifacts):
    """The committed artifact format stays loadable by Chrome's tracing UI."""
    with open(run_artifacts["trace"]) as fh:
        payload = json.load(fh)
    assert set(payload) == {"traceEvents", "displayTimeUnit"}
    for event in payload["traceEvents"]:
        assert {"ph", "ts", "pid", "tid", "name"} <= set(event)
