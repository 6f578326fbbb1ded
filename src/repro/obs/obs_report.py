"""``repro-cycles obs-report`` — a self-contained run report.

Consumes JSONL telemetry logs (``--telemetry`` output) and/or Chrome
trace files (``--trace`` output) and renders:

* a **run summary** (algorithm, passes, pairs, estimate, space peaks);
* a **phase timeline** built from trace spans (falling back to
  ``PassFinished`` events when only a log is given);
* **throughput** per pass;
* **sampler occupancy** (last reading of every ``observables()`` gauge);
* a **convergence curve** from :class:`~repro.obs.events.EstimateSample`
  events, with relative errors when ``--truth`` is given.

Both ``--log`` and ``--trace`` repeat: a routed serve run leaves one
telemetry/trace file per process (router + ``.worker-<i>`` siblings),
and passing them all merges the event streams and **stitches** the span
sets into one tree (span identity is a pure function of seed and
structural path, so the same logical span observed by several processes
deduplicates — see :func:`repro.obs.trace.stitch_spans`).

The ``stitch-trace`` mode skips the report entirely: it stitches the
``--trace`` files into one Chrome trace written to ``--out`` (the CI
artifact for routed gauntlet runs).

Formats: ``text`` (default) and ``html`` — the HTML is a
single self-contained file (inline CSS + SVG, no external assets) so CI
can upload it as an artifact.  Exit code 0 on success, 2 on unreadable
inputs; pass at least one of the two input flags.
"""

from __future__ import annotations

import argparse
import html as html_module
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.obs.events import (
    OccupancySample,
    PassFinished,
    RunFinished,
    RunStarted,
    TelemetryEvent,
)
from repro.obs.diagnostics import EstimatePoint, estimate_trace
from repro.obs.sinks import read_jsonl_events
from repro.obs.trace import (
    SpanRecord,
    read_chrome_trace,
    spans_from_events,
    stitch_chrome_traces,
    stitch_spans,
)

__all__ = ["RunData", "load_run_data", "render_report", "build_parser", "run_obs_report", "main"]


@dataclass
class RunData:
    """Everything the report renders, from whichever inputs were given."""

    events: List[TelemetryEvent] = field(default_factory=list)
    spans: List[SpanRecord] = field(default_factory=list)
    log_path: Optional[str] = None
    trace_path: Optional[str] = None
    log_paths: List[str] = field(default_factory=list)
    trace_paths: List[str] = field(default_factory=list)


def _as_paths(value: Any) -> List[str]:
    if value is None:
        return []
    if isinstance(value, (str, os.PathLike)):
        return [str(value)]
    return [str(v) for v in value]


def load_run_data(
    log_path: Any = None, trace_path: Any = None
) -> RunData:
    """Load telemetry log(s) and/or trace file(s) into one :class:`RunData`.

    Either argument accepts a single path or a sequence of paths (a
    routed serve run leaves one file per process).  Event streams
    concatenate in the given order; multiple span sets **stitch** by
    deterministic span identity, so the router's and workers' views of
    the same session collapse into one tree.  A log alone still yields
    spans when the run traced into the same JSONL (``SpanFinished``
    events); a trace file alone yields only the timeline sections.
    """
    logs, traces = _as_paths(log_path), _as_paths(trace_path)
    if not logs and not traces:
        raise ValueError("obs-report needs a telemetry log, a trace file, or both")
    data = RunData(
        log_path=logs[0] if logs else None,
        trace_path=traces[0] if traces else None,
        log_paths=logs,
        trace_paths=traces,
    )
    for path in logs:
        data.events.extend(read_jsonl_events(path))
    if traces:
        # Trace files are authoritative for spans when both are given
        # (identical content, but already ordered by track).
        if len(traces) == 1:
            data.spans = read_chrome_trace(traces[0])
        else:
            data.spans = stitch_spans([read_chrome_trace(path) for path in traces])
    elif len(logs) == 1:
        data.spans = spans_from_events(data.events)
    elif logs:
        data.spans = stitch_spans(
            [spans_from_events(read_jsonl_events(path)) for path in logs]
        )
    return data


# -- section extraction -------------------------------------------------------

def _first(events: Sequence[TelemetryEvent], event_type: type) -> Optional[Any]:
    for event in events:
        if isinstance(event, event_type):
            return event
    return None


def _last(events: Sequence[TelemetryEvent], event_type: type) -> Optional[Any]:
    found = None
    for event in events:
        if isinstance(event, event_type):
            found = event
    return found


def _summary_rows(data: RunData) -> List[Tuple[str, str]]:
    rows: List[Tuple[str, str]] = []
    started = _first(data.events, RunStarted)
    finished = _last(data.events, RunFinished)
    if started is not None:
        rows.append(("algorithm", started.algorithm))
        rows.append(("passes", str(started.passes)))
        rows.append(("pairs per pass", str(started.pairs_per_pass)))
    if finished is not None:
        rows.append(("estimate", f"{finished.estimate:g}"))
        rows.append(("peak space (words)", str(finished.peak_space_words)))
        rows.append(("mean space (words)", f"{finished.mean_space_words:g}"))
        rows.append(("wall time (s)", f"{finished.seconds:.4g}"))
        rows.append(("pairs/s", f"{finished.pairs_per_second:,.0f}"))
    if not rows and data.spans:
        root = min(data.spans, key=lambda s: len(s.path))
        rows.append(("trace root", root.path))
        rows.append(("spans", str(len(data.spans))))
    return rows


@dataclass(frozen=True)
class TimelineRow:
    """One span prepared for rendering."""

    label: str
    category: str
    start_s: float
    duration_s: float
    depth: int


def _timeline_rows(data: RunData) -> List[TimelineRow]:
    rows: List[TimelineRow] = []
    if data.spans:
        base = min(span.start_s for span in data.spans)
        ordered = sorted(data.spans, key=lambda s: (s.start_s, s.path))
        for span in ordered:
            rows.append(
                TimelineRow(
                    label=span.path,
                    category=span.category,
                    start_s=span.start_s - base,
                    duration_s=max(0.0, span.end_s - span.start_s),
                    depth=span.path.count("/"),
                )
            )
        return rows
    # Log-only fallback: one row per finished pass, laid end to end.
    cursor = 0.0
    for event in data.events:
        if isinstance(event, PassFinished):
            rows.append(
                TimelineRow(
                    label=f"pass:{event.pass_index}",
                    category="pass",
                    start_s=cursor,
                    duration_s=event.seconds,
                    depth=1,
                )
            )
            cursor += event.seconds
    return rows


def _throughput_rows(data: RunData) -> List[Tuple[str, str, str, str]]:
    rows: List[Tuple[str, str, str, str]] = []
    for event in data.events:
        if isinstance(event, PassFinished):
            rows.append(
                (
                    f"pass:{event.pass_index}",
                    str(event.pairs),
                    f"{event.seconds:.4g}",
                    f"{event.pairs_per_second:,.0f}",
                )
            )
    return rows


def _occupancy_rows(data: RunData) -> List[Tuple[str, str]]:
    last = _last(data.events, OccupancySample)
    if last is None:
        return []
    return [(name, f"{last.gauges[name]:g}") for name in sorted(last.gauges)]


def _sparkline(values: Sequence[float]) -> str:
    """Eight-level unicode sparkline (empty string for no data)."""
    if not values:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    low, high = min(values), max(values)
    if high == low:
        return blocks[0] * len(values)
    scale = (len(blocks) - 1) / (high - low)
    return "".join(blocks[int(round((v - low) * scale))] for v in values)


def _downsample(points: Sequence[EstimatePoint], limit: int = 60) -> List[EstimatePoint]:
    if len(points) <= limit:
        return list(points)
    step = (len(points) - 1) / (limit - 1)
    picked = [points[int(round(i * step))] for i in range(limit - 1)]
    picked.append(points[-1])
    return picked


# -- renderers ----------------------------------------------------------------

_BAR_WIDTH = 40


def _timeline_text(rows: Sequence[TimelineRow]) -> List[str]:
    if not rows:
        return ["  (no span or pass data)"]
    total = max((row.start_s + row.duration_s) for row in rows) or 1.0
    lines = []
    width = max(len(row.label) for row in rows)
    for row in rows:
        begin = int(round(row.start_s / total * _BAR_WIDTH))
        length = max(1, int(round(row.duration_s / total * _BAR_WIDTH)))
        bar = " " * begin + "█" * min(length, _BAR_WIDTH - begin)
        lines.append(
            f"  {row.label:<{width}}  |{bar:<{_BAR_WIDTH}}| {row.duration_s * 1e3:8.2f} ms"
        )
    return lines


def render_text(data: RunData, truth: Optional[float] = None) -> str:
    lines: List[str] = ["run summary", "-----------"]
    rows = _summary_rows(data)
    if rows:
        width = max(len(k) for k, _ in rows)
        lines.extend(f"  {k:<{width}}  {v}" for k, v in rows)
    else:
        lines.append("  (no run events)")

    lines.extend(["", "phase timeline", "--------------"])
    lines.extend(_timeline_text(_timeline_rows(data)))

    throughput = _throughput_rows(data)
    if throughput:
        lines.extend(["", "throughput", "----------"])
        for label, pairs, seconds, rate in throughput:
            lines.append(f"  {label}: {pairs} pairs in {seconds}s ({rate} pairs/s)")

    occupancy = _occupancy_rows(data)
    if occupancy:
        lines.extend(["", "sampler occupancy (final)", "-------------------------"])
        width = max(len(k) for k, _ in occupancy)
        lines.extend(f"  {k:<{width}}  {v}" for k, v in occupancy)

    points = estimate_trace(data.events, truth)
    if points:
        sampled = _downsample(points)
        lines.extend(["", "convergence", "-----------"])
        lines.append(f"  samples: {len(points)}   final estimate: {points[-1].estimate:g}")
        lines.append(f"  estimate  {_sparkline([p.estimate for p in sampled])}")
        if truth is not None:
            errors = [p.relative_error for p in sampled if p.relative_error is not None]
            if errors:
                lines.append(f"  rel error {_sparkline(errors)}")
                final_err = points[-1].relative_error
                if final_err is not None:
                    lines.append(f"  final relative error: {final_err:.3g} (truth {truth:g})")
    return "\n".join(lines) + "\n"


_CATEGORY_COLORS = {
    "run": "#5b7aa9",
    "pass": "#4c9f70",
    "shard": "#c78f3d",
    "trial": "#8f6fb5",
    "merge": "#b55454",
    "checkpoint": "#777777",
    "phase": "#5b9aa9",
}


def _svg_polyline(points: Sequence[EstimatePoint], width: int, height: int) -> str:
    values = [p.estimate for p in points]
    low, high = min(values), max(values)
    spread = (high - low) or 1.0
    coords = []
    for index, value in enumerate(values):
        x = index / max(1, len(values) - 1) * (width - 10) + 5
        y = height - 5 - (value - low) / spread * (height - 10)
        coords.append(f"{x:.1f},{y:.1f}")
    return (
        f'<svg viewBox="0 0 {width} {height}" class="curve">'
        f'<polyline fill="none" stroke="#4c9f70" stroke-width="1.5" '
        f'points="{" ".join(coords)}"/></svg>'
    )


def render_html(data: RunData, truth: Optional[float] = None) -> str:
    esc = html_module.escape
    parts: List[str] = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'><title>Run report</title>",
        "<style>",
        "body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:60em;color:#222}",
        "h1,h2{font-weight:600} table{border-collapse:collapse;margin:0.5em 0}",
        "td,th{border:1px solid #ccc;padding:0.25em 0.75em;text-align:left}",
        "td.num,th.num{text-align:right}",
        ".lane{position:relative;height:1.2em;background:#f2f2f2;margin:2px 0}",
        ".lane span{position:absolute;top:0;bottom:0;border-radius:2px;opacity:0.85}",
        ".lane .label{position:static;display:inline-block;padding-left:0.4em;"
        "font-size:11px;color:#333;white-space:nowrap}",
        ".curve{width:100%;height:120px;background:#fafafa;border:1px solid #ddd}",
        "</style></head><body>",
        "<h1>Run report</h1>",
    ]
    sources = list(data.log_paths) + list(data.trace_paths)
    if sources:
        parts.append(f"<p>sources: {esc(', '.join(sources))}</p>")

    rows = _summary_rows(data)
    if rows:
        parts.append("<h2>Summary</h2><table>")
        parts.extend(f"<tr><th>{esc(k)}</th><td>{esc(v)}</td></tr>" for k, v in rows)
        parts.append("</table>")

    timeline = _timeline_rows(data)
    if timeline:
        total = max((r.start_s + r.duration_s) for r in timeline) or 1.0
        parts.append("<h2>Phase timeline</h2>")
        for row in timeline:
            left = row.start_s / total * 100
            width = max(0.5, row.duration_s / total * 100)
            color = _CATEGORY_COLORS.get(row.category, "#5b9aa9")
            parts.append(
                f'<div class="lane"><span style="left:{left:.2f}%;width:{width:.2f}%;'
                f'background:{color}"></span><span class="label">{esc(row.label)} '
                f"&mdash; {row.duration_s * 1e3:.2f} ms</span></div>"
            )

    throughput = _throughput_rows(data)
    if throughput:
        parts.append(
            "<h2>Throughput</h2><table><tr><th>pass</th><th class='num'>pairs</th>"
            "<th class='num'>seconds</th><th class='num'>pairs/s</th></tr>"
        )
        parts.extend(
            f"<tr><td>{esc(a)}</td><td class='num'>{esc(b)}</td>"
            f"<td class='num'>{esc(c)}</td><td class='num'>{esc(d)}</td></tr>"
            for a, b, c, d in throughput
        )
        parts.append("</table>")

    occupancy = _occupancy_rows(data)
    if occupancy:
        parts.append("<h2>Sampler occupancy (final)</h2><table>")
        parts.extend(
            f"<tr><th>{esc(k)}</th><td class='num'>{esc(v)}</td></tr>" for k, v in occupancy
        )
        parts.append("</table>")

    points = estimate_trace(data.events, truth)
    if points:
        parts.append("<h2>Convergence</h2>")
        parts.append(
            f"<p>{len(points)} samples, final estimate {points[-1].estimate:g}"
            + (
                f", final relative error {points[-1].relative_error:.3g} (truth {truth:g})"
                if truth is not None and points[-1].relative_error is not None
                else ""
            )
            + "</p>"
        )
        parts.append(_svg_polyline(_downsample(points, 200), 600, 120))

    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


_RENDERERS = {"text": render_text, "html": render_html}


def render_report(data: RunData, fmt: str = "text", truth: Optional[float] = None) -> str:
    """Render ``data`` as ``text`` or ``html``."""
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown obs-report format {fmt!r}") from None
    return renderer(data, truth)


# -- CLI ----------------------------------------------------------------------

def build_parser(parser: Optional[argparse.ArgumentParser] = None) -> argparse.ArgumentParser:
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro-cycles obs-report",
            description="Render a run report from telemetry and/or trace files.",
        )
    parser.add_argument(
        "mode",
        nargs="?",
        choices=("report", "stitch-trace"),
        default="report",
        help="report (default) renders the run report; stitch-trace merges "
        "the --trace files into one Chrome trace written to --out",
    )
    parser.add_argument(
        "--log",
        action="append",
        default=None,
        help="JSONL telemetry log (--telemetry output); repeat to merge "
        "several processes' logs into one report",
    )
    parser.add_argument(
        "--trace",
        action="append",
        default=None,
        help="Chrome trace file (--trace output); repeat to stitch several "
        "processes' traces into one span tree",
    )
    parser.add_argument(
        "--truth",
        type=float,
        default=None,
        help="ground-truth count; adds relative errors to the convergence section",
    )
    parser.add_argument("--format", choices=sorted(_RENDERERS), default="text")
    parser.add_argument("--out", default=None, help="write the report to a file instead of stdout")
    return parser


def run_obs_report(args: argparse.Namespace) -> int:
    if getattr(args, "mode", "report") == "stitch-trace":
        traces = _as_paths(args.trace)
        if not traces:
            print("obs-report: stitch-trace needs at least one --trace", file=sys.stderr)
            return 2
        if not args.out:
            print("obs-report: stitch-trace needs --out TRACE_PATH", file=sys.stderr)
            return 2
        try:
            stitched = stitch_chrome_traces(traces, args.out)
        except (OSError, ValueError, json.JSONDecodeError, KeyError) as exc:
            print(f"obs-report: {exc}", file=sys.stderr)
            return 2
        print(
            f"obs-report: stitched {len(stitched)} span(s) from "
            f"{len(traces)} file(s) into {os.path.abspath(args.out)}",
            file=sys.stderr,
        )
        return 0
    if args.log is None and args.trace is None:
        print("obs-report: pass --log and/or --trace", file=sys.stderr)
        return 2
    try:
        data = load_run_data(args.log, args.trace)
    except (OSError, ValueError, json.JSONDecodeError, KeyError) as exc:
        print(f"obs-report: {exc}", file=sys.stderr)
        return 2
    report = render_report(data, args.format, args.truth)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"obs-report: wrote {os.path.abspath(args.out)}", file=sys.stderr)
    else:
        print(report, end="")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run_obs_report(build_parser().parse_args(argv))


if __name__ == "__main__":
    import sys

    sys.exit(main())
