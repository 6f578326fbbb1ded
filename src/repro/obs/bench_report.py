"""``repro-cycles bench-report`` — the benchmark regression gate.

Loads pairs of benchmark artifacts (``BENCH_*.json`` as written by
``benchmarks/bench_parallel_scaling.py`` / ``bench_shard_merge.py``, or a
``.jsonl`` telemetry log from the JSONL sink), computes per-metric deltas
against a baseline, and renders a report.  Exit code 1 signals a
regression beyond threshold — the CI ``bench-regression`` job gates on
exactly that.

Metrics are classified by key so the gate stays meaningful across
machines:

* **invariants** — booleans (``bit_identical``, ``merge_identity.*``) and
  seeded ``estimate`` values.  These are machine-independent statements
  of correctness/determinism; any degradation is a regression regardless
  of threshold.
* **resources** — ``*space_words*``, ``*imbalance*``, ``*error*``,
  ``*stddev*`` (lower is better) and ``*rate*``/``*success*`` (higher is
  better).  Gated by the relative ``--threshold`` (override per metric
  with ``--threshold-for 'GLOB=VALUE'``).
* **timing** — ``*seconds*``, ``*per_second*``, ``*speedup*``.  Reported
  but NOT gated by default: wall time measured on different machines (a
  laptop baseline vs. a CI runner) is incomparable.  ``--gate-timing``
  promotes them to gated resources for same-machine comparisons.
* **context** — workload shape (``n``, ``m``, ``runs``, ``budgets``,
  ``cpu_count``, ...).  Compared for equality and surfaced as a warning
  on mismatch, because deltas between different workloads mean nothing.

Artifacts may additionally carry **self-declared gates**: a top-level
``"gates"`` list of ``{"metric": <flat key>, "min": <floor>}`` records
(``"max"`` for ceilings).  Unlike the baseline-relative thresholds
above, gates are *absolute* assertions evaluated against the current
artifact alone — e.g. "the columnar fast path is at least 5x the scalar
baseline at this workload".  A failed gate is a regression (exit 1)
even when the baseline shows the same value.  Gates marked
``"needs_parallelism": true`` are skipped — visibly, with a note, never
silently — when the artifact was produced on a single-core machine
(``cpu_count == 1``), where no parallel speedup is physically possible.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import COUNTER, GAUGE, Snapshot

__all__ = [
    "main",
    "build_parser",
    "compare_files",
    "evaluate_gates",
    "load_artifact",
    "load_flat_metrics",
    "FileComparison",
]

# -- classification -----------------------------------------------------------

INVARIANT = "invariant"
RESOURCE_LOW = "resource-lower-better"
RESOURCE_HIGH = "resource-higher-better"
TIMING_LOW = "timing-lower-better"
TIMING_HIGH = "timing-higher-better"
CONTEXT = "context"
INFO = "info"
GATE = "gate"

_CONTEXT_LEAVES = {
    "n", "m", "quick", "cpu_count", "runs", "workers", "budget", "budgets",
    "interval", "n_shards", "strategy", "passes", "pairs", "shards", "count",
}

_STATUS_OK = "ok"
_STATUS_REGRESSION = "regression"
_STATUS_IMPROVED = "improved"
_STATUS_INFO = "info"
_STATUS_MISMATCH = "context-mismatch"
_STATUS_MISSING = "missing"
_STATUS_SKIPPED = "skipped"


def classify(key: str, value: Any) -> str:
    """Assign a metric key to a gate class (see module docstring)."""
    leaf = key.rsplit(".", 1)[-1]
    leaf_base = leaf.rsplit(".", 1)[-1]
    if leaf_base.isdigit():  # list element: classify by its parent name
        leaf = key.split(".")[-2] if "." in key else leaf
    if isinstance(value, bool):
        return INVARIANT
    if leaf in _CONTEXT_LEAVES:
        return CONTEXT
    if "per_second" in leaf or "speedup" in leaf:
        return TIMING_HIGH
    if "seconds" in leaf or leaf.endswith("_time") or "wall_time" in leaf:
        return TIMING_LOW
    if "estimate" in leaf:
        return INVARIANT
    if "words" in leaf or "imbalance" in leaf or "error" in leaf or "stddev" in leaf:
        return RESOURCE_LOW
    if "rate" in leaf or "success" in leaf:
        return RESOURCE_HIGH
    if not isinstance(value, (int, float)):
        return CONTEXT
    return INFO


# -- loading ------------------------------------------------------------------

def _flatten(prefix: str, node: Any, out: Dict[str, Any]) -> None:
    if isinstance(node, dict):
        for key in node:
            _flatten(f"{prefix}.{key}" if prefix else str(key), node[key], out)
    elif isinstance(node, (list, tuple)):
        for index, item in enumerate(node):
            _flatten(f"{prefix}.{index}", item, out)
    else:
        out[prefix] = node


def _flatten_telemetry(snapshot: Snapshot) -> Dict[str, Any]:
    """Flatten a JSONL metric snapshot into comparable scalar leaves."""
    out: Dict[str, Any] = {}
    for series_key in sorted(snapshot):
        blob = snapshot[series_key]
        kind = blob["kind"]
        if kind == COUNTER:
            out[f"{series_key}.value"] = blob["value"]
        elif kind == GAUGE:
            out[f"{series_key}.value"] = blob["value"]
            out[f"{series_key}.high_water"] = blob["high_water"]
        else:  # histogram: every one records wall time
            out[f"{series_key}.total_seconds"] = blob["total"]
            out[f"{series_key}.count"] = blob["count"]
    return out


def load_artifact(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Load one artifact: ``(flat metrics, self-declared gates)``.

    The top-level ``"gates"`` list (absent from telemetry logs and most
    artifacts) is split out rather than flattened, so gate declarations
    never show up as metric deltas against baselines that predate them.
    """
    if path.endswith(".jsonl"):
        from repro.obs.sinks import InMemorySink, read_jsonl_events

        sink = InMemorySink()
        for event in read_jsonl_events(path):
            sink.emit(event)
        metrics = sink.metrics()
        if metrics is None:
            raise ValueError(
                f"{path}: no MetricsReport event found (was the telemetry "
                "closed cleanly?)"
            )
        return _flatten_telemetry(metrics), []
    with open(path) as fh:
        document = json.load(fh)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    gates = document.pop("gates", [])
    if not isinstance(gates, list):
        raise ValueError(f"{path}: 'gates' must be a list of gate records")
    flat: Dict[str, Any] = {}
    _flatten("", document, flat)
    return flat, gates


def load_flat_metrics(path: str) -> Dict[str, Any]:
    """Load one artifact (BENCH json or ``.jsonl`` telemetry log), flat."""
    return load_artifact(path)[0]


# -- self-declared gates ------------------------------------------------------

def evaluate_gates(
    flat: Dict[str, Any], gates: Sequence[Dict[str, Any]]
) -> List["MetricDelta"]:
    """Evaluate an artifact's self-declared gates against its own metrics.

    Each gate asserts an absolute floor (``"min"``) and/or ceiling
    (``"max"``) on one flat metric key of the *current* artifact — no
    baseline involved.  Results come back as :class:`MetricDelta` rows
    (kind :data:`GATE`) with ``baseline`` holding the bound so the
    renderers show ``floor -> measured``:

    * bound violated → ``regression`` (gates the exit code),
    * ``needs_parallelism`` on a single-core artifact → ``skipped`` with
      a visible note (a 1-core box cannot show a parallel speedup, and
      pretending it failed would just teach people to ignore the gate),
    * metric absent or malformed gate → ``missing`` warning.
    """
    deltas: List[MetricDelta] = []
    cpu_count = flat.get("cpu_count")
    if not isinstance(cpu_count, int) or isinstance(cpu_count, bool):
        cpu_count = os.cpu_count() or 1
    for gate in gates:
        metric = gate.get("metric") if isinstance(gate, dict) else None
        floor = gate.get("min") if isinstance(gate, dict) else None
        ceiling = gate.get("max") if isinstance(gate, dict) else None
        bound = floor if floor is not None else ceiling
        key = f"gate:{metric}"
        if metric is None or bound is None:
            deltas.append(
                MetricDelta(
                    key=key, kind=GATE, baseline=None, current=None,
                    relative_delta=None, threshold=None,
                    status=_STATUS_MISSING,
                    note=f"malformed gate record {gate!r} (need metric and min/max)",
                )
            )
            continue
        value = flat.get(metric)
        if gate.get("needs_parallelism") and cpu_count <= 1:
            deltas.append(
                MetricDelta(
                    key=key, kind=GATE, baseline=bound, current=value,
                    relative_delta=None, threshold=float(bound),
                    status=_STATUS_SKIPPED,
                    note=(
                        f"speedup gate skipped: cpu_count={cpu_count} — no "
                        "parallelism available on this machine"
                    ),
                )
            )
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            deltas.append(
                MetricDelta(
                    key=key, kind=GATE, baseline=bound, current=value,
                    relative_delta=None, threshold=float(bound),
                    status=_STATUS_MISSING,
                    note="gated metric absent from artifact",
                )
            )
            continue
        failures = []
        if floor is not None and value < floor:
            failures.append(f"{_fmt(value)} below floor {_fmt(float(floor))}")
        if ceiling is not None and value > ceiling:
            failures.append(f"{_fmt(value)} above ceiling {_fmt(float(ceiling))}")
        if failures:
            status, note = _STATUS_REGRESSION, "; ".join(failures)
        else:
            status = _STATUS_OK
            bounds = []
            if floor is not None:
                bounds.append(f">= {_fmt(float(floor))}")
            if ceiling is not None:
                bounds.append(f"<= {_fmt(float(ceiling))}")
            note = f"gate met ({', '.join(bounds)})"
        deltas.append(
            MetricDelta(
                key=key, kind=GATE, baseline=bound, current=value,
                relative_delta=None, threshold=float(bound),
                status=status, note=note,
            )
        )
    return deltas


# -- comparison ---------------------------------------------------------------

@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline-vs-current comparison."""

    key: str
    kind: str
    baseline: Any
    current: Any
    relative_delta: Optional[float]
    threshold: Optional[float]
    status: str
    note: str = ""


@dataclass
class FileComparison:
    """All deltas for one (current, baseline) artifact pair."""

    current_path: str
    baseline_path: str
    deltas: List[MetricDelta] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status == _STATUS_REGRESSION]

    @property
    def warnings(self) -> List[MetricDelta]:
        return [
            d for d in self.deltas
            if d.status in (_STATUS_MISMATCH, _STATUS_MISSING, _STATUS_SKIPPED)
        ]


def _relative_delta(baseline: float, current: float) -> Optional[float]:
    if baseline == 0:
        return None if current == 0 else float("inf") * (1 if current > 0 else -1)
    return (current - baseline) / abs(baseline)


def _threshold_for(key: str, default: float, overrides: Sequence[Tuple[str, float]]) -> float:
    for pattern, value in overrides:
        if fnmatch.fnmatch(key, pattern):
            return value
    return default


def compare_pair(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    threshold: float,
    overrides: Sequence[Tuple[str, float]] = (),
    gate_timing: bool = False,
) -> List[MetricDelta]:
    """Compare two flat metric dicts key by key."""
    deltas: List[MetricDelta] = []
    for key in sorted(set(baseline) | set(current)):
        if key not in current or key not in baseline:
            side = "current" if key not in current else "baseline"
            present = baseline.get(key, current.get(key))
            deltas.append(
                MetricDelta(
                    key=key,
                    kind=classify(key, present),
                    baseline=baseline.get(key),
                    current=current.get(key),
                    relative_delta=None,
                    threshold=None,
                    status=_STATUS_MISSING,
                    note=f"absent from {side} artifact",
                )
            )
            continue
        base, cur = baseline[key], current[key]
        kind = classify(key, base)
        if kind == CONTEXT:
            status = _STATUS_OK if base == cur else _STATUS_MISMATCH
            note = "" if base == cur else "workloads differ; deltas unreliable"
            deltas.append(MetricDelta(key, kind, base, cur, None, None, status, note))
            continue
        if kind == INVARIANT:
            if isinstance(base, bool) or isinstance(cur, bool):
                degraded = bool(base) and not bool(cur)
                improved = not bool(base) and bool(cur)
                status = (
                    _STATUS_REGRESSION if degraded
                    else _STATUS_IMPROVED if improved
                    else _STATUS_OK
                )
                note = "invariant flipped to false" if degraded else ""
            else:
                rel = _relative_delta(float(base), float(cur))
                equal = rel is None or abs(rel) <= 1e-9
                status = _STATUS_OK if equal else _STATUS_REGRESSION
                note = "" if equal else "seeded value changed: determinism broken"
            deltas.append(MetricDelta(key, kind, base, cur, None, None, status, note))
            continue
        # Numeric metric with a direction (or info).
        rel = _relative_delta(float(base), float(cur))
        gated = kind in (RESOURCE_LOW, RESOURCE_HIGH) or (
            gate_timing and kind in (TIMING_LOW, TIMING_HIGH)
        )
        limit = _threshold_for(key, threshold, overrides) if gated else None
        status = _STATUS_INFO
        note = ""
        if gated and rel is not None and limit is not None:
            lower_better = kind in (RESOURCE_LOW, TIMING_LOW)
            worse = rel > limit if lower_better else rel < -limit
            better = rel < -limit if lower_better else rel > limit
            status = (
                _STATUS_REGRESSION if worse
                else _STATUS_IMPROVED if better
                else _STATUS_OK
            )
            if worse:
                direction = "rose" if lower_better else "fell"
                note = f"{direction} {abs(rel):.1%} (limit {limit:.0%})"
        deltas.append(MetricDelta(key, kind, base, cur, rel, limit, status, note))
    return deltas


def _pair_files(current: Sequence[str], against: Sequence[str]) -> List[Tuple[str, str]]:
    """Match current artifacts to baselines by basename, else by position."""
    by_name = {os.path.basename(path): path for path in against}
    if len(by_name) == len(against) and all(
        os.path.basename(path) in by_name for path in current
    ):
        return [(path, by_name[os.path.basename(path)]) for path in current]
    if len(current) != len(against):
        raise ValueError(
            f"cannot pair {len(current)} current artifact(s) with "
            f"{len(against)} baseline(s); use matching basenames or counts"
        )
    return list(zip(current, against))


def compare_files(
    current: Sequence[str],
    against: Sequence[str],
    *,
    threshold: float,
    overrides: Sequence[Tuple[str, float]] = (),
    gate_timing: bool = False,
) -> List[FileComparison]:
    comparisons = []
    for current_path, baseline_path in _pair_files(current, against):
        current_flat, current_gates = load_artifact(current_path)
        deltas = compare_pair(
            current_flat,
            load_flat_metrics(baseline_path),
            threshold=threshold,
            overrides=overrides,
            gate_timing=gate_timing,
        )
        # Self-declared gates: absolute assertions on the current artifact.
        deltas.extend(evaluate_gates(current_flat, current_gates))
        comparisons.append(FileComparison(current_path, baseline_path, deltas))
    return comparisons


# -- rendering ----------------------------------------------------------------

def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _fmt_rel(delta: MetricDelta) -> str:
    if delta.relative_delta is None:
        return "-"
    return f"{delta.relative_delta:+.1%}"


def _interesting(delta: MetricDelta) -> bool:
    if delta.kind == GATE:  # gates are assertions; always show the verdict
        return True
    return delta.status in (_STATUS_REGRESSION, _STATUS_IMPROVED, _STATUS_MISMATCH, _STATUS_MISSING)


def render_text(comparisons: Sequence[FileComparison], verbose: bool = False) -> str:
    lines: List[str] = []
    total_regressions = 0
    for comparison in comparisons:
        lines.append(f"{comparison.current_path} vs {comparison.baseline_path}")
        shown = [d for d in comparison.deltas if verbose or _interesting(d)]
        if not shown:
            lines.append("  all metrics within threshold")
        for delta in shown:
            marker = {
                _STATUS_REGRESSION: "REGRESSION",
                _STATUS_IMPROVED: "improved",
                _STATUS_MISMATCH: "warning",
                _STATUS_MISSING: "warning",
                _STATUS_SKIPPED: "skipped",
                _STATUS_OK: "ok",
                _STATUS_INFO: "info",
            }[delta.status]
            lines.append(
                f"  [{marker:>10}] {delta.key}: {_fmt(delta.baseline)} -> "
                f"{_fmt(delta.current)} ({_fmt_rel(delta)})"
                + (f"  {delta.note}" if delta.note else "")
            )
        total_regressions += len(comparison.regressions)
    lines.append(
        f"{len(comparisons)} artifact pair(s), {total_regressions} regression(s)"
    )
    return "\n".join(lines)


def render_markdown(comparisons: Sequence[FileComparison], verbose: bool = False) -> str:
    lines: List[str] = ["# Benchmark regression report", ""]
    total_regressions = 0
    for comparison in comparisons:
        total_regressions += len(comparison.regressions)
        lines.append(
            f"## `{os.path.basename(comparison.current_path)}` vs baseline"
        )
        lines.append("")
        lines.append("| metric | baseline | current | delta | status |")
        lines.append("|---|---:|---:|---:|---|")
        shown = [d for d in comparison.deltas if verbose or _interesting(d)]
        if not shown:
            lines.append("| _all metrics within threshold_ | | | | ok |")
        for delta in shown:
            status = delta.status + (f" — {delta.note}" if delta.note else "")
            lines.append(
                f"| `{delta.key}` | {_fmt(delta.baseline)} | {_fmt(delta.current)} "
                f"| {_fmt_rel(delta)} | {status} |"
            )
        lines.append("")
    verdict = "❌ regressions detected" if total_regressions else "✅ no regressions"
    lines.append(f"**{verdict}** ({len(comparisons)} artifact pair(s))")
    return "\n".join(lines)


def render_json(comparisons: Sequence[FileComparison]) -> str:
    document = {
        "pairs": [
            {
                "current": c.current_path,
                "baseline": c.baseline_path,
                "regressions": len(c.regressions),
                "deltas": [
                    {
                        "key": d.key,
                        "kind": d.kind,
                        "baseline": d.baseline,
                        "current": d.current,
                        "relative_delta": d.relative_delta,
                        "threshold": d.threshold,
                        "status": d.status,
                        "note": d.note,
                    }
                    for d in c.deltas
                ],
            }
            for c in comparisons
        ],
        "total_regressions": sum(len(c.regressions) for c in comparisons),
    }
    return json.dumps(document, indent=2)


def render_github(comparisons: Sequence[FileComparison], verbose: bool = False) -> str:
    """Markdown body plus ``::error``/``::warning`` workflow annotations."""
    lines = [render_markdown(comparisons, verbose=verbose)]
    for comparison in comparisons:
        for delta in comparison.regressions:
            lines.append(
                f"::error title=bench regression::{delta.key} "
                f"({os.path.basename(comparison.current_path)}): "
                f"{_fmt(delta.baseline)} -> {_fmt(delta.current)} {delta.note}"
            )
        for delta in comparison.warnings:
            lines.append(
                f"::warning title=bench report::{delta.key} "
                f"({os.path.basename(comparison.current_path)}): {delta.note or delta.status}"
            )
    return "\n".join(lines)


_RENDERERS = {
    "text": render_text,
    "markdown": render_markdown,
    "github": render_github,
}


# -- CLI ----------------------------------------------------------------------

def _parse_override(spec: str) -> Tuple[str, float]:
    pattern, sep, value = spec.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected GLOB=VALUE, got {spec!r} (e.g. '*.space_words=0.5')"
        )
    try:
        return pattern, float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad threshold in {spec!r}: {exc}") from exc


def build_parser(parser: Optional[argparse.ArgumentParser] = None) -> argparse.ArgumentParser:
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro-cycles bench-report",
            description="Compare benchmark artifacts and gate on regressions.",
        )
    parser.add_argument(
        "current",
        nargs="+",
        help="freshly produced BENCH_*.json artifacts (or .jsonl telemetry logs)",
    )
    parser.add_argument(
        "--against",
        nargs="+",
        required=True,
        metavar="BASELINE",
        help="baseline artifacts to compare against (matched by basename)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative degradation tolerated on gated metrics (default 0.25)",
    )
    parser.add_argument(
        "--threshold-for",
        type=_parse_override,
        action="append",
        default=[],
        metavar="GLOB=VALUE",
        help="per-metric threshold override (repeatable; fnmatch on the key)",
    )
    parser.add_argument(
        "--gate-timing",
        action="store_true",
        help="also gate wall-time metrics (same-machine comparisons only)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "markdown", "json", "github"),
        default="text",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="show every metric, not just regressions/warnings",
    )
    parser.add_argument("--out", default=None, help="also write the report to a file")
    return parser


def run_report(args: argparse.Namespace) -> int:
    try:
        comparisons = compare_files(
            args.current,
            args.against,
            threshold=args.threshold,
            overrides=args.threshold_for,
            gate_timing=args.gate_timing,
        )
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"bench-report: {exc}")
        return 2
    if args.format == "json":
        report = render_json(comparisons)
    else:
        report = _RENDERERS[args.format](comparisons, verbose=args.verbose)
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
    return 1 if any(c.regressions for c in comparisons) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run_report(args)


if __name__ == "__main__":
    import sys

    sys.exit(main())
