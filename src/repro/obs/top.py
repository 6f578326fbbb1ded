"""``repro-cycles top`` — a live terminal view of a routed serve fleet.

Polls the router's ``/metrics`` scrape endpoint (``serve --workers N
--metrics-port P``), parses the Prometheus text exposition back into a
metric snapshot (:func:`repro.obs.sinks.parse_textfile` — the same
round-trip the tests pin), and renders:

* the **fleet header** — worker count, scrape count, open sessions;
* the **SLO panel** — every ``router_slo_*`` gauge with its pass/fail
  flag from ``router_slo_ok{objective=...}``;
* the **per-worker table** — open/total sessions, ingested pairs and the
  pairs/s rate over the poll interval (computed from counter deltas
  between consecutive scrapes);
* **latency sparklines** — the live ``serve_op_latency_seconds``
  histograms pooled per op, rendered as bucket-count sparklines with
  p50/p99 (conservative upper-bound quantiles).

``--once`` prints a single frame and exits (the CI mode); otherwise the
screen refreshes every ``--interval`` seconds until Ctrl-C.  Exit code 0
on a clean exit, 2 when the endpoint cannot be scraped in ``--once``
mode (a live loop keeps retrying and shows the error inline).
"""

from __future__ import annotations

import argparse
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import Snapshot, histogram_quantile, parse_series
from repro.obs.obs_report import _sparkline
from repro.obs.sinks import parse_textfile
from repro.obs.slo import pooled_histogram

__all__ = ["fetch_metrics", "render_top", "build_parser", "run_top", "main"]

#: Ops worth a latency row, in display order.
_LATENCY_OPS = ("feed", "poll", "merge", "snapshot")

_CLEAR = "\x1b[2J\x1b[H"


def fetch_metrics(url: str, timeout: float = 5.0) -> Snapshot:
    """Scrape ``url`` and parse the exposition into a metric snapshot."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        text = response.read().decode("utf-8")
    snapshot, _ = parse_textfile(text)
    return snapshot


def _series(snapshot: Snapshot, name: str) -> List[Tuple[Dict[str, str], Dict[str, Any]]]:
    out = []
    for series_key in sorted(snapshot):
        series_name, labels = parse_series(series_key)
        if series_name == name:
            out.append((labels, snapshot[series_key]))
    return out


def _value(snapshot: Snapshot, name: str, **where: str) -> Optional[float]:
    for labels, blob in _series(snapshot, name):
        if all(labels.get(k) == v for k, v in where.items()):
            return float(blob.get("value", 0.0))
    return None


def _worker_rows(
    snapshot: Snapshot, prev: Optional[Snapshot], interval_s: Optional[float]
) -> List[Tuple[str, str, str, str, str]]:
    workers: Dict[str, Dict[str, float]] = {}
    for name, column in (
        ("serve_sessions_open", "open"),
        ("serve_sessions_total", "total"),
        ("serve_session_pairs_total", "pairs"),
    ):
        for labels, blob in _series(snapshot, name):
            worker = labels.get("worker")
            if worker is None:
                continue
            slot = workers.setdefault(worker, {})
            slot[column] = slot.get(column, 0.0) + float(blob.get("value", 0.0))
    rows = []
    for worker in sorted(workers, key=lambda w: (len(w), w)):
        slot = workers[worker]
        rate = "-"
        if prev is not None and interval_s and interval_s > 0:
            before = _value(prev, "serve_session_pairs_total", worker=worker)
            if before is not None:
                rate = f"{max(0.0, (slot.get('pairs', 0.0) - before) / interval_s):,.0f}"
        rows.append(
            (
                worker,
                f"{slot.get('open', 0):g}",
                f"{slot.get('total', 0):g}",
                f"{slot.get('pairs', 0):,.0f}",
                rate,
            )
        )
    return rows


def _slo_rows(snapshot: Snapshot) -> List[Tuple[str, str, str]]:
    gauges = {
        "poll_p99_seconds": "router_slo_poll_p99_seconds",
        "feed_pairs_per_second": "router_slo_feed_pairs_per_second",
        "verdict_age_seconds": "router_slo_verdict_age_seconds",
        "loop_lag_p99_seconds": "router_slo_loop_lag_p99_seconds",
    }
    rows = []
    for labels, blob in _series(snapshot, "router_slo_ok"):
        objective = labels.get("objective", "?")
        ok = float(blob.get("value", 0.0)) >= 1.0
        value = _value(snapshot, gauges.get(objective, ""))
        rows.append(
            (
                objective,
                f"{value:g}" if value is not None else "-",
                "ok" if ok else "VIOLATED",
            )
        )
    return rows


def _latency_lines(snapshot: Snapshot) -> List[str]:
    lines = []
    for op in _LATENCY_OPS:
        blob = pooled_histogram(snapshot, "serve_op_latency_seconds", {"op": op})
        if blob is None or not blob.get("count"):
            continue
        p50 = histogram_quantile(blob, 0.50)
        p99 = histogram_quantile(blob, 0.99)
        spark = _sparkline([float(b) for b in blob["buckets"]])
        lines.append(
            f"  {op:<9} {spark}  n={blob['count']}  "
            f"p50<={p50 * 1e3:.3g}ms  p99<={p99 * 1e3:.3g}ms"
        )
    lag = pooled_histogram(snapshot, "serve_loop_lag_seconds")
    if lag is not None and lag.get("count"):
        lines.append(
            f"  loop lag  {_sparkline([float(b) for b in lag['buckets']])}  "
            f"n={lag['count']}  p99<={histogram_quantile(lag, 0.99) * 1e3:.3g}ms"
        )
    return lines


def render_top(
    snapshot: Snapshot,
    prev: Optional[Snapshot] = None,
    interval_s: Optional[float] = None,
    source: str = "",
) -> str:
    """Render one dashboard frame from a scraped snapshot."""
    lines: List[str] = []
    workers = _value(snapshot, "router_workers")
    scrapes = sum(
        float(blob.get("value", 0.0))
        for _, blob in _series(snapshot, "router_scrapes_total")
    )
    open_sessions = sum(
        float(blob.get("value", 0.0))
        for _, blob in _series(snapshot, "serve_sessions_open")
    )
    header = (
        f"repro-cycles top — {source}" if source else "repro-cycles top"
    )
    lines.append(header)
    lines.append("=" * len(header))
    lines.append(
        f"workers: {workers:g}  open sessions: {open_sessions:g}  scrapes: {scrapes:g}"
        if workers is not None
        else f"open sessions: {open_sessions:g}  scrapes: {scrapes:g}"
    )

    slo = _slo_rows(snapshot)
    if slo:
        lines.extend(["", "SLO objectives", "--------------"])
        width = max(len(o) for o, _, _ in slo)
        for objective, value, verdict in slo:
            lines.append(f"  {objective:<{width}}  {value:>12}  {verdict}")

    rows = _worker_rows(snapshot, prev, interval_s)
    if rows:
        lines.extend(["", "workers", "-------"])
        lines.append(f"  {'worker':<8}{'open':>6}{'total':>7}{'pairs':>14}{'pairs/s':>12}")
        for worker, open_count, total, pairs, rate in rows:
            lines.append(f"  {worker:<8}{open_count:>6}{total:>7}{pairs:>14}{rate:>12}")

    latency = _latency_lines(snapshot)
    if latency:
        lines.extend(["", "latency (live histograms)", "-------------------------"])
        lines.extend(latency)
    return "\n".join(lines) + "\n"


# -- CLI ----------------------------------------------------------------------


def build_parser(parser: Optional[argparse.ArgumentParser] = None) -> argparse.ArgumentParser:
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro-cycles top",
            description="Live terminal view of a routed serve fleet's /metrics.",
        )
    parser.add_argument(
        "--url",
        default=None,
        help="full scrape URL (default http://HOST:PORT/metrics from --host/--port)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9640,
                        help="the router's --metrics-port (default 9640)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between refreshes (default 2)")
    parser.add_argument("--once", action="store_true",
                        help="print one frame and exit (CI mode; exit 2 if "
                        "the endpoint cannot be scraped)")
    return parser


def run_top(args: argparse.Namespace) -> int:
    url = args.url or f"http://{args.host}:{args.port}/metrics"
    prev: Optional[Snapshot] = None
    prev_at: Optional[float] = None
    while True:
        try:
            snapshot = fetch_metrics(url)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            if args.once:
                print(f"top: cannot scrape {url}: {exc}", file=sys.stderr)
                return 2
            sys.stdout.write(_CLEAR)
            print(f"top: cannot scrape {url}: {exc} (retrying)")
            try:
                time.sleep(args.interval)
            except KeyboardInterrupt:
                return 0
            continue
        now = time.monotonic()  # repro-lint: disable=DET003 -- dashboard refresh rates are wall time by design; no estimator state depends on them
        interval = (now - prev_at) if prev_at is not None else None
        frame = render_top(snapshot, prev, interval, source=url)
        if args.once:
            sys.stdout.write(frame)
            return 0
        sys.stdout.write(_CLEAR + frame)
        sys.stdout.flush()
        prev, prev_at = snapshot, now
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run_top(build_parser().parse_args(argv))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
