"""The declared registry of telemetry metric names.

Every metric the instrumented runners emit (``telemetry.count(...)``,
``telemetry.set_gauge(...)``, ``telemetry.observe_histogram(...)``) must use
a name declared here.  The registry exists so that a typo'd metric name —
which would otherwise silently create a parallel, never-aggregated series
— is caught *statically*: lint rule OBS001 resolves every literal metric
name at telemetry call sites in ``src/repro`` against this table (see
``docs/LINTING.md``).

Names are lowercase dotted identifiers: ``[a-z][a-z0-9_]*`` segments
joined by dots (a single segment, underscore-separated, is the common
Prometheus-compatible form).  :func:`validate_registry` enforces the
pattern on the registry itself and is pinned by a test.
"""

from __future__ import annotations

import re
from typing import Dict, List

__all__ = [
    "METRIC_NAMES",
    "METRIC_NAME_PATTERN",
    "is_valid_metric_name",
    "registered_help",
    "unregistered_series",
    "validate_registry",
]

#: ``segment(.segment)*`` where a segment is a lowercase identifier.
METRIC_NAME_PATTERN = r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$"

_NAME_RE = re.compile(METRIC_NAME_PATTERN)

#: name -> canonical help text.  Instrumented call sites may repeat the
#: help inline (first registration wins at runtime); this table is the
#: authoritative vocabulary the linter checks against.
METRIC_NAMES: Dict[str, str] = {
    # streaming/runner.py
    "stream_space_words": "algorithm live state in machine words, polled after every list",
    "stream_pairs_total": "adjacency pairs consumed",
    "stream_lists_total": "adjacency lists consumed",
    "stream_pass_space_words": "live state in machine words at the pass boundary",
    "stream_pass_seconds": "wall time of one stream pass",
    "stream_current_estimate": "anytime estimate polled at the space-poll cadence",
    "run_peak_space_words": "peak live state over the whole run",
    # sketch/driver.py
    "shard_pairs_total": "adjacency pairs consumed by shard workers",
    "shard_peak_space_words": "per-shard peak live state in machine words",
    "shard_merges_total": "pass-boundary shard merges",
    # serve/manager.py + serve/server.py
    "serve_sessions_open": "serve sessions currently open (high water = peak concurrency)",
    "serve_sessions_total": "serve sessions ever opened",
    "serve_session_pairs_total": "adjacency pairs ingested across all serve sessions",
    "serve_session_chunks_total": "feed chunks ingested across all serve sessions",
    "serve_polls_total": "anytime-estimate polls answered",
    "serve_merges_total": "cross-session sketch merges performed",
    "serve_snapshots_total": "session snapshots taken (client-requested or shutdown)",
    "serve_errors_total": "requests rejected with a protocol error",
    "serve_bytes_total": "approximate request payload bytes accepted",
    "serve_requests_total": "protocol requests handled by the server",
    # live plane: serve/manager.py histograms + queue depth
    "serve_op_latency_seconds": "per-operation serve latency histogram (op=feed|poll|merge|snapshot, wire=json|binary)",
    "serve_loop_lag_seconds": "event-loop scheduling lag histogram (sleep overshoot)",
    # live plane: serve/router.py
    "router_relay_seconds": "router-side relay latency histogram per relayed op",
    "router_workers": "worker processes behind the router",
    "router_scrapes_total": "/metrics scrapes served by the router",
    "router_slo_ok": "1 when the labelled SLO objective currently holds, else 0",
    "router_slo_poll_p99_seconds": "p99 poll latency estimated from the live histogram",
    "router_slo_feed_pairs_per_second": "ingest throughput over the last SLO evaluation window",
    "router_slo_verdict_age_seconds": "seconds since a convergence poll last refreshed a verdict",
    "router_slo_loop_lag_p99_seconds": "p99 event-loop lag estimated from the live histogram",
}


def registered_help(name: str) -> str:
    """Canonical help text for a registered name (empty if unknown)."""
    return METRIC_NAMES.get(name, "")


def unregistered_series(snapshot: "Dict[str, object]") -> List[str]:
    """Series keys in a snapshot whose metric *name* is not declared here.

    The router's ``/metrics`` endpoint refuses to expose unregistered
    names — the runtime counterpart of lint rule OBS001's static check.
    """
    out = []
    for series_key in snapshot:
        name = series_key.partition("{")[0]
        if name not in METRIC_NAMES:
            out.append(series_key)
    return sorted(out)


def is_valid_metric_name(name: str) -> bool:
    """Whether ``name`` is a lowercase dotted identifier."""
    return _NAME_RE.match(name) is not None


def validate_registry() -> List[str]:
    """Return the registry entries that violate the naming pattern."""
    return sorted(name for name in METRIC_NAMES if not is_valid_metric_name(name))
