"""Serve live-plane tests: /metrics scrape, stats metrics, relay spans.

Forks a real 2-worker fleet behind the router with the live plane on
(metrics-only worker telemetry, a ``/metrics`` listener, per-worker
trace files) and asserts the operational contracts:

* the scrape endpoint returns valid Prometheus text whose parsed
  snapshot aggregates per-worker histograms under ``worker=<i>`` labels
  and contains only registered names;
* ``stats`` with ``metrics: 1`` ships a worker's snapshot over the
  wire;
* per-process traces stitch into one deterministic span tree with the
  router's relay spans as children of the worker session spans.
"""

import asyncio
import threading
import urllib.error
import urllib.request

from repro.obs.metrics import parse_series
from repro.obs.names import METRIC_NAMES, unregistered_series
from repro.obs.sinks import parse_textfile
from repro.obs.slo import SLOPolicy
from repro.obs.telemetry import Telemetry
from repro.obs.trace import (
    TraceContext,
    Tracer,
    span_tree,
    stitch_chrome_traces,
    write_chrome_trace,
)
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.manager import SessionManager
from repro.serve.router import (
    SCRAPE_CONTENT_TYPE,
    ServeRouter,
    worker_artifact_path,
    worker_for,
)
from repro.serve.server import ServeServer

N_WORKERS = 2

TRIANGLE_PAIRS = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def _sid_on_worker(prefix, worker):
    for j in range(1000):
        sid = f"{prefix}{j}"
        if worker_for(sid, N_WORKERS) == worker:
            return sid
    raise AssertionError(f"no id with prefix {prefix!r} lands on {worker}")


async def _scrape(port, path="/metrics"):
    """GET the scrape endpoint off-loop; returns (status, headers, body)."""
    result = {}

    def fetch():
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=5
            ) as response:
                result["status"] = response.status
                result["headers"] = dict(response.headers)
                result["body"] = response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            result["status"] = exc.code
            result["headers"] = dict(exc.headers)
            result["body"] = exc.read().decode("utf-8", "replace")

    thread = threading.Thread(target=fetch)
    thread.start()
    while thread.is_alive():
        await asyncio.sleep(0.02)
    return result["status"], result["headers"], result["body"]


def _run_live_fleet(fn, tmp_path, **extra):
    """Fork a live-plane fleet; run ``fn(router, client)`` inside the loop."""
    trace_base = str(tmp_path / "serve.trace")
    worker_traces = [worker_artifact_path(trace_base, i) for i in range(N_WORKERS)]
    telemetry = Telemetry(sink=None)
    tracer = Tracer(seed=0, telemetry=telemetry, root="serve")
    router = ServeRouter(
        N_WORKERS,
        port=0,
        metrics_port=0,
        telemetry=telemetry,
        tracer=tracer,
        worker_trace_paths=worker_traces,
        **extra,
    )
    router.spawn_workers()

    async def main():
        with tracer:
            await router.start()
            task = asyncio.ensure_future(router.serve_until_stopped())
            client = ServeClient("127.0.0.1", router.bound_port)
            await client.connect()
            try:
                return await fn(router, client)
            finally:
                await client.shutdown_server()
                await client.aclose()
                router.stop()
                await task

    try:
        return asyncio.run(main())
    finally:
        router.join_workers()
        write_chrome_trace(trace_base, tracer.spans)


class TestScrapeEndpoint:
    def test_metrics_aggregates_workers_and_slo(self, tmp_path):
        sids = [_sid_on_worker("live-a-", 0), _sid_on_worker("live-b-", 1)]

        async def scenario(router, client):
            await client.hello()
            for sid in sids:
                await client.open(sid, "triangle-exact", budget=64)
                await client.feed(sid, TRIANGLE_PAIRS)
                await client.poll(sid)
            await asyncio.sleep(0.7)  # let at least one SLO tick land
            status, headers, body = await _scrape(router.metrics_bound_port)
            status404, _, _ = await _scrape(router.metrics_bound_port, "/nope")
            return status, headers, body, status404

        status, headers, body, status404 = _run_live_fleet(
            scenario, tmp_path, slo=SLOPolicy(), slo_interval_s=0.2
        )
        assert status == 200
        assert headers["Content-Type"] == SCRAPE_CONTENT_TYPE
        assert status404 == 404

        snapshot, helps = parse_textfile(body)
        assert unregistered_series(snapshot) == []
        # Per-worker series: both workers contributed labeled snapshots.
        workers_seen = {
            parse_series(key)[1].get("worker")
            for key in snapshot
            if parse_series(key)[0] == "serve_sessions_total"
        }
        assert workers_seen == {"0", "1"}
        # Live histograms survive aggregation.
        assert any(
            parse_series(key)[0] == "serve_op_latency_seconds" for key in snapshot
        )
        # Router-side series: workers gauge, scrape counter, SLO verdicts.
        assert snapshot["router_workers"]["value"] == N_WORKERS
        assert snapshot["router_scrapes_total"]["value"] >= 1
        slo_objectives = {
            parse_series(key)[1]["objective"]
            for key in snapshot
            if parse_series(key)[0] == "router_slo_ok"
        }
        assert "poll_p99_seconds" in slo_objectives
        # Help lines come from the declared registry.
        assert helps["router_workers"] == METRIC_NAMES["router_workers"]

    def test_post_rejected_with_405(self, tmp_path):
        async def scenario(router, client):
            await client.hello()
            port = router.metrics_bound_port
            result = {}

            def post():
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/metrics", data=b"x", method="POST"
                )
                try:
                    urllib.request.urlopen(request, timeout=5)
                except urllib.error.HTTPError as exc:
                    result["status"] = exc.code

            thread = threading.Thread(target=post)
            thread.start()
            while thread.is_alive():
                await asyncio.sleep(0.02)
            return result["status"]

        assert _run_live_fleet(scenario, tmp_path) == 405


class TestSLOFeedRate:
    def test_feed_rate_gauge_emitted_over_two_evaluations(self):
        # Unspawned: _evaluate_slo works on a given snapshot, no fleet.
        router = ServeRouter(
            1,
            slo=SLOPolicy(feed_pairs_per_second=1.0),
            telemetry=Telemetry(sink=None),
        )
        for pairs in (0.0, 600.0):
            router._evaluate_slo(
                {"serve_session_pairs_total": {"kind": "counter", "value": pairs}}
            )
        snapshot = router.telemetry.metrics_snapshot()
        assert snapshot["router_slo_feed_pairs_per_second"]["value"] > 0.0
        ok = snapshot["router_slo_ok{objective=feed_pairs_per_second}"]
        assert ok["value"] == 1.0


class TestStatsMetrics:
    def test_stats_ships_metrics_snapshot(self):
        async def scenario():
            manager = SessionManager(telemetry=Telemetry(sink=None))
            server = ServeServer(manager, port=0)
            await server.start()
            task = asyncio.ensure_future(server.serve_until_stopped())
            client = ServeClient("127.0.0.1", server.bound_port)
            await client.connect()
            try:
                await client.open("s1", "triangle-exact", budget=64)
                await client.feed("s1", TRIANGLE_PAIRS)
                try:
                    await client.poll("ghost")
                except ServeClientError as err:
                    assert err.code == "NO_SUCH_SESSION"
                stats = await client.stats(metrics=True)
                plain = await client.stats()
                return stats, plain
            finally:
                await client.aclose()
                server.stop()
                await task

        stats, plain = asyncio.run(scenario())
        snapshot = stats["metrics"]
        assert snapshot["serve_sessions_total"]["value"] == 1
        assert "serve_op_latency_seconds{op=feed,wire=json}" in snapshot
        assert snapshot["serve_errors_total{code=NO_SUCH_SESSION}"]["value"] == 1
        assert "metrics" not in plain


class TestRelaySpanStitching:
    def test_stitched_tree_contains_relay_children_and_is_deterministic(
        self, tmp_path
    ):
        sids = [_sid_on_worker("span-a-", 0), _sid_on_worker("span-b-", 1)]

        def run_once(subdir):
            base = tmp_path / subdir
            base.mkdir()

            async def scenario(router, client):
                await client.hello()
                for sid in sids:
                    await client.open(
                        sid,
                        "triangle-exact",
                        budget=64,
                        trace=TraceContext(seed=99, path="client"),
                    )
                    await client.feed(sid, TRIANGLE_PAIRS)
                    await client.close_session(sid)
                return None

            _run_live_fleet(scenario, base)
            traces = [str(base / "serve.trace")] + [
                worker_artifact_path(str(base / "serve.trace"), i)
                for i in range(N_WORKERS)
            ]
            stitched = stitch_chrome_traces(traces, str(base / "fleet.trace"))
            return stitched

        first = run_once("run1")
        second = run_once("run2")
        paths = sorted(record.path for record in first)
        for sid in sids:
            assert f"client/session:{sid}" in paths
        assert any("/relay:worker-" in path for path in paths)
        assert "worker-0" in paths and "worker-1" in paths
        # Bit-identical structure across repeat runs: the stitch contract.
        assert span_tree(first) == span_tree(second)
