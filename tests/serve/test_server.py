"""End-to-end server tests: TCP transport, shutdown, telemetry durability.

Everything runs real asyncio servers on ephemeral localhost ports inside
``asyncio.run`` (no event-loop plugins needed).  The cancellation test
pins the ISSUE's satellite: a serve run killed mid-flight must leave a
*parseable* telemetry JSONL behind — no torn lines, no lost flush.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.graph.planted import planted_triangles
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, open_telemetry
from repro.serve.client import InProcessClient, ServeClient, ServeClientError
from repro.serve.loadgen import run_load_async
from repro.serve.manager import SessionManager
from repro.serve.net import LAG_PROBE_INTERVAL_S
from repro.serve.router import ServeRouter
from repro.serve.server import ServeServer, handle_request
from repro.streaming.registry import get as get_spec
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream


def _world():
    planted = planted_triangles(noise_edges=120, triangles=15, seed=3)
    stream = AdjacencyListStream(planted.graph, seed=4)
    return stream, list(stream.iter_pairs()), planted.true_count


async def _with_server(manager, fn):
    """Run ``fn(host, port)`` against a live server, then stop it."""
    server = ServeServer(manager, port=0)
    await server.start()
    task = asyncio.ensure_future(server.serve_until_stopped())
    try:
        return await fn("127.0.0.1", server.bound_port)
    finally:
        server.stop()
        await task


class TestDispatcher:
    """Transport-free request dispatch (what InProcessClient wraps)."""

    def test_hello_and_algorithms(self):
        async def main():
            manager = SessionManager()
            hello = await handle_request(manager, {"id": 1, "op": "hello"})
            assert hello["ok"] and hello["protocol"] == 3
            algos = await handle_request(manager, {"id": 2, "op": "algorithms"})
            assert len(algos["algorithms"]) == 13
            by_name = {a["name"]: a for a in algos["algorithms"]}
            assert by_name["triangle-two-pass"]["serve_compatible"]
            assert not by_name["triangle-exact"]["serve_compatible"]

        asyncio.run(main())

    def test_unknown_op_and_bad_request(self):
        async def main():
            manager = SessionManager()
            out = await handle_request(manager, {"id": 1, "op": "dance"})
            assert not out["ok"] and out["error"]["code"] == "UNKNOWN_OP"
            out = await handle_request(manager, {"id": 2})
            assert out["error"]["code"] == "BAD_REQUEST"
            out = await handle_request(
                manager, {"id": 3, "op": "open", "session": "s",
                          "algorithm": "nope", "budget": 8},
            )
            assert out["error"]["code"] == "NO_SUCH_ALGORITHM"

        asyncio.run(main())

    def test_open_with_a_state_repeating_a_sample_key_is_bad_state(self):
        _, pairs, _ = _world()

        async def main():
            manager = SessionManager()
            await handle_request(
                manager, {"id": 1, "op": "open", "session": "a",
                          "algorithm": "triangle-two-pass", "budget": 16, "seed": 6},
            )
            await handle_request(
                manager, {"id": 2, "op": "feed", "session": "a",
                          "pairs": [list(p) for p in pairs[:200]]},
            )
            state = (await handle_request(
                manager, {"id": 3, "op": "snapshot", "session": "a"}
            ))["state"]
            members = state["payload"]["algorithm"]["payload"]["sampler"]["members"]
            assert len(members) == 16  # full: the copy replaces a member
            key = members[0]["$t"][0]
            members[-1] = {"$t": [key, members[-1]["$t"][1]]}
            out = await handle_request(
                manager, {"id": 4, "op": "open", "session": "b", "state": state}
            )
            assert out["error"]["code"] == "BAD_STATE"
            assert "more than once" in out["error"]["message"]

        asyncio.run(main())

    def test_internal_errors_do_not_leak(self):
        async def main():
            manager = SessionManager()
            # A poll with a truth but no estimate-capable session state is
            # fine; instead provoke INTERNAL by breaking the manager.
            manager.poll = None  # type: ignore[assignment]
            out = await handle_request(
                manager, {"id": 1, "op": "poll", "session": "s"}
            )
            assert out["error"]["code"] == "INTERNAL"

        asyncio.run(main())

    def test_in_process_client_full_lifecycle(self):
        stream, pairs, truth = _world()
        reference = run_algorithm(
            get_spec("triangle-two-pass").make(48, seed=6), stream
        ).estimate

        async def main():
            client = InProcessClient()
            await client.open("s", "triangle-two-pass", 48, seed=6)
            for _ in range(2):
                for i in range(0, len(pairs), 40):
                    await client.feed("s", pairs[i : i + 40])
                final = await client.finish_pass("s")
            poll = await client.poll("s", truth=truth, m=stream.m)
            assert poll["done"] and "verdict" in poll
            stats = await client.stats("s")
            assert stats["pairs_total"] == 2 * len(pairs)
            await client.close_session("s")
            with pytest.raises(ServeClientError) as err:
                await client.poll("s")
            assert err.value.code == "NO_SUCH_SESSION"
            return final["estimate"]

        assert asyncio.run(main()) == reference


class TestTcp:
    def test_tcp_matches_serial_run(self):
        stream, pairs, _ = _world()
        reference = run_algorithm(
            get_spec("triangle-two-pass").make(48, seed=6), stream
        ).estimate

        async def drive(host, port):
            async with ServeClient(host, port) as client:
                await client.open("s", "triangle-two-pass", 48, seed=6)
                final = None
                for _ in range(2):
                    for i in range(0, len(pairs), 64):
                        await client.feed("s", pairs[i : i + 64])
                    final = await client.finish_pass("s")
                return final["estimate"]

        async def main():
            return await _with_server(SessionManager(), drive)

        assert asyncio.run(main()) == reference

    def test_multiplexed_sessions_one_connection(self):
        """Interleaved sessions on ONE socket stay isolated and correct."""
        stream, pairs, _ = _world()
        seeds = [0, 1, 2, 3]
        references = {
            seed: run_algorithm(
                get_spec("triangle-two-pass").make(32, seed=seed), stream
            ).estimate
            for seed in seeds
        }

        async def drive(host, port):
            async with ServeClient(host, port) as client:
                async def one(seed):
                    sid = f"s{seed}"
                    await client.open(sid, "triangle-two-pass", 32, seed=seed)
                    final = None
                    for _ in range(2):
                        for i in range(0, len(pairs), 51):
                            await client.feed(sid, pairs[i : i + 51])
                        final = await client.finish_pass(sid)
                    return final["estimate"]

                return await asyncio.gather(*(one(s) for s in seeds))

        async def main():
            return await _with_server(SessionManager(), drive)

        assert asyncio.run(main()) == [references[s] for s in seeds]

    def test_snapshot_travels_over_the_wire(self):
        stream, pairs, _ = _world()
        reference = run_algorithm(
            get_spec("triangle-two-pass").make(48, seed=6), stream
        ).estimate
        cut = len(pairs) // 2

        async def drive(host, port):
            async with ServeClient(host, port) as client:
                await client.open("a", "triangle-two-pass", 48, seed=6)
                await client.feed("a", pairs[:cut])
                state = await client.snapshot("a")
                json.dumps(state)  # must be pure JSON on the wire
                await client.close_session("a")
                await client.open("b", state=state)
                await client.feed("b", pairs[cut:])
                await client.finish_pass("b")
                await client.feed("b", pairs)
                return (await client.finish_pass("b"))["estimate"]

        async def main():
            return await _with_server(SessionManager(), drive)

        assert asyncio.run(main()) == reference

    def test_shutdown_op_stops_server(self):
        async def main():
            manager = SessionManager()
            server = ServeServer(manager, port=0)
            await server.start()
            task = asyncio.ensure_future(server.serve_until_stopped())
            client = await ServeClient("127.0.0.1", server.bound_port).connect()
            await client.shutdown_server()
            await asyncio.wait_for(task, timeout=5)
            await client.aclose()

        asyncio.run(main())

    def test_loadgen_over_tcp(self):
        """A small fleet through the real transport: full concurrency, all
        estimates bit-identical to batch runs (the bench at miniature)."""

        async def main():
            manager = SessionManager()
            server = ServeServer(manager, port=0)
            await server.start()
            task = asyncio.ensure_future(server.serve_until_stopped())
            try:
                return await run_load_async(
                    sessions=40, host="127.0.0.1", port=server.bound_port,
                    connections=3, chunk_pairs=64,
                )
            finally:
                server.stop()
                await task

        result = asyncio.run(main())
        assert result.concurrent_peak == 40
        assert result.all_bit_identical == 1
        assert result.polls > 0


class TestShutdownDurability:
    def test_cancelled_serve_leaves_parseable_telemetry(self, tmp_path):
        """Kill the serve task mid-flood; telemetry must parse line-by-line."""
        _, pairs, _ = _world()
        log_path = tmp_path / "serve.jsonl"

        async def main():
            telemetry = open_telemetry(str(log_path))
            manager = SessionManager(telemetry=telemetry)
            server = ServeServer(manager, port=0)
            await server.start()
            serve_task = asyncio.ensure_future(server.serve_until_stopped())

            async def flood():
                async with ServeClient("127.0.0.1", server.bound_port) as client:
                    for round_index in range(50):
                        sid = f"s{round_index}"
                        await client.open(sid, "triangle-two-pass", 32, seed=1)
                        for i in range(0, len(pairs), 16):
                            await client.feed(sid, pairs[i : i + 16])

            flood_task = asyncio.ensure_future(flood())
            await asyncio.sleep(0.15)  # mid-flood
            serve_task.cancel()
            flood_task.cancel()
            for task in (serve_task, flood_task):
                try:
                    await task
                except (asyncio.CancelledError, ServeClientError, ConnectionError):
                    pass
            telemetry.close()

        asyncio.run(main())
        lines = log_path.read_text().strip().splitlines()
        assert lines, "cancelled run must still leave telemetry behind"
        events = [json.loads(line) for line in lines]  # every line parses
        assert any(e.get("event") == "SessionOpened" for e in events)

    def test_shutdown_checkpoints_live_sessions(self, tmp_path):
        stream, pairs, _ = _world()
        reference = run_algorithm(
            get_spec("triangle-two-pass").make(48, seed=2), stream
        ).estimate
        cut = len(pairs) // 2
        ckpt = tmp_path / "ckpt"

        async def first_life():
            manager = SessionManager()
            server = ServeServer(manager, port=0, shutdown_checkpoint_dir=str(ckpt))
            await server.start()
            task = asyncio.ensure_future(server.serve_until_stopped())
            async with ServeClient("127.0.0.1", server.bound_port) as client:
                await client.open("s", "triangle-two-pass", 48, seed=2)
                await client.feed("s", pairs[:cut])
            server.stop()
            await task

        async def second_life():
            manager = SessionManager()
            restored = await manager.load_checkpoints(ckpt)
            assert restored == ["s"]
            await manager.feed("s", pairs[cut:])
            await manager.finish_pass("s")
            await manager.feed("s", pairs)
            return (await manager.finish_pass("s"))["estimate"]

        asyncio.run(first_life())
        assert asyncio.run(second_life()) == reference


def _front_end(kind, telemetry=NULL_TELEMETRY):
    """A server, or a one-worker router with its worker already forked."""
    if kind == "server":
        return ServeServer(SessionManager(telemetry=telemetry), port=0)
    router = ServeRouter(1, port=0, telemetry=telemetry)
    router.spawn_workers()
    return router


def _reap(front_end):
    if isinstance(front_end, ServeRouter):
        processes = list(front_end._processes)
        front_end.join_workers()
        assert not any(p.is_alive() for p in processes)


class TestLifecycle:
    """The shared lifecycle layer, on both front-ends."""

    @pytest.mark.parametrize("kind", ["server", "router"])
    def test_stop_before_start_returns(self, kind):
        front_end = _front_end(kind)
        try:
            front_end.stop()
            asyncio.run(asyncio.wait_for(front_end.serve_until_stopped(), 5))
        finally:
            _reap(front_end)

    @pytest.mark.parametrize("kind", ["server", "router"])
    def test_lag_probe_runs_only_with_telemetry(self, kind):
        def probes():
            return [
                t for t in asyncio.all_tasks()
                if t.get_coro().__qualname__.endswith("._lag_probe")
            ]

        async def serve(front_end, telemetry):
            task = asyncio.ensure_future(front_end.serve_until_stopped())
            await asyncio.sleep(LAG_PROBE_INTERVAL_S * 2)
            try:
                if telemetry.enabled:
                    assert len(probes()) == 1
                    lag = telemetry.metrics_snapshot()["serve_loop_lag_seconds"]
                    assert lag["count"] >= 1
                else:
                    assert probes() == []
            finally:
                front_end.stop()
                await asyncio.wait_for(task, 5)
            assert probes() == []

        for telemetry in (Telemetry(sink=None), NULL_TELEMETRY):
            front_end = _front_end(kind, telemetry)
            try:
                asyncio.run(serve(front_end, telemetry))
            finally:
                _reap(front_end)

    def test_sigterm_checkpoints_router_workers(self, tmp_path):
        """``serve --workers 1`` under SIGTERM: exit 0, worker checkpoint on disk."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        ckpt = tmp_path / "ckpt"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "1",
             "--port", "0", "--checkpoint-dir", str(ckpt)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            banner = proc.stdout.readline().decode()
            assert banner.startswith("routing 1 worker(s) on "), banner
            port = int(banner.rsplit(":", 1)[1])

            async def open_session():
                async with ServeClient("127.0.0.1", port) as client:
                    await client.open("s", "triangle-two-pass", 32, seed=1)
                    await client.feed("s", [[0, 1], [0, 2]])

            asyncio.run(open_session())
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0, proc.stderr.read().decode()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        assert (ckpt / "worker-0" / "serve-checkpoint.json").exists()
