"""SessionManager tests: concurrency, determinism, merge, checkpointing.

The headline property (the ISSUE's satellite 3): N sessions driven
*interleaved* on one event loop produce estimates bit-identical to
serial batch runs — including after snapshot → restore → resume
mid-stream — and cross-session merge reproduces ``run_sharded``
bit-exactly.
"""

import asyncio

import numpy as np
import pytest

from repro.graph.planted import planted_triangles
from repro.obs.events import (
    ServeCheckpointed,
    SessionClosed,
    SessionOpened,
    SessionsMerged,
)
from repro.obs.sinks import InMemorySink, render_textfile
from repro.obs.telemetry import Telemetry
from repro.serve.manager import SessionManager
from repro.serve.protocol import (
    MERGE_INCOMPATIBLE,
    NO_SUCH_SESSION,
    SERVER_SHUTDOWN,
    SESSION_EXISTS,
    SESSION_LIMIT,
    ServeError,
)
from repro.sketch.driver import partition_stream, run_sharded
from repro.sketch.state import SketchStateError
from repro.streaming.registry import get as get_spec
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream
from repro.util.rng import derive_seed


def _park_to_thread(monkeypatch, park_at):
    """Park the ``park_at``-th ``asyncio.to_thread`` call until released.

    Returns ``(parked, release)`` events: ``parked`` is set once the call
    is waiting; setting ``release`` lets it (and every later call) run.
    """
    real = asyncio.to_thread
    parked, release = asyncio.Event(), asyncio.Event()
    calls = 0

    async def to_thread(func, *args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == park_at:
            parked.set()
            await release.wait()
        return await real(func, *args, **kwargs)

    monkeypatch.setattr(asyncio, "to_thread", to_thread)
    return parked, release


async def _race_checkpoint(manager, directory, parked, release, action):
    """Run ``action`` while a checkpoint is parked off the event loop.

    If the checkpoint finishes before reaching the parked call, ``action``
    runs after it instead.  Returns ``(checkpoint summary, action result)``.
    """
    checkpoint = asyncio.ensure_future(manager.checkpoint_all(directory))
    waiter = asyncio.ensure_future(parked.wait())
    await asyncio.wait({checkpoint, waiter}, return_when=asyncio.FIRST_COMPLETED)
    waiter.cancel()
    result = await action()
    release.set()
    return await checkpoint, result


def _world(noise=120, triangles=15, graph_seed=3, stream_seed=4):
    planted = planted_triangles(
        noise_edges=noise, triangles=triangles, seed=graph_seed
    )
    stream = AdjacencyListStream(planted.graph, seed=stream_seed)
    return stream, list(stream.iter_pairs())


class TestConcurrentDeterminism:
    def test_interleaved_sessions_match_serial_runs(self):
        """12 sessions with distinct seeds, fed concurrently in interleaved
        chunks, each bit-identical to its own serial batch run."""
        stream, pairs = _world()
        seeds = list(range(12))
        references = {
            seed: run_algorithm(
                get_spec("triangle-two-pass").make(48, seed=seed), stream
            ).estimate
            for seed in seeds
        }

        async def drive(manager, seed):
            sid = f"s{seed}"
            await manager.open(sid, "triangle-two-pass", 48, seed)
            final = None
            for _ in range(2):
                for i in range(0, len(pairs), 31):
                    await manager.feed(sid, pairs[i : i + 31])
                    await asyncio.sleep(0)  # force interleaving
                final = await manager.finish_pass(sid)
            return final["estimate"]

        async def main():
            manager = SessionManager()
            return await asyncio.gather(*(drive(manager, s) for s in seeds))

        estimates = asyncio.run(main())
        assert estimates == [references[s] for s in seeds]

    def test_snapshot_restore_resume_interleaved(self):
        """Sessions snapshotted mid-stream, restored under new ids, and
        resumed concurrently still land bit-identical to serial runs."""
        stream, pairs = _world()
        reference = run_algorithm(
            get_spec("triangle-two-pass").make(48, seed=9), stream
        ).estimate
        cut = len(pairs) // 3

        async def main():
            manager = SessionManager()
            await manager.open("orig", "triangle-two-pass", 48, 9)
            await manager.feed("orig", pairs[:cut])
            state = await manager.snapshot("orig")
            await manager.close("orig")
            await manager.restore("resumed", state)
            await manager.feed("resumed", pairs[cut:])
            await manager.finish_pass("resumed")
            for i in range(0, len(pairs), 53):
                await manager.feed("resumed", pairs[i : i + 53])
            return (await manager.finish_pass("resumed"))["estimate"]

        assert asyncio.run(main()) == reference


class TestMerge:
    def test_merge_reproduces_run_sharded(self):
        """Shard-slice sessions merged per pass == run_sharded, bit-exactly."""
        stream, _ = _world(noise=150, triangles=20)
        n_shards, budget, seed, merge_seed = 3, 48, 7, 5
        algorithm = get_spec("triangle-two-pass-sharded").make(budget, seed=seed)
        expected = run_sharded(
            algorithm, stream, n_shards, merge_seed=merge_seed
        ).estimate

        shards = partition_stream(stream, n_shards, "balanced")
        shard_pairs = [
            [(v, u) for v, neighbors in shard.lists for u in neighbors]
            for shard in shards
        ]

        async def run_pass(manager, sids, merged_id, pass_seed):
            for sid, chunk in zip(sids, shard_pairs):
                await manager.feed(sid, chunk)
                await manager.finish_pass(sid)
            merged = await manager.merge(merged_id, sids, merge_seed=pass_seed)
            return merged

        async def main():
            manager = SessionManager()
            # Pass 0: fresh sibling sessions (same seed -> same origin).
            sids0 = [f"p0-{i}" for i in range(n_shards)]
            for sid in sids0:
                await manager.open(
                    sid, "triangle-two-pass-sharded", budget, seed,
                    validate_mode="lists",
                )
            await run_pass(manager, sids0, "m0", derive_seed(merge_seed, 0))
            # Pass 1: fork the merged session into one branch per shard.
            state = await manager.snapshot("m0")
            sids1 = [f"p1-{i}" for i in range(n_shards)]
            for sid in sids1:
                await manager.restore(sid, state)
            merged = await run_pass(
                manager, sids1, "m1", derive_seed(merge_seed, 1)
            )
            return merged.result()

        assert asyncio.run(main()) == expected

    def test_merge_refuses_mismatched_sessions(self):
        async def main():
            manager = SessionManager()
            await manager.open("a", "triangle-two-pass-sharded", 32, 1)
            await manager.open("b", "triangle-two-pass-sharded", 64, 1)  # budget differs
            await manager.open("c", "triangle-two-pass-sharded", 32, 2)  # seed differs
            with pytest.raises(ServeError) as err:
                await manager.merge("m", ["a", "b"])
            assert err.value.code == MERGE_INCOMPATIBLE
            with pytest.raises(ServeError) as err:
                await manager.merge("m", ["a", "c"])
            assert "origin" in err.value.message
            # Sources must be untouched by failed merges.
            assert manager.session_ids() == ["a", "b", "c"]

        asyncio.run(main())

    def test_merge_refuses_mid_pass_sources(self):
        async def main():
            manager = SessionManager()
            for sid in ("a", "b"):
                await manager.open(sid, "triangle-two-pass-sharded", 32, 1)
                await manager.feed(sid, [(0, 1), (1, 0)])
            with pytest.raises(ServeError) as err:
                await manager.merge("m", ["a", "b"])
            assert "pass boundary" in err.value.message

        asyncio.run(main())

    def test_merge_closes_sources_and_emits_events(self):
        sink = InMemorySink()

        async def main():
            manager = SessionManager(telemetry=Telemetry(sink=sink))
            for sid in ("a", "b"):
                await manager.open(sid, "triangle-two-pass-sharded", 32, 1)
            await manager.merge("m", ["a", "b"])
            assert manager.session_ids() == ["m"]

        asyncio.run(main())
        merges = sink.of_type(SessionsMerged)
        assert len(merges) == 1
        assert merges[0].n_sources == 2
        closed = {e.session_id: e.reason for e in sink.of_type(SessionClosed)}
        assert closed == {"a": "merged", "b": "merged"}


    @pytest.mark.parametrize("park_at", [1, 2])
    def test_open_of_target_during_checkpoint_cannot_be_overwritten(
        self, tmp_path, monkeypatch, park_at
    ):
        """A merge into ``t`` and an ``open("t")`` racing a parked
        checkpoint: exactly one wins, and the table holds its result."""

        async def main():
            parked, release = _park_to_thread(monkeypatch, park_at)
            manager = SessionManager()
            for sid in ("a", "b"):
                await manager.open(sid, "triangle-two-pass-sharded", 32, 1)

            async def race():
                merge = asyncio.ensure_future(manager.merge("t", ["a", "b"]))
                await asyncio.sleep(0)
                try:
                    await manager.open("t", "fourcycle-two-pass", 32, 1)
                    opened = True
                except ServeError as err:
                    assert err.code == SESSION_EXISTS
                    opened = False
                return merge, opened

            _, (merge, opened) = await _race_checkpoint(
                manager, tmp_path / "ckpt", parked, release, race
            )
            try:
                await merge
                merged = True
            except ServeError as err:
                assert err.code == SESSION_EXISTS
                merged = False
            assert merged != opened
            table = {
                sid: (await manager.stats(sid))["algorithm"]
                for sid in manager.session_ids()
            }
            return table, merged

        table, merged = asyncio.run(main())
        if merged:
            assert table == {"t": "triangle-two-pass-sharded"}
        else:
            assert table == {
                "a": "triangle-two-pass-sharded",
                "b": "triangle-two-pass-sharded",
                "t": "fourcycle-two-pass",
            }

    @pytest.mark.parametrize(
        "name", ["triangle-two-pass", "triangle-two-pass-sharded"]
    )
    def test_merge_admits_exactly_what_run_sharded_admits(self, name):
        """The per-pass fork schedule on two balanced shards: the sharded
        counter's merges reproduce ``run_sharded``; the conventional
        counter, which ``run_sharded`` refuses, is refused at its first
        merge with ``MERGE_INCOMPATIBLE``, its sources left open."""
        planted = planted_triangles(noise_edges=150, triangles=20, seed=1)
        stream = AdjacencyListStream(planted.graph, seed=3)
        budget, seed = 48, 7
        shards = partition_stream(stream, 2, "balanced")
        shard_pairs = [
            [(v, u) for v, neighbors in shard.lists for u in neighbors]
            for shard in shards
        ]

        async def run_pass(manager, sids, merged_id):
            for sid, chunk in zip(sids, shard_pairs):
                await manager.feed(sid, chunk)
                await manager.finish_pass(sid)
            return await manager.merge(merged_id, sids)

        async def main():
            manager = SessionManager()
            sids0 = ["p0-0", "p0-1"]
            for sid in sids0:
                await manager.open(sid, name, budget, seed, validate_mode="lists")
            try:
                await run_pass(manager, sids0, "m0")
            except ServeError as err:
                return err, manager.session_ids()
            state = await manager.snapshot("m0")
            sids1 = ["p1-0", "p1-1"]
            for sid in sids1:
                await manager.restore(sid, state)
            return (await run_pass(manager, sids1, "m1")).result(), None

        outcome, open_ids = asyncio.run(main())
        algorithm = get_spec(name).make(budget, seed=seed)
        if name == "triangle-two-pass":
            assert isinstance(outcome, ServeError)
            assert outcome.code == MERGE_INCOMPATIBLE
            assert "conventional" in outcome.message
            assert open_ids == ["p0-0", "p0-1"]
            with pytest.raises(SketchStateError):
                run_sharded(algorithm, stream, 2)
        else:
            assert outcome == run_sharded(algorithm, stream, 2).estimate


class TestAdmission:
    def test_session_limit(self):
        async def main():
            manager = SessionManager(max_sessions=2)
            await manager.open("a", "triangle-two-pass", 8, 0)
            await manager.open("b", "triangle-two-pass", 8, 0)
            with pytest.raises(ServeError) as err:
                await manager.open("c", "triangle-two-pass", 8, 0)
            assert err.value.code == SESSION_LIMIT
            await manager.close("a")
            await manager.open("c", "triangle-two-pass", 8, 0)

        asyncio.run(main())

    def test_duplicate_and_unknown_ids(self):
        async def main():
            manager = SessionManager()
            await manager.open("a", "triangle-two-pass", 8, 0)
            with pytest.raises(ServeError) as err:
                await manager.open("a", "triangle-two-pass", 8, 0)
            assert err.value.code == SESSION_EXISTS
            with pytest.raises(ServeError) as err:
                await manager.poll("ghost")
            assert err.value.code == NO_SUCH_SESSION

        asyncio.run(main())

    def test_shutdown_refuses_new_sessions(self):
        async def main():
            manager = SessionManager()
            await manager.open("a", "triangle-two-pass", 8, 0)
            await manager.shutdown()
            assert manager.open_count == 0
            with pytest.raises(ServeError) as err:
                await manager.open("b", "triangle-two-pass", 8, 0)
            assert err.value.code == SERVER_SHUTDOWN

        asyncio.run(main())

    def test_open_high_water_tracks_peak(self):
        async def main():
            manager = SessionManager()
            for i in range(5):
                await manager.open(f"s{i}", "triangle-two-pass", 8, 0)
            for i in range(5):
                await manager.close(f"s{i}")
            return manager.open_high_water, manager.open_count

        assert asyncio.run(main()) == (5, 0)


class TestCheckpointing:
    def test_checkpoint_and_resume_across_managers(self, tmp_path):
        """Shutdown-checkpointed sessions restored in a fresh manager finish
        bit-identical to an uninterrupted serial run."""
        stream, pairs = _world()
        reference = run_algorithm(
            get_spec("triangle-two-pass").make(48, seed=2), stream
        ).estimate
        cut = len(pairs) // 2

        async def first_life():
            manager = SessionManager()
            await manager.open("s", "triangle-two-pass", 48, 2)
            await manager.open("plain", "triangle-wedge", 8, 0)  # no snapshot
            await manager.feed("s", pairs[:cut])
            out = await manager.shutdown(tmp_path / "ckpt")
            assert out["checkpointed"] == 1
            return out

        async def second_life():
            manager = SessionManager()
            restored = await manager.load_checkpoints(tmp_path / "ckpt")
            assert restored == ["s"]
            await manager.feed("s", pairs[cut:])
            await manager.finish_pass("s")
            await manager.feed("s", pairs)
            return (await manager.finish_pass("s"))["estimate"]

        asyncio.run(first_life())
        assert asyncio.run(second_life()) == reference

    def test_checkpoint_emits_event_and_manifest(self, tmp_path):
        sink = InMemorySink()

        async def main():
            manager = SessionManager(telemetry=Telemetry(sink=sink))
            await manager.open("a", "triangle-two-pass", 8, 0)
            return await manager.checkpoint_all(tmp_path / "ckpt")

        out = asyncio.run(main())
        assert out["sessions"] == 1
        assert (tmp_path / "ckpt" / "serve-checkpoint.json").exists()
        events = sink.of_type(ServeCheckpointed)
        assert len(events) == 1 and events[0].sessions == 1


    @pytest.mark.parametrize("park_at", [1, 2])
    def test_close_during_checkpoint_keeps_the_sweep(
        self, tmp_path, monkeypatch, park_at
    ):
        """Closing a session while the checkpoint's file I/O is parked
        neither aborts the checkpoint nor drops the closed session from it."""

        async def main():
            parked, release = _park_to_thread(monkeypatch, park_at)
            manager = SessionManager()
            for sid in ("a", "b"):
                await manager.open(sid, "triangle-two-pass", 8, 0)

            async def close_b():
                return await manager.close("b")

            summary, _ = await _race_checkpoint(
                manager, tmp_path / "ckpt", parked, release, close_b
            )
            assert summary["sessions"] == 2
            assert manager.session_ids() == ["a"]
            return await SessionManager().load_checkpoints(tmp_path / "ckpt")

        assert asyncio.run(main()) == ["a", "b"]


class TestTelemetry:
    def test_session_lifecycle_events_and_metrics(self):
        sink = InMemorySink()
        telemetry = Telemetry(sink=sink)

        async def main():
            manager = SessionManager(telemetry=telemetry)
            await manager.open("a", "triangle-two-pass", 32, 1)
            await manager.feed("a", [(0, 1), (1, 0)])
            await manager.poll("a")
            await manager.close("a")

        asyncio.run(main())
        opened = sink.of_type(SessionOpened)
        assert len(opened) == 1 and not opened[0].resumed
        closed = sink.of_type(SessionClosed)
        assert len(closed) == 1
        assert closed[0].pairs == 2 and closed[0].polls == 1
        names = set(telemetry.metrics_snapshot())
        assert {"serve_sessions_open", "serve_session_pairs_total",
                "serve_polls_total"} <= names

    def test_exposition_uses_prometheus_types_and_times_each_op_once(self):
        """A fed-and-polled manager's textfile declares only counter, gauge
        and histogram families, and each feed and poll lands exactly one
        latency observation."""
        telemetry = Telemetry(sink=None)

        async def main():
            manager = SessionManager(telemetry=telemetry)
            await manager.open("a", "triangle-two-pass", 32, 1)
            await manager.feed("a", [(0, 1), (1, 0)])
            await manager.feed("a", [(1, 2)])
            await manager.poll("a")

        asyncio.run(main())
        snapshot = telemetry.metrics_snapshot()
        types = [line.split()[-1] for line in render_textfile(snapshot).splitlines()
                 if line.startswith("# TYPE ")]
        assert types and set(types) <= {"counter", "gauge", "histogram"}
        seconds = {key: blob["count"] for key, blob in snapshot.items()
                   if key.partition("{")[0].endswith("_seconds")}
        assert seconds == {
            "serve_op_latency_seconds{op=feed,wire=json}": 2,
            "serve_op_latency_seconds{op=poll,wire=json}": 1,
        }

    def test_feed_metrics_agree_across_wires(self):
        """One equal chunk over ``feed`` and over ``feed_arrays`` counts the
        same pairs, chunks and bytes, and lands one latency observation
        under its own ``wire`` label."""
        _, pairs = _world()
        chunk = pairs[:64]
        columns = [np.array(col, dtype=np.uint64) for col in zip(*chunk)]
        feeds = {
            "json": lambda manager: manager.feed("a", chunk, nbytes=512),
            "binary": lambda manager: manager.feed_arrays("a", *columns, nbytes=512),
        }
        snapshots = {}
        for wire, feed in feeds.items():
            telemetry = Telemetry()

            async def main():
                manager = SessionManager(telemetry=telemetry)
                await manager.open("a", "triangle-two-pass", 32, 1)
                return await feed(manager)

            assert asyncio.run(main())["pairs"] == len(chunk)
            snapshots[wire] = telemetry.metrics_snapshot()
        for name in ("serve_session_pairs_total", "serve_session_chunks_total",
                     "serve_bytes_total"):
            assert snapshots["json"][name] == snapshots["binary"][name], name
        assert snapshots["json"]["serve_session_pairs_total"]["value"] == len(chunk)
        assert snapshots["json"]["serve_bytes_total"]["value"] == 512
        for wire, snapshot in snapshots.items():
            latency = [key for key in snapshot
                       if key.startswith("serve_op_latency_seconds")]
            assert latency == [f"serve_op_latency_seconds{{op=feed,wire={wire}}}"]
            assert snapshot[latency[0]]["count"] == 1
