"""Request order and fairness on the serve front-ends.

A server connection is answered one request at a time, in arrival
order, and yields one event-loop turn between requests.  Two properties
follow and are pinned here:

* **fairness** — a poll on one connection is handled while another
  connection still has most of a burst of feed frames buffered, not
  after the burst (checked on the server and through a one-worker router,
  from the session's own pair count when the poll was handled, so no
  wall-clock timing is involved);
* **order** — on one connection, feeds for two sessions, polls,
  ``stats``, ``snapshot``, ``finish_pass`` and ``merge`` come back in
  request order, and the merge sees every earlier feed: the merged
  estimate equals ``run_sharded`` bit for bit.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.graph.generators import gnm_random_graph
from repro.graph.planted import planted_triangles
from repro.serve.manager import SessionManager
from repro.serve.protocol import MAX_FRAME_BYTES, encode_binary_feed, encode_frame
from repro.serve.router import ServeRouter
from repro.serve.server import ServeServer
from repro.sketch.driver import partition_stream, run_sharded
from repro.streaming.registry import get as get_spec
from repro.streaming.stream import AdjacencyListStream
from repro.util.rng import derive_seed

#: Feed frames pipelined on the ingest connection, and pairs per frame:
#: a 66 KB burst that reaches the server in one or two socket reads.
BURST_FRAMES = 32
FRAME_PAIRS = 128


def _serve(front_end, fn):
    """Run ``fn(host, port)`` against a started front-end, then stop it."""

    async def main():
        await front_end.start()
        task = asyncio.ensure_future(front_end.serve_until_stopped())
        try:
            return await fn("127.0.0.1", front_end.bound_port)
        finally:
            front_end.stop()
            await asyncio.wait_for(task, 10)

    return asyncio.run(main())


def _with_front_end(kind, fn):
    if kind == "server":
        return _serve(ServeServer(SessionManager(), port=0), fn)
    router = ServeRouter(1, port=0)
    router.spawn_workers()  # forks, so before the event loop starts
    try:
        return _serve(router, fn)
    finally:
        router.join_workers()


class _Link:
    """One raw client connection: write frames now, read replies later."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host, port):
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_FRAME_BYTES
        )
        return cls(reader, writer)

    async def reply(self):
        return json.loads(await self.reader.readline())

    async def rpc(self, message):
        self.writer.write(encode_frame(message))
        response = await self.reply()
        assert response.get("ok"), response
        return response

    async def close(self):
        self.writer.close()
        await self.writer.wait_closed()


class TestFairness:
    @pytest.mark.parametrize("kind", ["server", "router"])
    def test_poll_is_handled_early_in_a_feed_burst(self, kind):
        stream = AdjacencyListStream(gnm_random_graph(400, 4000, seed=2), seed=3)
        pairs = list(stream.iter_pairs())[: BURST_FRAMES * FRAME_PAIRS]
        srcs = np.array([p[0] for p in pairs], dtype=np.uint64)
        dsts = np.array([p[1] for p in pairs], dtype=np.uint64)
        burst = b"".join(
            encode_binary_feed(
                100 + i,
                "s",
                srcs[i * FRAME_PAIRS : (i + 1) * FRAME_PAIRS],
                dsts[i * FRAME_PAIRS : (i + 1) * FRAME_PAIRS],
            )
            for i in range(BURST_FRAMES)
        )

        async def scenario(host, port):
            ingest = await _Link.open(host, port)
            watch = await _Link.open(host, port)
            try:
                await ingest.rpc({"id": 1, "op": "hello", "binary": 1})
                await ingest.rpc(
                    {"id": 2, "op": "open", "session": "s",
                     "algorithm": "triangle-two-pass", "budget": 64, "seed": 1}
                )
                # Warm both links (a router opens its upstream links lazily).
                await ingest.rpc({"id": 3, "op": "poll", "session": "s"})
                await watch.rpc({"id": 4, "op": "poll", "session": "s"})
                # The whole burst, then the poll, with no await in between.
                ingest.writer.write(burst)
                watch.writer.write(
                    encode_frame({"id": 5, "op": "poll", "session": "s"})
                )
                poll = await watch.reply()
                replies = [await ingest.reply() for _ in range(BURST_FRAMES)]
                return poll, replies
            finally:
                await ingest.close()
                await watch.close()

        poll, replies = _with_front_end(kind, scenario)
        assert poll["ok"] and poll["id"] == 5, poll
        assert [r["id"] for r in replies] == [100 + i for i in range(BURST_FRAMES)]
        assert all(r["ok"] for r in replies)
        assert replies[-1]["pairs_total"] == len(pairs)
        # Handled within the burst's first quarter: the server took turns
        # between the connections instead of running the buffered frames
        # back to back first.
        assert poll["pairs_this_pass"] < len(pairs) // 4


def _sharded_world():
    planted = planted_triangles(noise_edges=150, triangles=20, seed=3)
    stream = AdjacencyListStream(planted.graph, seed=4)
    n_shards, budget, seed, merge_seed = 2, 48, 7, 5
    algorithm = get_spec("triangle-two-pass-sharded").make(budget, seed=seed)
    expected = run_sharded(algorithm, stream, n_shards, merge_seed=merge_seed).estimate
    shard_pairs = [
        [(v, u) for v, neighbors in shard.lists for u in neighbors]
        for shard in partition_stream(stream, n_shards, "balanced")
    ]
    return expected, shard_pairs, budget, seed, merge_seed


class TestInOrder:
    def test_one_connection_answers_in_request_order(self):
        expected, shard_pairs, budget, seed, merge_seed = _sharded_world()
        chunk = 37

        def pass_requests(sids, merged_id, pass_seed, first_id):
            """One pass over both shards as one pipelined burst.

            Feeds alternate between the two sessions and between the
            JSON and binary wires; a poll, ``stats`` and a ``snapshot``
            sit in the middle.  Returns the frames and, per request id,
            the session pair count a poll must report.
            """
            frames, polls = [], {}
            fed = dict.fromkeys(sids, 0)
            feeds = 0
            next_id = first_id
            longest = max(len(p) for p in shard_pairs)
            for step, start in enumerate(range(0, longest, chunk)):
                for sid, pairs in zip(sids, shard_pairs):
                    part = pairs[start : start + chunk]
                    if not part:
                        continue
                    feeds += 1
                    if feeds % 2:
                        frames.append(encode_binary_feed(
                            next_id, sid,
                            np.array([p[0] for p in part], dtype=np.uint64),
                            np.array([p[1] for p in part], dtype=np.uint64),
                        ))
                    else:
                        frames.append(encode_frame(
                            {"id": next_id, "op": "feed", "session": sid,
                             "pairs": [list(p) for p in part]}
                        ))
                    fed[sid] += len(part)
                    next_id += 1
                if step == 2:
                    polls[next_id] = fed[sids[0]]
                    for message in (
                        {"op": "poll", "session": sids[0]},
                        {"op": "stats"},
                        {"op": "snapshot", "session": sids[1]},
                    ):
                        frames.append(encode_frame({"id": next_id, **message}))
                        next_id += 1
            for sid in sids:
                frames.append(encode_frame(
                    {"id": next_id, "op": "finish_pass", "session": sid}
                ))
                next_id += 1
            frames.append(encode_frame(
                {"id": next_id, "op": "merge", "target": merged_id,
                 "sources": sids, "merge_seed": pass_seed}
            ))
            return frames, polls, list(range(first_id, next_id + 1))

        async def burst(link, frames, polls, ids):
            link.writer.write(b"".join(frames))
            replies = [await link.reply() for _ in ids]
            assert [r["id"] for r in replies] == ids
            assert all(r["ok"] for r in replies), [r for r in replies if not r["ok"]]
            for reply in replies:
                if reply["id"] in polls:
                    assert reply["pairs_this_pass"] == polls[reply["id"]]
            return replies

        async def scenario(host, port):
            link = await _Link.open(host, port)
            try:
                await link.rpc({"id": 1, "op": "hello", "binary": 1})
                sids0 = ["p0-a", "p0-b"]
                for sid in sids0:
                    await link.rpc(
                        {"id": 2, "op": "open", "session": sid,
                         "algorithm": "triangle-two-pass-sharded",
                         "budget": budget, "seed": seed, "validate": "lists"}
                    )
                await burst(link, *pass_requests(
                    sids0, "m0", derive_seed(merge_seed, 0), 10
                ))
                state = (await link.rpc(
                    {"id": 3, "op": "snapshot", "session": "m0"}
                ))["state"]
                sids1 = ["p1-a", "p1-b"]
                for sid in sids1:
                    await link.rpc(
                        {"id": 4, "op": "open", "session": sid, "state": state}
                    )
                replies = await burst(link, *pass_requests(
                    sids1, "m1", derive_seed(merge_seed, 1), 1000
                ))
                assert replies[-1]["pass_index"] == 2
                return await link.rpc({"id": 5, "op": "poll", "session": "m1"})
            finally:
                await link.close()

        poll = _serve(ServeServer(SessionManager(), port=0), scenario)
        assert poll["done"] is True
        assert poll["estimate"] == expected
