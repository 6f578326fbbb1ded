"""ServeSession core tests: bit-identity, validation, budgets, snapshots.

The central contract: a session fed any chunking of a stream's pairs
produces estimates **bit-identical** to the batch runner over the same
stream — serving is an execution mode, not an approximation.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.graph.generators import gnm_random_graph
from repro.graph.planted import planted_triangles
from repro.serve.protocol import (
    BAD_REQUEST,
    BUDGET_EXCEEDED,
    SESSION_DONE,
    SPACE_BUDGET_EXCEEDED,
    STREAM_FORMAT,
    UNSUPPORTED,
    ServeError,
    decode_binary_feed,
    encode_binary_feed,
)
from repro.serve.session import ServeSession
from repro.sketch.state import SketchState
from repro.streaming.registry import get as get_spec
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream
from repro.util import vectorized


@pytest.fixture(scope="module")
def triangle_world():
    planted = planted_triangles(noise_edges=200, triangles=30, seed=7)
    stream = AdjacencyListStream(planted.graph, seed=11)
    return stream, list(stream.iter_pairs()), planted.true_count


def _reference(stream, name="triangle-two-pass", budget=64, seed=5):
    return run_algorithm(get_spec(name).make(budget, seed=seed), stream).estimate


def _feed_stream(session, pairs, chunk, passes):
    final = None
    for _ in range(passes):
        for i in range(0, len(pairs), chunk):
            session.feed(pairs[i : i + chunk])
        final = session.finish_pass()
    return final


def _feed_binary(session, pairs, chunk):
    for i in range(0, len(pairs), chunk):
        part = pairs[i : i + chunk]
        session.feed_arrays(
            np.array([s for s, _ in part], dtype=np.uint64),
            np.array([d for _, d in part], dtype=np.uint64),
        )


class TestBitIdentity:
    """Two-pass counters are pinned against the batch runner, under every
    chunking and both wires, by ``tests/test_conformance.py``; the
    one-pass baseline is outside that matrix."""

    def test_one_pass_algorithm(self, triangle_world):
        stream, pairs, _ = triangle_world
        reference = _reference(stream, "triangle-one-pass", budget=500, seed=3)
        session = ServeSession.open("s", "triangle-one-pass", 500, seed=3)
        final = _feed_stream(session, pairs, 17, 1)
        assert final["done"]
        assert final["estimate"] == reference


def test_dropped_session_is_freed_without_the_cyclic_gc(triangle_world):
    """A session holds no reference cycle, so dropping it frees it, and
    its validator, at once instead of at the next cyclic collection."""
    _, pairs, _ = triangle_world
    enabled = gc.isenabled()
    gc.disable()
    try:
        session = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
        session.feed(pairs[:50])
        _feed_binary(session, pairs[50:100], 50)
        ref = weakref.ref(session)
        del session
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


class TestValidation:
    def test_self_loop_rejected(self):
        session = ServeSession.open("s", "triangle-two-pass", 8, seed=0)
        with pytest.raises(ServeError) as err:
            session.feed([(1, 1)])
        assert err.value.code == STREAM_FORMAT
        assert "self loop" in err.value.message

    def test_non_contiguous_list_rejected(self):
        session = ServeSession.open("s", "triangle-two-pass", 8, seed=0)
        session.feed([(0, 1), (1, 0)])
        with pytest.raises(ServeError) as err:
            session.feed([(0, 2)])
        assert "not contiguous" in err.value.message

    def test_missing_reverse_caught_at_finish(self):
        session = ServeSession.open("s", "triangle-two-pass", 8, seed=0)
        session.feed([(0, 1), (0, 2), (1, 0)])  # fine mid-stream...
        with pytest.raises(ServeError) as err:
            session.finish_pass()  # ...but (2, 0) never arrived
        assert "reverse" in err.value.message

    def test_binary_missing_reverse_names_the_pair(self, triangle_world):
        _, pairs, _ = triangle_world
        dropped = len(pairs) // 3
        src, dst = pairs[dropped]
        session = ServeSession.open("s", "triangle-two-pass", 8, seed=0)
        _feed_binary(session, pairs[:dropped] + pairs[dropped + 1 :], 64)
        with pytest.raises(ServeError) as err:
            session.finish_pass()
        assert err.value.code == STREAM_FORMAT
        # (dst, src) is the only pair left without its reverse.
        assert err.value.message.startswith(
            f"edge ({dst!r}, {src!r}) lacks its reverse pair"
        )

    def test_lists_mode_allows_shard_slices(self):
        session = ServeSession.open(
            "s", "triangle-two-pass-sharded", 8, seed=0, validate_mode="lists"
        )
        session.feed([(0, 1), (0, 2)])  # reverses live in another shard
        assert session.finish_pass()["pairs"] == 2

    def test_off_mode_skips_everything(self):
        session = ServeSession.open(
            "s", "triangle-two-pass", 8, seed=0, validate_mode="off"
        )
        session.feed([(1, 1)])  # would be rejected under strict
        session.finish_pass()

    def test_rejected_chunk_ingests_accepted_prefix_on_both_wires(
        self, triangle_world
    ):
        """A chunk rejected mid-way keeps the pairs before the offending
        one on both wires, so the session stays in step with its validator
        and the run still matches the batch runner."""
        stream, pairs, _ = triangle_world
        bad = pairs[:100] + [(pairs[99][0], pairs[99][0])]  # then a self loop
        feeders = {
            "json": lambda session, chunk: session.feed(chunk),
            "binary": lambda session, chunk: _feed_binary(session, chunk, len(chunk)),
        }
        sessions, rejected, finals = {}, {}, {}
        for wire, feed in feeders.items():
            session = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
            with pytest.raises(ServeError) as err:
                feed(session, bad)
            assert err.value.code == STREAM_FORMAT
            assert "self loop" in err.value.message
            assert session.pairs_total == 100
            rejected[wire] = (session.stats(), session.snapshot_state().payload)
            feed(session, pairs[100:])
            finals[wire] = [session.finish_pass()]
            feed(session, pairs)
            finals[wire].append(session.finish_pass())
            sessions[wire] = session
        assert rejected["json"] == rejected["binary"]
        assert finals["json"] == finals["binary"]
        assert [out["pairs"] for out in finals["binary"]] == [len(pairs)] * 2
        assert finals["binary"][-1]["estimate"] == _reference(stream)
        assert sessions["json"].stats() == sessions["binary"].stats()
        assert (
            sessions["json"].snapshot_state().payload
            == sessions["binary"].snapshot_state().payload
        )

    def test_second_pass_length_must_match_first(self, triangle_world):
        _, pairs, _ = triangle_world
        session = ServeSession.open("s", "triangle-two-pass", 16, seed=0)
        session.feed(pairs)
        session.finish_pass()
        session.feed(pairs[: len(pairs) // 2])
        with pytest.raises(ServeError) as err:
            session.finish_pass()
        assert "replay identically" in err.value.message

    def test_feed_after_done_rejected(self, triangle_world):
        _, pairs, _ = triangle_world
        session = ServeSession.open("s", "triangle-two-pass", 16, seed=0)
        _feed_stream(session, pairs, 1000, 2)
        with pytest.raises(ServeError) as err:
            session.feed(pairs[:1])
        assert err.value.code == SESSION_DONE


class TestBudgets:
    def test_byte_budget(self):
        session = ServeSession.open(
            "s", "triangle-two-pass", 8, seed=0, byte_budget=100
        )
        session.account_bytes(60)
        with pytest.raises(ServeError) as err:
            session.account_bytes(41)
        assert err.value.code == BUDGET_EXCEEDED

    def test_space_budget(self, triangle_world):
        _, pairs, _ = triangle_world
        session = ServeSession.open(
            "s", "triangle-two-pass", 64, seed=5, space_budget_words=10
        )
        with pytest.raises(ServeError) as err:
            for i in range(0, len(pairs), 50):
                session.feed(pairs[i : i + 50])
        assert err.value.code == SPACE_BUDGET_EXCEEDED


class TestPoll:
    def test_anytime_estimate_and_verdict(self, triangle_world):
        stream, pairs, truth = triangle_world
        session = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
        session.feed(pairs)
        out = session.poll(truth=truth, m=stream.m)
        assert out["anytime"] is True
        assert out["estimate"] is not None
        verdict = out["verdict"]
        assert verdict["theorem"] == "3.7"
        assert isinstance(verdict["ok"], bool)

    def test_poll_without_truth_has_no_verdict(self, triangle_world):
        _, pairs, _ = triangle_world
        session = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
        session.feed(pairs[:10])
        assert "verdict" not in session.poll()

    def test_result_before_done_rejected(self):
        session = ServeSession.open("s", "triangle-two-pass", 8, seed=0)
        with pytest.raises(ServeError) as err:
            session.result()
        assert err.value.code == BAD_REQUEST


class TestSnapshotRestore:
    def test_restore_resumes_bit_exactly_mid_stream(self, triangle_world):
        stream, pairs, _ = triangle_world
        reference = _reference(stream)
        session = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
        # Snapshot mid-list (cut at an odd offset), mid-first-pass.
        cut = len(pairs) // 2 + 1
        for i in range(0, cut, 13):
            session.feed(pairs[i : i + 13][: max(0, cut - i)])
        state = session.snapshot_state()
        # Wire round-trip: what a client would receive and send back.
        state = SketchState.from_json(state.to_json())
        resumed = ServeSession.restore_snapshot("s2", state)
        assert resumed.pairs_total == session.pairs_total
        resumed.feed(pairs[cut:])
        resumed.finish_pass()
        for i in range(0, len(pairs), 29):
            resumed.feed(pairs[i : i + 29])
        final = resumed.finish_pass()
        assert final["estimate"] == reference

    def test_binary_restore_mid_stream_is_bit_identical(self, triangle_world):
        stream, pairs, _ = triangle_world
        chunk = 37
        whole = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
        expected = []
        for _ in range(2):
            _feed_binary(whole, pairs, chunk)
            expected.append(whole.finish_pass())
        session = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
        cut = chunk * (len(pairs) // (2 * chunk))  # a frame boundary mid-pass
        _feed_binary(session, pairs[:cut], chunk)
        state = SketchState.from_json(session.snapshot_state().to_json())
        resumed = ServeSession.restore_snapshot("s2", state)
        _feed_binary(resumed, pairs[cut:], chunk)
        got = [resumed.finish_pass()]
        _feed_binary(resumed, pairs, chunk)
        got.append(resumed.finish_pass())
        assert got == expected
        assert got[-1]["estimate"] == _reference(stream)

    def test_restored_session_still_validates(self, triangle_world):
        _, pairs, _ = triangle_world
        session = ServeSession.open("s", "triangle-two-pass", 16, seed=0)
        session.feed(pairs[:20])
        resumed = ServeSession.restore_snapshot("s2", session.snapshot_state())
        already_closed = pairs[0][0]
        with pytest.raises(ServeError) as err:
            resumed.feed([(already_closed, pairs[1][1] + 10_000)])
        assert "not contiguous" in err.value.message

    def test_snapshot_unsupported_algorithm(self):
        session = ServeSession.open("s", "triangle-wedge", 8, seed=0)
        with pytest.raises(ServeError) as err:
            session.snapshot_state()
        assert err.value.code == UNSUPPORTED

    def test_malformed_state_rejected(self):
        state = SketchState("serve-session", 1, {"spec": "triangle-two-pass"})
        with pytest.raises(ServeError):
            ServeSession.restore_snapshot("s", state)


@pytest.fixture(scope="module")
def long_world():
    """Lists of about 20 neighbours (long, past ``SHORT_LIST``) cut by
    97-pair frames: most lists close inside a frame, some span two."""
    stream = AdjacencyListStream(gnm_random_graph(60, 600, seed=4), seed=9)
    pairs = list(stream.iter_pairs())
    frames = []
    for i in range(0, len(pairs), 97):
        part = pairs[i : i + 97]
        frame = encode_binary_feed(
            i,
            "s",
            np.array([s for s, _ in part], dtype=np.uint64),
            np.array([d for _, d in part], dtype=np.uint64),
        )
        frames.append(decode_binary_feed(frame)[2:])
    return stream, pairs, frames


def _record_columns(session):
    """Wrap the session algorithm's ``process_run`` to log every long
    list's ``(vertex, neighbours, column)``."""
    seen = []
    inner = session.algorithm.process_run

    def process_run(run, columns):
        if columns is not None:
            seen.extend(
                (vertex, list(neighbors), column)
                for (vertex, neighbors), column in zip(run, columns)
            )
        return inner(run, columns)

    session.algorithm.process_run = process_run
    return seen


class TestFrameColumns:
    """A binary session hands the run route views of its frames' ``dsts``
    columns; every other list is converted as before."""

    def test_lists_closed_in_a_frame_use_its_column(self, long_world):
        stream, pairs, frames = long_world
        session = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
        seen = _record_columns(session)
        provider = session._cursor.column_provider
        views, converted = 0, 0
        for _ in range(2):
            position = 0
            for srcs, dsts in frames:
                assert not dsts.flags.writeable
                del seen[:]
                session.feed_arrays(srcs, dsts)
                assert not provider._views
                for vertex, neighbors, column in seen:
                    expected = vectorized.as_vertex_array(neighbors)
                    assert column.dtype == np.uint64
                    assert np.array_equal(column, expected)
                    # Where the list's pairs lie in this pass's stream.
                    end = pairs.index((vertex, neighbors[-1]), 0, position + len(dsts))
                    start = end + 1 - len(neighbors)
                    inside = start >= position and end < position + len(dsts) - 1
                    assert np.shares_memory(column, dsts) == inside
                    views += inside
                    converted += not inside
                position += len(dsts)
            session.finish_pass()
        assert views > 2 * converted > 0
        assert session.result() == _reference(stream)

    def test_json_lists_are_converted(self, long_world):
        stream, pairs, _ = long_world
        session = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
        seen = _record_columns(session)
        _feed_stream(session, pairs, 97, 2)
        assert seen
        for _, neighbors, column in seen:
            assert column.flags.writeable
            assert np.array_equal(column, vectorized.as_vertex_array(neighbors))
        assert session.result() == _reference(stream)

    def test_rejected_frame_supplies_only_accepted_columns(self, long_world):
        _, pairs, _ = long_world
        cut = 80
        part = pairs[:cut] + [(pairs[cut - 1][0], pairs[cut - 1][0])] + pairs[cut:120]
        srcs = np.array([s for s, _ in part], dtype=np.uint64)
        dsts = np.array([d for _, d in part], dtype=np.uint64)
        session = ServeSession.open("s", "triangle-two-pass", 64, seed=5)
        seen = _record_columns(session)
        with pytest.raises(ServeError) as err:
            session.feed_arrays(srcs, dsts)
        assert err.value.code == STREAM_FORMAT
        assert session.pairs_total == cut
        assert not session._cursor.column_provider._views
        assert seen
        for _, neighbors, column in seen:
            assert np.shares_memory(column, dsts[:cut])
            assert not np.shares_memory(column, dsts[cut:])
            assert np.array_equal(column, vectorized.as_vertex_array(neighbors))

    @pytest.mark.parametrize(
        "name", ["triangle-two-pass", "triangle-two-pass-sharded", "fourcycle-two-pass"]
    )
    def test_read_only_frames_match_the_runner(self, long_world, name):
        """Decoded frames are read-only, so a kernel writing into a
        column would raise here."""
        stream, _, frames = long_world
        session = ServeSession.open("s", name, 64, seed=5)
        for _ in range(2):
            for srcs, dsts in frames:
                session.feed_arrays(srcs, dsts)
            session.finish_pass()
        assert session.result() == _reference(stream, name)
