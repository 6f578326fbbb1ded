"""Binary pair-batch frame tests: codec round-trips and wire behavior.

The codec half is property-based (hypothesis): any session id and any
uint64 columns — empty chunks and 2**64-1 included — must survive
encode/decode exactly.  The wire half runs every scenario against both
front-ends — a bare server and a one-worker router — since they share
one frame reader: each framing error must come back with the same code
and the same connection outcome from either, and one connection must be
able to interleave JSON and binary feed frames against the same session
with responses staying JSON.
"""

import asyncio
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.client import ServeClient
from repro.serve.manager import SessionManager
from repro.serve.protocol import (
    BAD_FRAME,
    BAD_REQUEST,
    BINARY_FRAME_VERSION,
    BINARY_HEADER_BYTES,
    BINARY_MAGIC,
    BINARY_NOT_NEGOTIATED,
    ERROR_CODES,
    FRAME_TOO_LARGE,
    MAX_FRAME_BYTES,
    ServeError,
    decode_binary_body,
    decode_binary_feed,
    decode_binary_header,
    encode_binary_feed,
    encode_frame,
)
from repro.serve.router import ServeRouter
from repro.serve.server import ServeServer

_HEADER = struct.Struct("<BBHIQ")

uint64s = st.integers(min_value=0, max_value=2**64 - 1)
columns = st.lists(st.tuples(uint64s, uint64s), max_size=200)
sessions = st.text(min_size=1, max_size=40).filter(
    lambda s: len(s.encode("utf-8")) <= 0xFFFF
)


class TestCodecRoundTrip:
    @given(req_id=uint64s, session=sessions, pairs=columns)
    @settings(max_examples=200, deadline=None)
    def test_any_frame_round_trips(self, req_id, session, pairs):
        srcs = np.array([p[0] for p in pairs], dtype=np.uint64)
        dsts = np.array([p[1] for p in pairs], dtype=np.uint64)
        frame = encode_binary_feed(req_id, session, srcs, dsts)
        out_id, out_session, out_srcs, out_dsts = decode_binary_feed(frame)
        assert out_id == req_id
        assert out_session == session
        assert out_srcs.tolist() == srcs.tolist()
        assert out_dsts.tolist() == dsts.tolist()

    def test_empty_chunk(self):
        empty = np.array([], dtype=np.uint64)
        frame = encode_binary_feed(7, "s", empty, empty)
        assert len(frame) == BINARY_HEADER_BYTES + 1
        _, session, srcs, dsts = decode_binary_feed(frame)
        assert session == "s" and len(srcs) == 0 and len(dsts) == 0

    def test_max_uint64_survives(self):
        top = np.array([2**64 - 1], dtype=np.uint64)
        _, _, srcs, dsts = decode_binary_feed(encode_binary_feed(0, "s", top, top))
        assert int(srcs[0]) == 2**64 - 1 and int(dsts[0]) == 2**64 - 1

    def test_header_is_sixteen_bytes(self):
        assert BINARY_HEADER_BYTES == 16


class TestCodecErrors:
    def test_codes_are_registered(self):
        for code in (BAD_FRAME, FRAME_TOO_LARGE, BINARY_NOT_NEGOTIATED):
            assert code in ERROR_CODES

    def test_truncated_header(self):
        with pytest.raises(ServeError) as err:
            decode_binary_header(b"\xb1\x01")
        assert err.value.code == BAD_FRAME

    def test_bad_magic(self):
        header = _HEADER.pack(0x7B, BINARY_FRAME_VERSION, 0, 0, 0)
        with pytest.raises(ServeError) as err:
            decode_binary_header(header)
        assert err.value.code == BAD_FRAME

    def test_unknown_version(self):
        header = _HEADER.pack(BINARY_MAGIC, 99, 0, 0, 0)
        with pytest.raises(ServeError) as err:
            decode_binary_header(header)
        assert err.value.code == BAD_FRAME

    def test_oversized_header_refused_before_body(self):
        huge = (MAX_FRAME_BYTES // 16) + 1
        header = _HEADER.pack(BINARY_MAGIC, BINARY_FRAME_VERSION, 0, huge, 0)
        with pytest.raises(ServeError) as err:
            decode_binary_header(header)
        assert err.value.code == FRAME_TOO_LARGE

    def test_truncated_body(self):
        with pytest.raises(ServeError) as err:
            decode_binary_body(b"\x00" * 15, session_len=0, n_pairs=1)
        assert err.value.code == BAD_FRAME

    def test_non_utf8_session(self):
        with pytest.raises(ServeError) as err:
            decode_binary_body(b"\xff\xfe", session_len=2, n_pairs=0)
        assert err.value.code == BAD_FRAME

    def test_mismatched_columns_refused(self):
        with pytest.raises(ServeError) as err:
            encode_binary_feed(
                0, "s",
                np.array([1], dtype=np.uint64),
                np.array([1, 2], dtype=np.uint64),
            )
        assert err.value.code == BAD_FRAME


def _with_server(fn):
    """Run ``fn(host, port)`` against a server, then a one-worker router."""

    async def serve(front_end):
        await front_end.start()
        task = asyncio.ensure_future(front_end.serve_until_stopped())
        try:
            await fn("127.0.0.1", front_end.bound_port)
        finally:
            # The shutdown op also stops a router's workers at once.
            async with ServeClient("127.0.0.1", front_end.bound_port) as client:
                await client.shutdown_server()
            await asyncio.wait_for(task, 10)

    asyncio.run(serve(ServeServer(SessionManager(), port=0)))
    router = ServeRouter(1, port=0)
    router.spawn_workers()  # forks, so before the event loop starts
    try:
        asyncio.run(serve(router))
    finally:
        router.join_workers()


class TestWire:
    def test_binary_before_negotiation_is_refused(self):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                col = np.array([1], dtype=np.uint64)
                writer.write(encode_binary_feed(9, "s", col, col))
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["id"] == 9
                assert response["error"]["code"] == BINARY_NOT_NEGOTIATED
            finally:
                writer.close()
                await writer.wait_closed()

        _with_server(scenario)

    def test_mixed_json_and_binary_frames_on_one_connection(self):
        async def scenario(host, port):
            async with ServeClient(host, port) as client:
                assert await client.negotiate_binary()
                await client.open("mix", "triangle-two-pass", 32, seed=1)
                await client.feed("mix", [[0, 1], [0, 2]])
                out = await client.feed_binary(
                    "mix",
                    np.array([1, 1], dtype=np.uint64),
                    np.array([0, 2], dtype=np.uint64),
                )
                assert out["pairs"] == 2 and out["pairs_total"] == 4
                await client.feed("mix", [[2, 0], [2, 1]])
                poll = await client.poll("mix")
                assert poll["pairs_this_pass"] == 6
                return poll

        _with_server(scenario)

    def test_binary_feed_requires_negotiation_client_side(self):
        async def scenario(host, port):
            async with ServeClient(host, port) as client:
                col = np.array([1], dtype=np.uint64)
                with pytest.raises(RuntimeError):
                    await client.feed_binary("s", col, col)

        _with_server(scenario)

    def test_truncated_binary_frame_closes_connection(self):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(bytes([BINARY_MAGIC, 99]))  # bad version
                writer.write(b"\x00" * (BINARY_HEADER_BYTES - 2))
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["error"]["code"] == BAD_FRAME
                # The stream is unframed after a bad header: the server
                # must hang up rather than resynchronize on garbage.
                assert await reader.read() == b""
            finally:
                writer.close()
                await writer.wait_closed()

        _with_server(scenario)

    def test_oversize_json_line_is_refused_and_hung_up(self):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # One byte past the cap and no newline: the refusal comes
                # once every byte is read, so the hang-up is a clean close.
                writer.write(b"{" + b" " * (MAX_FRAME_BYTES + 1))
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["id"] is None
                assert response["error"]["code"] == BAD_REQUEST
                assert await reader.read() == b""
            finally:
                writer.close()
                await writer.wait_closed()

        _with_server(scenario)

    def test_non_utf8_session_id_is_refused_and_connection_kept(self):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(encode_frame({"id": 1, "op": "hello", "binary": 1}))
                await writer.drain()
                assert json.loads(await reader.readline())["binary"] == 1
                header = _HEADER.pack(BINARY_MAGIC, BINARY_FRAME_VERSION, 2, 0, 5)
                writer.write(header + b"\xff\xfe")
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["id"] == 5
                assert response["error"]["code"] == BAD_FRAME
                writer.write(encode_frame({"id": 6, "op": "hello"}))
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["id"] == 6 and response["ok"]
            finally:
                writer.close()
                await writer.wait_closed()

        _with_server(scenario)
