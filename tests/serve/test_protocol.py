"""Wire-protocol unit tests: framing, param extraction, codecs."""

import pytest

from repro.serve.protocol import (
    BAD_REQUEST,
    BAD_STATE,
    ERROR_CODES,
    ServeError,
    decode_frame,
    decode_pairs,
    decode_state,
    encode_frame,
    encode_pairs,
    encode_state,
    error_response,
    get_int,
    get_opt_number,
    get_str,
    ok_response,
    request_id,
    require_op,
)
from repro.sketch.state import SketchState


class TestFraming:
    def test_round_trip(self):
        message = {"id": 7, "op": "feed", "pairs": [[0, 1]]}
        assert decode_frame(encode_frame(message).strip()) == message

    def test_frame_is_one_line(self):
        encoded = encode_frame({"op": "hello", "text": "a\nb"})
        assert encoded.endswith(b"\n")
        assert encoded.count(b"\n") == 1

    def test_garbage_rejected(self):
        with pytest.raises(ServeError) as err:
            decode_frame(b"{nope")
        assert err.value.code == BAD_REQUEST

    def test_non_object_rejected(self):
        with pytest.raises(ServeError):
            decode_frame(b"[1, 2]")

    def test_responses(self):
        ok = ok_response(3, pairs=2)
        assert ok == {"id": 3, "ok": True, "pairs": 2}
        bad = error_response(3, ServeError(BAD_REQUEST, "nope"))
        assert bad["ok"] is False
        assert bad["error"]["code"] == BAD_REQUEST

    def test_error_codes_are_unique(self):
        assert len(set(ERROR_CODES)) == len(ERROR_CODES)


class TestParams:
    def test_require_op(self):
        assert require_op({"op": "poll"}) == "poll"
        for bad in ({}, {"op": 3}, {"op": ""}):
            with pytest.raises(ServeError):
                require_op(bad)

    def test_request_id_defaults_none(self):
        assert request_id({}) is None
        assert request_id({"id": 9}) == 9

    def test_get_str_and_int(self):
        msg = {"session": "s1", "budget": 64, "flag": True}
        assert get_str(msg, "session") == "s1"
        assert get_int(msg, "budget") == 64
        assert get_int(msg, "missing", 5) == 5
        with pytest.raises(ServeError):
            get_str(msg, "missing")
        with pytest.raises(ServeError):
            get_int(msg, "session")
        with pytest.raises(ServeError):
            get_int(msg, "flag")  # bool is not an int on the wire

    def test_get_opt_number(self):
        assert get_opt_number({}, "truth") is None
        assert get_opt_number({"truth": 2.5}, "truth") == 2.5
        with pytest.raises(ServeError):
            get_opt_number({"truth": "many"}, "truth")


class TestPairCodec:
    def test_round_trip(self):
        pairs = [(0, 1), ("a", "b"), (3, "x")]
        assert decode_pairs(encode_pairs(pairs)) == pairs

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0, 1), (0, 2), (1, 0), (2**40, 7)],
            [("a", "b"), ("b", "a"), ("é", "ü")],
            [(3, "x"), ("x", 3)],
            [[0, 1], [1, 0]],
            [],
        ],
    )
    @pytest.mark.parametrize("container", [list, tuple])
    def test_feed_frame_bytes_match_rebuilt_pairs(self, pairs, container):
        """Passing the caller's pairs through leaves the wire bytes as they
        were when every pair was rebuilt as a ``[src, dst]`` list."""
        rebuilt = [[src, dst] for src, dst in pairs]
        frame = {"id": 3, "op": "feed", "session": "s"}
        sent = encode_frame({**frame, "pairs": encode_pairs(container(pairs))})
        assert sent == encode_frame({**frame, "pairs": rebuilt})

    def test_list_passes_through(self):
        pairs = [(0, 1), (1, 0)]
        assert encode_pairs(pairs) is pairs
        assert encode_pairs(tuple(pairs)) == pairs

    @pytest.mark.parametrize(
        "bad",
        [None, "pairs", [[0]], [[0, 1, 2]], [[0, True]], [[None, 1]], [[0, 1.5]]],
    )
    def test_rejections(self, bad):
        with pytest.raises(ServeError) as err:
            decode_pairs(bad)
        assert err.value.code == BAD_REQUEST


class TestStateCodec:
    def test_round_trip(self):
        state = SketchState("demo", 1, {"xs": (1, 2), "seen": {3, 4}})
        again = decode_state(encode_state(state))
        assert again == state

    def test_garbage_rejected(self):
        for bad in (None, [], {"kind": "x"}):
            with pytest.raises(ServeError) as err:
                decode_state(bad)
            assert err.value.code == BAD_STATE
