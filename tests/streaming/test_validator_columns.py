"""The columnar validator agrees with per-pair feeding, under any chunking.

``feed_array`` records a binary chunk's pairs as ``uint64`` columns,
``feed_pair`` appends to plain lists, and ``finish`` checks reverse
completeness by sorting the concatenated columns.  These tests pin that
any mix of ``feed`` and ``feed_array`` over a stream ends exactly where
feeding the same pairs one at a time ends — the same
:class:`PairSequenceSummary`, or the same exception type and message — on
valid streams and on streams with one planted violation, and that an
independent set-based reading of the model agrees with both.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import gnm_random_graph
from repro.sketch.state import decode_value
from repro.streaming.stream import (
    AdjacencyListStream,
    PairSequenceSummary,
    PairSequenceValidator,
    StreamFormatError,
    validate_pair_sequence,
)

VIOLATIONS = ("none", "self_loop", "duplicate", "reopened", "missing_reverse")

# How vertex v is labelled: small ints; ints mixing ids below and at or
# above 2^32 (the two-key sort path); ints mixed with strings (the labels
# no uint64 column can hold, so those pairs only arrive through feed).
RELABEL = {
    "small": lambda v: v,
    "wide": lambda v: (v << 32) | v,
    "strings": lambda v: f"v{v}" if v % 2 else v,
}


def _planted(pairs, violation, at):
    """``pairs`` with one model violation planted near index ``at``."""
    i = at % len(pairs)
    src, dst = pairs[i]
    if violation == "self_loop":
        return pairs[: i + 1] + [(src, src)] + pairs[i + 1 :]
    if violation == "duplicate":
        return pairs[: i + 1] + [(src, dst)] + pairs[i + 1 :]
    if violation == "reopened":
        return pairs + [(pairs[0][0], pairs[-1][0])]
    if violation == "missing_reverse":
        return pairs[:i] + pairs[i + 1 :]
    return pairs


def _first_unreversed(pairs):
    """The model's reading: the first pair whose reverse never arrives."""
    seen = set(pairs)
    return next(((s, d) for s, d in pairs if (d, s) not in seen), None)


def _columns(chunk):
    return (
        np.array([s for s, _ in chunk], dtype=np.uint64),
        np.array([d for _, d in chunk], dtype=np.uint64),
    )


def _feed_mixed(validator, pairs, plan):
    """Feed ``pairs`` in chunks cycling through ``plan``'s (size, binary)
    steps; a binary step falls back to ``feed`` for non-int labels."""
    start, step = 0, 0
    while start < len(pairs):
        size, binary = plan[step % len(plan)]
        chunk = pairs[start : start + size]
        start, step = start + size, step + 1
        if binary and all(type(v) is int for pair in chunk for v in pair):
            validator.feed_array(*_columns(chunk))
        else:
            validator.feed(chunk)


def _outcome(feed):
    """Feed, then finish: the summary, or the error's type and message."""
    validator = PairSequenceValidator()
    try:
        feed(validator)
        state = validator.state_dict()
        return validator.finish(), state
    except StreamFormatError as exc:
        return (type(exc), str(exc)), None


@given(
    n=st.integers(2, 14),
    density=st.floats(0.1, 0.9),
    seed=st.integers(0, 10**6),
    violation=st.sampled_from(VIOLATIONS),
    at=st.integers(0, 10**6),
    labels=st.sampled_from(sorted(RELABEL)),
    plan=st.lists(
        st.tuples(st.integers(1, 40), st.booleans()), min_size=1, max_size=6
    ),
)
@settings(max_examples=300, deadline=None)
def test_mixed_feeding_matches_per_pair(n, density, seed, violation, at, labels, plan):
    graph = gnm_random_graph(n, max(1, int(density * n * (n - 1) // 2)), seed=seed)
    base = list(AdjacencyListStream(graph, seed=seed).iter_pairs())
    relabel = RELABEL[labels]
    pairs = [(relabel(s), relabel(d)) for s, d in _planted(base, violation, at)]

    def per_pair(validator):
        for src, dst in pairs:
            validator.feed_pair(src, dst)

    expected, expected_state = _outcome(per_pair)
    got, got_state = _outcome(lambda validator: _feed_mixed(validator, pairs, plan))
    assert got == expected
    assert got_state == expected_state

    if violation == "none":
        assert expected == PairSequenceSummary(
            pairs=len(pairs),
            lists=graph.n - sum(1 for v in graph.vertices() if not graph.degree(v)),
            edges=graph.m,
            max_list_length=max(graph.degree(v) for v in graph.vertices()),
        )
    elif violation == "missing_reverse":
        src, dst = _first_unreversed(pairs)
        assert expected[0] is StreamFormatError
        assert expected[1].startswith(f"edge ({src!r}, {dst!r}) lacks its reverse pair")
    else:
        assert expected[0] is StreamFormatError


class TestReverseCheck:
    @pytest.mark.parametrize("plan", [[(6, False)], [(6, True)], [(1, False), (5, True)]])
    def test_names_the_first_missing_reverse_in_stream_order(self, plan):
        pairs = [(0, 9), (0, 3), (0, 7), (3, 0), (7, 0), (5, 6)]
        validator = PairSequenceValidator()
        _feed_mixed(validator, pairs, plan)
        with pytest.raises(StreamFormatError, match=r"edge \(0, 9\) lacks"):
            validator.finish()

    def test_ids_near_two_to_the_64(self):
        top = (1 << 64) - 1
        pairs = [(top, top - 1), (top, 5), (top - 1, top), (5, top)]
        validator = PairSequenceValidator()
        validator.feed_array(*_columns(pairs))
        assert validator.finish().edges == 2
        validator = PairSequenceValidator()
        validator.feed_array(*_columns(pairs[:-1]))
        with pytest.raises(StreamFormatError, match=rf"edge \({top}, 5\) lacks"):
            validator.finish()

    def test_wide_ids_are_not_packed_into_one_key(self):
        # Packed as (src << 32) | dst in 64 bits, these two pairs and
        # their reverses give the same sorted keys although no reverse
        # is present.
        pairs = [(2, (1 << 32) + 1), ((1 << 32) + 1, (1 << 32) + 2)]
        validator = PairSequenceValidator()
        validator.feed_array(*_columns(pairs))
        with pytest.raises(StreamFormatError, match=rf"edge \(2, {(1 << 32) + 1}\) lacks"):
            validator.finish()

    def test_ints_beyond_uint64_use_the_set_check(self):
        big = 1 << 70
        assert validate_pair_sequence([(big, 1), (1, big)]).edges == 1
        with pytest.raises(StreamFormatError, match=rf"edge \({big}, 1\) lacks"):
            validate_pair_sequence([(big, 1), (1, big + 1)])

    def test_float_labels_are_not_truncated(self):
        # As uint64, 2.5 would become 2 and the stream would look complete.
        with pytest.raises(StreamFormatError, match=r"edge \(1, 2\.5\) lacks"):
            validate_pair_sequence([(1, 2.5), (2, 1)])

    def test_lists_mode_records_no_pairs(self):
        validator = PairSequenceValidator(check_reverse=False)
        validator.feed([(0, 1), (0, 2)])
        validator.feed_array(*_columns([(3, 4)]))
        assert validator.state_dict()["directed_seen"] == set()
        assert validator.finish() == PairSequenceSummary(
            pairs=3, lists=2, edges=1, max_list_length=2
        )


class TestEarlierStateFormat:
    """Validator state as encoded before pairs were kept as columns: the
    same keys, ``directed_seen`` a set of ``(src, dst)`` tuples."""

    STATE = json.loads(
        '{"check_reverse": true, "current": 2, "current_neighbors": {"$s": [0]}, '
        '"directed_seen": {"$s": [{"$t": [0, 1]}, {"$t": [0, 2]}, {"$t": [1, 0]}, '
        '{"$t": [1, 2]}, {"$t": [2, 0]}]}, "finished": false, '
        '"max_list_length": 2, "pairs": 5, "seen_lists": {"$s": [0, 1]}}'
    )

    def _restored(self):
        validator = PairSequenceValidator()
        validator.load_state_dict(decode_value(self.STATE))
        return validator

    def test_loads_and_finishes(self):
        validator = self._restored()
        assert validator.pairs_seen == 5
        assert validator.current_list == 2
        validator.feed_array(*_columns([(2, 1)]))
        assert validator.finish() == PairSequenceSummary(
            pairs=6, lists=3, edges=3, max_list_length=2
        )

    def test_round_trips_to_the_same_state(self):
        assert self._restored().state_dict() == decode_value(self.STATE)

    def test_missing_reverse_is_reported(self):
        validator = self._restored()
        with pytest.raises(StreamFormatError, match=r"edge \(1, 2\) lacks"):
            validator.finish()
