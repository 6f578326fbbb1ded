"""Tests for adjacency-list streams and the model's promise validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import cycle_graph, gnm_random_graph, star_graph
from repro.graph.graph import Graph
from repro.streaming.stream import (
    AdjacencyListStream,
    PairSequenceValidator,
    StreamFormatError,
    validate_pair_sequence,
)


class TestStreamBasics:
    def test_pair_count_is_2m(self, small_random_graph):
        s = AdjacencyListStream(small_random_graph, seed=1)
        assert len(s) == 2 * small_random_graph.m
        assert sum(1 for _ in s.iter_pairs()) == 2 * small_random_graph.m

    def test_every_edge_appears_twice(self, small_random_graph):
        s = AdjacencyListStream(small_random_graph, seed=2)
        from collections import Counter

        counts = Counter(tuple(sorted(p)) for p in s.iter_pairs())
        assert all(c == 2 for c in counts.values())
        assert len(counts) == small_random_graph.m

    def test_replay_is_identical(self, small_random_graph):
        s = AdjacencyListStream(small_random_graph, seed=3)
        assert list(s.iter_pairs()) == list(s.iter_pairs())
        assert list(s.iter_lists()) == list(s.iter_lists())

    def test_all_lists_present(self, small_random_graph):
        s = AdjacencyListStream(small_random_graph, seed=4)
        seen = [v for v, _ in s.iter_lists()]
        assert sorted(seen) == sorted(small_random_graph.vertices())

    def test_positions_match_order(self, small_random_graph):
        s = AdjacencyListStream(small_random_graph, seed=5)
        for i, v in enumerate(s.list_order):
            assert s.position(v) == i

    def test_lists_contain_exact_neighbourhoods(self, small_random_graph):
        s = AdjacencyListStream(small_random_graph, seed=6)
        for v, nbrs in s.iter_lists():
            assert set(nbrs) == small_random_graph.neighbors(v)
            assert len(nbrs) == small_random_graph.degree(v)


class TestExplicitOrders:
    def test_custom_list_order(self):
        g = cycle_graph(5)
        order = [3, 1, 4, 0, 2]
        s = AdjacencyListStream(g, list_order=order, seed=1)
        assert s.list_order == order

    def test_invalid_permutation_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            AdjacencyListStream(g, list_order=[0, 1, 2])
        with pytest.raises(ValueError):
            AdjacencyListStream(g, list_order=[0, 1, 2, 2])

    def test_custom_neighbor_orders(self):
        g = star_graph(4)
        s = AdjacencyListStream(
            g, list_order=[0, 1, 2, 3, 4], neighbor_orders={0: [4, 3, 2, 1]}, seed=1
        )
        assert s.neighbors_in_order(0) == (4, 3, 2, 1)

    def test_wrong_neighbor_order_rejected(self):
        g = star_graph(3)
        with pytest.raises(ValueError):
            AdjacencyListStream(g, neighbor_orders={0: [1, 2]}, seed=1)

    def test_seed_determinism(self):
        g = gnm_random_graph(20, 40, seed=7)
        s1 = AdjacencyListStream(g, seed=42)
        s2 = AdjacencyListStream(g, seed=42)
        assert list(s1.iter_pairs()) == list(s2.iter_pairs())

    def test_reordered_changes_order(self):
        g = gnm_random_graph(20, 40, seed=8)
        s1 = AdjacencyListStream(g, seed=1)
        s2 = s1.reordered(seed=2)
        assert list(s1.iter_pairs()) != list(s2.iter_pairs())
        assert s2.graph is g


class TestValidation:
    def test_valid_stream_passes(self, small_random_graph):
        s = AdjacencyListStream(small_random_graph, seed=9)
        validate_pair_sequence(list(s.iter_pairs()))

    def test_self_loop_rejected(self):
        with pytest.raises(StreamFormatError, match="self loop"):
            validate_pair_sequence([(1, 1)])

    def test_non_contiguous_list_rejected(self):
        pairs = [(0, 1), (1, 0), (0, 2), (2, 0)]
        with pytest.raises(StreamFormatError, match="not contiguous"):
            validate_pair_sequence(pairs)

    def test_missing_reverse_rejected(self):
        with pytest.raises(StreamFormatError, match="reverse"):
            validate_pair_sequence([(0, 1)])

    def test_duplicate_pair_rejected(self):
        with pytest.raises(StreamFormatError, match="duplicate"):
            validate_pair_sequence([(0, 1), (0, 1), (1, 0)])

    def test_empty_stream_is_valid(self):
        summary = validate_pair_sequence([])
        assert (summary.pairs, summary.lists, summary.edges) == (0, 0, 0)

    def test_summary_counts_final_list(self):
        """The last list is only closed implicitly (no transition follows);
        the summary must still count it."""
        pairs = [(0, 1), (1, 0)]
        summary = validate_pair_sequence(pairs)
        assert summary.lists == 2  # list of vertex 1 never sees a transition
        assert summary.pairs == 2
        assert summary.edges == 1

    def test_summary_on_longer_stream(self, small_random_graph):
        s = AdjacencyListStream(small_random_graph, seed=11)
        summary = validate_pair_sequence(list(s.iter_pairs()))
        assert summary.pairs == 2 * small_random_graph.m
        assert summary.edges == small_random_graph.m
        # Only vertices with at least one neighbour emit pairs.
        nonempty = sum(1 for v in small_random_graph.vertices()
                       if small_random_graph.degree(v) > 0)
        assert summary.lists == nonempty

    def test_error_messages_carry_position_context(self):
        with pytest.raises(StreamFormatError, match=r"pair #2"):
            validate_pair_sequence([(0, 1), (1, 0), (0, 2), (2, 0)])
        with pytest.raises(StreamFormatError, match=r"pair #1"):
            validate_pair_sequence([(0, 1), (0, 1), (1, 0)])
        with pytest.raises(StreamFormatError, match=r"pair #0"):
            validate_pair_sequence([(1, 1)])

    def test_duplicate_in_final_unclosed_list(self):
        """A violation inside the never-closed last list is still caught."""
        pairs = [(0, 1), (1, 0), (1, 0)]
        with pytest.raises(StreamFormatError, match="duplicate"):
            validate_pair_sequence(pairs)


class TestIncrementalValidator:
    """The chunked validator behind both ``cmd_validate`` and the server."""

    def test_chunked_feed_matches_one_shot(self, small_random_graph):
        s = AdjacencyListStream(small_random_graph, seed=6)
        pairs = list(s.iter_pairs())
        one_shot = validate_pair_sequence(pairs)
        for chunk in (1, 3, 7, len(pairs)):
            validator = PairSequenceValidator()
            for i in range(0, len(pairs), chunk):
                validator.feed(pairs[i : i + chunk])
            assert validator.finish() == one_shot

    def test_partial_summary_counts_open_list(self):
        validator = PairSequenceValidator()
        validator.feed([(0, 1), (0, 2), (1, 0)])
        partial = validator.partial_summary()
        assert partial.pairs == 3
        assert partial.lists == 2  # list 1 is open but counted
        assert partial.edges == 1  # pairs // 2
        assert partial.max_list_length == 2
        assert validator.current_list == 1

    def test_violation_reports_absolute_position(self):
        validator = PairSequenceValidator()
        validator.feed([(0, 1), (0, 2)])
        with pytest.raises(StreamFormatError, match="pair #2"):
            validator.feed([(0, 1)])

    def test_check_reverse_false_allows_shard_slices(self):
        validator = PairSequenceValidator(check_reverse=False)
        validator.feed([(0, 1), (0, 2)])  # reverses live in other shards
        assert validator.finish().pairs == 2

    def test_state_dict_round_trip_mid_list(self, small_random_graph):
        s = AdjacencyListStream(small_random_graph, seed=6)
        pairs = list(s.iter_pairs())
        cut = len(pairs) // 2 + 1  # odd offset: snapshot inside an open list
        original = PairSequenceValidator()
        original.feed(pairs[:cut])
        resumed = PairSequenceValidator()
        resumed.load_state_dict(original.state_dict())
        assert resumed.pairs_seen == original.pairs_seen
        assert resumed.current_list == original.current_list
        resumed.feed(pairs[cut:])
        assert resumed.finish() == validate_pair_sequence(pairs)

    def test_restored_validator_still_rejects(self):
        original = PairSequenceValidator()
        original.feed([(0, 1), (1, 0)])
        resumed = PairSequenceValidator()
        resumed.load_state_dict(original.state_dict())
        with pytest.raises(StreamFormatError, match="not contiguous"):
            resumed.feed([(0, 2)])

    def test_finish_is_idempotent(self):
        validator = PairSequenceValidator()
        validator.feed([(0, 1), (1, 0)])
        assert validator.finish() == validator.finish()
        with pytest.raises(StreamFormatError, match="finished"):
            validator.feed_pair(2, 3)


class TestFromPairs:
    def test_roundtrip(self, small_random_graph):
        s = AdjacencyListStream(small_random_graph, seed=10)
        pairs = list(s.iter_pairs())
        rebuilt = AdjacencyListStream.from_pairs(pairs)
        assert list(rebuilt.iter_pairs()) == pairs
        assert sorted(rebuilt.graph.edges()) == sorted(small_random_graph.edges())

    def test_invalid_pairs_rejected(self):
        with pytest.raises(StreamFormatError):
            AdjacencyListStream.from_pairs([(0, 1)])

    def test_paper_example(self):
        """The introduction's example stream for a triangle on v1, v2, v3."""
        pairs = [
            ("v3", "v1"), ("v3", "v2"),
            ("v1", "v2"), ("v1", "v3"),
            ("v2", "v3"), ("v2", "v1"),
        ]
        s = AdjacencyListStream.from_pairs(pairs)
        assert s.graph.m == 3
        assert s.list_order == ["v3", "v1", "v2"]


@given(
    n=st.integers(2, 15),
    m_frac=st.floats(0.1, 0.9),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_any_generated_stream_is_model_valid(n, m_frac, seed):
    g = gnm_random_graph(n, int(m_frac * n * (n - 1) // 2), seed=seed)
    s = AdjacencyListStream(g, seed=seed)
    validate_pair_sequence(list(s.iter_pairs()))
