"""Tests for sketch-state merging, including the bottom-k identity property."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.merge import (
    MergeError,
    merge_bottom_k_payloads,
    merge_reservoir_payloads,
    merge_states,
)
from repro.sketch.samplers import bottom_k_from_state, bottom_k_state
from repro.sketch.state import SketchState
from repro.util.sampling import BottomKSampler, ReservoirSampler


class TestBottomKMergeProperty:
    """Satellite: merged per-shard samplers == one sampler over everything."""

    @given(
        keys=st.lists(st.integers(min_value=0, max_value=10_000), max_size=120),
        capacity=st.integers(min_value=1, max_value=12),
        n_shards=st.integers(min_value=1, max_value=5),
        hash_seed=st.integers(min_value=0, max_value=2**32),
        partition_seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_concatenated_stream(
        self, keys, capacity, n_shards, hash_seed, partition_seed
    ):
        reference = BottomKSampler(capacity, seed=hash_seed)
        empty = bottom_k_state(reference)
        for key in keys:
            reference.offer(key)

        rng = random.Random(partition_seed)
        shard_keys = [[] for _ in range(n_shards)]
        for key in keys:
            shard_keys[rng.randrange(n_shards)].append(key)

        states = []
        for part_keys in shard_keys:
            part = bottom_k_from_state(empty)
            for key in part_keys:
                part.offer(key)
            states.append(bottom_k_state(part))

        merged = merge_states(states)
        assert merged.payload == bottom_k_state(reference).payload

    def test_merged_state_restores_to_working_sampler(self):
        reference = BottomKSampler(5, seed=3)
        empty = bottom_k_state(reference)
        a = bottom_k_from_state(empty)
        b = bottom_k_from_state(empty)
        for key in range(50):
            (a if key % 2 else b).offer(key)
            reference.offer(key)
        merged = bottom_k_from_state(merge_states([bottom_k_state(a), bottom_k_state(b)]))
        # Restored sampler must continue exactly like the reference.
        for key in range(50, 80):
            merged.offer(key)
            reference.offer(key)
        assert merged.state_dict() == reference.state_dict()


class TestBottomKMergeErrors:
    def test_capacity_mismatch_refused(self):
        a = bottom_k_state(BottomKSampler(3, seed=1)).payload
        b = bottom_k_state(BottomKSampler(4, seed=1)).payload
        with pytest.raises(MergeError):
            merge_bottom_k_payloads([a, b])

    def test_hash_mismatch_refused(self):
        a = bottom_k_state(BottomKSampler(3, seed=1)).payload
        b = bottom_k_state(BottomKSampler(3, seed=2)).payload
        with pytest.raises(MergeError):
            merge_bottom_k_payloads([a, b])

    def test_empty_merge_refused(self):
        with pytest.raises(MergeError):
            merge_states([])

    def test_unknown_kind_refused(self):
        with pytest.raises(MergeError):
            merge_states([SketchState("mystery", 1, {})])

    def test_kind_disagreement_refused(self):
        with pytest.raises(Exception):
            merge_states(
                [SketchState("bottom-k-sampler", 1, {}), SketchState("mystery", 1, {})]
            )


class TestReservoirMerge:
    def _reservoir_payload(self, items, offered, capacity=4, seed=0):
        sampler = ReservoirSampler(capacity, seed=seed)
        state = sampler.state_dict()
        state["items"] = list(items)
        state["offered"] = offered
        return state

    def test_disjoint_union_small_enough_keeps_everything(self):
        a = self._reservoir_payload(["a1", "a2"], offered=2)
        b = self._reservoir_payload(["b1"], offered=1)
        merged = merge_reservoir_payloads([a, b], None, random.Random(0))
        assert sorted(merged["items"]) == ["a1", "a2", "b1"]
        assert merged["offered"] == 3
        assert merged["capacity"] == 4

    def test_disjoint_overflow_draws_capacity_items(self):
        a = self._reservoir_payload(["a1", "a2", "a3", "a4"], offered=40)
        b = self._reservoir_payload(["b1", "b2", "b3", "b4"], offered=40)
        merged = merge_reservoir_payloads([a, b], None, random.Random(1))
        assert len(merged["items"]) == 4
        assert merged["offered"] == 80
        assert set(merged["items"]) <= {"a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4"}

    def test_allocation_tracks_offered_counts(self):
        # Shard a saw 100x the candidates of shard b: nearly all slots
        # should come from a.  (Statistical, but overwhelmingly certain.)
        a = self._reservoir_payload(["a1", "a2", "a3", "a4"], offered=4000)
        b = self._reservoir_payload(["b1", "b2", "b3", "b4"], offered=40)
        counts = {"a": 0, "b": 0}
        for trial in range(50):
            merged = merge_reservoir_payloads([a, b], None, random.Random(trial))
            for item in merged["items"]:
                counts[item[0]] += 1
        assert counts["a"] > counts["b"] * 5

    def test_base_holding_items_is_refused(self):
        """Only disjoint shard reservoirs merge: a base that already holds
        items raises, and an empty base's offers count once."""
        a = self._reservoir_payload(["a0", "a1"], offered=5)
        b = self._reservoir_payload(["b0", "b1"], offered=5)
        with pytest.raises(MergeError, match="base reservoir holds items"):
            merge_reservoir_payloads(
                [a, b], self._reservoir_payload(["a0"], offered=2), random.Random(0)
            )
        empty = self._reservoir_payload([], offered=2)
        merged = merge_reservoir_payloads([a, b], empty, random.Random(0))
        assert merged["offered"] == 8
        assert sorted(merged["items"]) == ["a0", "a1", "b0", "b1"]


class TestCounterDeltas:
    def test_triangle_counters_delta_sum(self):
        from repro.core.triangle_two_pass import TwoPassTriangleCounter

        base_algo = TwoPassTriangleCounter(sample_size=4, seed=1, sharded=True)
        base = base_algo.snapshot()

        def advanced(pairs):
            algo = TwoPassTriangleCounter(sample_size=4, seed=1, sharded=True)
            algo.restore(base)
            algo.begin_pass(0)
            for src, dst in pairs:
                algo.begin_list(src)
                algo.process(src, dst)
                algo.end_list(src, (dst,))
            return algo.snapshot()

        s1 = advanced([(1, 2), (2, 1)])
        s2 = advanced([(3, 4), (4, 3), (4, 5)])
        merged = merge_states([s1, s2], base=base)
        assert merged.payload["pair_count"] == 5
