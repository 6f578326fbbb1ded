"""Tests for the samplers' hash function."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.hashing import MixHash64


@pytest.fixture(params=[MixHash64])
def hash_family(request):
    return request.param


class TestDeterminism:
    def test_same_seed_same_values(self, hash_family):
        h1 = hash_family(seed=3)
        h2 = hash_family(seed=3)
        keys = [0, 1, (2, 3), ("a", 5), "edge"]
        assert [h1.hash_int(k) for k in keys] == [h2.hash_int(k) for k in keys]

    def test_different_seeds_decorrelate(self, hash_family):
        h1 = hash_family(seed=1)
        h2 = hash_family(seed=2)
        same = sum(1 for k in range(200) if h1.hash_int(k) == h2.hash_int(k))
        assert same == 0

    def test_repeated_calls_stable(self, hash_family):
        h = hash_family(seed=9)
        assert h.hash_int((1, 2)) == h.hash_int((1, 2))


class TestRange:
    def test_hash_int_in_64_bit_range(self, hash_family):
        h = hash_family(seed=4)
        for k in range(100):
            assert 0 <= h.hash_int(k) < 2**64

    def test_hash_unit_in_unit_interval(self, hash_family):
        h = hash_family(seed=4)
        for k in range(100):
            assert 0.0 <= h.hash_unit(k) < 1.0


class TestUniformity:
    def test_unit_hash_mean_near_half(self, hash_family):
        h = hash_family(seed=5)
        values = [h.hash_unit(i) for i in range(2000)]
        mean = sum(values) / len(values)
        assert abs(mean - 0.5) < 0.03

    def test_no_collisions_on_small_domain(self, hash_family):
        h = hash_family(seed=6)
        values = {h.hash_int(i) for i in range(5000)}
        assert len(values) == 5000


class TestTupleKeys:
    def test_tuple_order_matters(self, hash_family):
        h = hash_family(seed=7)
        assert h.hash_int((1, 2)) != h.hash_int((2, 1))

    def test_nested_tuples_supported(self, hash_family):
        h = hash_family(seed=7)
        assert h.hash_int((("a", 1), 2)) != h.hash_int((("a", 2), 2))

    @given(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
    @settings(max_examples=50)
    def test_edge_key_hash_total(self, key):
        h = MixHash64(seed=11)
        assert 0 <= h.hash_int(key) < 2**64
