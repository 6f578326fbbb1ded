"""Tests for the sampling primitives, including uniformity properties."""

import pickle
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.sampling import BottomKSampler, ReservoirSampler, ThresholdSampler


class TestBottomKBasics:
    def test_capacity_respected(self):
        s = BottomKSampler(5, seed=1)
        for i in range(100):
            s.offer(i)
        assert len(s) == 5

    def test_under_capacity_keeps_everything(self):
        s = BottomKSampler(50, seed=1)
        for i in range(10):
            assert s.offer(i)
        assert sorted(s.members()) == list(range(10))

    def test_duplicate_offers_are_idempotent(self):
        s = BottomKSampler(3, seed=2)
        for _ in range(5):
            s.offer("x")
        assert len(s) == 1

    def test_membership(self):
        s = BottomKSampler(100, seed=3)
        s.offer("a")
        assert "a" in s
        assert "b" not in s

    def test_zero_capacity(self):
        s = BottomKSampler(0, seed=4)
        assert not s.offer(1)
        assert len(s) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BottomKSampler(-1)

    def test_space_words_counts_slots(self):
        s = BottomKSampler(5, seed=5)
        for i in range(3):
            s.offer(i)
        assert s.space_words() == 6

    def test_offer_tallies(self):
        """Every offer counts; repeat members count as accepted."""
        s = BottomKSampler(3, seed=6)
        results = [s.offer(key) for key in [1, 2, 1, 3, 4, 5, 6, 2, 1]]
        assert (s.offers, s.accepted) == (9, sum(results))
        empty = BottomKSampler(0, seed=6)
        empty.offer_many([1, 2])
        assert (empty.offers, empty.accepted) == (2, 0)

    def test_tallies_stay_out_of_state_and_restart_on_restore(self):
        s = BottomKSampler(3, seed=7)
        s.offer_many(range(10))
        state = s.state_dict()
        assert set(state) == {"capacity", "hash_key", "members"}
        s.load_state_dict(state)
        assert (s.offers, s.accepted) == (0, 0)
        assert s.state_dict() == state

    def test_restore_rejects_a_repeated_member_key(self):
        """A repeated key would restore one member over two heap entries,
        and the stale entry could later evict the wrong member."""
        s = BottomKSampler(2, seed=8)
        before = s.state_dict()
        state = {**before, "members": [[[1, 2], 5], [[1, 2], 7]]}
        with pytest.raises(ValueError, match="more than once"):
            s.load_state_dict(state)
        assert s.state_dict() == before
        with pytest.raises(ValueError, match="more than once"):
            BottomKSampler.from_state_dict(state)


class TestBottomKPrefixProperty:
    """The property Section 3.3.1 relies on: final members never leave."""

    def test_final_members_present_from_first_offer(self):
        keys = list(range(200))
        s = BottomKSampler(20, seed=7)
        history = []
        for k in keys:
            s.offer(k)
            history.append(set(s.members()))
        final = set(s.members())
        for k in final:
            # From the moment k was offered it stays in every snapshot.
            for snapshot in history[k:]:
                assert k in snapshot

    def test_evict_callback_fires_exactly_for_displaced_members(self):
        evicted = []
        admitted = set()
        s = BottomKSampler(10, seed=8, on_evict=evicted.append)
        for k in range(100):
            if s.offer(k):
                admitted.add(k)
        final = set(s.members())
        # Everything ever admitted either survived or was reported evicted.
        assert final.isdisjoint(evicted)
        assert final | set(evicted) == admitted
        assert len(evicted) == len(admitted) - 10


class TestBottomKUniformity:
    def test_inclusion_frequencies_are_uniform(self):
        universe = list(range(40))
        counts = {k: 0 for k in universe}
        trials = 600
        for seed in range(trials):
            s = BottomKSampler(10, seed=seed)
            for k in universe:
                s.offer(k)
            for k in s.members():
                counts[k] += 1
        expected = trials * 10 / 40
        for k, c in counts.items():
            assert abs(c - expected) < 5 * expected**0.5

    def test_order_of_offers_does_not_change_sample(self):
        keys = list(range(50))
        s1 = BottomKSampler(8, seed=99)
        for k in keys:
            s1.offer(k)
        s2 = BottomKSampler(8, seed=99)
        for k in reversed(keys):
            s2.offer(k)
        assert sorted(s1.members()) == sorted(s2.members())


class TestThresholdSampler:
    def test_rate_zero_samples_nothing(self):
        s = ThresholdSampler(0.0, seed=1)
        assert not any(s.offer(i) for i in range(100))

    def test_rate_one_samples_everything(self):
        s = ThresholdSampler(1.0, seed=1)
        assert all(s.offer(i) for i in range(100))

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ThresholdSampler(1.5)
        with pytest.raises(ValueError):
            ThresholdSampler(-0.1)

    def test_expected_fraction(self):
        s = ThresholdSampler(0.3, seed=2)
        n = 5000
        hits = sum(1 for i in range(n) if s.offer(i))
        assert abs(hits / n - 0.3) < 0.03

    def test_wants_is_consistent_with_offer(self):
        s = ThresholdSampler(0.5, seed=3)
        for i in range(100):
            assert s.wants(i) == s.offer(i)

    def test_membership_persists(self):
        s = ThresholdSampler(0.5, seed=4)
        sampled = [i for i in range(100) if s.offer(i)]
        for i in sampled:
            assert i in s


class TestReservoirSampler:
    def test_keeps_all_when_under_capacity(self):
        r = ReservoirSampler(10, seed=1)
        for i in range(5):
            r.offer(i)
        assert sorted(r.items()) == list(range(5))
        assert not r.saturated()

    def test_capacity_respected(self):
        r = ReservoirSampler(10, seed=1)
        for i in range(1000):
            r.offer(i)
        assert len(r) == 10
        assert r.saturated()

    def test_uniformity(self):
        counts = [0] * 30
        trials = 900
        for seed in range(trials):
            r = ReservoirSampler(6, seed=seed)
            for i in range(30):
                r.offer(i)
            for i in r.items():
                counts[i] += 1
        expected = trials * 6 / 30
        for c in counts:
            assert abs(c - expected) < 5 * expected**0.5

    def test_discard_removes_matches(self):
        r = ReservoirSampler(10, seed=2)
        for i in range(10):
            r.offer(i)
        removed = r.discard(lambda x: x % 2 == 0)
        assert removed == 5
        assert all(x % 2 == 1 for x in r.items())

    @pytest.mark.parametrize("cut", [None, 4])
    def test_discard_items_keeps_both_orders(self, cut):
        """Dropping named items removes what ``discard`` would, and keeps
        the survivors and the removed items in reservoir order; an item
        the reservoir does not hold is ignored.  ``cut`` names all of the
        list (None) or its first four entries, so a named item that is
        left out stays in place."""
        named, plain = ReservoirSampler(10, seed=2), ReservoirSampler(10, seed=2)
        for i in range(10):
            named.offer(i)
            plain.offer(i)
        names = [7, 0, 42, 5, 2][:cut]
        doomed = set(names) - {42}
        assert named.discard_items(names) == sorted(doomed)
        assert plain.discard(lambda x: x in doomed) == len(doomed)
        assert named.items() == plain.items() == [
            i for i in range(10) if i not in doomed]

    def test_refills_after_discard(self):
        r = ReservoirSampler(4, seed=3)
        for i in range(4):
            r.offer(i)
        r.discard(lambda x: True)
        assert len(r) == 0
        r.offer(100)
        assert 100 in r.items()

    def test_offer_detailed_reports_displacement(self):
        r = ReservoirSampler(2, seed=4)
        assert r.offer_detailed("a") == (True, None)
        assert r.offer_detailed("b") == (True, None)
        admitted_count = 0
        displaced_items = []
        for i in range(200):
            admitted, displaced = r.offer_detailed(i)
            if admitted:
                admitted_count += 1
                assert displaced in ("a", "b") or isinstance(displaced, int)
                displaced_items.append(displaced)
            else:
                assert displaced is None
        assert admitted_count == len(displaced_items)

    def test_zero_capacity(self):
        r = ReservoirSampler(0, seed=5)
        assert r.offer("x") is None
        assert len(r) == 0


@given(
    capacity=st.integers(1, 20),
    n_items=st.integers(0, 200),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=60)
def test_reservoir_size_invariant(capacity, n_items, seed):
    r = ReservoirSampler(capacity, seed=seed)
    for i in range(n_items):
        r.offer(i)
    assert len(r) == min(capacity, n_items)
    assert r.offered == n_items
    assert set(r.items()) <= set(range(n_items))


class _ListReservoir:
    """Algorithm R over a plain list, removing discarded items by a scan:
    the model the tombstoned reservoir must match offer for offer."""

    def __init__(self, capacity, rng_state):
        self.capacity = capacity
        self.rng = random.Random()
        self.rng.setstate(rng_state)
        self.items = []
        self.offered = 0

    def offer(self, item):
        self.offered += 1
        if len(self.items) < self.capacity:
            self.items.append(item)
            return True, None
        j = self.rng.randrange(self.offered)
        if j < len(self.items):
            displaced, self.items[j] = self.items[j], item
            return True, displaced
        return False, None


@given(
    capacity=st.integers(1, 12),
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, 3)), max_size=300),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=80)
def test_discard_items_matches_a_list_model(capacity, ops, seed):
    """Offers, displacements and survivor order under any mix of offers
    and discards equal a scanning list reservoir's, through compactions,
    pickling and a state round trip."""
    r = ReservoirSampler(capacity, seed=seed)
    model = _ListReservoir(capacity, r._rng.getstate())
    next_item = 0
    for step, (is_offer, count) in enumerate(ops):
        if is_offer:
            assert r.offer_detailed(next_item) == model.offer(next_item)
            next_item += 1
        else:
            doomed = model.items[::2][:count]
            assert r.discard_items(doomed) == doomed
            model.items = [item for item in model.items if item not in doomed]
        assert r.items() == model.items and len(r) == len(model.items)
        if step % 50 == 49:
            restored = ReservoirSampler(capacity)
            restored.load_state_dict(r.state_dict())
            r = restored
        elif step % 50 == 24:
            r = pickle.loads(pickle.dumps(r))  # tombstones survive pickling


@given(
    capacity=st.integers(1, 15),
    n_keys=st.integers(0, 120),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=60)
def test_bottom_k_size_and_minimality(capacity, n_keys, seed):
    """The sample always holds the keys with the k smallest priorities."""
    s = BottomKSampler(capacity, seed=seed)
    for k in range(n_keys):
        s.offer(k)
    assert len(s) == min(capacity, n_keys)
    if n_keys:
        expected = sorted(range(n_keys), key=s.priority)[:capacity]
        assert sorted(s.members()) == sorted(expected)
