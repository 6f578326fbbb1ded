"""Sampling primitives for the streaming algorithms.

Three samplers back the paper's algorithms:

* :class:`BottomKSampler` — a uniform fixed-size edge sample via bottom-k
  hashing.  Every key has a fixed pseudorandom priority, and the sampler
  retains the ``k`` smallest priorities seen so far.  Crucially, a key that
  belongs to the *final* sample is a member of the running sample from its
  first insertion onward (its priority is among the ``k`` smallest of every
  prefix), which is exactly the property Section 3.3.1 of the paper relies
  on: a triangle on a sampled edge is observable from the moment the edge
  first appears.  It has one admission path, the loop of
  :meth:`~BottomKSampler.offer_many`: the per-key
  :meth:`~BottomKSampler.offer` and the vectorised
  :meth:`~BottomKSampler.offer_array` are threshold filters in front of
  it.  The sampler tallies its own offers for the counters' telemetry.
* :class:`ThresholdSampler` — Bernoulli sampling by hash threshold; a
  simpler, independent-inclusion alternative with the same first-occurrence
  property.
* :class:`ReservoirSampler` — classic reservoir sampling with optional
  deletion support, used for the pair sample ``Q`` in the triangle
  algorithm.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, repeat
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.util.hashing import MixHash64
from repro.util.rng import SeedLike, resolve_rng


def _member_sort_key(entry: Tuple[Any, int]) -> Tuple[int, str]:
    """Canonical ordering for serialised ``(key, priority)`` members.

    Primary order is the priority (what bottom-k truncation compares);
    ``repr`` of the key breaks the astronomically rare priority ties
    deterministically so two state dicts of the same sample are equal.
    """
    key, priority = entry
    return (priority, repr(key))

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class BottomKSampler(Generic[K]):
    """Uniform size-``k`` sample of a key universe via bottom-k hashing.

    ``offer(key)`` admits the key if its priority is currently among the
    ``k`` smallest; admitting a new key may evict the current maximum, in
    which case ``on_evict`` (if provided) is called with the evicted key.
    Offering the same key twice is a no-op the second time.  Every
    admission goes through one step, in :meth:`offer_many`'s loop:
    :meth:`offer` and :meth:`offer_array` are filters in front of it,
    and all three are observably identical to per-key offers.
    ``offers`` and ``accepted`` tally the offers made and those that
    returned True.
    """

    def __init__(
        self,
        capacity: int,
        seed: SeedLike = None,
        on_evict: Optional[Callable[[K], None]] = None,
    ):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._hash = MixHash64(resolve_rng(seed))
        self._heap: List[tuple] = []  # max-heap via negated priority
        self._members: Dict[K, int] = {}
        self._on_evict = on_evict
        # Monotonic structural-mutation counter.  Consumers that maintain
        # columnar views over the membership (the two-pass counters' member
        # edge columns) key their caches on this and rebuild only when the
        # sample actually changed.
        self._version = 0
        # Append-only admission log: every key ever admitted, in admission
        # order.  Columnar consumers snapshot a (epoch, position) cursor and
        # treat log entries past it as a pending tail, so a few admissions
        # never force a full column rebuild.  The log is compacted back to
        # the live membership (bumping the epoch, which invalidates all
        # cursors) once stale entries dominate, keeping it O(capacity).
        self._admit_log: List[K] = []
        self._admit_epoch = 0
        # Telemetry-only offer tallies (repeat members count as accepted);
        # not part of state_dict(), and a restore restarts them at zero.
        self.offers = 0
        self.accepted = 0

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, key: K) -> bool:
        return key in self._members

    @property
    def version(self) -> int:
        """Counter bumped on every structural change to the membership."""
        return self._version

    @property
    def admission_log(self) -> List[K]:
        """Append-only list of admitted keys (may contain evicted keys).

        Read-only for consumers; valid only together with
        :attr:`admission_epoch` — a changed epoch means the log was
        compacted or the sampler restored, and any cursor into it is void.
        """
        return self._admit_log

    @property
    def admission_epoch(self) -> int:
        """Bumped whenever the admission log is rewritten wholesale."""
        return self._admit_epoch

    def _note_admit(self, key: K) -> None:
        log = self._admit_log
        log.append(key)
        if len(log) > 4 * self.capacity + 64:
            del log[:]
            log.extend(self._members)
            self._admit_epoch += 1

    def priority(self, key: K) -> int:
        """Return the fixed pseudorandom priority of ``key``."""
        return self._hash.hash_int(key)

    def priority_array(self, encoded_keys: np.ndarray) -> np.ndarray:
        """Columnar :meth:`priority` over pre-encoded ``uint64`` keys.

        ``encoded_keys`` must be ``_to_int_key`` outputs for the original
        keys (see :mod:`repro.util.vectorized`); bit-identical to the
        scalar priorities.
        """
        return self._hash.hash_int_array(encoded_keys)

    def threshold(self) -> Optional[int]:
        """Current admission threshold: the largest member priority.

        ``None`` while the sample is not yet full — every new key is then
        admitted regardless of priority.  Once full, a key can be (or
        become) a member iff its priority is ``<=`` this value: strictly
        below to displace the worst member, equal only if it *is* the
        worst member.
        """
        if len(self._members) < self.capacity:
            return None
        return -self._heap[0][0]

    def reject(self, count: int) -> None:
        """Count ``count`` offers that a caller's threshold filter turned
        away: offers :meth:`offer` would have rejected without a change."""
        self.offers += count

    def offer(self, key: K) -> bool:
        """Offer ``key`` to the sample; return True iff it is now sampled.

        Returns True also for keys that were already members.  A key that
        gets in is admitted through :meth:`offer_many`.
        """
        if key in self._members:
            self.offers += 1
            self.accepted += 1
            return True
        if self.capacity:
            prio = self.priority(key)
            if len(self._members) < self.capacity or prio < -self._heap[0][0]:
                return self.offer_many((key,), (prio,)) == 1
        self.offers += 1
        return False

    def offer_many(
        self,
        keys: Sequence[K],
        priorities: Optional[Sequence[int]] = None,
        admitted: Optional[List[int]] = None,
    ) -> int:
        """Offer each key in order; return how many offers were accepted.

        Observably identical to calling :meth:`offer` per key — the return
        value is the number of per-key calls that would have returned True
        (repeat members included) — with the per-call overhead hoisted out
        of the loop (the batched streaming fast path's inner loop).
        ``priorities``, when given, holds ``priority(keys[i])`` as Python
        ints (e.g. a :meth:`priority_array` result's ``tolist()``), so a
        caller that hashed many keys in one batch skips the scalar hash.
        ``admitted``, when given, receives the position in ``keys`` of
        every key admitted (not of a repeat member), in order.

        Its loop holds the sampler's one admission step: a key below the
        threshold (or any key while the sample fills) is pushed, or
        replaces the worst member, which is then handed to ``on_evict``.
        """
        self.offers += len(keys)
        if self.capacity == 0:
            return 0
        accepted = 0
        members = self._members
        heap = self._heap
        hash_int = self._hash.hash_int
        capacity = self.capacity
        on_evict = self._on_evict
        for index, key in enumerate(keys):
            if key in members:
                accepted += 1
                continue
            prio = hash_int(key) if priorities is None else priorities[index]
            full = len(members) >= capacity
            if full:
                if prio >= -heap[0][0]:
                    continue
                worst = heapq.heapreplace(heap, (-prio, key))[1]
                del members[worst]
            else:
                heapq.heappush(heap, (-prio, key))
            members[key] = prio
            self._version += 1
            self._note_admit(key)
            accepted += 1
            if admitted is not None:
                admitted.append(index)
            if full and on_evict is not None:
                on_evict(worst)
        self.accepted += accepted
        return accepted

    def offer_array(self, priorities: np.ndarray, keys: Sequence[K]) -> int:
        """Batched :meth:`offer` over pre-hashed priorities; return the
        number of accepted offers, exactly as :meth:`offer_many` would.

        A filter in front of :meth:`offer_many`.  ``priorities[i]`` must
        be ``priority(keys[i])`` (use :meth:`priority_array`); ``keys``
        only needs ``__getitem__``, so a lazy view builds keys solely for
        the batch survivors.  While the sample fills, chunks of at most
        the free slots go to :meth:`offer_many` whole, so no chunk can
        evict.  Once it is full, one vectorised comparison keeps the keys
        at or below the threshold, and only they are offered: the
        threshold can only *tighten* within a batch, so a key above it
        would be rejected by the scalar loop wherever it sits, cannot
        already be a member, and changes nothing but the offer count.
        Keys at exactly the threshold are kept — the worst member itself
        re-offered must count as accepted.
        """
        total = len(priorities)
        if self.capacity == 0:
            self.reject(total)
            return 0
        accepted = 0
        start = 0
        while start < total and len(self._members) < self.capacity:
            stop = min(total, start + self.capacity - len(self._members))
            accepted += self.offer_many(
                [keys[i] for i in range(start, stop)], priorities[start:stop].tolist()
            )
            start = stop
        if start < total:
            survivors = np.flatnonzero(priorities[start:] <= np.uint64(self.threshold()))
            survivors += start
            self.reject(total - start - len(survivors))
            accepted += self.offer_many(
                [keys[i] for i in survivors.tolist()], priorities[survivors].tolist()
            )
        return accepted

    def members(self) -> List[K]:
        """Return the currently sampled keys (unspecified order)."""
        return list(self._members)

    def membership(self) -> Dict[K, int]:
        """Return the live key→priority mapping for read-only membership
        tests (avoids per-lookup ``__contains__`` dispatch in hot loops).
        Callers must not mutate it.
        """
        return self._members

    def space_words(self) -> int:
        """Machine words of live state: one key plus one priority per slot."""
        return 2 * len(self._members)

    # -- state protocol -----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Serialise the sampler to a plain dict (JSON-safe via the sketch
        codec).  Members are listed in canonical (priority, key) order so
        state dicts of equal samples compare equal regardless of insertion
        history — the property the bottom-k merge tests rely on.
        """
        return {
            "capacity": self.capacity,
            "hash_key": self._hash.key,
            "members": sorted(self._members.items(), key=_member_sort_key),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore the sampler from :meth:`state_dict` output.

        The hash function, capacity, and membership are all replaced, and
        the offer tallies restart at zero; the ``on_evict`` callback wired
        at construction is retained.  A state that lists one key twice is
        rejected with ``ValueError``.
        """
        capacity = int(state["capacity"])
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        members = [(tuple(k) if isinstance(k, list) else k, int(p))
                   for k, p in state["members"]]
        if len(members) > capacity:
            raise ValueError(
                f"state holds {len(members)} members but capacity is {capacity}"
            )
        by_key = dict(members)
        if len(by_key) != len(members):
            # A repeated key would leave a stale heap entry that can
            # later evict the wrong member.
            raise ValueError("state lists a member key more than once")
        self.capacity = capacity
        self._hash = MixHash64(key=int(state["hash_key"]))
        self._members = by_key
        self._heap = [(-p, k) for k, p in members]
        heapq.heapify(self._heap)
        self._version += 1
        self._admit_log = list(self._members)
        self._admit_epoch += 1
        self.offers = 0
        self.accepted = 0

    @classmethod
    def from_state_dict(
        cls,
        state: Dict[str, Any],
        on_evict: Optional[Callable[[K], None]] = None,
    ) -> "BottomKSampler":
        """Reconstruct a sampler from serialised state."""
        sampler: BottomKSampler[K] = cls(int(state["capacity"]), on_evict=on_evict)
        sampler.load_state_dict(state)
        return sampler


class ThresholdSampler(Generic[K]):
    """Bernoulli key sampler: ``key`` is sampled iff ``h(key) < rate``.

    Inclusion decisions are independent across keys and fixed for the
    sampler's lifetime, so both stream passes agree on the sample and a key
    is recognisable as sampled from its first occurrence.
    """

    def __init__(self, rate: float, seed: SeedLike = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        self.rate = rate
        self._hash = MixHash64(resolve_rng(seed))
        self._members: set = set()

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, key: K) -> bool:
        return key in self._members

    def wants(self, key: K) -> bool:
        """Return whether ``key`` falls under the sampling threshold."""
        return self._hash.hash_unit(key) < self.rate

    def offer(self, key: K) -> bool:
        """Offer ``key``; record and return True iff it is sampled."""
        if key in self._members:
            return True
        if self.wants(key):
            self._members.add(key)
            return True
        return False

    def members(self) -> List[K]:
        """Return the currently sampled keys (unspecified order)."""
        return list(self._members)

    def space_words(self) -> int:
        """Machine words of live state: one word per retained key."""
        return len(self._members)

    # -- state protocol -----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Serialise the sampler to a plain dict."""
        return {
            "rate": self.rate,
            "hash_key": self._hash.key,
            "members": sorted(self._members, key=repr),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore the sampler from :meth:`state_dict` output."""
        self.rate = float(state["rate"])
        self._hash = MixHash64(key=int(state["hash_key"]))
        self._members = {
            tuple(k) if isinstance(k, list) else k for k in state["members"]
        }


class _Tombstone:
    """Marks a discarded reservoir slot until the next compaction; one
    instance, which pickling and copying keep (by name)."""

    __slots__ = ()

    def __reduce__(self) -> str:
        return "_TOMBSTONE"


_TOMBSTONE: Any = _Tombstone()


class ReservoirSampler(Generic[V]):
    """Uniform size-``k`` reservoir over a stream of offered items.

    Standard Algorithm R, with one extension: :meth:`discard` and
    :meth:`discard_items` remove items (used when an edge is evicted from
    the first-pass sample and its dependent pairs must be dropped).  After
    a discard the reservoir refills from subsequent offers; the sample
    remains uniform over candidates that were never invalidated whenever
    discards are themselves oblivious to the items' identities, which
    holds in our use (eviction depends only on edge hash priorities,
    drawn independently of the reservoir's randomness).

    Survivor order is reproducible state, because Algorithm R replaces
    by index.  :meth:`discard_items` therefore leaves a tombstone in each
    removed item's slot, and a Fenwick tree over the live slots finds the
    ``j``-th live item in O(log k); refills append after the last slot.
    The tree is built the first time a full reservoir with tombstones
    draws, so a reservoir that refills without filling up never pays for
    it.  The slots are compacted, in order, once they reach twice the
    capacity.  Without tombstones an offer costs what plain Algorithm R
    costs: the ``j``-th item is slot ``j``.
    """

    def __init__(self, capacity: int, seed: SeedLike = None):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._rng = resolve_rng(seed)
        self._slots: List[V] = []  # live items in order, tombstones between
        self._live = 0
        self._dead = 0  # tombstones among the slots
        # Fenwick tree over the slots' liveness (1-based), built when a
        # full reservoir with tombstones first draws; None until then.
        self._tree: Optional[List[int]] = None
        # Slot of each held item, kept from the first discard_items on.
        self._where: Optional[Dict[V, int]] = None
        self.offered = 0

    def __len__(self) -> int:
        return self._live

    def offer(self, item: V) -> Optional[V]:
        """Offer ``item``; return it if admitted, else ``None``."""
        admitted, _ = self.offer_detailed(item)
        return item if admitted else None

    def offer_detailed(self, item: V) -> Tuple[bool, Optional[V]]:
        """Offer ``item``; return ``(admitted, displaced_item_or_None)``.

        Callers that maintain side indexes over the reservoir contents use
        the displaced item to unregister it.
        """
        slot = self.draw()
        if slot is None:
            return False, None
        return True, self.place(slot, item)

    def draw(self) -> Optional[int]:
        """Count one offer and make Algorithm R's decision for it: the
        slot the offered item goes to, or None if it is rejected.

        The decision depends only on the offer count and the fill level,
        never on the item, so a caller can decide before it builds the
        item; an admitted item must then be handed to :meth:`place`
        before the next offer.
        """
        self.offered += 1
        if self.capacity == 0:
            return None
        if self._live < self.capacity:
            return len(self._slots)
        j = self._rng.randrange(self.offered)
        if j >= self._live:
            return None
        if not self._dead:
            return j
        if self._tree is None:
            self._tree = self._build_tree()
        return self._nth(j)

    def place(self, slot: int, item: V) -> Optional[V]:
        """Put ``item`` in the ``slot`` :meth:`draw` returned; return the
        item it displaces, if any."""
        slots, where = self._slots, self._where
        if slot < len(slots):
            displaced = slots[slot]
            slots[slot] = item
            if where is not None:
                del where[displaced]
                where[item] = slot
            return displaced
        if self._dead and slot >= 2 * self.capacity:
            self._compact()
            slots, where, slot = self._slots, self._where, len(self._slots)
        slots.append(item)
        self._live += 1
        if where is not None:
            where[item] = slot
        if self._tree is not None:
            self._tree_add(slot, 1)
        return None

    def discard(self, predicate: Callable[[V], bool]) -> int:
        """Remove all items matching ``predicate``; return how many.

        Keeps the survivors' relative order: Algorithm R replaces by
        index, so order is part of the reproducible state.
        """
        before = self._live
        self._reset([item for item in self.items() if not predicate(item)])
        return before - self._live

    def discard_items(self, doomed: Iterable[V]) -> List[V]:
        """Remove the held items in ``doomed``; return them in reservoir
        order.

        For callers that know the items to drop (e.g. from a side index)
        and need them back to unregister side indexes.  Each removal
        leaves a tombstone and costs O(log k), so survivors keep their
        order without a scan of the reservoir.  Items must be hashable
        and distinct while held; ones not held are ignored.
        """
        where = self._where
        if where is None:
            where = self._where = {
                item: slot for slot, item in enumerate(self._slots)
                if item is not _TOMBSTONE
            }
        found = sorted(slot for slot in map(where.pop, doomed, repeat(None))
                       if slot is not None)
        if not found:
            return []
        slots, tree = self._slots, self._tree
        removed = [slots[slot] for slot in found]
        for slot in found:
            slots[slot] = _TOMBSTONE
            if tree is not None:
                self._tree_add(slot, -1)
        self._live -= len(found)
        self._dead += len(found)
        return removed

    def items(self) -> List[V]:
        """Return the current sample contents."""
        if not self._dead:
            return list(self._slots)
        return [item for item in self._slots if item is not _TOMBSTONE]

    # -- slot bookkeeping -----------------------------------------------------

    def _build_tree(self) -> List[int]:
        """A Fenwick tree over the slots' liveness, sized for twice the
        capacity (at least the current slot count)."""
        size = max(2 * self.capacity, len(self._slots))
        # tree[i] is the live count of slots (i - lowbit(i), i], 1-based.
        prefix = [0, *accumulate(item is not _TOMBSTONE for item in self._slots)]
        prefix.extend([prefix[-1]] * (size + 1 - len(prefix)))
        return [0] + [prefix[i] - prefix[i - (i & -i)] for i in range(1, size + 1)]

    def _tree_add(self, slot: int, delta: int) -> None:
        tree = self._tree
        assert tree is not None
        index, size = slot + 1, len(tree) - 1
        while index <= size:
            tree[index] += delta
            index += index & -index

    def _nth(self, j: int) -> int:
        """The slot of the ``j``-th live item (0-based), by descending the
        Fenwick tree."""
        tree = self._tree
        assert tree is not None
        size = len(tree) - 1
        pos, step = 0, 1 << (size.bit_length() - 1)
        while step:
            nxt = pos + step
            if nxt <= size and tree[nxt] <= j:
                pos = nxt
                j -= tree[nxt]
            step >>= 1
        return pos

    def _compact(self) -> None:
        """Drop the tombstones, keeping the live items' order."""
        self._reset(self.items())

    def _reset(self, items: List[V]) -> None:
        self._slots = items
        self._live = len(items)
        self._dead = 0
        self._tree = None
        if self._where is not None:
            self._where = {item: slot for slot, item in enumerate(items)}

    def saturated(self) -> bool:
        """Return True if more candidates were offered than retained."""
        return self.offered > self.capacity

    def space_words(self) -> int:
        """Machine words of live state: one word per retained item."""
        return self._live

    # -- state protocol -----------------------------------------------------

    def state_dict(
        self, encode_item: Optional[Callable[[V], Any]] = None
    ) -> Dict[str, Any]:
        """Serialise the reservoir, including its RNG state.

        ``encode_item`` maps each retained item to a serialisable form
        (identity by default); item order is preserved because Algorithm R
        replaces by index, so order is part of the reproducible state.
        """
        encode = encode_item if encode_item is not None else (lambda item: item)
        return {
            "capacity": self.capacity,
            "offered": self.offered,
            "rng_state": self._rng.getstate(),
            "items": [encode(item) for item in self.items()],
        }

    def load_state_dict(
        self,
        state: Dict[str, Any],
        decode_item: Optional[Callable[[Any], V]] = None,
    ) -> None:
        """Restore the reservoir from :meth:`state_dict` output."""
        capacity = int(state["capacity"])
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        decode = decode_item if decode_item is not None else (lambda blob: blob)
        items = [decode(blob) for blob in state["items"]]
        if len(items) > capacity:
            raise ValueError(
                f"state holds {len(items)} items but capacity is {capacity}"
            )
        self.capacity = capacity
        self.offered = int(state["offered"])
        self._where = None
        self._reset(items)
        rng_state = state["rng_state"]
        # random.Random.setstate needs the exact nested tuple shape.
        self._rng.setstate(
            (int(rng_state[0]), tuple(int(x) for x in rng_state[1]), rng_state[2])
        )
