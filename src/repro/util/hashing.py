"""Hash families used by the streaming samplers.

The paper's edge samplers are hash based: each edge receives a pseudorandom
priority fixed for the lifetime of the algorithm, so that both passes agree
on which edges are sampled and an edge can be admitted the *first* time it
appears in the stream.  :class:`MixHash64`, a splitmix64-style mixer keyed
by a seed (fast, stateless, and empirically uniform), maps arbitrary
hashable keys to integers in ``[0, 2**64)`` and to floats in ``[0, 1)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Optional

from repro.util.rng import SeedLike, resolve_rng

if TYPE_CHECKING:  # numpy only needed for the columnar batch signatures
    import numpy as np

_MASK64 = (1 << 64) - 1


def _to_int_key(key: Hashable) -> int:
    """Map an arbitrary hashable key to a non-negative integer.

    Tuples (the common case: canonical edge keys) are combined injectively
    enough for hashing purposes.  Strings are folded with FNV-1a over their
    UTF-8 bytes rather than built-in ``hash``: the samplers' priorities must
    agree *across processes* (shard workers merge bottom-k states by
    priority), and ``str.__hash__`` is salted per interpreter.  Other
    objects fall back to ``hash``.
    """
    if isinstance(key, int):
        return key & _MASK64
    if isinstance(key, tuple):
        acc = 0x243F6A8885A308D3
        for part in key:
            acc = (acc * 0x100000001B3) & _MASK64
            # Inlined int case (bit-identical to the recursive call): edge
            # tuples of int vertices are the hot path for the samplers.
            if type(part) is int:
                acc ^= part & _MASK64
            else:
                acc ^= _to_int_key(part)
        return acc
    if isinstance(key, str):
        acc = 0xCBF29CE484222325
        for byte in key.encode("utf-8"):
            acc = ((acc ^ byte) * 0x100000001B3) & _MASK64
        return acc
    return hash(key) & _MASK64


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class MixHash64:
    """Seeded 64-bit mixing hash over arbitrary hashable keys.

    ``key`` pins the internal 64-bit key directly (bypassing ``seed``); it
    is how serialized sampler state reconstructs the exact hash function,
    so that a restored sampler assigns the same priorities as the original.
    """

    def __init__(self, seed: SeedLike = None, *, key: Optional[int] = None) -> None:
        if key is not None:
            self._key = key & _MASK64
        else:
            rng = resolve_rng(seed)
            self._key = rng.getrandbits(64)

    @property
    def key(self) -> int:
        """The internal 64-bit key (serialise this to clone the hash)."""
        return self._key

    def hash_int(self, key: Hashable) -> int:
        """Return a pseudorandom integer in ``[0, 2**64)`` for ``key``."""
        return _splitmix64(_to_int_key(key) ^ self._key)

    def hash_unit(self, key: Hashable) -> float:
        """Return a pseudorandom float in ``[0, 1)`` for ``key``."""
        return self.hash_int(key) / 2.0**64

    def hash_int_array(self, encoded_keys: "np.ndarray") -> "np.ndarray":
        """Columnar :meth:`hash_int` over pre-encoded ``uint64`` keys.

        ``encoded_keys`` must already be ``_to_int_key`` outputs (see the
        encode kernels in :mod:`repro.util.vectorized`); the result is
        bit-identical to calling :meth:`hash_int` per key.
        """
        from repro.util.vectorized import mixhash_int_array

        return mixhash_int_array(encoded_keys, self._key)
