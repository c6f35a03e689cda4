"""Multiply-shift hashing (Dietzfelbinger et al.).

The fastest practically universal family on word-sized keys:
``h_a(x) = (a * x mod 2^64) >> (64 - l)`` with odd ``a``, hashing into
``2^l`` values.  For non-power-of-two universes we follow with a Lemire
reduction.  Fully vectorises — the family the benchmark drivers default
to when they need to hash millions of keys.
"""

from __future__ import annotations

import numpy as np

from .base import HashFunction
from .ideal import _reduce_words
from .mixers import MASK64, splitmix64

_S29, _S32 = np.uint64(29), np.uint64(32)


class MultiplyShiftHash(HashFunction):
    """2-approximately-universal multiply-shift hashing on 64-bit words."""

    def __init__(self, u: int, seed: int = 0) -> None:
        super().__init__(u, seed)
        self.a = (splitmix64(seed ^ 0xA5A5A5A5A5A5A5A5) | 1) & MASK64
        self.a2 = (splitmix64(seed + 0x1234567) | 1) & MASK64
        self._a_words = np.uint64(self.a), np.uint64(self.a2)

    def hash(self, key: int) -> int:
        self._check_key(key)
        # Two rounds of multiply-xorshift to decorrelate low bits, which
        # plain multiply-shift leaves weak and the low-bits addressing of
        # Section 3 relies on.
        v = (key * self.a) & MASK64
        v ^= v >> 29
        v = (v * self.a2) & MASK64
        v ^= v >> 32
        if self.u & (self.u - 1) == 0:
            return v & (self.u - 1)
        return (v * self.u) >> 64

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        a, a2 = self._a_words
        v = np.array(keys, dtype=np.uint64)
        v *= a
        v ^= v >> _S29
        v *= a2
        v ^= v >> _S32
        return _reduce_words(v, self.u)
