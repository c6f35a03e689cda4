"""Simple tabulation hashing.

Splits a 64-bit key into ``chars`` characters, looks each up in an
independent random table, and XORs the results.  Only 3-wise
independent, but with strong Chernoff-style concentration (Pătraşcu &
Thorup), making it a realistic "practical family" ablation point for
the paper's ideal-hash assumption.

The tables consume ``chars * 2^char_bits`` words — a real memory cost
the experiments charge against the budget via :meth:`memory_words`.
"""

from __future__ import annotations

import numpy as np

from .base import HashFunction
from .ideal import _reduce_words


class TabulationHash(HashFunction):
    """XOR of per-character random table lookups."""

    def __init__(self, u: int, seed: int = 0, *, char_bits: int = 8) -> None:
        if char_bits not in (4, 8, 16):
            raise ValueError(f"char_bits must be 4, 8 or 16, got {char_bits}")
        super().__init__(u, seed)
        self.char_bits = char_bits
        self.chars = (64 + char_bits - 1) // char_bits
        rng = np.random.default_rng(seed)
        self.tables = rng.integers(
            0, 1 << 64, size=(self.chars, 1 << char_bits), dtype=np.uint64
        )
        self._mask = (1 << char_bits) - 1

    def memory_words(self) -> int:
        """Words of memory the lookup tables occupy."""
        return self.tables.size

    def hash(self, key: int) -> int:
        self._check_key(key)
        v = 0
        k = key
        for c in range(self.chars):
            v ^= int(self.tables[c, k & self._mask])
            k >>= self.char_bits
        if self.u & (self.u - 1) == 0:
            return v & (self.u - 1)
        return (v * self.u) >> 64

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        k = np.asarray(keys, dtype=np.uint64)
        v = np.zeros_like(k)
        mask = np.uint64(self._mask)
        for c in range(self.chars):
            idx = (k >> np.uint64(c * self.char_bits)) & mask
            v ^= self.tables[c][idx.astype(np.int64)]
        return _reduce_words(v, self.u)
