"""Ideal (fully random) hashing.

The paper's analysis — like Knuth's — assumes ``h`` is an *ideal* hash
function: each key's hash value is independently uniform on ``[0, u)``
(an assumption justified for realistic data by Mitzenmacher--Vadhan
[15]).  :class:`IdealHash` realises this with a keyed splitmix64 chain:
for practical purposes the values are indistinguishable from fresh
uniform draws, they are deterministic given the seed (so experiments
replay), and — unlike a memoised table of true random draws — batch
hashing vectorises.

:class:`MemoisedIdealHash` instead draws honest uniform values from a
PCG64 stream and memoises them, for tests that want the literal model.
"""

from __future__ import annotations

import numpy as np

from .base import HashFunction
from .mixers import MASK64, mix_seed, splitmix64_array


class IdealHash(HashFunction):
    """Deterministic stand-in for a fully random function ``U -> [0, u)``.

    For a power-of-two universe the masked splitmix64 output is exactly
    uniform; for general ``u`` we reject-free reduce by multiplying into
    the range (Lemire reduction), whose bias is ``< 2^-40`` for the
    universes used here.
    """

    def __init__(self, u: int, seed: int = 0) -> None:
        super().__init__(u, seed)
        self._seed_word = np.uint64(seed & MASK64)

    def hash(self, key: int) -> int:
        self._check_key(key)
        v = mix_seed(self.seed, key)
        if self.u & (self.u - 1) == 0:
            return v & (self.u - 1)
        return (v * self.u) >> 64

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        v = splitmix64_array(np.asarray(keys, dtype=np.uint64))
        v ^= self._seed_word
        return _reduce_words(splitmix64_array(v), self.u)


_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _reduce_words(v: np.ndarray, u: int) -> np.ndarray:
    """Map full 64-bit words onto ``[0, u)`` as the scalar ``hash`` does:
    ``v & (u - 1)`` for a power of two, else :func:`_mulhi_reduce`."""
    if u & (u - 1) == 0:
        return v & np.uint64(u - 1)
    return _mulhi_reduce(v, u)


def _mulhi_reduce(v: np.ndarray, u: int) -> np.ndarray:
    """Vectorised Lemire reduction ``(v * u) >> 64`` for uint64 ``v``.

    Exact.  For ``u = 2^k - 1`` (the default universe is ``2^61 - 1``)
    ``v * u = v * 2^k - v``, whose high word is ``v >> (64 - k)`` less a
    borrow when the low word ``v << k`` (mod 2^64) is below ``v``: four
    ufuncs.  Otherwise a 128-bit multiply-high from 32-bit halves.
    """
    if u & (u + 1) == 0:
        k = u.bit_length()
        borrow = (v << np.uint64(k)) < v
        out = v >> np.uint64(64 - k)
        out -= borrow
        return out
    v_lo, v_hi = v & _LO32, v >> _S32
    u_lo, u_hi = np.uint64(u & 0xFFFFFFFF), np.uint64(u >> 32)
    lh, hl = v_lo * u_hi, v_hi * u_lo
    carry = ((v_lo * u_lo >> _S32) + (lh & _LO32) + (hl & _LO32)) >> _S32
    return v_hi * u_hi + (lh >> _S32) + (hl >> _S32) + carry


class MemoisedIdealHash(HashFunction):
    """Literal ideal hashing: fresh uniform draws, memoised per key.

    Mirrors the lower-bound construction exactly (each ``h(x)`` is an
    independent uniform sample).  Memory usage grows with the number of
    distinct keys hashed, so use only in tests and small experiments.
    """

    def __init__(self, u: int, seed: int = 0) -> None:
        super().__init__(u, seed)
        self._rng = np.random.default_rng(seed)
        self._memo: dict[int, int] = {}

    def hash(self, key: int) -> int:
        self._check_key(key)
        v = self._memo.get(key)
        if v is None:
            v = int(self._rng.integers(0, self.u, dtype=np.uint64))
            self._memo[key] = v
        return v

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        return np.array([self.hash(int(k)) for k in np.asarray(keys)], dtype=np.uint64)
