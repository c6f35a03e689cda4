"""Bit-mixing primitives shared by the hash families.

All mixers are deterministic functions of ``(seed, key)`` on 64-bit
words, implemented both scalar (Python int) and vectorised (numpy
``uint64``) so drivers can hash large key batches without interpreter
overhead — the hot path the HPC guide tells us to vectorise.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

#: 2^61 - 1, the Mersenne prime used by the Carter--Wegman family.
MERSENNE61 = (1 << 61) - 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# The same constants as numpy words, built once (hot per-batch path).
_GAMMA_U64, _MIX1_U64, _MIX2_U64 = map(np.uint64, (_SPLITMIX_GAMMA, _MIX1, _MIX2))
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


def splitmix64(x: int) -> int:
    """One round of the splitmix64 finaliser (a high-quality 64-bit mixer)."""
    x = (x + _SPLITMIX_GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorised :func:`splitmix64` over a ``uint64`` array (in place on
    a copy; array ufuncs wrap modulo 2^64 without overflow warnings)."""
    x = x.astype(np.uint64, copy=True)
    x += _GAMMA_U64
    x ^= x >> _S30
    x *= _MIX1_U64
    x ^= x >> _S27
    x *= _MIX2_U64
    x ^= x >> _S31
    return x


def mix_seed(seed: int, key: int) -> int:
    """Combine a seed and a key into one well-mixed 64-bit word."""
    return splitmix64((seed ^ splitmix64(key)) & MASK64)


def mod_mersenne61(x: int) -> int:
    """Reduce a (possibly large) non-negative int modulo ``2^61 - 1``.

    Uses the classic shift-add reduction: with ``p = 2^61 - 1``,
    ``x mod p`` can be computed by repeatedly folding the high bits.
    """
    p = MERSENNE61
    # Fold on the bit width, not on >= p: x == p is a fixed point of the
    # fold ((p & p) + 0 == p) and would loop forever.
    while x >> 61:
        x = (x & p) + (x >> 61)
    return 0 if x == p else x


def pow_mod(base: int, exp: int, mod: int) -> int:
    """Modular exponentiation (thin wrapper for symmetry/testing)."""
    return pow(base, exp, mod)


def is_probable_prime(n: int, *, rounds: int = 16) -> bool:
    """Deterministic-for-64-bit Miller--Rabin primality test."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # These witnesses are exact for n < 3.3e24; plenty for our universes.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime ``>= n``."""
    if n <= 2:
        return 2
    candidate = n | 1
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate
