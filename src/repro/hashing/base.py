"""Interfaces for hash functions over the universe ``U = {0, ..., u-1}``.

The paper's setting: a hash function ``h`` maps an item ``x`` to a hash
value in ``[0, u)``; the table then uses low-order bits or a range
reduction of ``h(x)`` to pick a bucket.  We separate the two:

* :class:`HashFunction` — the full-entropy map ``U -> [0, u)``;
* :meth:`HashFunction.bucket` — range reduction to ``r`` buckets;
* :meth:`HashFunction.low_bits` — the "k least significant bits"
  addressing that Section 3's logarithmic method requires (so that a
  bucket of ``H_k`` splits into γ consecutive buckets of ``H_{k+1}``).

Implementations must be deterministic given their seed, and must provide
a vectorised ``hash_array`` for numpy batches.
"""

from __future__ import annotations

import abc

import numpy as np


class HashFunction(abc.ABC):
    """A seeded hash function ``h : [0, u) -> [0, u)``."""

    def __init__(self, u: int, seed: int = 0) -> None:
        if u <= 1:
            raise ValueError(f"universe size must exceed 1, got {u}")
        self.u = u
        self.seed = seed

    # -- required ----------------------------------------------------------

    @abc.abstractmethod
    def hash(self, key: int) -> int:
        """The hash value ``h(key)`` in ``[0, u)``."""

    @abc.abstractmethod
    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`hash` over a ``uint64`` array."""

    # -- derived addressing --------------------------------------------------

    def bucket(self, key: int, r: int) -> int:
        """Range-reduce ``h(key)`` to a bucket index in ``[0, r)``.

        Uses the modulo reduction, which composes predictably with the
        low-bits addressing when ``r`` is a power of two.
        """
        return self.hash(key) % r

    def bucket_array(self, keys: np.ndarray, r: int) -> np.ndarray:
        return self.hash_array(keys) % np.uint64(r)

    def low_bits(self, key: int, bits: int) -> int:
        """The ``bits`` least significant bits of ``h(key)``.

        Section 3's tables use ``k log γ + log(m/b)`` low bits so that
        one bucket of ``H_k`` maps onto γ consecutive buckets of
        ``H_{k+1}`` and merges are a parallel scan.
        """
        return self.hash(key) & ((1 << bits) - 1)

    def __call__(self, key: int) -> int:
        return self.hash(key)

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.u:
            raise ValueError(f"key {key} outside universe [0, {self.u})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(u={self.u}, seed={self.seed})"
