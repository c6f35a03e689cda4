"""Unit tests for the hash-function families and mixers."""

import warnings

import numpy as np
import pytest

from repro.hashing.family import (
    CARTER_WEGMAN,
    FAMILIES,
    IDEAL,
    MEMOISED_IDEAL,
    MULTIPLY_SHIFT,
    TABULATION,
    get_family,
)
from repro.hashing.ideal import IdealHash, MemoisedIdealHash, _mulhi_reduce
from repro.hashing.mixers import (
    is_probable_prime,
    mix_seed,
    mod_mersenne61,
    next_prime,
    pow_mod,
    splitmix64,
    splitmix64_array,
)
from repro.hashing.multiply_shift import MultiplyShiftHash
from repro.hashing.tabulation import TabulationHash
from repro.hashing.universal import CarterWegmanHash, PolynomialHash

U = 2**61 - 1
ALL_FAMILIES = [IDEAL, MEMOISED_IDEAL, MULTIPLY_SHIFT, CARTER_WEGMAN, TABULATION]


class TestMixers:
    def test_splitmix64_deterministic(self):
        assert splitmix64(42) == splitmix64(42)
        assert splitmix64(42) != splitmix64(43)

    def test_splitmix64_range(self):
        for x in [0, 1, 2**63, 2**64 - 1]:
            assert 0 <= splitmix64(x) < 2**64

    def test_splitmix64_array_matches_scalar(self):
        xs = np.array([0, 1, 7, 2**40], dtype=np.uint64)
        arr = splitmix64_array(xs)
        assert [int(v) for v in arr] == [splitmix64(int(x)) for x in xs]

    def test_mix_seed_varies_with_both_args(self):
        assert mix_seed(1, 2) != mix_seed(1, 3)
        assert mix_seed(1, 2) != mix_seed(2, 2)

    def test_mod_mersenne61(self):
        p = 2**61 - 1
        for x in [0, 1, p - 1, p, p + 1, 12345678901234567890, p * p - 1]:
            assert mod_mersenne61(x) == x % p

    def test_pow_mod(self):
        assert pow_mod(3, 20, 1000) == pow(3, 20, 1000)

    def test_is_probable_prime(self):
        primes = [2, 3, 5, 61, 2**61 - 1, 104729]
        composites = [1, 4, 9, 561, 2**61, 104730]
        assert all(is_probable_prime(p) for p in primes)
        assert not any(is_probable_prime(c) for c in composites)

    def test_next_prime(self):
        assert next_prime(14) == 17 or next_prime(14) in (17,) or is_probable_prime(next_prime(14))
        p = next_prime(1000)
        assert p >= 1000 and is_probable_prime(p)


class TestHashFunctionContract:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_range_and_determinism(self, family):
        h = family.sample(U, seed=7)
        for key in [0, 1, U - 1, 123456789]:
            v = h.hash(key)
            assert 0 <= v < U
            assert v == h.hash(key)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_seed_changes_function(self, family):
        h1 = family.sample(U, seed=1)
        h2 = family.sample(U, seed=2)
        keys = range(64)
        assert any(h1.hash(k) != h2.hash(k) for k in keys)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_array_matches_scalar(self, family):
        h = family.sample(U, seed=3)
        keys = np.array([0, 5, 99, U - 1], dtype=np.uint64)
        arr = h.hash_array(keys)
        assert [int(v) for v in arr] == [h.hash(int(k)) for k in keys]

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_bucket_in_range(self, family):
        h = family.sample(U, seed=3)
        for r in [1, 7, 256]:
            for key in [0, 42, U - 1]:
                assert 0 <= h.bucket(key, r) < r

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_bucket_array_matches_scalar(self, family):
        h = family.sample(U, seed=3)
        keys = np.array([1, 2, 3, 999], dtype=np.uint64)
        arr = h.bucket_array(keys, 13)
        assert [int(v) for v in arr] == [h.bucket(int(k), 13) for k in keys]

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_low_bits(self, family):
        h = family.sample(U, seed=3)
        for key in [0, 17, 12345]:
            assert h.low_bits(key, 5) == h.hash(key) & 31

    def test_callable_protocol(self):
        h = MULTIPLY_SHIFT.sample(U, seed=1)
        assert h(5) == h.hash(5)

    def test_out_of_universe_key_rejected(self):
        h = MULTIPLY_SHIFT.sample(1000, seed=1)
        with pytest.raises(ValueError):
            h.hash(1000)
        with pytest.raises(ValueError):
            h.hash(-1)


class TestIdealHash:
    def test_memoised_consistency(self):
        h = MemoisedIdealHash(U, seed=5)
        first = [h.hash(k) for k in range(100)]
        second = [h.hash(k) for k in range(100)]
        assert first == second

    def test_memoised_depends_on_first_query_order(self):
        """Memoised draws are per-first-query, so identical seeds with the
        same query order reproduce, and the memo actually caches."""
        a = MemoisedIdealHash(U, seed=9)
        b = MemoisedIdealHash(U, seed=9)
        order = [5, 3, 8, 5, 3]
        assert [a.hash(k) for k in order] == [b.hash(k) for k in order]

    def test_ideal_is_stateless(self):
        """IdealHash gives the same value regardless of query order."""
        a = IdealHash(U, seed=9)
        b = IdealHash(U, seed=9)
        assert a.hash(5) == b.hash(5)
        b.hash(999)
        assert a.hash(5) == b.hash(5)


class TestDistributionQuality:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_bucket_uniformity_chi2(self, family):
        """χ² of bucket counts should not catastrophically reject uniformity."""
        h = family.sample(U, seed=11)
        rng = np.random.default_rng(0)
        keys = rng.integers(0, U, size=20_000, dtype=np.uint64)
        r = 64
        counts = np.bincount(h.bucket_array(keys, r), minlength=r)
        expected = len(keys) / r
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # dof = 63; mean 63, std ~11. Allow a generous 5-sigma band.
        assert chi2 < 63 + 5 * np.sqrt(2 * 63)

    def test_multiply_shift_no_low_bit_bias(self):
        """Sequential keys must not collide in low bits (the classic
        failure of plain modular hashing)."""
        h = MultiplyShiftHash(2**61 - 1, seed=2)
        buckets = [h.bucket(k, 64) for k in range(0, 6400, 2)]
        counts = np.bincount(buckets, minlength=64)
        assert counts.max() < 5 * counts.mean()


class TestFamilyRegistry:
    def test_get_family(self):
        assert get_family("multiply-shift").name == "multiply-shift"

    def test_get_family_unknown(self):
        with pytest.raises((KeyError, ValueError)):
            get_family("definitely-not-a-family")

    def test_description_words_positive(self):
        for fam in ALL_FAMILIES:
            h = fam.sample(U, seed=1)
            assert fam.description_words(h) >= 1


class TestSpecificFamilies:
    def test_carter_wegman_is_affine(self):
        """(ax+b) mod p: difference of hashes is linear in key difference."""
        h = CarterWegmanHash(2**61 - 1, seed=4)
        p = 2**61 - 1
        d1 = (h.hash(10) - h.hash(5)) % p
        d2 = (h.hash(25) - h.hash(20)) % p
        assert d1 == d2  # same key difference -> same hash difference

    def test_polynomial_hash_degree(self):
        h = PolynomialHash(2**61 - 1, seed=4, k=4)
        assert 0 <= h.hash(12345) < 2**61 - 1

    def test_tabulation_memory_words(self):
        h = TabulationHash(2**61 - 1, seed=1)
        assert h.memory_words() > 0


#: Words at the edges of the 64-bit range and of the 32-bit halves.
EDGE_WORDS = [0, 1, 7, 8, 2**63, 2**64 - 8, 2**64 - 1]


class TestExactVectorisedHashing:
    """Hash values fix every table layout: the vectorised forms must equal
    the scalar ones word for word, and must not warn."""

    @pytest.mark.parametrize(
        "u",
        # Mersenne forms (2^64 - 1 shifts by the full word width, which
        # numpy defines as 0), then two general universes.
        [2**61 - 1, 2**31 - 1, 2**64 - 1, 10**9 + 7, 3 * 2**40],
    )
    def test_mulhi_reduce_is_the_exact_high_word(self, u):
        rng = np.random.default_rng(u % 2**32)
        words = np.concatenate(
            [
                np.array(EDGE_WORDS, dtype=np.uint64),
                rng.integers(0, 2**64, 10**4, dtype=np.uint64),
            ]
        )
        before = words.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _mulhi_reduce(words, u)
        assert got.dtype == np.uint64
        assert got.tolist() == [(v * u) >> 64 for v in words.tolist()]
        assert np.array_equal(words, before)

    @pytest.mark.parametrize("u", [2**61 - 1, 10**9 + 7])
    @pytest.mark.parametrize("size", [0, 1, 40, 65536])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_hash_array_is_the_scalar_loop(self, name, size, u):
        h = FAMILIES[name].sample(u, seed=5)
        keys = np.random.default_rng(size).integers(0, u, size, dtype=np.uint64)
        keys[: min(size, 2)] = [0, u - 1][: min(size, 2)]
        before = keys.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = h.hash_array(keys)
        assert got.dtype == np.uint64 and got.shape == keys.shape
        assert got.tolist() == [h.hash(k) for k in keys.tolist()]
        assert np.array_equal(keys, before)
