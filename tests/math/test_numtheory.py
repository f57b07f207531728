"""Tests for repro.math.numtheory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.math.numtheory import (
    generate_prime,
    generate_safe_prime,
    is_probable_prime,
    lcm,
    modular_inverse,
    primes_below,
)
from repro.utils.rng import ReproRandom


KNOWN_PRIMES = [2, 3, 5, 7, 11, 101, 104729, 2**31 - 1, 2**61 - 1]
KNOWN_COMPOSITES = [1, 4, 9, 15, 561, 1105, 1729, 2**31, 104729 * 104729]


class TestPrimality:
    @pytest.mark.parametrize("prime", KNOWN_PRIMES)
    def test_known_primes(self, prime):
        assert is_probable_prime(prime)

    @pytest.mark.parametrize("composite", KNOWN_COMPOSITES)
    def test_known_composites(self, composite):
        assert not is_probable_prime(composite)

    def test_negative_and_zero(self):
        assert not is_probable_prime(0)
        assert not is_probable_prime(-7)

    def test_carmichael_numbers_rejected(self):
        # Carmichael numbers fool Fermat but not Miller–Rabin.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(carmichael)

    def test_matches_sieve(self):
        sieve = set(primes_below(2000))
        for n in range(2000):
            assert is_probable_prime(n) == (n in sieve)

    def test_large_probable_prime(self):
        # 2^127 - 1 is a Mersenne prime (above the deterministic bound
        # path uses random witnesses).
        assert is_probable_prime(2**127 - 1, rng=ReproRandom(1))


class TestGeneration:
    def test_generate_prime_bits(self, rng):
        prime = generate_prime(64, rng)
        assert prime.bit_length() == 64
        assert is_probable_prime(prime)

    def test_generate_prime_too_small(self, rng):
        with pytest.raises(ValidationError):
            generate_prime(1, rng)

    def test_generate_safe_prime(self, rng):
        p = generate_safe_prime(48, rng)
        q = (p - 1) // 2
        assert is_probable_prime(p)
        assert is_probable_prime(q)
        assert p.bit_length() == 48

    def test_generate_safe_prime_too_small(self, rng):
        with pytest.raises(ValidationError):
            generate_safe_prime(4, rng)

    def test_generation_deterministic(self):
        assert generate_prime(40, ReproRandom(9)) == generate_prime(40, ReproRandom(9))


class TestModularInverse:
    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=100)
    def test_inverse_property(self, value):
        modulus = 10**9 + 7  # prime
        inverse = modular_inverse(value, modulus)
        assert (value * inverse) % modulus == 1

    def test_non_invertible(self):
        with pytest.raises(ValidationError):
            modular_inverse(6, 9)

    def test_bad_modulus(self):
        with pytest.raises(ValidationError):
            modular_inverse(1, 1)

    def test_negative_value(self):
        assert (modular_inverse(-3, 7) * -3) % 7 == 1


class TestMisc:
    def test_lcm(self):
        assert lcm(4, 6) == 12
        assert lcm(0, 5) == 0
        assert lcm(7, 7) == 7

    def test_primes_below(self):
        assert primes_below(10) == [2, 3, 5, 7]
        assert primes_below(2) == []
        assert len(primes_below(100)) == 25
