"""Tests for repro.utils.rng."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.utils.rng import ReproRandom, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_label_sensitivity(self):
        assert derive_seed(7, "a", 1) != derive_seed(7, "a", 2)

    def test_seed_sensitivity(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_label_order_matters(self):
        assert derive_seed(7, "a", "b") != derive_seed(7, "b", "a")

    @given(st.integers(), st.text(max_size=20))
    @settings(max_examples=50)
    def test_output_is_64_bit(self, seed, label):
        value = derive_seed(seed, label)
        assert 0 <= value < 2**64


class TestReproRandom:
    def test_same_seed_same_stream(self):
        a = ReproRandom(5)
        b = ReproRandom(5)
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_unseeded_records_its_seed(self):
        a = ReproRandom()
        b = ReproRandom(a.seed)
        assert a.randint(0, 10**9) == b.randint(0, 10**9)

    def test_fork_independence(self):
        root = ReproRandom(1)
        child_a = root.fork("a")
        child_b = root.fork("b")
        assert child_a.seed != child_b.seed

    def test_fork_reproducible(self):
        assert ReproRandom(1).fork("x").seed == ReproRandom(1).fork("x").seed

    def test_randbits_range(self):
        rng = ReproRandom(2)
        for _ in range(100):
            assert 0 <= rng.randbits(16) < 2**16

    def test_randbits_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            ReproRandom(1).randbits(0)

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ValidationError):
            ReproRandom(1).randint(5, 4)

    def test_randrange_coprime(self):
        rng = ReproRandom(3)
        import math

        for _ in range(50):
            value = rng.randrange_coprime(30)
            assert 1 <= value < 30
            assert math.gcd(value, 30) == 1

    def test_randrange_coprime_rejects_small_modulus(self):
        with pytest.raises(ValidationError):
            ReproRandom(1).randrange_coprime(1)

    def test_fraction_in_range(self):
        rng = ReproRandom(4)
        for _ in range(100):
            value = rng.fraction(-3, 3)
            assert isinstance(value, Fraction)
            assert -3 <= value <= 3

    def test_fraction_rejects_empty_interval(self):
        with pytest.raises(ValidationError):
            ReproRandom(1).fraction(2, 2)

    def test_nonzero_fraction(self):
        rng = ReproRandom(5)
        assert all(rng.nonzero_fraction(-1, 1) != 0 for _ in range(100))

    def test_positive_fraction(self):
        rng = ReproRandom(6)
        assert all(rng.positive_fraction(0, 5) > 0 for _ in range(100))

    def test_positive_fraction_rejects_nonpositive_high(self):
        with pytest.raises(ValidationError):
            ReproRandom(1).positive_fraction(0, 0)

    def test_distinct_fractions_are_distinct(self):
        values = ReproRandom(7).distinct_fractions(50, -2, 2)
        assert len(set(values)) == 50

    def test_distinct_fractions_exclude_zero(self):
        values = ReproRandom(8).distinct_fractions(50, -1, 1)
        assert 0 not in values

    def test_distinct_fractions_impossible_count(self):
        with pytest.raises(ValidationError):
            ReproRandom(1).distinct_fractions(100, 0, 1, grid=10)

    def test_distinct_fractions_capacity_excludes_zero(self):
        """The grid {-1, 0, 1} holds only two nonzero values: asking for
        three must raise, not loop forever."""
        with pytest.raises(ValidationError):
            ReproRandom(1).distinct_fractions(3, -1, 1, grid=1)
        assert sorted(ReproRandom(1).distinct_fractions(2, -1, 1, grid=1)) == [-1, 1]
        assert sorted(
            ReproRandom(1).distinct_fractions(3, -1, 1, grid=1, exclude_zero=False)
        ) == [-1, 0, 1]

    def test_sample_indices_sorted_distinct(self):
        indices = ReproRandom(9).sample_indices(100, 20)
        assert indices == sorted(indices)
        assert len(set(indices)) == 20

    def test_sample_indices_too_many(self):
        with pytest.raises(ValidationError):
            ReproRandom(1).sample_indices(5, 6)

    def test_choice_empty(self):
        with pytest.raises(ValidationError):
            ReproRandom(1).choice([])

    def test_choice_member(self):
        items = ["a", "b", "c"]
        assert ReproRandom(1).choice(items) in items

    def test_bytes_length(self):
        rng = ReproRandom(10)
        assert len(rng.bytes(16)) == 16
        assert rng.bytes(0) == b""

    def test_bytes_negative(self):
        with pytest.raises(ValidationError):
            ReproRandom(1).bytes(-1)

    def test_gauss_runs(self):
        rng = ReproRandom(12)
        samples = [rng.gauss() for _ in range(200)]
        mean = sum(samples) / len(samples)
        assert abs(mean) < 0.3
