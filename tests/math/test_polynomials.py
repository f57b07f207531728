"""Tests for univariate polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.math.polynomials import Polynomial

coeff_lists = st.lists(
    st.fractions(max_denominator=100), min_size=1, max_size=6
)
points = st.fractions(max_denominator=50)


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1

    def test_zero_polynomial(self):
        zero = Polynomial.zero()
        assert zero.is_zero()
        assert zero.degree == 0
        assert zero(5) == 0

    def test_empty_coefficients_is_zero(self):
        assert Polynomial([]).is_zero()

    def test_constant(self):
        c = Polynomial.constant(7)
        assert c.degree == 0
        assert c(100) == 7

    def test_monomial(self):
        m = Polynomial.monomial(3, 2)
        assert m(2) == 16
        assert m.degree == 3

    def test_monomial_negative_degree(self):
        with pytest.raises(ValidationError):
            Polynomial.monomial(-1)

    def test_equality_and_hash(self):
        assert Polynomial([1, 2]) == Polynomial([1, 2, 0])
        assert hash(Polynomial([1, 2])) == hash(Polynomial([1, 2, 0]))
        assert Polynomial([1, 2]) != Polynomial([2, 1])

    def test_repr_runs(self):
        assert "Polynomial" in repr(Polynomial([1, 0, 3]))


class TestRandom:
    def test_exact_degree(self, rng):
        p = Polynomial.random(5, rng)
        assert p.degree == 5

    def test_constant_term_fixed(self, rng):
        p = Polynomial.random(4, rng, constant_term=Fraction(3, 7))
        assert p(0) == Fraction(3, 7)

    def test_zero_degree(self, rng):
        p = Polynomial.random(0, rng, constant_term=2)
        assert p == Polynomial.constant(2)

    def test_negative_degree(self, rng):
        with pytest.raises(ValidationError):
            Polynomial.random(-1, rng)

    def test_masking_property(self, rng):
        # h(0) = 0 is the paper's masking requirement.
        for _ in range(10):
            assert Polynomial.random(6, rng, constant_term=0)(0) == 0


class TestArithmetic:
    @given(coeff_lists, coeff_lists, points)
    @settings(max_examples=100)
    def test_addition_pointwise(self, a, b, x):
        p, q = Polynomial(a), Polynomial(b)
        assert (p + q)(x) == p(x) + q(x)

    @given(coeff_lists, coeff_lists, points)
    @settings(max_examples=100)
    def test_multiplication_pointwise(self, a, b, x):
        p, q = Polynomial(a), Polynomial(b)
        assert (p * q)(x) == p(x) * q(x)

    @given(coeff_lists, points)
    @settings(max_examples=50)
    def test_negation(self, a, x):
        p = Polynomial(a)
        assert (-p)(x) == -p(x)

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=50)
    def test_subtraction_then_addition(self, a, b):
        p, q = Polynomial(a), Polynomial(b)
        assert (p - q) + q == p

    def test_scalar_multiplication(self):
        p = Polynomial([1, 2, 3])
        assert (p * 2)(5) == 2 * p(5)
        assert (2 * p) == p * 2
        assert p.scale(Fraction(1, 2))(4) == p(4) / 2

    def test_mul_by_zero_polynomial(self):
        p = Polynomial([1, 2])
        assert (p * Polynomial.zero()).is_zero()

    def test_degree_of_product(self):
        p = Polynomial([1, 1])  # degree 1
        q = Polynomial([0, 0, 1])  # degree 2
        assert (p * q).degree == 3

    def test_shift(self):
        p = Polynomial([1, 1])
        assert p.shift(5)(0) == 6

    @given(coeff_lists, points)
    @settings(max_examples=50)
    def test_power_matches_repeated_multiplication(self, a, x):
        p = Polynomial(a)
        manual = Polynomial.constant(1)
        for _ in range(3):
            manual = manual * p
        assert p.power(3)(x) == manual(x)

    def test_power_zero(self):
        assert Polynomial([2, 3]).power(0) == Polynomial.constant(1)

    def test_power_negative(self):
        with pytest.raises(ValidationError):
            Polynomial([1]).power(-1)

    def test_horner_matches_naive(self):
        p = Polynomial([1, -2, 0, 4])
        x = Fraction(3, 2)
        naive = sum(c * x**i for i, c in enumerate(p.coefficients))
        assert p(x) == naive
