"""Tests for the multinomial expansion machinery (Section IV-B transform)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.math.multinomial import (
    compositions,
    compositions_up_to,
    count_compositions,
    count_compositions_up_to,
    degree_p_basis,
    mixed_degree_basis,
    monomial_value,
    multinomial_coefficient,
)


class TestMultinomialCoefficient:
    def test_binomial_special_case(self):
        assert multinomial_coefficient(5, [2, 3]) == math.comb(5, 2)

    def test_all_in_one_part(self):
        assert multinomial_coefficient(4, [4, 0, 0]) == 1

    def test_classic(self):
        assert multinomial_coefficient(3, [1, 1, 1]) == 6

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValidationError):
            multinomial_coefficient(4, [1, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            multinomial_coefficient(1, [-1, 2])

    @given(st.integers(0, 8), st.integers(1, 4))
    @settings(max_examples=40)
    def test_sum_over_compositions_is_power(self, total, parts):
        # Σ C(total; k) = parts^total (multinomial theorem at x_i = 1).
        acc = sum(
            multinomial_coefficient(total, list(k)) for k in compositions(total, parts)
        )
        assert acc == parts**total


class TestCompositions:
    def test_count_matches_formula(self):
        for total in range(0, 6):
            for parts in range(1, 5):
                assert len(list(compositions(total, parts))) == count_compositions(
                    total, parts
                )

    def test_all_sum_to_total(self):
        for k in compositions(5, 3):
            assert sum(k) == 5

    def test_deterministic_order(self):
        assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]

    def test_single_part(self):
        assert list(compositions(7, 1)) == [(7,)]

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            list(compositions(1, 0))
        with pytest.raises(ValidationError):
            list(compositions(-1, 2))
        with pytest.raises(ValidationError):
            count_compositions(1, 0)

    def test_paper_monomial_count(self):
        # n' = C(n+p-1, n-1): the paper's count for n vars, degree p.
        n, p = 4, 3
        assert count_compositions(p, n) == math.comb(n + p - 1, n - 1)

    def test_up_to_excludes_constant(self):
        basis = list(compositions_up_to(2, 2))
        assert (0, 0) not in basis
        assert len(basis) == count_compositions_up_to(2, 2)


class TestMonomialValues:
    def test_monomial_value(self):
        assert monomial_value((2, 3), (2, 1)) == 12

    def test_zero_exponent_gives_one(self):
        assert monomial_value((5, 7), (0, 0)) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            monomial_value((1,), (1, 2))

    def test_transform_point(self):
        basis = degree_p_basis(2, 2)  # [(2,0),(1,1),(0,2)]
        point = (Fraction(2), Fraction(3))
        assert [monomial_value(point, exponents) for exponents in basis] == [4, 6, 9]

    def test_transform_matches_kernel_power(self):
        """Multinomial theorem: (x·t)^p = Σ C(p;k) Π x^k Π t^k."""
        p = 3
        x = (Fraction(1, 2), Fraction(-1, 3), Fraction(2))
        t = (Fraction(1, 5), Fraction(3), Fraction(-1, 2))
        direct = sum(a * b for a, b in zip(x, t)) ** p
        basis = degree_p_basis(3, p)
        expanded = sum(
            multinomial_coefficient(p, k)
            * monomial_value(x, k)
            * monomial_value(t, k)
            for k in basis
        )
        assert direct == expanded

    def test_mixed_degree_basis(self):
        basis = mixed_degree_basis(2, 2)
        degrees = {sum(k) for k in basis}
        assert degrees == {1, 2}
