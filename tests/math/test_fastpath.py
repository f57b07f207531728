"""Differential and property tests for the exact-arithmetic hot paths.

Every hot path in :mod:`repro.math` must give the same value and the
same Python type as the plain ``Fraction`` loop in :mod:`tests.reference`
on the same inputs.  These tests pin that at the math layer; the
protocol-level oracles (labels, values, ``T²``) live in
``tests/core/test_hotpath_differential.py``.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.math import fastpath
from repro.math.interpolation import lagrange_at_zero
from repro.math.multivariate import MultivariatePolynomial
from repro.math.numtheory import jacobi_symbol
from repro.math.polynomials import Polynomial
from repro.utils.rng import ReproRandom
from tests import reference

fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=1 << 20
)
mixed_st = st.one_of(st.integers(min_value=-100, max_value=100), fractions_st)


class TestScaleHelpers:
    def test_scale_to_integers(self):
        scaled = fastpath.scale_to_integers([Fraction(1, 2), Fraction(1, 3), 2])
        assert scaled == ((3, 2, 12), 6, True)

    def test_scale_all_ints(self):
        assert fastpath.scale_to_integers([2, -3]) == ((2, -3), 1, False)

    def test_scale_rejects_floats(self):
        assert fastpath.scale_to_integers([Fraction(1, 2), 0.5]) is None

    @given(st.lists(mixed_st, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_scale_roundtrip(self, values):
        numerators, common, has_fraction = fastpath.scale_to_integers(values)
        for value, numerator in zip(values, numerators):
            assert Fraction(numerator, common) == value
        assert has_fraction == any(isinstance(v, Fraction) for v in values)


class TestNumtheoryHotpaths:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_jacobi_equals_euler_criterion(self, a):
        prime = 1000003
        euler = pow(a % prime, (prime - 1) // 2, prime)
        expected = 0 if a % prime == 0 else (1 if euler == 1 else -1)
        assert jacobi_symbol(a, prime) == expected

    def test_jacobi_rejects_even_modulus(self):
        with pytest.raises(ValidationError):
            jacobi_symbol(3, 10)
        with pytest.raises(ValidationError):
            jacobi_symbol(3, -7)


class TestGroupHotpaths:
    def test_contains_matches_naive(self, group):
        draw = ReproRandom(7)
        for _ in range(50):
            element = draw.randint(1, group.p - 1)
            assert group.contains(element) == reference.is_member(group, element)


coefficients_st = st.lists(mixed_st, min_size=1, max_size=7)


class TestPolynomialFastPath:
    @given(coefficients_st, mixed_st)
    @settings(max_examples=200, deadline=None)
    def test_univariate_matches_naive(self, coefficients, point):
        fast = Polynomial(coefficients)(point)
        naive = reference.horner(Polynomial(coefficients).coefficients, point)
        assert fast == naive
        assert type(fast) is type(naive)

    def test_float_point_falls_back(self):
        polynomial = Polynomial([Fraction(1, 2), Fraction(1, 3)])
        assert polynomial(0.5) == pytest.approx(2 / 3)

    def test_integer_result_type_preserved(self):
        # All-int polynomial at an int point: naive returns int.
        polynomial = Polynomial([1, 2, 3])
        value = polynomial(2)
        assert value == 17 and type(value) is int
        # Fraction point always fractionalises (Horner multiplies by it).
        value = polynomial(Fraction(2))
        assert value == 17 and type(value) is Fraction


mvp_terms_st = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
    ),
    mixed_st,
    min_size=1,
    max_size=6,
)


class TestMultivariateFastPath:
    @given(mvp_terms_st, mixed_st, mixed_st)
    @settings(max_examples=200, deadline=None)
    def test_matches_naive(self, terms, x, y):
        polynomial = MultivariatePolynomial(2, terms)
        fast = polynomial((x, y))
        naive = reference.term_sum(polynomial.terms, (x, y))
        assert fast == naive
        assert type(fast) is type(naive)

    def test_unused_axis_fraction_keeps_int_type(self):
        # The second variable never appears with a positive exponent, so
        # the term sum never multiplies by it: the result stays
        # int even though the coordinate is a Fraction.
        polynomial = MultivariatePolynomial(2, {(1, 0): 2})
        value = polynomial((3, Fraction(1, 2)))
        assert value == 6 and type(value) is int


class TestInterpolationFastPath:
    @given(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=97),
            min_size=2,
            max_size=6,
            unique=True,
        ),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_lagrange_at_zero_matches_naive(self, nodes, data):
        if any(node == 0 for node in nodes):
            nodes = [node + 51 for node in nodes]
        values = [
            data.draw(fractions_st, label=f"value{i}") for i in range(len(nodes))
        ]
        fast = lagrange_at_zero(nodes, values)
        naive = reference.lagrange_at_zero(nodes, values)
        assert fast == naive
        assert type(fast) is type(naive)

    def test_reconstructs_constant_term(self):
        polynomial = Polynomial([Fraction(5, 7), Fraction(2), Fraction(-3, 2)])
        nodes = [Fraction(1), Fraction(2), Fraction(3)]
        assert lagrange_at_zero(nodes, [polynomial(n) for n in nodes]) == Fraction(5, 7)
