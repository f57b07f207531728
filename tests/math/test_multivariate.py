"""Tests for sparse multivariate polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.math.multivariate import MultivariatePolynomial
from repro.utils.rng import ReproRandom


def random_mv(seed: int, arity: int = 3, terms: int = 5, max_exp: int = 3):
    rng = ReproRandom(seed)
    term_map = {}
    for _ in range(terms):
        exponents = tuple(rng.randint(0, max_exp) for _ in range(arity))
        term_map[exponents] = rng.nonzero_fraction(-5, 5)
    return MultivariatePolynomial(arity, term_map)


class TestConstruction:
    def test_zero_terms_dropped(self):
        p = MultivariatePolynomial(2, {(1, 0): 0, (0, 1): 3})
        assert p.terms == {(0, 1): 3}

    def test_duplicate_keys_merge(self):
        p = MultivariatePolynomial(2, {(1, 0): 2})
        q = MultivariatePolynomial(2, {(1, 0): -2})
        assert (p + q).is_zero()

    def test_arity_validation(self):
        with pytest.raises(ValidationError):
            MultivariatePolynomial(0, {})
        with pytest.raises(ValidationError):
            MultivariatePolynomial(2, {(1,): 1})
        with pytest.raises(ValidationError):
            MultivariatePolynomial(2, {(-1, 0): 1})

    def test_affine(self):
        p = MultivariatePolynomial.affine([2, -1], 5)
        assert p((3, 4)) == 2 * 3 - 4 + 5
        assert p.total_degree == 1

    def test_affine_empty(self):
        with pytest.raises(ValidationError):
            MultivariatePolynomial.affine([])

    def test_constant(self):
        c = MultivariatePolynomial.constant(3, Fraction(1, 2))
        assert c((1, 2, 3)) == Fraction(1, 2)
        assert c.total_degree == 0

    def test_total_degree(self):
        p = MultivariatePolynomial(2, {(2, 3): 1, (4, 0): 1})
        assert p.total_degree == 5

    def test_coefficient_lookup(self):
        p = MultivariatePolynomial(2, {(1, 1): 7})
        assert p.coefficient((1, 1)) == 7
        assert p.coefficient((0, 0)) == 0

    def test_equality_hash_repr(self):
        p = MultivariatePolynomial(2, {(1, 0): 1})
        q = MultivariatePolynomial(2, {(1, 0): 1})
        assert p == q and hash(p) == hash(q)
        assert "MultivariatePolynomial" in repr(p)
        assert "MultivariatePolynomial" in repr(MultivariatePolynomial.zero(2))


class TestEvaluation:
    def test_wrong_point_size(self):
        p = MultivariatePolynomial.affine([1, 2], 0)
        with pytest.raises(ValidationError):
            p((1,))

    @given(st.integers(0, 1000))
    @settings(max_examples=30)
    def test_matches_naive(self, seed):
        p = random_mv(seed)
        rng = ReproRandom(seed + 999)
        point = tuple(rng.fraction(-2, 2) for _ in range(3))
        naive = sum(
            c * point[0] ** e[0] * point[1] ** e[1] * point[2] ** e[2]
            for e, c in p.terms.items()
        )
        assert p(point) == naive


class TestArithmetic:
    @given(st.integers(0, 500), st.integers(501, 1000))
    @settings(max_examples=30)
    def test_add_pointwise(self, s1, s2):
        p, q = random_mv(s1), random_mv(s2)
        rng = ReproRandom(s1 * 31 + s2)
        point = tuple(rng.fraction(-2, 2) for _ in range(3))
        assert (p + q)(point) == p(point) + q(point)

    @given(st.integers(0, 500), st.integers(501, 1000))
    @settings(max_examples=30)
    def test_mul_pointwise(self, s1, s2):
        p, q = random_mv(s1, terms=3), random_mv(s2, terms=3)
        rng = ReproRandom(s1 * 37 + s2)
        point = tuple(rng.fraction(-2, 2) for _ in range(3))
        assert (p * q)(point) == p(point) * q(point)

    def test_sub_and_neg(self):
        p = random_mv(1)
        assert (p - p).is_zero()
        assert (p + (-p)).is_zero()

    def test_scalar_ops(self):
        p = random_mv(2)
        point = (Fraction(1), Fraction(-1), Fraction(2))
        assert (p * 3)(point) == 3 * p(point)
        assert (3 * p)(point) == 3 * p(point)
        assert p.scale(Fraction(1, 2))(point) == p(point) / 2

    def test_arity_mismatch(self):
        p = MultivariatePolynomial.affine([1, 2], 0)
        q = MultivariatePolynomial.affine([1, 2, 3], 0)
        with pytest.raises(ValidationError):
            _ = p + q
        with pytest.raises(ValidationError):
            _ = p * q
