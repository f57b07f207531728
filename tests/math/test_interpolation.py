"""Tests for Lagrange/Newton interpolation — the protocol's recovery step."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InterpolationError
from repro.math.interpolation import (
    lagrange_at_zero,
    lagrange_interpolate,
    newton_coefficients,
    newton_evaluate,
    newton_interpolate,
)
from repro.math.polynomials import Polynomial
from repro.utils.rng import ReproRandom


def float_copy(poly: Polynomial) -> Polynomial:
    """``poly`` with every coefficient as a ``float``."""
    return Polynomial([float(c) for c in poly.coefficients])


def random_poly_and_nodes(seed: int, degree: int):
    rng = ReproRandom(seed)
    poly = Polynomial.random(degree, rng)
    nodes = rng.distinct_fractions(degree + 1, -5, 5)
    values = [poly(x) for x in nodes]
    return poly, nodes, values


class TestLagrange:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 8])
    def test_exact_recovery(self, degree):
        poly, nodes, values = random_poly_and_nodes(degree * 7 + 1, degree)
        assert lagrange_interpolate(nodes, values) == poly

    def test_at_zero_matches_full_interpolation(self):
        poly, nodes, values = random_poly_and_nodes(3, 6)
        assert lagrange_at_zero(nodes, values) == poly(0)

    def test_at_zero_rejects_zero_node(self):
        with pytest.raises(InterpolationError):
            lagrange_at_zero([Fraction(0), Fraction(1)], [1, 2])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(InterpolationError):
            lagrange_interpolate([1, 1], [2, 3])

    def test_count_mismatch_rejected(self):
        with pytest.raises(InterpolationError):
            lagrange_interpolate([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(InterpolationError):
            lagrange_interpolate([], [])

    def test_single_point(self):
        assert lagrange_interpolate([2], [7]) == Polynomial.constant(7)

    def test_insufficient_points_give_wrong_polynomial(self):
        # The protocol's correctness hinges on m = deg + 1 points; with
        # fewer the result is a DIFFERENT polynomial (silent corruption).
        poly, nodes, values = random_poly_and_nodes(11, 4)
        under = lagrange_interpolate(nodes[:4], values[:4])
        assert under != poly

    @given(st.integers(min_value=0, max_value=6))
    @settings(max_examples=20)
    def test_float_mode_close(self, degree):
        rng = ReproRandom(degree + 100)
        poly = float_copy(Polynomial.random(degree, rng))
        nodes = [float(x) for x in rng.distinct_fractions(degree + 1, -3, 3)]
        values = [poly(x) for x in nodes]
        recovered = lagrange_interpolate(nodes, values)
        for x in (0.0, 0.5, -1.5):
            assert recovered(x) == pytest.approx(poly(x), rel=1e-6, abs=1e-6)


class TestZeroWeightCache:
    """Repeated reconstructions over one node set.

    The names date from a per-node-set weight memo that no protocol run
    ever hit (every OMPE run draws fresh nodes) and that is gone; the
    behaviour they pin holds without it: the same nodes give the same
    exact value on every call, new values over known nodes reconstruct
    exactly, and validation runs on every call.
    """

    def test_cached_identical_to_uncached(self):
        poly, nodes, values = random_poly_and_nodes(17, 5)
        first = lagrange_at_zero(nodes, values)
        second = lagrange_at_zero(nodes, values)
        assert first == second == poly(0)
        assert type(first) is type(second) is Fraction

    def test_cached_identical_in_float_mode(self):
        rng = ReproRandom(23)
        poly = float_copy(Polynomial.random(4, rng))
        nodes = [float(x) for x in rng.distinct_fractions(5, -3, 3)]
        values = [poly(x) for x in nodes]
        first = lagrange_at_zero(nodes, values)
        # Bit-identical, not approximately equal: the float path keeps
        # one multiplication/accumulation order.
        assert first == lagrange_at_zero(nodes, values)
        assert isinstance(first, float)
        assert first == pytest.approx(poly(0.0), rel=1e-9, abs=1e-9)

    def test_different_values_same_nodes_hit_cache(self):
        poly_a, nodes, _ = random_poly_and_nodes(41, 4)
        poly_b = Polynomial.random(4, ReproRandom(43))
        assert lagrange_at_zero(nodes, [poly_a(x) for x in nodes]) == poly_a(0)
        assert lagrange_at_zero(nodes, [poly_b(x) for x in nodes]) == poly_b(0)

    def test_validation_still_enforced_with_warm_cache(self):
        _, nodes, values = random_poly_and_nodes(53, 3)
        lagrange_at_zero(nodes, values)
        with pytest.raises(InterpolationError):
            lagrange_at_zero([Fraction(0)] + list(nodes[1:]), values)
        with pytest.raises(InterpolationError):
            lagrange_at_zero([nodes[0]] + list(nodes[:-1]), values)


class TestNewton:
    @pytest.mark.parametrize("degree", [0, 1, 3, 6])
    def test_matches_lagrange(self, degree):
        _, nodes, values = random_poly_and_nodes(degree + 50, degree)
        assert newton_interpolate(nodes, values) == lagrange_interpolate(nodes, values)

    def test_newton_evaluate(self):
        _, nodes, values = random_poly_and_nodes(7, 4)
        coeffs = newton_coefficients(nodes, values)
        for node, value in zip(nodes, values):
            assert newton_evaluate(nodes, coeffs, node) == value

    def test_empty_coefficients(self):
        with pytest.raises(InterpolationError):
            newton_evaluate([1], [], 0)


class TestProtocolShape:
    def test_masked_polynomial_recovery(self, rng):
        """End-to-end shape of IV-A.3: interpolate B(v) = h(v) + r*d(G(v))."""
        q = 3
        h = Polynomial.random(q, rng.fork("h"), constant_term=0)
        g1 = Polynomial.random(q, rng.fork("g1"), constant_term=Fraction(2, 5))
        g2 = Polynomial.random(q, rng.fork("g2"), constant_term=Fraction(-1, 3))
        w1, w2, b = Fraction(3), Fraction(-2), Fraction(1, 2)
        r = Fraction(7, 3)

        def B(v):
            return h(v) + r * (w1 * g1(v) + w2 * g2(v) + b)

        nodes = rng.distinct_fractions(q + 1, -4, 4)
        values = [B(v) for v in nodes]
        secret = lagrange_at_zero(nodes, values)
        expected = r * (w1 * Fraction(2, 5) + w2 * Fraction(-1, 3) + b)
        assert secret == expected
