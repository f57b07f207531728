"""Tests for Taylor polynomialization and the statistics module."""

import math

import numpy as np
import pytest
import scipy.stats

from repro.exceptions import ValidationError
from repro.math.polynomials import Polynomial
from repro.math.statistics import (
    ks_2samp,
    ks_average_over_dimensions,
    pearson_correlation,
    rankdata,
    spearman_correlation,
)
from repro.math.taylor import (
    bernoulli_numbers,
    exp_taylor,
    tanh_taylor,
)


def float_copy(series: Polynomial) -> Polynomial:
    """``series`` with every coefficient as a ``float``."""
    return Polynomial([float(c) for c in series.coefficients])


class TestBernoulli:
    def test_known_values(self):
        from fractions import Fraction

        numbers = bernoulli_numbers(9)
        assert numbers[0] == 1
        assert numbers[1] == Fraction(-1, 2)
        assert numbers[2] == Fraction(1, 6)
        assert numbers[3] == 0
        assert numbers[4] == Fraction(-1, 30)
        assert numbers[6] == Fraction(1, 42)
        assert numbers[8] == Fraction(-1, 30)

    def test_odd_vanish(self):
        numbers = bernoulli_numbers(12)
        for index in range(3, 12, 2):
            assert numbers[index] == 0

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            bernoulli_numbers(0)


class TestTaylor:
    @pytest.mark.parametrize("z", [-1.0, -0.3, 0.0, 0.4, 1.0])
    def test_exp_accuracy(self, z):
        series = float_copy(exp_taylor(12))
        assert series(z) == pytest.approx(math.exp(z), rel=1e-8)

    @pytest.mark.parametrize("z", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_tanh_accuracy(self, z):
        series = float_copy(tanh_taylor(15))
        assert series(z) == pytest.approx(math.tanh(z), abs=2e-3)

    def test_tanh_converges_slowly_near_radius(self):
        # |z| close to pi/2 needs far higher degree — documents the
        # sigmoid-kernel rescaling requirement of Section IV-B.
        series = float_copy(tanh_taylor(15))
        assert abs(series(1.4) - math.tanh(1.4)) > 1e-3

    def test_tanh_is_odd(self):
        series = tanh_taylor(9)
        assert all(
            c == 0 for i, c in enumerate(series.coefficients) if i % 2 == 0
        )

    def test_exp_error_bound_holds(self):
        for degree in (4, 8):
            # Lagrange remainder on [-1, 1]: e · 1^(d+1) / (d+1)!.
            bound = math.e / math.factorial(degree + 1)
            series = float_copy(exp_taylor(degree))
            worst = max(
                abs(math.exp(z) - series(z)) for z in np.linspace(-1, 1, 41)
            )
            assert worst <= bound + 1e-12

    def test_negative_degree_rejected(self):
        with pytest.raises(ValidationError):
            exp_taylor(-1)
        with pytest.raises(ValidationError):
            tanh_taylor(-1)


class TestKSTest:
    def test_matches_scipy_statistic(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.normal(size=50).tolist()
            b = rng.normal(loc=0.5, size=70).tolist()
            mine = ks_2samp(a, b)
            ref = scipy.stats.ks_2samp(a, b)
            assert mine.statistic == pytest.approx(ref.statistic, abs=1e-12)

    def test_identical_samples(self):
        a = [1.0, 2.0, 3.0]
        result = ks_2samp(a, a)
        assert result.statistic == 0.0
        assert result.pvalue == pytest.approx(1.0)

    def test_disjoint_samples(self):
        result = ks_2samp([0.0, 1.0], [10.0, 11.0])
        assert result.statistic == 1.0
        assert result.pvalue < 0.5

    def test_scaled_statistic(self):
        a, b = [1.0, 2.0], [1.5, 2.5, 3.5]
        result = ks_2samp(a, b)
        scale = math.sqrt(2 * 3 / 5)
        assert result.scaled_statistic == pytest.approx(scale * result.statistic)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ks_2samp([], [1.0])

    def test_pvalue_monotone_in_statistic(self):
        small = ks_2samp([1, 2, 3, 4.0], [1.1, 2.1, 3.1, 4.1])
        large = ks_2samp([1, 2, 3, 4.0], [11, 12, 13, 14.0])
        assert large.pvalue <= small.pvalue

    def test_average_over_dimensions(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=(40, 3))
        b = rng.uniform(size=(40, 3)) + 0.5
        near = ks_average_over_dimensions(a, a + 0.01)
        far = ks_average_over_dimensions(a, b)
        assert far > near

    def test_average_rejects_ragged(self):
        with pytest.raises(ValidationError):
            ks_average_over_dimensions([[1, 2]], [[1, 2, 3]])

class TestCorrelation:
    def test_rankdata_ties(self):
        assert rankdata([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]

    def test_rankdata_empty(self):
        with pytest.raises(ValidationError):
            rankdata([])

    def test_spearman_matches_scipy(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=30).tolist()
        b = (np.asarray(a) * 2 + rng.normal(size=30) * 0.5).tolist()
        mine = spearman_correlation(a, b)
        ref = scipy.stats.spearmanr(a, b).statistic
        assert mine == pytest.approx(ref, abs=1e-10)

    def test_perfect_monotone(self):
        a = [1.0, 2.0, 3.0, 4.0]
        assert spearman_correlation(a, [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman_correlation(a, [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_pearson_constant_rejected(self):
        with pytest.raises(ValidationError):
            pearson_correlation([1.0, 1.0], [1.0, 2.0])

    def test_pearson_length_mismatch(self):
        with pytest.raises(ValidationError):
            pearson_correlation([1.0], [1.0, 2.0])
