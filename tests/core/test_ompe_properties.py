"""Property-based round-trip tests for the OMPE protocol.

The paper's correctness claim (Theorem 1 analogue): the receiver's
Lagrange interpolation of the ``m`` cover responses at ``v = 0``
recovers exactly ``B(0) = r_a · P(α) + r_b`` — with amplification on
and offset off, ``interpolate(B, 0) == r_a · d(t̃)`` as an *exact*
rational identity, so ``sign(value) == sign(d(t̃))`` (``r_a > 0``).

The sweep is a seeded generator sweep (deterministic, no new deps):
each case derives every random choice — arity, degree, coefficients,
evaluation point — from one master seed via the library's own
``derive_seed``, so failures replay bit-for-bit from the case index.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.ompe import OMPEFunction, execute_ompe
from repro.exceptions import InterpolationError
from repro.math.interpolation import lagrange_at_zero
from repro.math.multivariate import MultivariatePolynomial
from repro.utils.rng import ReproRandom, derive_seed

MASTER_SEED = 20160627


def _sign(value) -> int:
    return (value > 0) - (value < 0)


def random_polynomial(rng: ReproRandom, arity: int, degree: int):
    """A dense random polynomial with small rational coefficients.

    Some coefficients are deliberately zeroed (probability 1/4) so the
    sweep covers sparse shapes, including all-zero-but-constant ones.
    """
    terms = {}
    exponents_pool = [tuple(0 for _ in range(arity))]
    for position in range(arity):
        for power in range(1, degree + 1):
            exps = [0] * arity
            exps[position] = power
            exponents_pool.append(tuple(exps))
    for exps in exponents_pool:
        if rng.randint(0, 3) == 0:
            continue  # sparse corner: dropped coefficient
        numerator = rng.randint(-9, 9)
        denominator = rng.randint(1, 4)
        terms[exps] = Fraction(numerator, denominator)
    if not terms:
        terms[tuple(0 for _ in range(arity))] = Fraction(1)
    return MultivariatePolynomial(arity, terms)


def random_point(rng: ReproRandom, arity: int):
    return tuple(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        for _ in range(arity)
    )


class TestRoundTripSweep:
    """interpolate(B, 0) == r_a · d(t̃), exactly, across a seeded sweep."""

    @pytest.mark.parametrize("case", range(12))
    def test_amplified_round_trip_is_exact(self, fast_config, case):
        rng = ReproRandom(derive_seed(MASTER_SEED, "ompe-prop", case))
        arity = rng.randint(1, 3)
        degree = rng.randint(1, 2)
        polynomial = random_polynomial(rng, arity, degree)
        point = random_point(rng, arity)
        outcome = execute_ompe(
            OMPEFunction.from_polynomial(polynomial),
            point,
            config=fast_config,
            seed=derive_seed(MASTER_SEED, "ompe-run", case),
            amplify=True,
            offset=False,
        )
        expected = polynomial(point)
        # Exact rational identity, not an approximation.
        assert outcome.value == outcome.amplifier * expected
        # Amplification preserves the sign (r_a > 0): the receiver can
        # classify from the masked value alone.
        assert outcome.amplifier > 0
        assert _sign(outcome.value) == _sign(expected)

    @pytest.mark.parametrize("case", range(4))
    def test_offset_round_trip_is_exact(self, fast_config, case):
        rng = ReproRandom(derive_seed(MASTER_SEED, "ompe-offset", case))
        arity = rng.randint(1, 2)
        polynomial = random_polynomial(rng, arity, 1)
        point = random_point(rng, arity)
        outcome = execute_ompe(
            OMPEFunction.from_polynomial(polynomial),
            point,
            config=fast_config,
            seed=derive_seed(MASTER_SEED, "ompe-offset-run", case),
            amplify=True,
            offset=True,
        )
        assert (
            outcome.value
            == outcome.amplifier * polynomial(point) + outcome.offset
        )


class TestCornerCases:
    def test_zero_polynomial(self, fast_config):
        """All-zero coefficients: d ≡ 0 everywhere, so the masked value
        must be exactly zero (the d(t̃)=0 decision boundary)."""
        polynomial = MultivariatePolynomial.zero(2)
        outcome = execute_ompe(
            OMPEFunction.from_polynomial(polynomial),
            (Fraction(1, 3), Fraction(-2, 5)),
            config=fast_config,
            seed=1,
            amplify=True,
        )
        assert outcome.value == 0

    def test_boundary_point_yields_exact_zero(self, fast_config):
        """d(t̃) = 0 at the decision boundary: amplification cannot
        move the value off zero, so the boundary label is stable."""
        polynomial = MultivariatePolynomial.affine(
            [Fraction(2), Fraction(-1)], Fraction(0)
        )
        boundary_point = (Fraction(1, 2), Fraction(1))  # 2·(1/2) - 1 = 0
        assert polynomial(boundary_point) == 0
        outcome = execute_ompe(
            OMPEFunction.from_polynomial(polynomial),
            boundary_point,
            config=fast_config,
            seed=2,
            amplify=True,
        )
        assert outcome.value == 0

    def test_constant_negative_polynomial(self, fast_config):
        polynomial = MultivariatePolynomial.constant(2, Fraction(-3, 7))
        outcome = execute_ompe(
            OMPEFunction.from_polynomial(polynomial),
            (Fraction(1), Fraction(2)),
            config=fast_config,
            seed=3,
            amplify=True,
        )
        assert _sign(outcome.value) == -1
        assert outcome.value == outcome.amplifier * Fraction(-3, 7)

    def test_repeated_interpolation_nodes_rejected(self):
        """The receiver-side interpolation must refuse coincident nodes
        (a malformed cover cannot silently alias two responses)."""
        with pytest.raises(InterpolationError):
            lagrange_at_zero(
                [Fraction(1), Fraction(1)], [Fraction(2), Fraction(3)]
            )

    def test_sweep_is_deterministic(self, fast_config):
        """The same case seed replays the identical masked value —
        the sweep's failures are reproducible by construction."""
        polynomial = MultivariatePolynomial.affine(
            [Fraction(1), Fraction(-2)], Fraction(1, 3)
        )
        function = OMPEFunction.from_polynomial(polynomial)
        point = (Fraction(1, 4), Fraction(2, 5))
        seed = derive_seed(MASTER_SEED, "replay")
        first = execute_ompe(function, point, config=fast_config, seed=seed)
        second = execute_ompe(function, point, config=fast_config, seed=seed)
        assert first.value == second.value
        assert first.amplifier == second.amplifier
