"""Polynomial interpolation (Lagrange and Newton forms).

Protocol step IV-A.3 of the paper reconstructs the univariate
polynomial ``B(v) = h(v) + d'(G(v))`` from ``m`` point evaluations and
reads off the secret as ``B(0)``.  :func:`lagrange_at_zero` performs
exactly that evaluation without building the full polynomial, and
:func:`lagrange_interpolate` returns the full coefficient form used in
tests and the privacy analysis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from repro.exceptions import InterpolationError
from repro.math import fastpath
from repro.math.polynomials import Number, Polynomial


def _check_nodes(xs: Sequence[Number], ys: Sequence[Number]) -> None:
    if len(xs) != len(ys):
        raise InterpolationError(
            f"node/value count mismatch: {len(xs)} vs {len(ys)}"
        )
    if not xs:
        raise InterpolationError("at least one interpolation node is required")
    if len(set(xs)) != len(xs):
        raise InterpolationError("interpolation nodes must be pairwise distinct")


def lagrange_interpolate(
    xs: Sequence[Number], ys: Sequence[Number]
) -> Polynomial:
    """Return the unique polynomial of degree < len(xs) through the points.

    Implements Eq. (3) of the paper:
    ``B(v) = Σ_j B(v_j) Π_{i≠j} (v - v_i) / (v_j - v_i)``.
    """
    _check_nodes(xs, ys)
    result = Polynomial.zero()
    for j, (xj, yj) in enumerate(zip(xs, ys)):
        if yj == 0:
            continue
        basis = Polynomial.constant(1)
        denominator: Number = 1
        for i, xi in enumerate(xs):
            if i == j:
                continue
            basis = basis * Polynomial([-xi, 1])
            denominator *= xj - xi
        result = result + basis * _divide(yj, denominator)
    return result


def _zero_basis_weights(xs: Sequence[Number]) -> Tuple[Number, ...]:
    """Lagrange basis weights at ``v = 0``: ``w_j = Π_{i≠j} x_i/(x_i - x_j)``.

    Rational nodes (two or more) take the integer form: rescaling the
    nodes to ``n_i / D`` over a common denominator makes ``D`` cancel
    out of every factor, so ``w_j = Π_{i≠j} n_i / Π_{i≠j} (n_i - n_j)``
    — two integer product chains and one normalising ``Fraction`` per
    weight instead of ``m - 1`` ``Fraction`` divisions.  Float nodes
    (and a single node, whose weight stays the int ``1``) run the
    division loop.
    """
    scaled = fastpath.scale_to_integers(xs) if len(xs) > 1 else None
    if scaled is not None:
        nodes = scaled[0]
        weights = []
        for j, nj in enumerate(nodes):
            numerator = 1
            denominator = 1
            for i, ni in enumerate(nodes):
                if i != j:
                    numerator *= ni
                    denominator *= ni - nj
            weights.append(Fraction(numerator, denominator))
        return tuple(weights)
    weights = []
    for j, xj in enumerate(xs):
        weight: Number = 1
        for i, xi in enumerate(xs):
            if i != j:
                weight = weight * _divide(xi, xi - xj)
        weights.append(weight)
    return tuple(weights)


def lagrange_at_zero(xs: Sequence[Number], ys: Sequence[Number]) -> Number:
    """Evaluate the interpolating polynomial at 0 directly.

    This is the protocol's secret-recovery step ``B(0)``; it costs
    ``O(m^2)`` without constructing coefficients:
    ``B(0) = Σ_j y_j Π_{i≠j} x_i / (x_i - x_j)``.

    Every OMPE run draws fresh nodes, so the weights are computed per
    call; nothing is memoized.
    """
    _check_nodes(xs, ys)
    if any(x == 0 for x in xs):
        raise InterpolationError("nodes must be nonzero to evaluate at zero")
    weights = _zero_basis_weights(xs)
    total: Number = 0
    for yj, weight in zip(ys, weights):
        if yj == 0:
            continue
        total = total + yj * weight
    return total


def newton_coefficients(
    xs: Sequence[Number], ys: Sequence[Number]
) -> List[Number]:
    """Divided-difference coefficients of the Newton form."""
    _check_nodes(xs, ys)
    coeffs = list(ys)
    for level in range(1, len(xs)):
        for index in range(len(xs) - 1, level - 1, -1):
            coeffs[index] = _divide(
                coeffs[index] - coeffs[index - 1], xs[index] - xs[index - level]
            )
    return coeffs


def newton_evaluate(
    xs: Sequence[Number], coefficients: Sequence[Number], point: Number
) -> Number:
    """Evaluate a Newton-form polynomial at ``point``."""
    if len(coefficients) == 0:
        raise InterpolationError("empty Newton coefficient list")
    result: Number = coefficients[-1]
    for index in range(len(coefficients) - 2, -1, -1):
        result = result * (point - xs[index]) + coefficients[index]
    return result


def newton_interpolate(xs: Sequence[Number], ys: Sequence[Number]) -> Polynomial:
    """Return the interpolating polynomial via the Newton form.

    Mathematically identical to :func:`lagrange_interpolate`; kept as an
    independent implementation for cross-checking in tests.
    """
    coeffs = newton_coefficients(xs, ys)
    result = Polynomial.constant(coeffs[0])
    factor = Polynomial.constant(1)
    for index in range(1, len(coeffs)):
        factor = factor * Polynomial([-xs[index - 1], 1])
        result = result + factor * coeffs[index]
    return result


def _divide(numerator: Number, denominator: Number) -> Number:
    """Exact division for int/Fraction inputs, float division otherwise."""
    if denominator == 0:
        raise InterpolationError("division by zero during interpolation")
    if isinstance(numerator, float) or isinstance(denominator, float):
        return numerator / denominator
    return Fraction(numerator) / Fraction(denominator)
