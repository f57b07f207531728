"""Plain ``Fraction`` reference arithmetic the hot paths are held to.

Each function is the textbook loop a hot path in ``src/`` replaces:
Horner's rule, a term-by-term multivariate sum, the Lagrange weight
product, Euler-criterion membership, an SVM's kernel sum and the
similarity metric of Eq. (6).  They use ``Fraction`` operators only
(no rescaling onto common denominators), so a hot path that agrees
with them on value and Python type computes what the operator chain
computes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro.core.similarity.boundary import (
    centroid,
    kernel_boundary_points,
    linear_boundary_points,
)
from repro.core.similarity.exact import snap, snap_vector
from repro.math.polynomials import Number
from repro.ml.svm.model import SVMModel, _to_fraction


def horner(coefficients: Sequence[Number], point: Number) -> Number:
    """``c_0 + c_1 x + ... + c_d x^d`` by Horner's rule, lowest first."""
    result: Number = 0
    for coefficient in reversed(list(coefficients)):
        result = result * point + coefficient
    return result


def term_sum(terms, point: Sequence[Number]) -> Number:
    """``Σ_t c_t Π_i x_i^{e_i}`` over an ``{exponents: coefficient}`` map,
    skipping zero exponents (so an unused coordinate never enters)."""
    total: Number = 0
    for exponents, coefficient in terms.items():
        term = coefficient
        for value, exponent in zip(point, exponents):
            if exponent:
                term = term * value**exponent
        total = total + term
    return total


def lagrange_at_zero(xs: Sequence[Number], ys: Sequence[Number]) -> Number:
    """``B(0) = Σ_j y_j Π_{i≠j} x_i / (x_i − x_j)``, one division per factor."""
    total: Number = 0
    for j, (xj, yj) in enumerate(zip(xs, ys)):
        if yj == 0:
            continue
        weight: Number = 1
        for i, xi in enumerate(xs):
            if i != j:
                if isinstance(xi, float) or isinstance(xj, float):
                    weight = weight * (xi / (xi - xj))
                else:
                    weight = weight * (Fraction(xi) / Fraction(xi - xj))
        total = total + yj * weight
    return total


def is_member(group, element: int) -> bool:
    """Order-``q`` subgroup membership by Euler's criterion ``e^q = 1``."""
    return 0 < element < group.p and pow(element, group.q, group.p) == 1


def decision_value(model: SVMModel, point: Sequence[Number]) -> Fraction:
    """``d(t)`` of a linear or polynomial-kernel model over snapped
    ``Fraction`` operands, one support vector at a time."""
    name, params = model.kernel_spec
    exact_point = [Fraction(value) for value in point]
    total = _to_fraction(model.bias)
    if name == "linear":
        weights = [_to_fraction(w) for w in model.weight_vector()]
        for weight, coordinate in zip(weights, exact_point):
            total += weight * coordinate
        return total
    degree = int(params.get("degree", 3))
    a0 = _to_fraction(params.get("a0", 1.0))
    b0 = _to_fraction(params.get("b0", 0.0))
    for dual, sv in zip(model.dual_coefficients, model.support_vectors):
        dot = sum(_to_fraction(a) * b for a, b in zip(sv, exact_point))
        total += _to_fraction(dual) * (a0 * dot + b0) ** degree
    return total


def _dot(first, second) -> Fraction:
    return sum((a * b for a, b in zip(first, second)), Fraction(0))


def t_squared(model_a: SVMModel, model_b: SVMModel, params) -> Fraction:
    """Eq. (6) in exact arithmetic over the snapped geometry the protocol
    uses: ``¼ (L⁴ + L₀⁴)(1 − cos²θ + sin²θ₀)``.

    Linear models use Euclidean centroids and normals; polynomial-kernel
    models use ``K(x, y) = (a0·x·y + b0)^p`` for the centroid distance
    and ``Σ_s Σ_t c_s c_t K(x_s, y_t)`` for the normals.
    """
    if model_a.is_linear():
        centroids = [
            snap_vector(
                centroid(
                    linear_boundary_points(
                        model.weight_vector(), model.bias, params.lower, params.upper
                    )
                )
            )
            for model in (model_a, model_b)
        ]
        normals = [snap_vector(model.weight_vector()) for model in (model_a, model_b)]
        inner = _dot
        normal_inner = _dot
    else:
        kernel = model_a.kernel_spec[1]
        a0, b0 = snap(kernel.get("a0", 1.0)), snap(kernel.get("b0", 0.0))
        degree = int(kernel.get("degree", 3))

        def inner(x, y):
            return (a0 * _dot(x, y) + b0) ** degree

        centroids = [
            snap_vector(
                centroid(
                    kernel_boundary_points(
                        model, params.lower, params.upper, params.resolution
                    )
                )
            )
            for model in (model_a, model_b)
        ]
        normals = [
            (
                [snap(c) for c in model.dual_coefficients],
                [snap_vector(row) for row in model.support_vectors],
            )
            for model in (model_a, model_b)
        ]

        def normal_inner(left, right):
            return sum(
                (
                    c_s * c_t * inner(x_s, y_t)
                    for c_s, x_s in zip(*left)
                    for c_t, y_t in zip(*right)
                ),
                Fraction(0),
            )

    m_a, m_b = centroids
    w_a, w_b = normals
    l_squared = inner(m_a, m_a) + inner(m_b, m_b) - 2 * inner(m_a, m_b)
    cos_squared = normal_inner(w_a, w_b) ** 2 / (
        normal_inner(w_a, w_a) * normal_inner(w_b, w_b)
    )
    return Fraction(1, 4) * (l_squared**2 + snap(params.l0) ** 4) * (
        1 - cos_squared + snap(params.sin_theta0) ** 2
    )
