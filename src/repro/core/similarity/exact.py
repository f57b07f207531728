"""Exact-rational helpers for the similarity protocols.

The OMPE layer is bit-exact over :class:`fractions.Fraction`; these
helpers snap float-valued geometry (centroids, weights, kernel
parameters) onto exact rationals once, at the protocol boundary, so
that every subsequent algebraic identity (Eq. 6 == Eq. 7) holds
exactly and tests can assert equality instead of tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.math import fastpath

#: Snap denominator: 2^40 keeps IEEE doubles essentially intact.
_SNAP = 1 << 40


def snap(value: float) -> Fraction:
    """Snap a float to an exact fraction on the 2^-40 grid."""
    return Fraction(round(float(value) * _SNAP), _SNAP)


def snap_vector(values: Sequence[float]) -> Tuple[Fraction, ...]:
    """Snap a vector of floats."""
    return tuple(snap(v) for v in values)


@dataclass(frozen=True)
class ScaledModel:
    """A kernel model's duals and support vectors over common integers.

    ``dual_numerators[s] / dual_den`` is dual ``s`` and
    ``sv_numerators[s][i] / sv_den`` coordinate ``i`` of support vector
    ``s`` — the form the kernel double sum loops over.
    """

    dual_numerators: Tuple[int, ...]
    dual_den: int
    sv_numerators: Tuple[Tuple[int, ...], ...]
    sv_den: int


def scale_model(
    duals: Sequence[Fraction], support_vectors: Sequence[Sequence[Fraction]]
) -> ScaledModel:
    """Rescale exact duals and support-vector rows onto common integers."""
    dual_numerators, dual_den, _ = fastpath.scale_to_integers(duals)
    dimension = len(support_vectors[0])
    flat, sv_den, _ = fastpath.scale_to_integers(
        [value for row in support_vectors for value in row]
    )
    rows = tuple(
        flat[start : start + dimension] for start in range(0, len(flat), dimension)
    )
    return ScaledModel(dual_numerators, dual_den, rows, sv_den)


def kernel_double_sum(
    left: ScaledModel,
    right: ScaledModel,
    a0: Fraction,
    b0: Fraction,
    degree: int,
) -> Fraction:
    """Exact ``Σ_t Σ_s c_t c_s (a0 x_s·y_t + b0)^p`` over two scaled models.

    The right model's support-vector rows are dotted with the left
    model's in one ``dtype=object`` matmul, so the arithmetic stays in
    Python ints; integer addition is associative, so the summation
    order cannot change a value.  One normalising ``Fraction`` at the
    end gives the ``Fraction`` double sum's value.  ``inner = a0·(x·y)
    + b0`` is ``(inner_scale·dot + inner_shift) / kernel_den`` with
    ``kernel_den = a0.den · left.sv_den · right.sv_den · b0.den``.
    """
    if degree < 1:
        raise ValidationError(f"degree must be at least 1, got {degree}")
    base_den = a0.denominator * left.sv_den * right.sv_den
    rows = np.array(right.sv_numerators, dtype=object)
    left_columns = np.array(left.sv_numerators, dtype=object).T
    inner = a0.numerator * b0.denominator * (rows @ left_columns) + (
        b0.numerator * base_den
    )
    partials = (inner**degree) @ np.array(left.dual_numerators, dtype=object)
    return Fraction(
        sum(map(mul, right.dual_numerators, partials.tolist())),
        left.dual_den * right.dual_den * (base_den * b0.denominator) ** degree,
    )
