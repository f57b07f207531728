"""Exact-rational helpers for the similarity protocols.

The OMPE layer is bit-exact over :class:`fractions.Fraction`; these
helpers snap float-valued geometry (centroids, weights, kernel
parameters) onto exact rationals once, at the protocol boundary, so
that every subsequent algebraic identity (Eq. 6 == Eq. 7) holds
exactly and tests can assert equality instead of tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

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


def exact_dot(first: Sequence[Fraction], second: Sequence[Fraction]) -> Fraction:
    """Exact dot product.

    Hot path: rescale each vector onto a common denominator once, take
    the integer dot product, normalise once — instead of a ``Fraction``
    multiply-add (with gcd) per coordinate.  Same canonical value.
    """
    if len(first) != len(second):
        raise ValidationError(
            f"dot product of mismatched lengths {len(first)} and {len(second)}"
        )
    if fastpath.enabled():
        scaled_a = fastpath.scale_to_integers(first)
        if scaled_a is not None:
            scaled_b = fastpath.scale_to_integers(second)
            if scaled_b is not None:
                numerator = sum(
                    a * b for a, b in zip(scaled_a[0], scaled_b[0])
                )
                return Fraction(numerator, scaled_a[1] * scaled_b[1])
    return sum((a * b for a, b in zip(first, second)), Fraction(0))


def exact_norm_squared(vector: Sequence[Fraction]) -> Fraction:
    """Exact squared Euclidean norm."""
    return exact_dot(vector, vector)


def exact_poly_kernel(
    first: Sequence[Fraction],
    second: Sequence[Fraction],
    a0: Fraction,
    b0: Fraction,
    degree: int,
) -> Fraction:
    """Exact polynomial kernel ``(a0 x·y + b0)^p``."""
    if degree < 1:
        raise ValidationError(f"degree must be at least 1, got {degree}")
    return (a0 * exact_dot(first, second) + b0) ** degree
