"""Multinomial expansion machinery for the nonlinear transform.

Paper Section IV-B expands the polynomial kernel decision function

    d(t) = Σ_s α_s y_s (x_s · t)^p + b
         = Σ_{k1+...+kn=p} [Σ_s α_s y_s C(p; k1..kn) Π x_si^ki] Π t_i^ki + b

and treats each monomial ``Π t_i^ki`` as a fresh variable ``τ_j``.  This
module enumerates the exponent vectors (weak compositions of ``p`` into
``n`` parts), computes multinomial coefficients, and evaluates single
monomials; :mod:`repro.core.classification.transform` builds the
``t → τ`` transform from them.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence, Tuple

from repro.exceptions import ValidationError
from repro.math.polynomials import Number

Exponents = Tuple[int, ...]


def multinomial_coefficient(total: int, parts: Sequence[int]) -> int:
    """Return ``C(total; parts) = total! / (k1! k2! ... kn!)``.

    Raises when the parts do not sum to ``total``.
    """
    parts = list(parts)
    if any(part < 0 for part in parts):
        raise ValidationError(f"parts must be non-negative, got {parts}")
    if sum(parts) != total:
        raise ValidationError(f"parts {parts} do not sum to {total}")
    result = math.factorial(total)
    for part in parts:
        result //= math.factorial(part)
    return result


def compositions(total: int, parts: int) -> Iterator[Exponents]:
    """Yield all weak compositions of ``total`` into ``parts`` parts.

    These are the exponent vectors ``(k1, ..., kn)`` with ``Σ ki = total``
    and ``ki >= 0``, in lexicographic order (first part decreasing).
    """
    if parts < 1:
        raise ValidationError(f"parts must be at least 1, got {parts}")
    if total < 0:
        raise ValidationError(f"total must be non-negative, got {total}")
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def count_compositions(total: int, parts: int) -> int:
    """Number of weak compositions: ``C(total + parts - 1, parts - 1)``.

    This is the paper's monomial count ``n' = C(n + p - 1, n - 1)`` for
    degree-``p`` monomials in ``n`` variables.
    """
    if parts < 1:
        raise ValidationError(f"parts must be at least 1, got {parts}")
    if total < 0:
        raise ValidationError(f"total must be non-negative, got {total}")
    return math.comb(total + parts - 1, parts - 1)


def compositions_up_to(total: int, parts: int) -> Iterator[Exponents]:
    """Yield exponent vectors of total degree 1..``total`` (no constant).

    Used when the polynomialized kernel has terms of every degree (e.g.
    truncated RBF/sigmoid series), not only degree exactly ``p``.
    """
    for degree in range(1, total + 1):
        yield from compositions(degree, parts)


def count_compositions_up_to(total: int, parts: int) -> int:
    """Number of monomials of total degree 1..``total`` in ``parts`` vars."""
    return sum(count_compositions(degree, parts) for degree in range(1, total + 1))


def monomial_value(point: Sequence[Number], exponents: Exponents) -> Number:
    """Evaluate the monomial ``Π point_i^{exponents_i}``."""
    if len(point) != len(exponents):
        raise ValidationError(
            f"point/exponent length mismatch: {len(point)} vs {len(exponents)}"
        )
    value: Number = 1
    for coordinate, exponent in zip(point, exponents):
        if exponent:
            value = value * coordinate**exponent
    return value


def degree_p_basis(dimension: int, degree: int) -> List[Exponents]:
    """Exponent basis for monomials of total degree exactly ``degree``."""
    return list(compositions(degree, dimension))


def mixed_degree_basis(dimension: int, degree: int) -> List[Exponents]:
    """Exponent basis for total degree 1..``degree`` (no constant term)."""
    return list(compositions_up_to(degree, dimension))
