"""Taylor-series polynomialization of non-polynomial kernels.

Paper Section IV-B lists the RBF and sigmoid kernels and notes that a
truncated Taylor expansion turns both into polynomials so the OMPE
machinery still applies ("in real applications, we can use a large
number p to approximate the infinity").  This module supplies:

* Bernoulli numbers (exact rationals), which appear in the paper's
  ``tanh`` expansion ``Σ B_{2i} 4^i (4^i - 1) / (2i)! · z^{2i-1}``;
* truncated series for ``exp`` and ``tanh`` as
  :class:`repro.math.polynomials.Polynomial` objects.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

from repro.exceptions import ValidationError
from repro.math.polynomials import Polynomial


def bernoulli_numbers(count: int) -> List[Fraction]:
    """Return the Bernoulli numbers ``B_0 .. B_{count-1}`` (B1 = -1/2).

    Computed exactly with the classic recurrence
    ``Σ_{j=0}^{m} C(m+1, j) B_j = 0`` for ``m >= 1``.
    """
    if count < 1:
        raise ValidationError(f"count must be at least 1, got {count}")
    numbers: List[Fraction] = [Fraction(1)]
    for m in range(1, count):
        accumulator = Fraction(0)
        for j in range(m):
            accumulator += math.comb(m + 1, j) * numbers[j]
        numbers.append(-accumulator / (m + 1))
    return numbers


def exp_taylor(degree: int) -> Polynomial:
    """Truncated Maclaurin series of ``exp(z)`` up to ``z^degree``."""
    if degree < 0:
        raise ValidationError(f"degree must be non-negative, got {degree}")
    coefficients = [Fraction(1, math.factorial(k)) for k in range(degree + 1)]
    return Polynomial(coefficients)


def tanh_taylor(degree: int) -> Polynomial:
    """Truncated Maclaurin series of ``tanh(z)`` up to ``z^degree``.

    ``tanh z = Σ_{i>=1} B_{2i} 4^i (4^i - 1) / (2i)! · z^{2i-1}`` — the
    expansion quoted for the sigmoid kernel in paper Section IV-B.
    Converges for ``|z| < π/2``, which covers the paper's scaled data
    domain (inner products of vectors in [-1, 1]^n need rescaling for
    large n).
    """
    if degree < 0:
        raise ValidationError(f"degree must be non-negative, got {degree}")
    terms_needed = degree // 2 + 2
    bernoulli = bernoulli_numbers(2 * terms_needed + 2)
    coefficients = [Fraction(0)] * (degree + 1)
    for i in range(1, terms_needed + 1):
        power = 2 * i - 1
        if power > degree:
            break
        coefficient = (
            bernoulli[2 * i]
            * Fraction(4**i)
            * Fraction(4**i - 1)
            / Fraction(math.factorial(2 * i))
        )
        coefficients[power] = coefficient
    return Polynomial(coefficients)
