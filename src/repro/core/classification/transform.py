"""The ``t → τ`` monomial transform of paper Section IV-B.

For a polynomial-kernel decision function of degree ``p`` in ``n``
variables, every monomial ``Π t_i^{k_i}`` becomes a fresh variable
``τ_j``; the decision function is then *linear* in ``τ`` and the linear
OMPE machinery applies unchanged.  The client applies the same
transform to its sample before hiding it.

The monomial count ``n' = C(n+p-1, n-1)`` (plus lower-degree terms when
``b0 ≠ 0``) grows combinatorially — the paper's madelon (n = 500,
p = 3) would need ~2×10⁷ variables.  The direct-evaluation variant in
:mod:`repro.core.classification.nonlinear` avoids the blow-up; this
module implements the paper-faithful path for moderate ``n`` and powers
the equivalence ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from repro.exceptions import ValidationError
from repro.math.multinomial import (
    count_compositions,
    degree_p_basis,
    mixed_degree_basis,
    monomial_value,
)
from repro.math.multivariate import MultivariatePolynomial
from repro.math.polynomials import Number

Exponents = Tuple[int, ...]

#: Safety cap on the transformed arity.
MAX_MONOMIALS = 100_000


@dataclass(frozen=True)
class MonomialTransform:
    """A fixed monomial basis shared by trainer and client.

    ``homogeneous=True`` uses only total-degree-``p`` monomials (the
    paper's ``b0 = 0`` kernel); otherwise all degrees ``1..p`` appear.
    """

    dimension: int
    degree: int
    homogeneous: bool = True

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValidationError(f"dimension must be at least 1, got {self.dimension}")
        if self.degree < 1:
            raise ValidationError(f"degree must be at least 1, got {self.degree}")
        if self.arity > MAX_MONOMIALS:
            raise ValidationError(
                f"transform would create {self.arity} monomials "
                f"(cap {MAX_MONOMIALS})"
            )

    @property
    def basis(self) -> List[Exponents]:
        """The exponent vectors, in deterministic order."""
        if self.homogeneous:
            return degree_p_basis(self.dimension, self.degree)
        return mixed_degree_basis(self.dimension, self.degree)

    @property
    def arity(self) -> int:
        """Number of transformed variables ``n'``."""
        if self.homogeneous:
            return count_compositions(self.degree, self.dimension)
        return sum(
            count_compositions(d, self.dimension) for d in range(1, self.degree + 1)
        )

    def transform_sample(self, sample: Sequence[Number]) -> Tuple[Number, ...]:
        """Map a client sample ``t`` to ``τ = (monomial_j(t))_j``."""
        values = tuple(sample)
        if len(values) != self.dimension:
            raise ValidationError(
                f"sample has {len(values)} coordinates, expected {self.dimension}"
            )
        exact = tuple(
            v if isinstance(v, Fraction) else Fraction(v) for v in values
        )
        return tuple(monomial_value(exact, exponents) for exponents in self.basis)

    def linearize_polynomial(
        self, polynomial: MultivariatePolynomial
    ) -> MultivariatePolynomial:
        """Rewrite a degree-``p`` polynomial in ``t`` as degree-1 in ``τ``.

        The constant term stays constant; every other monomial must be
        present in the basis.
        """
        if polynomial.arity != self.dimension:
            raise ValidationError(
                f"polynomial arity {polynomial.arity} != transform dimension "
                f"{self.dimension}"
            )
        index_of = {exponents: j for j, exponents in enumerate(self.basis)}
        arity = self.arity
        terms = {}
        constant_key = tuple([0] * arity)
        for exponents, coefficient in polynomial.terms.items():
            if sum(exponents) == 0:
                terms[constant_key] = terms.get(constant_key, 0) + coefficient
                continue
            try:
                j = index_of[exponents]
            except KeyError:
                raise ValidationError(
                    f"monomial {exponents} of the decision polynomial is "
                    "outside the transform basis (homogeneous mismatch?)"
                ) from None
            key = tuple(1 if idx == j else 0 for idx in range(arity))
            terms[key] = terms.get(key, 0) + coefficient
        return MultivariatePolynomial(arity, terms)
