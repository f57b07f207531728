"""Sparse multivariate polynomials.

The trainer's decision function is an ``n``-variate polynomial (degree 1
for linear SVMs, degree ``p`` for polynomial-kernel SVMs after the
monomial expansion of paper Section IV-B).  This module represents such
polynomials sparsely as ``{exponent_tuple: coefficient}`` maps and
supports the operations the protocols need: evaluation, addition,
scaling, multiplication and exponent-vector iteration.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple, Union

from repro.exceptions import ValidationError
from repro.math import fastpath
from repro.math.polynomials import Number

Exponents = Tuple[int, ...]


class MultivariatePolynomial:
    """Immutable sparse multivariate polynomial in ``arity`` variables.

    Like :class:`repro.math.polynomials.Polynomial`, evaluation carries
    a scaled-integer fast path: rational coefficients are rescaled once
    onto a common denominator and each evaluation at a rational point
    becomes integer monomial products over shared per-variable power
    tables, normalised by a single final ``Fraction``.  Identical
    values and result types to the plain term sum, which still runs
    for floats and all-int evaluation.
    """

    __slots__ = ("_arity", "_terms", "_fast")

    def __init__(self, arity: int, terms: Mapping[Exponents, Number]) -> None:
        if arity < 1:
            raise ValidationError(f"arity must be at least 1, got {arity}")
        cleaned: Dict[Exponents, Number] = {}
        for exponents, coefficient in terms.items():
            key = tuple(int(e) for e in exponents)
            if len(key) != arity:
                raise ValidationError(
                    f"exponent tuple {key} does not match arity {arity}"
                )
            if any(e < 0 for e in key):
                raise ValidationError(f"negative exponent in {key}")
            if coefficient == 0:
                continue
            cleaned[key] = cleaned.get(key, 0) + coefficient
            if cleaned[key] == 0:
                del cleaned[key]
        self._arity = arity
        self._terms = cleaned
        self._fast = None  # lazy scaled-integer form; False = not rational

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MultivariatePolynomial":
        """The zero polynomial in ``arity`` variables."""
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, value: Number) -> "MultivariatePolynomial":
        """A constant polynomial."""
        return cls(arity, {tuple([0] * arity): value})

    @classmethod
    def affine(
        cls, weights: Sequence[Number], bias: Number = 0
    ) -> "MultivariatePolynomial":
        """Build ``w · t + b`` — the linear SVM decision function shape."""
        weights = list(weights)
        if not weights:
            raise ValidationError("weights must be non-empty")
        arity = len(weights)
        terms: Dict[Exponents, Number] = {}
        for index, weight in enumerate(weights):
            exponents = [0] * arity
            exponents[index] = 1
            terms[tuple(exponents)] = weight
        terms[tuple([0] * arity)] = bias
        return cls(arity, terms)

    # -- properties ----------------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of variables."""
        return self._arity

    @property
    def terms(self) -> Dict[Exponents, Number]:
        """A copy of the sparse term map."""
        return dict(self._terms)

    @property
    def total_degree(self) -> int:
        """Maximum total degree over all terms (0 for the zero polynomial)."""
        if not self._terms:
            return 0
        return max(sum(exponents) for exponents in self._terms)

    def is_zero(self) -> bool:
        """True when there are no nonzero terms."""
        return not self._terms

    def coefficient(self, exponents: Sequence[int]) -> Number:
        """Coefficient of the given monomial (0 when absent)."""
        return self._terms.get(tuple(exponents), 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultivariatePolynomial):
            return NotImplemented
        return self._arity == other._arity and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._arity, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return f"MultivariatePolynomial({self._arity}, 0)"
        parts = []
        for exponents in sorted(self._terms):
            monomial = "*".join(
                f"t{i}^{e}" if e > 1 else f"t{i}"
                for i, e in enumerate(exponents)
                if e
            )
            coefficient = self._terms[exponents]
            parts.append(f"{coefficient}*{monomial}" if monomial else f"{coefficient}")
        return f"MultivariatePolynomial({self._arity}, {' + '.join(parts)})"

    # -- evaluation -------------------------------------------------------------

    def _fast_form(self):
        """Scaled-integer form of the term map (computed once).

        ``(exponent_rows, numerators, common_den, has_fraction,
        max_exponents)`` with term order fixed by the term dict, or
        ``False`` when any coefficient is not an int/Fraction.
        """
        form = self._fast
        if form is None:
            rows = tuple(self._terms.keys())
            scaled = fastpath.scale_to_integers(tuple(self._terms.values()))
            if scaled is None or not rows:
                form = False
            else:
                numerators, common_den, has_fraction = scaled
                max_exponents = tuple(
                    max(row[axis] for row in rows) for axis in range(self._arity)
                )
                form = (rows, numerators, common_den, has_fraction, max_exponents)
            self._fast = form
        return form

    def _evaluate_fast(self, values: Tuple[Number, ...]):
        """Scaled-integer evaluation; :data:`fastpath.MISS` → plain term sum.

        Writes each coordinate as ``a_i / b_i`` and computes
        ``N = Σ_t c_t · Π_i a_i^{e_i} · b_i^{E_i - e_i}`` over integers
        (``E_i`` the maximum exponent of variable ``i``), so the value
        is exactly ``N / (den · Π_i b_i^{E_i})`` — one ``Fraction``
        normalisation per evaluation.  Claims only the cases where the
        plain term sum would itself return a ``Fraction``.
        """
        form = self._fast_form()
        if form is False:
            return fastpath.MISS
        rows, numerators, common_den, has_fraction, max_exponents = form
        point_numerators = []
        point_denominators = []
        fraction_result = has_fraction
        for axis, value in enumerate(values):
            if isinstance(value, Fraction):
                # A Fraction coordinate only fractionalises the plain
                # term sum if some term actually raises it to a power.
                if max_exponents[axis] > 0:
                    fraction_result = True
                point_numerators.append(value.numerator)
                point_denominators.append(value.denominator)
            elif isinstance(value, int) and not isinstance(value, bool):
                point_numerators.append(value)
                point_denominators.append(1)
            else:
                return fastpath.MISS
        if not fraction_result:
            return fastpath.MISS  # all-int: the term sum is integer-only
        a_power_tables = []
        b_power_tables = []
        total_denominator = common_den
        for a, b, top in zip(point_numerators, point_denominators, max_exponents):
            a_powers = [1]
            for _ in range(top):
                a_powers.append(a_powers[-1] * a)
            a_power_tables.append(a_powers)
            if b == 1:
                b_power_tables.append(None)
            else:
                b_powers = [1]
                for _ in range(top):
                    b_powers.append(b_powers[-1] * b)
                b_power_tables.append(b_powers)
                total_denominator *= b_powers[top]
        total = 0
        for row, numerator in zip(rows, numerators):
            term = numerator
            for axis, exponent in enumerate(row):
                if exponent:
                    term *= a_power_tables[axis][exponent]
                b_powers = b_power_tables[axis]
                if b_powers is not None:
                    remaining = max_exponents[axis] - exponent
                    if remaining:
                        term *= b_powers[remaining]
            total += term
        return Fraction(total, total_denominator)

    def __call__(self, point: Sequence[Number]) -> Number:
        """Evaluate at a point (sequence of ``arity`` numbers)."""
        values = tuple(point)
        if len(values) != self._arity:
            raise ValidationError(
                f"point has {len(values)} coordinates, expected {self._arity}"
            )
        value = self._evaluate_fast(values)
        if value is not fastpath.MISS:
            return value
        total: Number = 0
        for exponents, coefficient in self._terms.items():
            term = coefficient
            for value, exponent in zip(values, exponents):
                if exponent:
                    term = term * value**exponent
            total = total + term
        return total

    # -- arithmetic -----------------------------------------------------------------

    def _require_same_arity(self, other: "MultivariatePolynomial") -> None:
        if self._arity != other._arity:
            raise ValidationError(
                f"arity mismatch: {self._arity} vs {other._arity}"
            )

    def __add__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        if not isinstance(other, MultivariatePolynomial):
            return NotImplemented
        self._require_same_arity(other)
        merged = dict(self._terms)
        for exponents, coefficient in other._terms.items():
            merged[exponents] = merged.get(exponents, 0) + coefficient
        return MultivariatePolynomial(self._arity, merged)

    def __neg__(self) -> "MultivariatePolynomial":
        return MultivariatePolynomial(
            self._arity, {e: -c for e, c in self._terms.items()}
        )

    def __sub__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        if not isinstance(other, MultivariatePolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(
        self, other: Union["MultivariatePolynomial", Number]
    ) -> "MultivariatePolynomial":
        if isinstance(other, MultivariatePolynomial):
            self._require_same_arity(other)
            product: Dict[Exponents, Number] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    product[key] = product.get(key, 0) + c1 * c2
            return MultivariatePolynomial(self._arity, product)
        return MultivariatePolynomial(
            self._arity, {e: c * other for e, c in self._terms.items()}
        )

    def __rmul__(self, other: Number) -> "MultivariatePolynomial":
        return self * other

    def scale(self, factor: Number) -> "MultivariatePolynomial":
        """Return ``factor * self``."""
        return self * factor
