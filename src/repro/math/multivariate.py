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
from repro.math.scaled import ScaledVector

Exponents = Tuple[int, ...]


class MultivariatePolynomial:
    """Immutable sparse multivariate polynomial in ``arity`` variables.

    Like :class:`repro.math.polynomials.Polynomial`, evaluation carries
    a scaled-integer fast path: rational coefficients are rescaled once
    onto a common denominator, each rational point is written over one
    denominator as a :class:`~repro.math.scaled.ScaledVector` (an OMPE
    points vector already is one), and each evaluation becomes integer
    monomial products over shared per-variable power tables, normalised
    by a single final ``Fraction``.  Identical values and result types
    to the plain term sum, which still runs for floats and all-int
    evaluation.
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
        max_exponents, degrees)`` with term order fixed by the term
        dict and ``degrees`` each row's total degree, or ``False`` when
        any coefficient is not an int/Fraction.
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
                degrees = tuple(sum(row) for row in rows)
                form = (rows, numerators, common_den, has_fraction, max_exponents, degrees)
            self._fast = form
        return form

    def _scaled_point(self, values: Tuple[Number, ...], form):
        """``values`` as a :class:`ScaledVector` when the plain term sum
        would return a ``Fraction`` at them, else ``None``.

        Claims only int/Fraction points where some coefficient is a
        ``Fraction`` or some term raises a ``Fraction`` coordinate to a
        power; floats and all-int evaluation keep the plain term sum.
        """
        _, _, _, has_fraction, max_exponents, _ = form
        fraction_result = has_fraction
        for value, top in zip(values, max_exponents):
            if isinstance(value, Fraction):
                if top:
                    fraction_result = True
            elif not isinstance(value, int) or isinstance(value, bool):
                return None
        return ScaledVector.of(values) if fraction_result else None

    def _evaluate_scaled(self, point: ScaledVector, form):
        """Evaluation at ``n_i / D`` for every coordinate; :data:`fastpath.MISS`
        where the plain term sum would not return a ``Fraction``.

        With ``T`` the largest total degree of a term, the value is
        ``Σ_t c_t · Π_i n_i^{e_i} · D^(T − |e_t|)`` over ``den · D^T``:
        every coordinate shares ``D``, so one power table of ``D``
        serves every term.  Every coordinate reads as a ``Fraction``, so
        the plain term sum returns one unless no term has a variable and
        no coefficient is a ``Fraction``.
        """
        rows, numerators, common_den, has_fraction, max_exponents, degrees = form
        if not (has_fraction or any(max_exponents)):
            return fastpath.MISS
        power_tables = []
        for value, top in zip(point.numerators, max_exponents):
            powers = [1]
            for _ in range(top):
                powers.append(powers[-1] * value)
            power_tables.append(powers)
        top = max(degrees)
        denominator_powers = [1]
        for _ in range(top):
            denominator_powers.append(denominator_powers[-1] * point.denominator)
        total = 0
        for row, numerator, degree in zip(rows, numerators, degrees):
            term = numerator * denominator_powers[top - degree]
            for powers, exponent in zip(power_tables, row):
                if exponent:
                    term *= powers[exponent]
            total += term
        return Fraction(total, common_den * denominator_powers[top])

    def __call__(self, point: Sequence[Number]) -> Number:
        """Evaluate at a point (sequence of ``arity`` numbers)."""
        values = point if type(point) is ScaledVector else tuple(point)
        if len(values) != self._arity:
            raise ValidationError(
                f"point has {len(values)} coordinates, expected {self._arity}"
            )
        form = self._fast_form()
        if form is not False:
            scaled = (
                values
                if type(values) is ScaledVector
                else self._scaled_point(values, form)
            )
            if scaled is not None:
                value = self._evaluate_scaled(scaled, form)
                if value is not fastpath.MISS:
                    return value
        values = tuple(values)
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
