"""Univariate polynomials over exact rationals (or floats).

The protocols manipulate univariate masking polynomials ``h(u)`` with
``h(0) = 0`` and per-coordinate hiding polynomials ``g_i(v)`` with
``g_i(0) = t_i`` (paper Section IV).  Protocol coefficients are
:class:`fractions.Fraction`; the class also accepts ``float``
coefficients and points, which take plain Horner.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Union

from repro.exceptions import ValidationError
from repro.math import fastpath
from repro.utils.rng import ReproRandom

Number = Union[int, float, Fraction]


class Polynomial:
    """Immutable univariate polynomial ``c0 + c1 x + ... + cd x^d``.

    Coefficients are stored lowest-degree first with trailing zeros
    stripped (the zero polynomial stores a single zero coefficient).

    Evaluation carries an integer fast path: rational coefficient sets
    are lazily rescaled once onto a common denominator, after which
    every evaluation at a rational point is pure integer arithmetic
    with a single ``Fraction`` normalisation at the end — same value,
    same result type as plain Horner, which remains the code path for
    floats and for all-int evaluation.
    """

    __slots__ = ("_coefficients", "_fast")

    def __init__(self, coefficients: Sequence[Number]) -> None:
        coeffs = list(coefficients)
        if not coeffs:
            coeffs = [0]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self._coefficients = tuple(coeffs)
        self._fast = None  # lazy scaled-integer form; False = not rational

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        """The zero polynomial."""
        return cls([0])

    @classmethod
    def constant(cls, value: Number) -> "Polynomial":
        """The constant polynomial ``value``."""
        return cls([value])

    @classmethod
    def monomial(cls, degree: int, coefficient: Number = 1) -> "Polynomial":
        """The monomial ``coefficient * x^degree``."""
        if degree < 0:
            raise ValidationError(f"degree must be non-negative, got {degree}")
        return cls([0] * degree + [coefficient])

    @classmethod
    def random(
        cls,
        degree: int,
        rng: ReproRandom,
        constant_term: Number = 0,
        coefficient_bound: int = 10,
    ) -> "Polynomial":
        """Random polynomial of exactly ``degree`` with fixed constant term.

        This is the paper's masking-polynomial generator: ``h(u)`` uses
        ``constant_term=0`` and the client's hiding polynomials ``g_i``
        use ``constant_term=t_i``.  The leading coefficient is forced
        nonzero so the degree is exact.  Coefficients are ``Fraction``
        draws on ``rng``'s lattice; :meth:`to_float` gives a float copy.
        """
        if degree < 0:
            raise ValidationError(f"degree must be non-negative, got {degree}")
        if degree == 0:
            return cls([constant_term])
        lead = rng.nonzero_fraction(-coefficient_bound, coefficient_bound)
        coeffs: List[Number] = [constant_term]
        coeffs.extend(
            rng.fraction(-coefficient_bound, coefficient_bound) for _ in range(degree - 1)
        )
        coeffs.append(lead)
        return cls(coeffs)

    # -- basic properties -------------------------------------------------------

    @property
    def coefficients(self) -> tuple:
        """Coefficients, lowest degree first."""
        return self._coefficients

    @property
    def degree(self) -> int:
        """Degree of the polynomial (0 for constants, including zero)."""
        return len(self._coefficients) - 1

    def is_zero(self) -> bool:
        """True when this is the zero polynomial."""
        return self._coefficients == (0,)

    def constant_term(self) -> Number:
        """The coefficient of ``x^0`` (i.e. ``p(0)``)."""
        return self._coefficients[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coefficients == other._coefficients

    def __hash__(self) -> int:
        return hash(self._coefficients)

    def __repr__(self) -> str:
        terms = []
        for power, coeff in enumerate(self._coefficients):
            if coeff == 0 and self.degree > 0:
                continue
            if power == 0:
                terms.append(f"{coeff}")
            elif power == 1:
                terms.append(f"{coeff}*x")
            else:
                terms.append(f"{coeff}*x^{power}")
        return f"Polynomial({' + '.join(terms)})"

    # -- evaluation ---------------------------------------------------------------

    def _fast_form(self):
        """Scaled-integer form ``(numerators, common_den, has_fraction)``.

        Computed once per instance; ``False`` when any coefficient is
        not an int/Fraction (floats stay on plain Horner).
        """
        form = self._fast
        if form is None:
            scaled = fastpath.scale_to_integers(self._coefficients)
            form = scaled if scaled is not None else False
            self._fast = form
        return form

    def _evaluate_fast(self, point: Number):
        """Scaled-integer Horner; :data:`fastpath.MISS` → plain Horner.

        Only claims the cases where plain Horner would produce a
        :class:`Fraction` (a Fraction coefficient or a Fraction point):
        the weighted Horner recurrence computes ``N = Σ c_j a^j b^(d-j)``
        over plain integers and normalises once via
        ``Fraction(N, den · b^d)``, which is exactly the canonical form
        the ``Fraction`` operator chain arrives at.
        """
        form = self._fast_form()
        if form is False:
            return fastpath.MISS
        scaled, den, has_fraction = form
        if isinstance(point, Fraction):
            a, b = point.numerator, point.denominator
        elif isinstance(point, int) and not isinstance(point, bool):
            if not has_fraction:
                return fastpath.MISS  # all-int Horner is already integer-only
            a, b = point, 1
        else:
            return fastpath.MISS
        degree = len(scaled) - 1
        accumulator = scaled[degree]
        if b == 1:
            for index in range(degree - 1, -1, -1):
                accumulator = accumulator * a + scaled[index]
            return Fraction(accumulator, den)
        b_power = 1
        for index in range(degree - 1, -1, -1):
            b_power *= b
            accumulator = accumulator * a + scaled[index] * b_power
        return Fraction(accumulator, den * b_power)

    def __call__(self, point: Number) -> Number:
        """Evaluate via Horner's rule (integer fast path when rational)."""
        value = self._evaluate_fast(point)
        if value is not fastpath.MISS:
            return value
        result: Number = 0
        for coeff in reversed(self._coefficients):
            result = result * point + coeff
        return result

    def evaluate_many(self, points: Sequence[Number]) -> List[Number]:
        """Evaluate at several points."""
        return [self(point) for point in points]

    # -- arithmetic -----------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coefficients, other._coefficients
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for index, coeff in enumerate(b):
            summed[index] += coeff
        return Polynomial(summed)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-coeff for coeff in self._coefficients])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Number]) -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial.zero()
            product = [0] * (len(self._coefficients) + len(other._coefficients) - 1)
            for i, a in enumerate(self._coefficients):
                if a == 0:
                    continue
                for j, b in enumerate(other._coefficients):
                    product[i + j] += a * b
            return Polynomial(product)
        return Polynomial([coeff * other for coeff in self._coefficients])

    def __rmul__(self, other: Number) -> "Polynomial":
        return self * other

    def scale(self, factor: Number) -> "Polynomial":
        """Return ``factor * self`` (alias of scalar multiplication)."""
        return self * factor

    def shift(self, offset: Number) -> "Polynomial":
        """Return ``self + offset`` as a polynomial."""
        return self + Polynomial.constant(offset)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Return ``self(inner(x))`` via Horner on polynomials."""
        result = Polynomial.zero()
        for coeff in reversed(self._coefficients):
            result = result * inner + Polynomial.constant(coeff)
        return result

    def power(self, exponent: int) -> "Polynomial":
        """Return ``self ** exponent`` by repeated squaring."""
        if exponent < 0:
            raise ValidationError(f"exponent must be non-negative, got {exponent}")
        result = Polynomial.constant(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def derivative(self) -> "Polynomial":
        """First derivative."""
        if self.degree == 0:
            return Polynomial.zero()
        return Polynomial(
            [coeff * power for power, coeff in enumerate(self._coefficients)][1:]
        )

    def to_exact(self) -> "Polynomial":
        """Return a copy with all coefficients as exact Fractions."""
        return Polynomial([Fraction(c) for c in self._coefficients])

    def to_float(self) -> "Polynomial":
        """Return a copy with all coefficients as floats."""
        return Polynomial([float(c) for c in self._coefficients])

