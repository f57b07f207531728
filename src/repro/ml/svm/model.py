"""The trained SVM artifact consumed by the privacy protocols.

An :class:`SVMModel` stores exactly what LIBSVM would emit — support
vectors, their labels, dual coefficients ``α_s``, the bias ``b``, and
the kernel — and exposes the decision function

    d(t) = Σ_s α_s y_s K(x_s, t) + b              (paper Eq. 1)

plus the derived representations the protocols need:

* ``weight_vector()`` — the primal ``w`` (linear kernels only), used by
  both the linear classification protocol and the similarity metric;
* ``decision_polynomial()`` — the decision function as an exact
  :class:`~repro.math.multivariate.MultivariatePolynomial`, used by the
  OMPE sender (linear: degree 1; polynomial kernel: degree p via the
  multinomial expansion of Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.math import fastpath
from repro.math.multinomial import compositions, multinomial_coefficient
from repro.math.multivariate import MultivariatePolynomial
from repro.ml.kernels import Kernel, linear_kernel

#: Denominator used when snapping float model coefficients to exact
#: rationals for the protocol layer.  2^40 keeps doubles nearly exact.
_EXACT_DENOMINATOR = 1 << 40


def _to_fraction(value: float) -> Fraction:
    return Fraction(round(float(value) * _EXACT_DENOMINATOR), _EXACT_DENOMINATOR)


@dataclass
class SVMModel:
    """A trained binary SVM.

    Attributes
    ----------
    support_vectors:
        Array of shape ``(n_sv, dimension)``.
    dual_coefficients:
        ``α_s y_s`` products, shape ``(n_sv,)`` (signed, as LIBSVM stores).
    bias:
        The intercept ``b``.
    kernel:
        The kernel used in training.
    kernel_spec:
        ``(name, params)`` so the model can be serialized/rebuilt.
    """

    support_vectors: np.ndarray
    dual_coefficients: np.ndarray
    bias: float
    kernel: Kernel
    kernel_spec: Tuple[str, dict] = field(default_factory=lambda: ("linear", {}))

    def __post_init__(self) -> None:
        self.support_vectors = np.asarray(self.support_vectors, dtype=float)
        self.dual_coefficients = np.asarray(self.dual_coefficients, dtype=float)
        if self.support_vectors.ndim != 2:
            raise ValidationError("support_vectors must be a 2-D array")
        if self.dual_coefficients.shape != (self.support_vectors.shape[0],):
            raise ValidationError(
                "dual_coefficients must align with support_vectors rows"
            )
        if self.support_vectors.shape[0] == 0:
            raise ValidationError("a model needs at least one support vector")

    # -- basic interface -------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Input dimensionality ``n``."""
        return int(self.support_vectors.shape[1])

    @property
    def n_support(self) -> int:
        """Number of support vectors ``|S|``."""
        return int(self.support_vectors.shape[0])

    def decision_value(self, point: Sequence[float]) -> float:
        """Evaluate ``d(t)`` at one point."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dimension,):
            raise ValidationError(
                f"point must have shape ({self.dimension},), got {point.shape}"
            )
        row = self.kernel.gram(self.support_vectors, point[None, :])[:, 0]
        return float(np.dot(self.dual_coefficients, row) + self.bias)

    def decision_values(self, points: np.ndarray) -> np.ndarray:
        """Vectorized ``d(t)`` over rows of ``points``."""
        points = np.asarray(points, dtype=float)
        gram = self.kernel.gram(points, self.support_vectors)
        return gram @ self.dual_coefficients + self.bias

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Class labels in {-1, +1} (0 decision values resolve to +1)."""
        values = self.decision_values(points)
        return np.where(values >= 0.0, 1.0, -1.0)

    # -- protocol-facing representations ------------------------------------------

    def is_linear(self) -> bool:
        """True when the model was trained with the linear kernel."""
        return self.kernel_spec[0] == "linear"

    def weight_vector(self) -> np.ndarray:
        """Primal weights ``w = Σ α_s y_s x_s`` (linear kernel only)."""
        if not self.is_linear():
            raise ValidationError(
                "weight_vector is defined only for linear-kernel models"
            )
        return self.dual_coefficients @ self.support_vectors

    def linear_decision_polynomial(self) -> MultivariatePolynomial:
        """Exact degree-1 polynomial ``w · t + b`` (paper Section IV-A)."""
        weights = [_to_fraction(w) for w in self.weight_vector()]
        return MultivariatePolynomial.affine(weights, _to_fraction(self.bias))

    def polynomial_decision_polynomial(self) -> MultivariatePolynomial:
        """Exact degree-``p`` polynomial for a polynomial-kernel model.

        Implements the multinomial expansion of Section IV-B:

            d(t) = Σ_{k1+..+kn=p} [Σ_s α_s y_s C(p;k) a0^p Π x_si^ki] Π t_i^ki
                   + (terms from b0) + b

        Only feasible for small ``n``; raises when the monomial count
        would exceed a safety cap (use the direct-evaluation protocol
        variant instead — see DESIGN.md §5).
        """
        name, params = self.kernel_spec
        if name not in ("poly", "polynomial"):
            raise ValidationError(
                "polynomial_decision_polynomial requires a polynomial kernel"
            )
        degree = int(params.get("degree", 3))
        a0 = _to_fraction(params.get("a0", 1.0))
        b0 = _to_fraction(params.get("b0", 0.0))
        n = self.dimension
        from repro.math.multinomial import count_compositions

        cap = 200_000
        total_terms = sum(
            count_compositions(d, n) for d in range(0, degree + 1)
        )
        if total_terms > cap:
            raise ValidationError(
                f"expansion would create {total_terms} monomials (cap {cap}); "
                "use the direct-evaluation nonlinear protocol instead"
            )
        duals = [_to_fraction(c) for c in self.dual_coefficients]
        svs = [[_to_fraction(v) for v in row] for row in self.support_vectors]
        terms = {}
        # (a0 x·t + b0)^p = Σ_{j=0..p} C(p, j) a0^j b0^{p-j} (x·t)^j
        import math as _math

        for j in range(degree + 1):
            outer = _math.comb(degree, j) * a0**j * b0 ** (degree - j)
            if outer == 0:
                continue
            for exponents in compositions(j, n):
                multi = multinomial_coefficient(j, exponents)
                coefficient = Fraction(0)
                for dual, sv in zip(duals, svs):
                    product = Fraction(multi)
                    for value, exponent in zip(sv, exponents):
                        if exponent:
                            product *= value**exponent
                    coefficient += dual * product
                coefficient *= outer
                if coefficient:
                    key = tuple(exponents)
                    terms[key] = terms.get(key, Fraction(0)) + coefficient
        constant_key = tuple([0] * n)
        terms[constant_key] = terms.get(constant_key, Fraction(0)) + _to_fraction(
            self.bias
        )
        return MultivariatePolynomial(n, terms)

    def decision_polynomial(self) -> MultivariatePolynomial:
        """Exact polynomial form of ``d(t)`` for OMPE (dispatches on kernel)."""
        if self.is_linear():
            return self.linear_decision_polynomial()
        return self.polynomial_decision_polynomial()

    def _exact_scaled_form(self):
        """Scaled-integer form of the snapped model, built once per model.

        The model is treated as immutable after construction (as every
        protocol does); the cache holds the snapped duals / support
        vectors / kernel constants rescaled onto common integer
        denominators so :meth:`exact_decision_values` can run the kernel
        in plain integer arithmetic.  The integer matrices are
        ``dtype=object`` arrays: their entries stay Python ints, which
        grow past any fixed width (the powered kernel values reach
        hundreds of bits).
        """
        cached = self.__dict__.get("_scaled_form_cache")
        if cached is not None:
            return cached
        name, params = self.kernel_spec
        duals = [_to_fraction(c) for c in self.dual_coefficients]
        dual_numerators, dual_den, _ = fastpath.scale_to_integers(duals)
        flat = [_to_fraction(v) for row in self.support_vectors for v in row]
        sv_numerators_flat, sv_den, _ = fastpath.scale_to_integers(flat)
        dimension = self.dimension
        sv_numerators = [
            sv_numerators_flat[row * dimension : (row + 1) * dimension]
            for row in range(self.n_support)
        ]
        form = {
            "bias": _to_fraction(self.bias),
            "dual_numerators": np.array(dual_numerators, dtype=object),
            "dual_den": dual_den,
            # dimension × n_support: one ``@`` dots every point with
            # every support vector.
            "sv_columns": np.array(sv_numerators, dtype=object).T,
            "sv_den": sv_den,
        }
        if name in ("poly", "polynomial"):
            form["degree"] = int(params.get("degree", 3))
            form["a0"] = _to_fraction(params.get("a0", 1.0))
            form["b0"] = _to_fraction(params.get("b0", 0.0))
        elif name == "linear":
            weights = [_to_fraction(w) for w in self.weight_vector()]
            numerators, den, _ = fastpath.scale_to_integers(weights)
            form["weight_numerators"] = numerators
            form["weight_den"] = den
        self.__dict__["_scaled_form_cache"] = form
        return form

    def _exact_point(self, point: Sequence) -> list:
        exact_point = [Fraction(v) if not isinstance(v, Fraction) else v for v in point]
        if len(exact_point) != self.dimension:
            raise ValidationError(
                f"point must have {self.dimension} coordinates, got {len(exact_point)}"
            )
        return exact_point

    def _scaled_decision_values(self, exact_points) -> list:
        """Scaled-integer evaluation of ``d`` at every point (bit-identical
        to the plain ``Fraction`` kernel loop).

        Each point is rescaled onto the lcm of its own denominators.
        For a polynomial kernel the points are stacked into one
        ``dtype=object`` matrix and every kernel value comes out of one
        matmul, so the arithmetic stays in Python ints and its
        summation order cannot change a value.  Every operand is a
        snapped :class:`Fraction`, so the ``Fraction`` loop always returns a
        canonical ``Fraction``; one big integer numerator per point,
        normalised once, is that same canonical value.
        """
        form = self._exact_scaled_form()
        bias = form["bias"]
        scaled = [fastpath.scale_to_integers(point)[:2] for point in exact_points]
        values = []
        if self.kernel_spec[0] == "linear":
            for point_numerators, point_den in scaled:
                numerator = sum(
                    w * c for w, c in zip(form["weight_numerators"], point_numerators)
                )
                den = form["weight_den"] * point_den
                values.append(
                    Fraction(bias.numerator * den + bias.denominator * numerator,
                             bias.denominator * den)
                )
            return values
        if not scaled:
            return values
        degree = form["degree"]
        a0, b0 = form["a0"], form["b0"]
        # inner = a0 · (sv·t) + b0 over each point's common denominator:
        # kernel = (inner_scale·dot + inner_shift)^p / kernel_den^p.
        base_dens = [a0.denominator * form["sv_den"] * den for _, den in scaled]
        inner_scale = a0.numerator * b0.denominator
        inner_shifts = np.array(
            [b0.numerator * base_den for base_den in base_dens], dtype=object
        )
        points = np.array([numerators for numerators, _ in scaled], dtype=object)
        inner = inner_scale * (points @ form["sv_columns"]) + inner_shifts[:, None]
        totals = (inner**degree) @ form["dual_numerators"]
        for total, base_den in zip(totals.tolist(), base_dens):
            den = form["dual_den"] * (base_den * b0.denominator) ** degree
            values.append(
                Fraction(bias.numerator * den + bias.denominator * total,
                         bias.denominator * den)
            )
        return values

    def exact_decision_values(self, points: Sequence[Sequence]) -> list:
        """Exact (Fraction) values of ``d`` at every point, in order.

        Coordinates are converted to :class:`Fraction` first (floats
        exactly), and every point of a linear or polynomial model takes
        the scaled-integer pass; other kernels must be polynomialized
        first.
        """
        exact_points = [self._exact_point(p) for p in points]
        name = self.kernel_spec[0]
        if name not in ("linear", "poly", "polynomial"):
            raise ValidationError(
                f"exact evaluation unsupported for kernel {name!r}; "
                "polynomialize it first (repro.math.taylor)"
            )
        return self._scaled_decision_values(exact_points)

    def exact_decision_value(self, point: Sequence) -> Fraction:
        """Exact (Fraction) evaluation of ``d`` via the kernel form.

        Matches :meth:`decision_polynomial` for linear and polynomial
        kernels, but with cost independent of the monomial count — this
        is what the direct-evaluation OMPE sender uses.
        """
        return self.exact_decision_values([point])[0]


def make_linear_model(
    weights: Sequence[float], bias: float
) -> SVMModel:
    """Build a linear model directly from ``(w, b)`` (for tests/examples).

    Represents ``w`` as a single synthetic support vector with dual
    coefficient 1, which yields exactly ``d(t) = w·t + b``.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValidationError("weights must be a non-empty 1-D vector")
    return SVMModel(
        support_vectors=weights[None, :],
        dual_coefficients=np.array([1.0]),
        bias=float(bias),
        kernel=linear_kernel(),
        kernel_spec=("linear", {}),
    )
