"""Polynomialization of RBF and sigmoid kernel models (Section IV-B).

The paper's OMPE machinery needs the decision function to be a
polynomial in the client's input.  For the RBF and sigmoid kernels the
paper prescribes truncated Taylor expansions ("in real applications, we
can use a large number p to approximate the infinity").  This module
turns a trained RBF or sigmoid :class:`~repro.ml.svm.model.SVMModel`
into an OMPE-ready polynomial evaluator:

* **RBF** ``K(x, t) = exp(-γ ||x − t||²)``: factor per support vector
  ``exp(-γ|x|²) · exp(-γ|t|²) · exp(2γ x·t)`` and expand each of the
  two ``t``-dependent exponentials with :func:`repro.math.taylor.exp_taylor`.
  The result is a polynomial of degree ``3·truncation`` in ``t``.
* **sigmoid** ``K(x, t) = tanh(a0 x·t + c0)``: expand ``tanh`` around 0
  with :func:`repro.math.taylor.tanh_taylor` (requires
  ``|a0 x·t + c0| < π/2``, which the scaled data domain satisfies for
  a0 ≤ 1/n — validated at construction).

The returned :class:`PolynomializedModel` carries an empirical bound
(seeded box sampling, 5x safety factor) on the decision-value error
introduced by the truncation, so callers can pick the degree needed
for sign-correct private classification on a given margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.ompe.function import OMPEFunction
from repro.exceptions import ValidationError
from repro.math.polynomials import Number, Polynomial
from repro.math.taylor import exp_taylor, tanh_taylor
from repro.ml.svm.model import SVMModel

#: Denominator grid for snapping float model data to exact rationals.
_SNAP = 1 << 40


def _snap(value: float) -> Fraction:
    return Fraction(round(float(value) * _SNAP), _SNAP)


@dataclass(frozen=True)
class PolynomializedModel:
    """A kernel model rewritten as an OMPE-ready polynomial evaluator.

    Attributes
    ----------
    model:
        The original kernel model (kept for reference evaluation).
    function:
        The OMPE sender function (exact arithmetic).
    truncation_degree:
        Taylor truncation parameter used.
    error_bound:
        Empirical bound on ``|d_poly(t) − d(t)|`` over the data box
        ``[-1, 1]^n`` (seeded sampling, 5x safety factor).  Private
        classification is sign-correct for every sample whose true
        margin exceeds this bound.
    """

    model: SVMModel
    function: OMPEFunction
    truncation_degree: int
    error_bound: float

    def decision_value(self, point: Sequence[float]) -> float:
        """Float evaluation of the polynomialized decision function."""
        exact = self.function(tuple(_snap(float(v)) for v in point))
        return float(exact)

    def sign_safe(self, point: Sequence[float]) -> bool:
        """True when the truncation cannot flip this sample's sign."""
        return abs(self.model.decision_value(point)) > self.error_bound


def _rbf_parameters(model: SVMModel) -> float:
    name, params = model.kernel_spec
    if name != "rbf":
        raise ValidationError(f"expected an rbf model, got kernel {name!r}")
    return float(params.get("gamma", 1.0))


def _sigmoid_parameters(model: SVMModel) -> Tuple[float, float]:
    name, params = model.kernel_spec
    if name != "sigmoid":
        raise ValidationError(f"expected a sigmoid model, got kernel {name!r}")
    return float(params.get("a0", 1.0)), float(params.get("c0", 0.0))


def polynomialize_rbf(
    model: SVMModel, truncation_degree: int = 12
) -> PolynomializedModel:
    """Rewrite an RBF model as a degree-``3·truncation_degree`` polynomial.

    Per support vector ``x``:

        K(x, t) = e^{-γ|x|²} · e^{-γ|t|²} · e^{2γ x·t}
                ≈ e^{-γ|x|²} · T(-γ|t|²) · T(2γ x·t)

    with ``T`` the truncated exponential series.  Both series arguments
    are bounded on the data box (``|t|² ≤ n``, ``|x·t| ≤ n``), so the
    truncation error is controlled; the reported bound is measured
    empirically (see :data:`_ERROR_SAMPLES`).
    """
    if truncation_degree < 1:
        raise ValidationError(
            f"truncation_degree must be at least 1, got {truncation_degree}"
        )
    gamma = _rbf_parameters(model)
    gamma_exact = _snap(gamma)
    n = model.dimension
    series: Polynomial = exp_taylor(truncation_degree)
    duals = [_snap(c) for c in model.dual_coefficients]
    svs = [[_snap(v) for v in row] for row in model.support_vectors]
    bias = _snap(model.bias)
    prefactors = [
        # e^{-γ|x|²}, snapped once per support vector.
        _snap(math.exp(-gamma * float(np.dot(row, row))))
        for row in model.support_vectors
    ]

    def evaluate(point: Sequence[Number]) -> Number:
        norm_sq = sum((coordinate * coordinate for coordinate in point), Fraction(0))
        decay = series(-gamma_exact * norm_sq)
        total = bias
        for dual, sv, prefactor in zip(duals, svs, prefactors):
            dot = sum((a * b for a, b in zip(sv, point)), Fraction(0))
            cross = series(2 * gamma_exact * dot)
            total = total + dual * prefactor * decay * cross
        return total

    # Degree audit: T(-γ|t|²) has degree 2·trunc (|t|² is quadratic),
    # T(2γ x·t) has degree trunc; their product is degree 3·trunc.
    # Understating this corrupts the OMPE interpolation silently.
    function = OMPEFunction.from_callable(
        arity=n,
        total_degree=3 * truncation_degree,
        evaluate=evaluate,
    )
    bound = _empirical_error_bound(model, evaluate, n)
    return PolynomializedModel(
        model=model,
        function=function,
        truncation_degree=truncation_degree,
        error_bound=bound,
    )


#: Samples and safety factor for the empirical truncation-error bound.
#: Analytic Lagrange-remainder bounds at the box corners are orders of
#: magnitude looser than the error on any realistic sample (and make
#: ``sign_safe`` useless), so the bound is estimated by seeded sampling
#: of the data box and inflated by the safety factor.
_ERROR_SAMPLES = 256
_ERROR_SAFETY = 5.0


def _empirical_error_bound(model: SVMModel, evaluate, dimension: int) -> float:
    rng = np.random.default_rng(20160627)
    worst = 0.0
    points = rng.uniform(-1.0, 1.0, size=(_ERROR_SAMPLES, dimension))
    for point in points:
        exact_point = tuple(_snap(float(v)) for v in point)
        approx = float(evaluate(exact_point))
        truth = model.decision_value(point)
        worst = max(worst, abs(approx - truth))
    return _ERROR_SAFETY * worst + 1e-12


def polynomialize_sigmoid(
    model: SVMModel, truncation_degree: int = 9
) -> PolynomializedModel:
    """Rewrite a sigmoid model via the paper's tanh Bernoulli expansion.

    Requires the kernel argument ``a0 x·t + c0`` to stay inside the
    series' convergence radius ``π/2`` on the data box; raises when the
    configured ``a0``/``c0`` cannot guarantee that.
    """
    if truncation_degree < 1:
        raise ValidationError(
            f"truncation_degree must be at least 1, got {truncation_degree}"
        )
    a0, c0 = _sigmoid_parameters(model)
    n = model.dimension
    radius = abs(a0) * n + abs(c0)
    if radius >= math.pi / 2:
        raise ValidationError(
            f"kernel argument can reach {radius:.3f} >= pi/2 on the data box; "
            "rescale a0 (the paper uses a0 = 1/n) before polynomializing"
        )
    series = tanh_taylor(truncation_degree)
    a0_exact, c0_exact = _snap(a0), _snap(c0)
    duals = [_snap(c) for c in model.dual_coefficients]
    svs = [[_snap(v) for v in row] for row in model.support_vectors]
    bias = _snap(model.bias)

    def evaluate(point: Sequence[Number]) -> Number:
        total = bias
        for dual, sv in zip(duals, svs):
            dot = sum((a * b for a, b in zip(sv, point)), Fraction(0))
            total = total + dual * series(a0_exact * dot + c0_exact)
        return total

    function = OMPEFunction.from_callable(
        arity=n,
        total_degree=truncation_degree,
        evaluate=evaluate,
    )
    bound = _empirical_error_bound(model, evaluate, n)
    return PolynomializedModel(
        model=model,
        function=function,
        truncation_degree=truncation_degree,
        error_bound=bound,
    )


def classify_polynomialized(
    polynomialized: PolynomializedModel,
    sample: Sequence[float],
    config=None,
    seed: Optional[int] = None,
):
    """Run private classification against a polynomialized kernel model.

    Identical protocol to :func:`repro.core.classification.classify_nonlinear`
    (direct-evaluation variant); the sender function is the truncated
    Taylor form, so the label matches the true kernel model whenever
    the sample's margin exceeds ``polynomialized.error_bound``.
    """
    from repro.core.classification.linear import ClassificationOutcome
    from repro.core.ompe import execute_ompe

    outcome = execute_ompe(
        polynomialized.function,
        tuple(_snap(float(v)) for v in sample),
        config=config,
        seed=seed,
        amplify=True,
        offset=False,
    )
    return ClassificationOutcome.from_ompe(outcome)


def polynomialize(model: SVMModel, truncation_degree: Optional[int] = None) -> PolynomializedModel:
    """Dispatch on the model's kernel (rbf or sigmoid)."""
    name, _ = model.kernel_spec
    if name == "rbf":
        return polynomialize_rbf(model, truncation_degree or 12)
    if name == "sigmoid":
        return polynomialize_sigmoid(model, truncation_degree or 9)
    raise ValidationError(
        f"polynomialize handles rbf/sigmoid kernels; got {name!r} "
        "(linear and polynomial models are natively polynomial)"
    )
