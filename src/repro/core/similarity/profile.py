"""Each party's local similarity state, derived once per model.

Steps 1–2 of the similarity protocol (paper Section V) run locally,
before any message is sent: a trainer scans its own model's boundary,
snaps the centroid and the model onto exact rationals, and computes its
self norms — ``‖m‖²`` and ``‖w‖²``, or ``K(m, m)`` and ``⟨n, n⟩`` for a
polynomial kernel.  None of it depends on the peer, so a
:class:`SimilarityProfile` built once serves every pair the model takes
part in.  It never crosses the wire: the drivers send exactly the
values they sent when they derived them per pair.

Both kinds run OMPE #1 and #2 as degree-1 OMPEs.  A polynomial kernel
``K(x, y) = (a0 x·y + b0)^p`` does so over its explicit monomial map
(paper Section IV-B's τ-transform, applied to Section V-C): with the
basis ``B`` of every exponent vector ``k`` of total degree ``p`` (of
degree ``0..p`` when ``b0 ≠ 0``) and the weights
``κ_k = C(p, |k|) · a0^|k| · b0^(p−|k|) · multinom(|k|; k)``,

    K(x, y) = Σ_k κ_k x^k y^k,    ⟨n_A, n_B⟩ = Σ_k κ_k τ_k(A) τ_k(B)

exactly, where ``τ(m) = (m^k)_k`` and ``τ(n) = Σ_j c_j τ(x_j)`` over
the support vectors.  Bob's OMPE #1 input is ``τ(m_B)`` without its
constant coordinate (``b0^p`` is Alice's constant term) and Bob's
OMPE #2 input is ``τ(n_B)``; Alice's functions are dot products against
``κ ⊙ τ(m_A)`` and ``κ ⊙ τ(n_A)``.  A linear model is the case
``τ = identity``: the inputs are ``m_B`` and ``w_B``.

:func:`similarity_profile` is the one place this derivation lives, and
the profile is the one place the protocol's per-kind choices live:
Alice's OMPE #1 and #2 functions (:meth:`SimilarityProfile.centroid_function`,
:meth:`SimilarityProfile.normal_function`), Bob's inputs
(:attr:`SimilarityProfile.centroid_input`,
:attr:`SimilarityProfile.normal_input`) and the tag of Bob's clear norms
(:attr:`SimilarityProfile.norms_tag`).  The party pair in
:mod:`~repro.core.similarity.linear` (``SimilarityAlice`` and
``SimilarityBob``, which every driver runs) accepts a model or a
profile for each side, starts from the profile and never branches on
the kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.classification.transform import MonomialTransform
from repro.core.ompe import OMPEFunction
from repro.core.similarity.boundary import (
    centroid,
    kernel_boundary_points,
    linear_boundary_points,
)
from repro.core.similarity.exact import (
    kernel_double_sum,
    scale_model,
    snap,
    snap_vector,
)
from repro.core.similarity.metric import MetricParams
from repro.exceptions import ValidationError
from repro.math import fastpath
from repro.math.multinomial import multinomial_coefficient
from repro.math.polynomials import Number
from repro.math.scaled import ScaledVector
from repro.ml.svm.model import SVMModel

#: ``(a0, b0, degree)`` of a polynomial kernel, snapped.
KernelParams = Tuple[Fraction, Fraction, int]


@dataclass(frozen=True)
class DotForm:
    """``y ↦ constant + Σ_i weights_i · y_i``: each of Alice's OMPE functions.

    ``numerators`` and ``constant_numerator`` are the weights and the
    constant over one common ``denominator``.  A point of a points
    message is a :class:`~repro.math.scaled.ScaledVector`
    (:func:`~repro.core.ompe.hiding.check_points`) and evaluates as one
    integer dot product over its own denominator and one ``Fraction``;
    any other point of int or ``Fraction`` coordinates is first put in
    that form.
    """

    numerators: Tuple[int, ...]
    constant_numerator: int
    denominator: int

    @classmethod
    def of(cls, weights: Sequence[Fraction], constant: Fraction = Fraction(0)):
        numerators, denominator, _ = fastpath.scale_to_integers((constant, *weights))
        return cls(numerators[1:], numerators[0], denominator)

    def __call__(self, point: Sequence[Number]) -> Fraction:
        if len(point) != len(self.numerators):
            raise ValidationError(
                f"point has {len(point)} coordinates, expected {len(self.numerators)}"
            )
        if type(point) is not ScaledVector:
            point = ScaledVector.of(point)
        den = point.denominator
        return Fraction(
            self.constant_numerator * den
            + sum(map(mul, self.numerators, point.numerators)),
            self.denominator * den,
        )

    def function(self) -> OMPEFunction:
        """The degree-1 OMPE function, one input per weight."""
        return OMPEFunction.from_callable(
            arity=len(self.numerators), total_degree=1, evaluate=self
        )


@dataclass(frozen=True)
class SimilarityProfile:
    """What one party derives locally from its own model and the params.

    ``centroid_input`` and ``normal_input`` are the party's OMPE #1 and
    #2 inputs when it plays Bob; ``centroid_form`` and ``normal_form``
    its OMPE #1 and #2 functions when it plays Alice (see the module
    docstring).  ``centroid_norm`` and ``normal_norm`` are ``‖m‖²`` and
    ``‖w‖²`` for a linear model, ``K(m, m)`` and ``⟨n, n⟩`` for a kernel
    model, whose profile also holds the kernel parameters.
    ``dimension`` and :meth:`is_linear` read as on the model, so a
    driver can check either before building.
    """

    params: MetricParams
    dimension: int
    centroid_input: Tuple[Fraction, ...]
    normal_input: Tuple[Fraction, ...]
    centroid_form: DotForm
    normal_form: DotForm
    centroid_norm: Fraction
    normal_norm: Fraction
    kernel: Optional[KernelParams] = None

    def is_linear(self) -> bool:
        """True for a linear model's profile (as :meth:`SVMModel.is_linear`)."""
        return self.kernel is None

    @property
    def norms_tag(self) -> str:
        """Message tag of Bob's clear norms (step 2)."""
        return "similarity/norms" if self.kernel is None else "similarity/kernel-norms"

    def centroid_function(self) -> OMPEFunction:
        """Alice's OMPE #1 function: ``y ↦ m_A · y``, or ``K(m_A, ·)`` in τ."""
        return self.centroid_form.function()

    def normal_function(self) -> OMPEFunction:
        """Alice's OMPE #2 function: ``y ↦ w_A · y``, or ``⟨n_A, ·⟩`` in τ."""
        return self.normal_form.function()

    def dots_functions(self) -> Tuple[OMPEFunction, OMPEFunction]:
        """Alice's functions of the one OMPE #1/#2 run, in input order."""
        return self.centroid_function(), self.normal_function()

    @property
    def dots_input(self) -> Tuple[Fraction, ...]:
        """Bob's input to the OMPE #1/#2 run: ``centroid_input‖normal_input``."""
        return self.centroid_input + self.normal_input


ModelOrProfile = Union[SVMModel, SimilarityProfile]


def _polynomial_kernel_params(model: SVMModel) -> KernelParams:
    name, params = model.kernel_spec
    if name not in ("poly", "polynomial"):
        raise ValidationError(
            "nonlinear similarity requires polynomial-kernel models"
        )
    return (
        snap(params.get("a0", 1.0)),
        snap(params.get("b0", 0.0)),
        int(params.get("degree", 3)),
    )


def _snapped_model(model: SVMModel):
    """A kernel model's snapped duals and support-vector rows."""
    duals = [snap(c) for c in model.dual_coefficients]
    svs = [snap_vector(row) for row in model.support_vectors]
    return duals, svs


def exact_normal_inner(
    model_a: SVMModel, model_b: SVMModel
) -> Fraction:
    """Exact (snapped) feature-space inner product of the two normals.

    ``Σ_s Σ_t c_s c_t K(x_s, y_t)`` under ``model_a``'s kernel, as an
    integer double sum over the support vectors — the oracle the
    profile's monomial-map form is held to.
    """
    a0, b0, degree = _polynomial_kernel_params(model_a)
    left = scale_model(*_snapped_model(model_a))
    right = left if model_b is model_a else scale_model(*_snapped_model(model_b))
    return kernel_double_sum(left, right, a0, b0, degree)


@lru_cache(maxsize=16)
def monomial_map(dimension: int, kernel: KernelParams):
    """The kernel's monomial basis ``B`` and weights ``κ`` (module docstring).

    ``B`` is :class:`~repro.core.classification.transform.MonomialTransform`'s
    enumeration, led by the constant monomial when ``b0 ≠ 0``; the
    transform refuses a basis past its monomial cap with
    :class:`~repro.exceptions.ValidationError`.
    """
    a0, b0, degree = kernel
    basis = MonomialTransform(dimension, degree, homogeneous=b0 == 0).basis
    if b0:
        basis = [(0,) * dimension] + basis
    weights = tuple(
        comb(degree, sum(k))
        * a0 ** sum(k)
        * b0 ** (degree - sum(k))
        * multinomial_coefficient(sum(k), k)
        for k in basis
    )
    return tuple(basis), weights


def feature_sum(basis, duals, rows) -> Tuple[Fraction, ...]:
    """``Σ_j c_j τ(x_j)`` over ``basis``, exactly.

    The rows' integer numerators over ``den`` give the ``|B| × k``
    monomial matrix by column products; one ``dtype=object`` matmul with
    the dual numerators and one ``Fraction`` per coordinate, over
    ``dual_den · den^|k|``, finish it.
    """
    dual_numerators, dual_den, _ = fastpath.scale_to_integers(duals)
    flat, den, _ = fastpath.scale_to_integers([v for row in rows for v in row])
    columns = np.array(flat, dtype=object).reshape(len(rows), -1).T
    exponents = np.array(basis)
    powers = np.ones((exponents.max() + 1,) + columns.shape, dtype=object)
    for power in range(1, len(powers)):
        powers[power] = powers[power - 1] * columns
    # powers[e, i] is column i to the e: pick each monomial's factors.
    monomials = powers[exponents, np.arange(len(columns))].prod(axis=1)
    sums = (monomials @ np.array(dual_numerators, dtype=object)).tolist()
    return tuple(
        Fraction(total, dual_den * den ** sum(k)) for total, k in zip(sums, basis)
    )


def similarity_profile(
    model: ModelOrProfile,
    params: MetricParams,
    party: Optional[str] = None,
) -> SimilarityProfile:
    """Derive ``model``'s profile under ``params``.

    A profile passes through unchanged when it was built under equal
    params; one built under other params raises
    :class:`~repro.exceptions.ValidationError`, since its geometry
    would not match what the peer assumes.  ``party`` labels the
    ``similarity.profile`` span around a build.
    """
    if isinstance(model, SimilarityProfile):
        if model.params != params:
            raise ValidationError(
                f"similarity profile was built under {model.params!r}, "
                f"not the session's {params!r}"
            )
        return model
    linear = model.is_linear()
    with obs.get_tracer().span(
        "similarity.profile",
        party=party,
        kind="linear" if linear else "kernel",
        phase="similarity",
    ):
        if linear:
            return _linear_profile(model, params)
        return _kernel_profile(model, params)


def _profile(params, dimension, centroid_input, normal_input, centroid_form,
             normal_form, kernel=None) -> SimilarityProfile:
    # Each self norm is the party's own function at its own input.
    return SimilarityProfile(
        params=params,
        dimension=dimension,
        centroid_input=centroid_input,
        normal_input=normal_input,
        centroid_form=centroid_form,
        normal_form=normal_form,
        centroid_norm=centroid_form(centroid_input),
        normal_norm=normal_form(normal_input),
        kernel=kernel,
    )


def _linear_profile(model: SVMModel, params: MetricParams) -> SimilarityProfile:
    weights = model.weight_vector()
    m = snap_vector(
        centroid(
            linear_boundary_points(weights, model.bias, params.lower, params.upper)
        )
    )
    w = snap_vector(weights)
    return _profile(params, model.dimension, m, w, DotForm.of(m), DotForm.of(w))


def _kernel_profile(model: SVMModel, params: MetricParams) -> SimilarityProfile:
    kernel = _polynomial_kernel_params(model)
    basis, kappa = monomial_map(model.dimension, kernel)
    m = snap_vector(
        centroid(
            kernel_boundary_points(
                model, params.lower, params.upper, params.resolution
            )
        )
    )
    tau_m = feature_sum(basis, [Fraction(1)], [m])
    tau_n = feature_sum(basis, *_snapped_model(model))
    # With b0 ≠ 0, coordinate 0 is the constant monomial: τ_0(m) = 1.
    skip = 1 if kernel[1] else 0
    centroid_form = DotForm.of(
        [k * t for k, t in zip(kappa[skip:], tau_m[skip:])],
        kappa[0] if skip else Fraction(0),
    )
    normal_form = DotForm.of([k * t for k, t in zip(kappa, tau_n)])
    return _profile(
        params, model.dimension, tau_m[skip:], tau_n, centroid_form,
        normal_form, kernel,
    )
