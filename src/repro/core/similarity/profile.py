"""Each party's local similarity state, derived once per model.

Steps 1–2 of the similarity protocol (paper Section V) run locally,
before any message is sent: a trainer scans its own model's boundary,
snaps the centroid (and, for a linear model, the normal) onto exact
rationals, and computes its self norms — ``‖m‖²`` and ``‖w‖²``, or
``K(m, m)`` and ``⟨n, n⟩`` for a polynomial kernel.  None of it depends
on the peer, so a :class:`SimilarityProfile` built once serves every
pair the model takes part in.  It never crosses the wire: the drivers
send exactly the values they sent when they derived them per pair.

:func:`similarity_profile` is the one place this derivation lives, and
the profile is the one place the protocol's per-kind choices live:
Alice's OMPE #1 and #2 functions (:meth:`SimilarityProfile.centroid_function`,
:meth:`SimilarityProfile.normal_function`), Bob's OMPE #2 input
(:attr:`SimilarityProfile.normal_input`) and the tag of his clear norms
(:attr:`SimilarityProfile.norms_tag`).  The three drivers — in process
in :mod:`~repro.core.similarity.linear`, Alice's and Bob's split sides
in :mod:`~repro.core.similarity.remote` — accept a model or a profile
for each side, start from the profile and never branch on the kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from repro import obs
from repro.core.ompe import OMPEFunction
from repro.core.similarity.boundary import (
    centroid,
    kernel_boundary_points,
    linear_boundary_points,
)
from repro.core.similarity.exact import (
    ScaledModel,
    exact_norm_squared,
    exact_poly_kernel,
    kernel_double_sum,
    scale_model,
    snap,
    snap_vector,
)
from repro.core.similarity.metric import MetricParams
from repro.core.similarity.nonlinear import kernel_normal_function
from repro.exceptions import ValidationError
from repro.math.multivariate import MultivariatePolynomial
from repro.ml.svm.model import SVMModel

#: ``(a0, b0, degree)`` of a polynomial kernel, snapped.
KernelParams = Tuple[Fraction, Fraction, int]


@dataclass(frozen=True)
class SimilarityProfile:
    """What one party derives locally from its own model and the params.

    ``centroid`` is the snapped centroid ``m``; ``centroid_norm`` and
    ``normal_norm`` are ``‖m‖²`` and ``‖w‖²`` for a linear model,
    ``K(m, m)`` and ``⟨n, n⟩`` for a kernel model.  A linear profile
    also holds the snapped normal ``w``; a kernel profile holds the
    kernel parameters, the support-vector count, the packed model Bob
    sends into OMPE #2 (duals, then support vectors row by row) and the
    scaled-integer form Alice's normal function evaluates over.
    ``dimension``, ``n_support`` and :meth:`is_linear` read as on the
    model, so a driver can check either before building.
    """

    params: MetricParams
    dimension: int
    centroid: Tuple[Fraction, ...]
    centroid_norm: Fraction
    normal_norm: Fraction
    normal: Tuple[Fraction, ...] = ()
    kernel: Optional[KernelParams] = None
    n_support: int = 0
    packed: Tuple[Fraction, ...] = ()
    scaled: Optional[ScaledModel] = None

    def is_linear(self) -> bool:
        """True for a linear model's profile (as :meth:`SVMModel.is_linear`)."""
        return self.kernel is None

    @property
    def norms_tag(self) -> str:
        """Message tag of Bob's clear norms (step 2)."""
        return "similarity/norms" if self.kernel is None else "similarity/kernel-norms"

    @property
    def normal_input(self) -> Tuple[Fraction, ...]:
        """Bob's OMPE #2 input: his normal ``w``, or his packed kernel model."""
        return self.normal if self.kernel is None else self.packed

    def centroid_function(self) -> OMPEFunction:
        """Alice's OMPE #1 function: ``y ↦ m_A · y``, or ``y ↦ K(m_A, y)``."""
        if self.kernel is None:
            return _dot_function(self.centroid)
        a0, b0, degree = self.kernel
        m_a = self.centroid
        return OMPEFunction.from_callable(
            arity=self.dimension,
            total_degree=degree,
            evaluate=lambda y: exact_poly_kernel(m_a, y, a0, b0, degree),
        )

    def normal_function(self, peer_sv_count: Optional[int] = None) -> OMPEFunction:
        """Alice's OMPE #2 function: ``y ↦ w_A · y``, or ``⟨n_A, n_B⟩``.

        The kernel form reads Bob's packed model, so it needs his
        support-vector count ``peer_sv_count``; a linear profile
        ignores it.
        """
        if self.kernel is None:
            return _dot_function(self.normal)
        if not isinstance(peer_sv_count, int) or peer_sv_count < 1:
            raise ValidationError(
                f"peer_sv_count must be at least 1, got {peer_sv_count!r}"
            )
        return kernel_normal_function(self, peer_sv_count)


def _dot_function(vector: Tuple[Fraction, ...]) -> OMPEFunction:
    return OMPEFunction.from_polynomial(
        MultivariatePolynomial.affine(list(vector), Fraction(0))
    )


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

    ``Σ_s Σ_t c_s c_t K(x_s, y_t)`` under ``model_a``'s kernel, run as
    the integer double sum Alice's kernel normal function also runs.
    """
    a0, b0, degree = _polynomial_kernel_params(model_a)
    left = scale_model(*_snapped_model(model_a))
    right = left if model_b is model_a else scale_model(*_snapped_model(model_b))
    return kernel_double_sum(left, right, a0, b0, degree)


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


def _linear_profile(model: SVMModel, params: MetricParams) -> SimilarityProfile:
    weights = model.weight_vector()
    m = snap_vector(
        centroid(
            linear_boundary_points(weights, model.bias, params.lower, params.upper)
        )
    )
    w = snap_vector(weights)
    return SimilarityProfile(
        params=params,
        dimension=model.dimension,
        centroid=m,
        centroid_norm=exact_norm_squared(m),
        normal_norm=exact_norm_squared(w),
        normal=w,
    )


def _kernel_profile(model: SVMModel, params: MetricParams) -> SimilarityProfile:
    a0, b0, degree = kernel = _polynomial_kernel_params(model)
    m = snap_vector(
        centroid(
            kernel_boundary_points(
                model, params.lower, params.upper, params.resolution
            )
        )
    )
    duals, svs = _snapped_model(model)
    return SimilarityProfile(
        params=params,
        dimension=model.dimension,
        centroid=m,
        centroid_norm=exact_poly_kernel(m, m, a0, b0, degree),
        normal_norm=exact_normal_inner(model, model),
        kernel=kernel,
        n_support=model.n_support,
        packed=tuple(duals) + tuple(value for row in svs for value in row),
        scaled=scale_model(duals, svs),
    )
