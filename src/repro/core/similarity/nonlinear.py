"""Privacy-preserving nonlinear similarity evaluation (paper Section V-C).

The metric lifts to kernel feature space: centroid distance becomes

    L² = K(m_A, m_A) + K(m_B, m_B) − 2 K(m_A, m_B)

and the normals' cosine uses the feature-space inner products of the
models' dual representations,

    ⟨n_A, n_B⟩ = Σ_s Σ_s' c_s c_s' K(x_s, x_s')

(the paper writes this ``K(w_A, w_B)``).  Steps mirror the linear
protocol; the two dot-product OMPEs become kernel OMPEs:

* OMPE #1 — sender function ``y ↦ K(m_A, y)`` (degree ``p``), Bob's
  input his centroid ``m_B``: Bob gets ``x₁ = r_am K(m_A, m_B)``.
* OMPE #2 — sender function over Bob's *packed model*
  ``(c_1..c_k, x_1..x_k) ↦ Σ_j c_j · f_A(x_j)`` where
  ``f_A(x) = Σ_s c_s^A K(x_s^A, x)`` (degree ``p + 1``): Bob gets
  ``x₂ = r_aw ⟨n_A, n_B⟩ + r_b`` without revealing his support vectors
  or dual coefficients.
* OMPE #3 — identical Eq. (7) polynomial with kernel-space constants.

Both models must share the same polynomial kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from repro import obs
from repro.core.ompe import OMPEConfig, OMPEFunction, execute_ompe
from repro.core.similarity.exact import exact_poly_kernel, snap
from repro.core.similarity.linear import (
    PrivateSimilarityOutcome,
    build_t_squared_polynomial,
)
from repro.core.similarity.metric import MetricParams
from repro.core.similarity.profile import (
    KernelParams,
    ModelOrProfile,
    SimilarityProfile,
    similarity_profile,
)
from repro.exceptions import SimilarityError, ValidationError
from repro.math import fastpath
from repro.math.polynomials import Number
from repro.net.channel import Channel
from repro.net.runner import ProtocolReport
from repro.utils.rng import ReproRandom


def _kernel_params(profile: SimilarityProfile) -> KernelParams:
    """The profile's ``(a0, b0, degree)``; a linear profile is refused."""
    if profile.kernel is None:
        raise ValidationError(
            "nonlinear similarity requires polynomial-kernel models"
        )
    return profile.kernel


def _normal_inner_function(
    alice: SimilarityProfile, peer_sv_count: int
) -> OMPEFunction:
    """Sender function computing ``⟨n_A, n_B⟩`` from Bob's packed model.

    The naive evaluator performs ``k_B · k_A`` exact kernel evaluations
    in ``Fraction`` arithmetic per point.  The hot path runs over the
    profile's scaled-integer form of Alice's duals and support vectors,
    rescales the packed input once per call, and then the whole double
    loop is integer dots / powers with a single normalising
    ``Fraction`` at the end — the dominant win for nonlinear similarity
    (same value, same type, pinned by the differential suite).
    """
    a0, b0, degree = alice.kernel
    dimension = alice.dimension
    scaled = alice.scaled
    alice_duals = alice.packed[: alice.n_support]
    alice_svs = [
        alice.packed[start : start + dimension]
        for start in range(alice.n_support, len(alice.packed), dimension)
    ]

    def evaluate_fast(packed: Sequence[Number]):
        point = fastpath.scale_to_integers(packed)
        if point is None or not isinstance(packed[0], Fraction):
            return fastpath.MISS
        point_numerators, point_den, _ = point
        # inner = a0 · (sv · x) + b0 over the common denominator
        # K = a0.den · sv_den · point_den · b0.den; kernel = inner^p / K^p.
        base_den = a0.denominator * scaled.sv_den * point_den
        inner_scale = a0.numerator * b0.denominator
        inner_shift = b0.numerator * base_den
        kernel_den = base_den * b0.denominator
        total = 0
        for j in range(peer_sv_count):
            start = peer_sv_count + j * dimension
            vector = point_numerators[start : start + dimension]
            partial = 0
            for dual_num, sv_row in zip(scaled.dual_numerators, scaled.sv_numerators):
                dot = sum(a * b for a, b in zip(sv_row, vector))
                partial += dual_num * (inner_scale * dot + inner_shift) ** degree
            total += point_numerators[j] * partial
        return Fraction(total, point_den * scaled.dual_den * kernel_den**degree)

    def evaluate(packed: Sequence[Number]) -> Number:
        if fastpath.enabled():
            value = evaluate_fast(packed)
            if value is not fastpath.MISS:
                return value
        duals = packed[:peer_sv_count]
        total = Fraction(0) if isinstance(packed[0], Fraction) else 0.0
        for j in range(peer_sv_count):
            start = peer_sv_count + j * dimension
            vector = packed[start : start + dimension]
            f_a = sum(
                (
                    dual * exact_poly_kernel(sv, vector, a0, b0, degree)
                    for dual, sv in zip(alice_duals, alice_svs)
                ),
                Fraction(0),
            )
            total = total + duals[j] * f_a
        return total

    return OMPEFunction.from_callable(
        arity=peer_sv_count * (dimension + 1),
        total_degree=degree + 1,
        evaluate=evaluate,
    )


def evaluate_similarity_private_nonlinear(
    model_a: ModelOrProfile,
    model_b: ModelOrProfile,
    params: Optional[MetricParams] = None,
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
    policy=None,
) -> PrivateSimilarityOutcome:
    """Run the full private nonlinear (polynomial-kernel) similarity protocol.

    Each side is a polynomial-kernel model or its
    :class:`~repro.core.similarity.profile.SimilarityProfile` built
    under ``params``.  ``policy`` behaves as in
    :func:`~repro.core.similarity.linear.evaluate_similarity_private`:
    a non-``None`` :class:`~repro.core.similarity.policy.OutputPolicy`
    yields a mitigated outcome instead of the raw one.
    """
    with obs.get_tracer().span(
        "similarity.nonlinear", phase="similarity", dimension=model_a.dimension
    ) as span:
        outcome = _evaluate_similarity_private_nonlinear(
            model_a, model_b, params, config, seed
        )
        span.set(total_bytes=outcome.total_bytes, t=float(outcome.t))
    metrics = obs.get_metrics()
    if metrics.enabled:
        metrics.counter(
            "repro_similarity_runs_total",
            "Completed private similarity evaluations",
        ).inc(kind="nonlinear")
    if policy is not None:
        from repro.core.similarity.policy import (
            mitigate_similarity_outcome,
            policy_seed,
        )

        return mitigate_similarity_outcome(
            outcome, policy, seed=policy_seed(seed)
        )
    return outcome


def _evaluate_similarity_private_nonlinear(
    model_a: ModelOrProfile,
    model_b: ModelOrProfile,
    params: Optional[MetricParams],
    config: Optional[OMPEConfig],
    seed: Optional[int],
) -> PrivateSimilarityOutcome:
    params = params or MetricParams()
    config = config or OMPEConfig()
    # Step 1 — local geometry (kernel boundary scan), snapped.
    alice = similarity_profile(model_a, params, party="alice")
    bob = similarity_profile(model_b, params, party="bob")
    if alice.kernel != bob.kernel:
        raise SimilarityError(
            "both models must share the same kernel configuration"
        )
    a0, b0, degree = _kernel_params(alice)
    if alice.dimension != bob.dimension:
        raise SimilarityError("models must share input dimensionality")
    root = ReproRandom(seed)
    m_a = alice.centroid

    # Step 2 — Bob sends K(m_B, m_B) and ⟨n_B, n_B⟩ in the clear.
    with obs.get_tracer().span("similarity.clear", party="bob", phase="norms"):
        clear_channel = Channel("bob", "alice")
        clear_channel.send(
            "bob", "similarity/kernel-norms", (bob.centroid_norm, bob.normal_norm)
        )
        k_mm_b, k_ww_b = clear_channel.receive("alice", "similarity/kernel-norms")
    clear_report = ProtocolReport(
        result=None,
        transcript=clear_channel.transcript,
        simulated_network_s=clear_channel.simulated_time,
    )
    k_ww_a = alice.normal_norm
    if k_ww_a <= 0 or k_ww_b <= 0:
        raise SimilarityError("degenerate feature-space normal")

    # Step 3 — OMPE #1: x1 = r_am K(m_A, m_B).
    centroid_function = OMPEFunction.from_callable(
        arity=alice.dimension,
        total_degree=degree,
        evaluate=lambda y: exact_poly_kernel(m_a, y, a0, b0, degree),
    )
    with obs.get_tracer().span("similarity.centroid_ompe", phase="centroid"):
        run1 = execute_ompe(
            centroid_function,
            bob.centroid,
            config=config,
            seed=root.fork("run1").seed,
            amplify=True,
            offset=False,
            sender_name="alice",
            receiver_name="bob",
        )

    # Step 4 — OMPE #2: x2 = r_aw ⟨n_A, n_B⟩ + r_b over Bob's packed model.
    normal_function = _normal_inner_function(alice, bob.n_support)
    with obs.get_tracer().span("similarity.normal_ompe", phase="normal"):
        run2 = execute_ompe(
            normal_function,
            bob.packed,
            config=config,
            seed=root.fork("run2").seed,
            amplify=True,
            offset=True,
            sender_name="alice",
            receiver_name="bob",
        )

    # Step 5 — OMPE #3: Eq. (7) with kernel-space constants.
    c1 = alice.centroid_norm + k_mm_b
    c2 = snap(params.l0) ** 4
    c3 = 1 / (k_ww_a * k_ww_b)
    c4 = 1 + snap(params.sin_theta0) ** 2
    d1 = 1 / run1.amplifier
    d2 = 1 / run2.amplifier**2
    d3 = -run2.offset
    t_squared_polynomial = build_t_squared_polynomial(c1, c2, c3, c4, d1, d2, d3)
    with obs.get_tracer().span("similarity.area_ompe", phase="area"):
        run3 = execute_ompe(
            OMPEFunction.from_polynomial(t_squared_polynomial),
            (run1.value, run2.value),
            config=config,
            seed=root.fork("run3").seed,
            amplify=False,
            offset=False,
            sender_name="alice",
            receiver_name="bob",
        )

    t_squared = run3.value
    if t_squared < 0:
        raise SimilarityError(f"negative T² ({t_squared}) — protocol corrupted")
    return PrivateSimilarityOutcome(
        t=math.sqrt(float(t_squared)),
        t_squared=t_squared,
        reports={
            "clear": clear_report,
            "centroid_ompe": run1.report,
            "normal_ompe": run2.report,
            "area_ompe": run3.report,
        },
    )
