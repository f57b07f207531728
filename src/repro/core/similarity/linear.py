"""Privacy-preserving linear similarity evaluation (paper Section V-B).

Alice and Bob are both trainers with linear models.  Bob learns the
triangle metric ``T`` and nothing else about Alice's model; Alice
learns only the two inseparable norms ``|m_B|²`` and ``|w_B|²``.

Protocol (three OMPE runs plus one clear exchange):

1. Both parties locally compute their bounded-hyperplane boundary
   points (Eq. 5), centroid ``m``, and normal ``w``.
2. Bob → Alice (clear): ``|m_B|²`` and ``|w_B|²`` — vector-module
   squares from which no coordinate can be recovered.
3. OMPE #1 — sender function ``m_A · y``, Bob's input ``m_B``, positive
   amplifier ``r_am``: Bob obtains ``x₁ = r_am (m_A · m_B)``.
4. OMPE #2 — sender function ``w_A · y`` with amplifier ``r_aw`` *and*
   offset ``r_b`` (so an orthogonal-normals zero is not recognizable):
   Bob obtains ``x₂ = r_aw (w_A · w_B) + r_b``.
5. OMPE #3 — Alice assembles the two-variate degree-4 polynomial of
   Eq. (7) with constants

       c₁ = |m_A|² + |m_B|²,  c₂ = L₀⁴,
       c₃ = (|w_A|² |w_B|²)⁻¹,  c₄ = 1 + sin²θ₀,
       d₁ = r_am⁻¹,  d₂ = r_aw⁻²,  d₃ = −r_b

   (note ``d₂ = r_aw⁻²``: the paper's Eq. 7 prints ``r_aw⁻¹``, which
   does not cancel the squared amplifier — see DESIGN.md errata) and
   Bob evaluates it at ``(x₁, x₂)`` *unamplified*, obtaining ``T²``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from repro import obs
from repro.core.ompe import OMPEConfig, OMPEFunction, execute_ompe
from repro.core.similarity.exact import snap
from repro.core.similarity.metric import MetricParams
from repro.core.similarity.profile import ModelOrProfile, similarity_profile
from repro.exceptions import SimilarityError, ValidationError
from repro.math.multivariate import MultivariatePolynomial
from repro.math.polynomials import Number
from repro.net.channel import Channel
from repro.net.runner import ProtocolReport
from repro.utils.rng import ReproRandom


@dataclass(frozen=True)
class PrivateSimilarityOutcome:
    """What Bob ends up with, plus full cost accounting.

    ``t`` is the similarity value (smaller = more similar models);
    ``t_squared`` is the exact protocol output; ``reports`` maps each
    phase to its protocol report.
    """

    t: float
    t_squared: Number
    reports: Dict[str, ProtocolReport]

    @property
    def total_bytes(self) -> int:
        return sum(report.total_bytes for report in self.reports.values())

    @property
    def total_rounds(self) -> int:
        return sum(report.rounds for report in self.reports.values())


def build_t_squared_polynomial(
    c1: Fraction,
    c2: Fraction,
    c3: Fraction,
    c4: Fraction,
    d1: Fraction,
    d2: Fraction,
    d3: Fraction,
) -> MultivariatePolynomial:
    """Assemble Eq. (7) as an explicit two-variate degree-4 polynomial.

    ``T²(x₁, x₂) = ¼ [(c₁ − 2 d₁ x₁)² + c₂] [c₄ − c₃ d₂ (d₃ + x₂)²]``
    """
    x1 = MultivariatePolynomial(2, {(1, 0): Fraction(1)})
    x2 = MultivariatePolynomial(2, {(0, 1): Fraction(1)})
    const = lambda value: MultivariatePolynomial.constant(2, Fraction(value))
    left = const(c1) - x1 * (2 * d1)
    left = left * left + const(c2)
    shifted = const(d3) + x2
    right = const(c4) - shifted * shifted * (c3 * d2)
    return left * right * Fraction(1, 4)


def evaluate_similarity_private(
    model_a: ModelOrProfile,
    model_b: ModelOrProfile,
    params: Optional[MetricParams] = None,
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
    policy=None,
) -> PrivateSimilarityOutcome:
    """Run the full private linear similarity protocol.

    Each side is a linear model or its
    :class:`~repro.core.similarity.profile.SimilarityProfile` built
    under ``params``.  ``policy`` (an
    :class:`~repro.core.similarity.policy.OutputPolicy`) switches the
    return type to a
    :class:`~repro.core.similarity.policy.MitigatedSimilarityOutcome`
    that withholds whatever the policy forbids; ``None`` keeps the
    legacy raw outcome.
    """
    with obs.get_tracer().span(
        "similarity.linear", phase="similarity", dimension=model_a.dimension
    ) as span:
        outcome = _evaluate_similarity_private(
            model_a, model_b, params, config, seed
        )
        span.set(total_bytes=outcome.total_bytes, t=float(outcome.t))
    metrics = obs.get_metrics()
    if metrics.enabled:
        metrics.counter(
            "repro_similarity_runs_total",
            "Completed private similarity evaluations",
        ).inc(kind="linear")
    if policy is not None:
        from repro.core.similarity.policy import (
            mitigate_similarity_outcome,
            policy_seed,
        )

        return mitigate_similarity_outcome(
            outcome, policy, seed=policy_seed(seed)
        )
    return outcome


def _evaluate_similarity_private(
    model_a: ModelOrProfile,
    model_b: ModelOrProfile,
    params: Optional[MetricParams],
    config: Optional[OMPEConfig],
    seed: Optional[int],
) -> PrivateSimilarityOutcome:
    params = params or MetricParams()
    config = config or OMPEConfig()
    if not (model_a.is_linear() and model_b.is_linear()):
        raise ValidationError(
            "evaluate_similarity_private requires two linear models "
            "(see repro.core.similarity.nonlinear for kernel models)"
        )
    root = ReproRandom(seed)

    # Step 1 — local geometry, snapped to exact rationals.
    alice = similarity_profile(model_a, params, party="alice")
    bob = similarity_profile(model_b, params, party="bob")
    m_a, w_a = alice.centroid, alice.normal

    # Step 2 — Bob sends the two inseparable norms in the clear.
    with obs.get_tracer().span("similarity.clear", party="bob", phase="norms"):
        clear_channel = Channel("bob", "alice")
        clear_channel.send("bob", "similarity/norms", (bob.centroid_norm, bob.normal_norm))
        norm_m_b, norm_w_b = clear_channel.receive("alice", "similarity/norms")
    clear_report = ProtocolReport(
        result=None,
        transcript=clear_channel.transcript,
        simulated_network_s=clear_channel.simulated_time,
    )
    if norm_w_b == 0:
        raise SimilarityError("Bob's normal vector is degenerate (zero)")
    norm_w_a = alice.normal_norm
    if norm_w_a == 0:
        raise SimilarityError("Alice's normal vector is degenerate (zero)")

    # Step 3 — OMPE #1: x1 = r_am (m_A · m_B).
    centroid_function = OMPEFunction.from_polynomial(
        MultivariatePolynomial.affine(list(m_a), Fraction(0))
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

    # Step 4 — OMPE #2: x2 = r_aw (w_A · w_B) + r_b.
    normal_function = OMPEFunction.from_polynomial(
        MultivariatePolynomial.affine(list(w_a), Fraction(0))
    )
    with obs.get_tracer().span("similarity.normal_ompe", phase="normal"):
        run2 = execute_ompe(
            normal_function,
            bob.normal,
            config=config,
            seed=root.fork("run2").seed,
            amplify=True,
            offset=True,
            sender_name="alice",
            receiver_name="bob",
        )

    # Step 5 — OMPE #3: Bob evaluates Eq. (7) at (x1, x2), unamplified.
    c1 = alice.centroid_norm + norm_m_b
    c2 = snap(params.l0) ** 4
    c3 = 1 / (norm_w_a * norm_w_b)
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
