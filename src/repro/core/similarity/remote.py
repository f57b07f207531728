"""Role-split similarity drivers for the TCP transport.

:func:`~repro.core.similarity.linear.evaluate_similarity_private` runs
both trainers lock-step in one process.  These drivers split that flow
into Alice's side (the OMPE sender of all three runs) and Bob's side
(the receiver, who learns ``T``), each running against its own endpoint
of a real connection.

Each protocol phase — the clear norm exchange and the three OMPE runs —
gets a *fresh channel* from ``channel_factory`` (for the TCP transport,
a fresh :class:`~repro.net.wire.WireChannel` over the same connection),
so per-phase reports carry per-phase transcripts exactly like the
in-process protocol.  Seeds derive identically on both sides
(``ReproRandom(seed).fork("run1"/"run2"/"run3").seed``), making the
split runs bit-identical to the in-process reference: same masked
values, same ``T²``, same per-phase byte counts.

Each driver takes its party's model or that model's
:class:`~repro.core.similarity.profile.SimilarityProfile`; a server
hosting a model derives the profile once and passes it to every
session.

What crosses the wire before these drivers start — model metadata like
the peer's support-vector count for the nonlinear normal function —
travels in the service layer's session-open control exchange
(:mod:`repro.net.service`), not on the protocol channels, so protocol
transcripts stay comparable across transports.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Optional

from repro import obs
from repro.core.ompe import OMPEConfig, OMPEFunction
from repro.core.ompe.protocol import run_ompe_receiver, run_ompe_sender
from repro.core.similarity.exact import exact_poly_kernel, snap
from repro.core.similarity.linear import (
    PrivateSimilarityOutcome,
    build_t_squared_polynomial,
)
from repro.core.similarity.metric import MetricParams
from repro.core.similarity.nonlinear import (
    _kernel_params,
    _normal_inner_function,
)
from repro.core.similarity.profile import ModelOrProfile, similarity_profile
from repro.exceptions import SimilarityError, ValidationError
from repro.math.multivariate import MultivariatePolynomial
from repro.net.runner import ProtocolReport
from repro.utils.rng import ReproRandom

#: Factory yielding one fresh channel endpoint per protocol phase.
ChannelFactory = Callable[[], object]


def _clear_report(channel) -> ProtocolReport:
    return ProtocolReport(
        result=None,
        transcript=channel.transcript,
        simulated_network_s=channel.simulated_time,
    )


def run_similarity_alice_linear(
    model_a: ModelOrProfile,
    channel_factory: ChannelFactory,
    params: Optional[MetricParams] = None,
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
) -> Dict[str, ProtocolReport]:
    """Alice's (sender) side of the private linear similarity protocol.

    Returns Alice's per-phase reports; the similarity value belongs to
    Bob and never enters Alice's view.
    """
    params = params or MetricParams()
    config = config or OMPEConfig()
    if not model_a.is_linear():
        raise ValidationError("linear similarity requires a linear model")
    root = ReproRandom(seed)
    alice = similarity_profile(model_a, params, party="alice")

    clear = channel_factory()
    norm_m_b, norm_w_b = clear.receive("alice", "similarity/norms")
    clear_report = _clear_report(clear)
    if norm_w_b == 0:
        raise SimilarityError("Bob's normal vector is degenerate (zero)")
    norm_w_a = alice.normal_norm
    if norm_w_a == 0:
        raise SimilarityError("Alice's normal vector is degenerate (zero)")

    run1 = run_ompe_sender(
        OMPEFunction.from_polynomial(
            _affine_polynomial(list(alice.centroid))
        ),
        channel_factory(),
        config=config,
        seed=root.fork("run1").seed,
        amplify=True,
        offset=False,
        name="alice",
    )
    run2 = run_ompe_sender(
        OMPEFunction.from_polynomial(
            _affine_polynomial(list(alice.normal))
        ),
        channel_factory(),
        config=config,
        seed=root.fork("run2").seed,
        amplify=True,
        offset=True,
        name="alice",
    )

    c1 = alice.centroid_norm + norm_m_b
    c2 = snap(params.l0) ** 4
    c3 = 1 / (norm_w_a * norm_w_b)
    c4 = 1 + snap(params.sin_theta0) ** 2
    polynomial = build_t_squared_polynomial(
        c1, c2, c3, c4,
        1 / run1.amplifier, 1 / run2.amplifier**2, -run2.offset,
    )
    run3 = run_ompe_sender(
        OMPEFunction.from_polynomial(polynomial),
        channel_factory(),
        config=config,
        seed=root.fork("run3").seed,
        amplify=False,
        offset=False,
        name="alice",
    )
    return {
        "clear": clear_report,
        "centroid_ompe": run1.report,
        "normal_ompe": run2.report,
        "area_ompe": run3.report,
    }


def run_similarity_bob_linear(
    model_b: ModelOrProfile,
    channel_factory: ChannelFactory,
    params: Optional[MetricParams] = None,
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
    policy=None,
) -> PrivateSimilarityOutcome:
    """Bob's (receiver) side — he learns the triangle metric ``T``.

    A non-``None`` ``policy`` applies output mitigation before the
    outcome leaves this function, with the mitigation seed derived from
    the protocol seed — the same derivation the in-process evaluator
    uses, so mitigated outcomes are bit-identical across transports.
    """
    params = params or MetricParams()
    config = config or OMPEConfig()
    if not model_b.is_linear():
        raise ValidationError("linear similarity requires a linear model")
    root = ReproRandom(seed)
    bob = similarity_profile(model_b, params, party="bob")

    clear = channel_factory()
    clear.send("bob", "similarity/norms", (bob.centroid_norm, bob.normal_norm))
    clear_report = _clear_report(clear)
    if bob.normal_norm == 0:
        raise SimilarityError("Bob's normal vector is degenerate (zero)")

    run1 = run_ompe_receiver(
        bob.centroid, channel_factory(), config=config,
        seed=root.fork("run1").seed, name="bob",
    )
    run2 = run_ompe_receiver(
        bob.normal, channel_factory(), config=config,
        seed=root.fork("run2").seed, name="bob",
    )
    run3 = run_ompe_receiver(
        (run1.value, run2.value), channel_factory(), config=config,
        seed=root.fork("run3").seed, name="bob",
    )
    return _bob_outcome(
        run3.value, clear_report, run1, run2, run3,
        policy=policy, seed=seed,
    )


def run_similarity_alice_nonlinear(
    model_a: ModelOrProfile,
    peer_sv_count: int,
    channel_factory: ChannelFactory,
    params: Optional[MetricParams] = None,
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
) -> Dict[str, ProtocolReport]:
    """Alice's side of the kernel similarity protocol.

    ``peer_sv_count`` is Bob's support-vector count, needed to shape
    the packed-model normal function; it arrives via the service
    layer's session-open exchange.
    """
    params = params or MetricParams()
    config = config or OMPEConfig()
    if peer_sv_count < 1:
        raise ValidationError(
            f"peer_sv_count must be at least 1, got {peer_sv_count}"
        )
    alice = similarity_profile(model_a, params, party="alice")
    a0, b0, degree = _kernel_params(alice)
    root = ReproRandom(seed)
    m_a = alice.centroid

    clear = channel_factory()
    k_mm_b, k_ww_b = clear.receive("alice", "similarity/kernel-norms")
    clear_report = _clear_report(clear)
    k_ww_a = alice.normal_norm
    if k_ww_a <= 0 or k_ww_b <= 0:
        raise SimilarityError("degenerate feature-space normal")

    run1 = run_ompe_sender(
        OMPEFunction.from_callable(
            arity=alice.dimension,
            total_degree=degree,
            evaluate=lambda y: exact_poly_kernel(m_a, y, a0, b0, degree),
        ),
        channel_factory(),
        config=config,
        seed=root.fork("run1").seed,
        amplify=True,
        offset=False,
        name="alice",
    )
    run2 = run_ompe_sender(
        _normal_inner_function(alice, peer_sv_count),
        channel_factory(),
        config=config,
        seed=root.fork("run2").seed,
        amplify=True,
        offset=True,
        name="alice",
    )

    c1 = alice.centroid_norm + k_mm_b
    c2 = snap(params.l0) ** 4
    c3 = 1 / (k_ww_a * k_ww_b)
    c4 = 1 + snap(params.sin_theta0) ** 2
    polynomial = build_t_squared_polynomial(
        c1, c2, c3, c4,
        1 / run1.amplifier, 1 / run2.amplifier**2, -run2.offset,
    )
    run3 = run_ompe_sender(
        OMPEFunction.from_polynomial(polynomial),
        channel_factory(),
        config=config,
        seed=root.fork("run3").seed,
        amplify=False,
        offset=False,
        name="alice",
    )
    return {
        "clear": clear_report,
        "centroid_ompe": run1.report,
        "normal_ompe": run2.report,
        "area_ompe": run3.report,
    }


def run_similarity_bob_nonlinear(
    model_b: ModelOrProfile,
    channel_factory: ChannelFactory,
    params: Optional[MetricParams] = None,
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
    policy=None,
) -> PrivateSimilarityOutcome:
    """Bob's side of the kernel similarity protocol.

    ``policy`` behaves as in :func:`run_similarity_bob_linear`.
    """
    params = params or MetricParams()
    config = config or OMPEConfig()
    bob = similarity_profile(model_b, params, party="bob")
    _kernel_params(bob)  # refuses a linear profile
    root = ReproRandom(seed)

    clear = channel_factory()
    clear.send(
        "bob", "similarity/kernel-norms", (bob.centroid_norm, bob.normal_norm)
    )
    clear_report = _clear_report(clear)

    run1 = run_ompe_receiver(
        bob.centroid, channel_factory(), config=config,
        seed=root.fork("run1").seed, name="bob",
    )
    run2 = run_ompe_receiver(
        bob.packed, channel_factory(), config=config,
        seed=root.fork("run2").seed, name="bob",
    )
    run3 = run_ompe_receiver(
        (run1.value, run2.value), channel_factory(), config=config,
        seed=root.fork("run3").seed, name="bob",
    )
    return _bob_outcome(
        run3.value, clear_report, run1, run2, run3,
        policy=policy, seed=seed,
    )


def _affine_polynomial(weights):
    return MultivariatePolynomial.affine(weights, Fraction(0))


def _bob_outcome(
    t_squared, clear_report, run1, run2, run3, policy=None, seed=None
) -> PrivateSimilarityOutcome:
    if t_squared < 0:
        raise SimilarityError(
            f"negative T² ({t_squared}) — protocol corrupted"
        )
    metrics = obs.get_metrics()
    if metrics.enabled:
        metrics.counter(
            "repro_similarity_runs_total",
            "Completed private similarity evaluations",
        ).inc(kind="remote")
    outcome = PrivateSimilarityOutcome(
        t=math.sqrt(float(t_squared)),
        t_squared=t_squared,
        reports={
            "clear": clear_report,
            "centroid_ompe": run1.report,
            "normal_ompe": run2.report,
            "area_ompe": run3.report,
        },
    )
    if policy is not None:
        from repro.core.similarity.policy import (
            mitigate_similarity_outcome,
            policy_seed,
        )

        return mitigate_similarity_outcome(
            outcome, policy, seed=policy_seed(seed)
        )
    return outcome
