"""Role-split similarity drivers for the TCP transport.

:func:`~repro.core.similarity.linear.evaluate_similarity_private` runs
both trainers lock-step in one process.  These drivers split that flow
into Alice's side (:func:`run_similarity_alice`, the OMPE sender of
both runs) and Bob's side (:func:`run_similarity_bob`, the receiver,
who learns ``T``), each running against its own endpoint of a real
connection.  Like the in-process driver, each serves linear and
polynomial-kernel models alike: the party's profile supplies every
per-kind choice, and the shared steps come from
:mod:`~repro.core.similarity.linear`.

Each protocol phase — the clear norm exchange, the OMPE #1/#2 run and
the OMPE #3 run — gets a *fresh channel* from ``channel_factory`` (for
the TCP transport, a fresh :class:`~repro.net.mux.MuxChannel` over the
same session), so per-phase reports carry per-phase transcripts
exactly like the in-process protocol.  Seeds derive identically on both sides
(``ReproRandom(seed).fork("run1"/"run3").seed``), making the
split runs bit-identical to the in-process reference: same masked
values, same ``T²``, same per-phase byte counts.

Each driver takes its party's model or that model's
:class:`~repro.core.similarity.profile.SimilarityProfile`; a server
hosting a model derives the profile once and passes it to every
session.

What crosses the wire before these drivers start — the model kind —
travels in the service layer's session-open control exchange
(:mod:`repro.net.service`), not on the protocol channels, so protocol
transcripts stay comparable across transports.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.ompe import OMPEConfig
from repro.core.ompe.precompute import HiddenInput
from repro.core.ompe.protocol import run_ompe_receiver, run_ompe_sender
from repro.core.similarity.linear import (
    PrivateSimilarityOutcome,
    area_function,
    area_input,
    check_norms,
    check_normal,
    clear_report,
    phase_reports,
    release_outcome,
)
from repro.core.similarity.metric import MetricParams
from repro.core.similarity.policy import OutputPolicy
from repro.core.similarity.profile import ModelOrProfile, similarity_profile
from repro.net.runner import ProtocolReport
from repro.utils.rng import ReproRandom

#: Factory yielding one fresh channel endpoint per protocol phase.
ChannelFactory = Callable[[], object]


def run_similarity_alice(
    model_a: ModelOrProfile,
    channel_factory: ChannelFactory,
    params: Optional[MetricParams] = None,
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
) -> Dict[str, ProtocolReport]:
    """Alice's (sender) side of the private similarity protocol.

    Returns Alice's per-phase reports; the similarity value belongs to
    Bob and never enters Alice's view.  Bob's clear norms meet
    :func:`~repro.core.similarity.linear.check_norms` before any OMPE
    run, so a mistyped or negative norm ends the session with
    :class:`~repro.exceptions.SimilarityError`.
    """
    params = params or MetricParams()
    config = config or OMPEConfig()
    root = ReproRandom(seed)
    alice = similarity_profile(model_a, params, party="alice")

    def send(function, label, amplify, offset):
        return run_ompe_sender(
            function,
            channel_factory(),
            config=config,
            seed=root.fork(label).seed,
            amplify=amplify,
            offset=offset,
            name="alice",
        )

    clear = channel_factory()
    norms = clear.receive("alice", alice.norms_tag)
    clear_phase = clear_report(clear)
    centroid_norm_b, normal_norm_b = check_norms(norms)
    check_normal("Alice", alice.normal_norm)

    dots = send(alice.dots_functions(), "run1", amplify=True, offset=(False, True))
    area = send(
        area_function(params, alice, centroid_norm_b, normal_norm_b, dots).function(),
        "run3", amplify=False, offset=False,
    )
    return phase_reports(clear_phase, dots, area)


def run_similarity_bob(
    model_b: ModelOrProfile,
    channel_factory: ChannelFactory,
    params: Optional[MetricParams] = None,
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
    policy: Optional[OutputPolicy] = None,
    dots_hidden: Optional[HiddenInput] = None,
) -> PrivateSimilarityOutcome:
    """Bob's (receiver) side — he learns the triangle metric ``T``.

    Bob refuses his own degenerate normal right after sending his
    norms, as Alice does on receiving them.  A non-``None`` ``policy``
    applies output mitigation before the outcome leaves this function,
    with the mitigation seed derived from the protocol seed — the same
    derivation the in-process evaluator uses, so mitigated outcomes are
    bit-identical across transports.  ``dots_hidden`` is his OMPE #1/#2
    input hidden before the call, as for
    :func:`~repro.core.similarity.linear.evaluate_similarity_private`.
    """
    params = params or MetricParams()
    config = config or OMPEConfig()
    root = ReproRandom(seed)
    bob = similarity_profile(model_b, params, party="bob")

    def receive(receiver_input, label, function_count, hidden=None):
        return run_ompe_receiver(
            receiver_input, channel_factory(), config=config,
            seed=root.fork(label).seed, name="bob", function_count=function_count,
            hidden=hidden,
        )

    clear = channel_factory()
    clear.send("bob", bob.norms_tag, (bob.centroid_norm, bob.normal_norm))
    clear_phase = clear_report(clear)
    check_normal("Bob", bob.normal_norm)

    dots = receive(bob.dots_input, "run1", 2, dots_hidden)
    area = receive(area_input(*dots.values), "run3", 1)
    return release_outcome(
        "remote", area.value, phase_reports(clear_phase, dots, area), policy, seed,
    )
