"""Privacy-preserving similarity evaluation (paper Sections V-B and V-C).

Alice and Bob are both trainers with linear models, or both with models
over one polynomial kernel.  Bob learns the triangle metric ``T`` and
nothing else about Alice's model; Alice learns only the two inseparable
norms ``|m_B|²`` and ``|w_B|²`` (``K(m_B, m_B)`` and ``⟨n_B, n_B⟩`` for a
kernel model).

Protocol (three OMPE evaluations in two runs, plus one clear
exchange), in its linear form; the kernel form runs the same dot
products over the kernel's monomial map (``τ``, paper Section IV-B),
with Bob's inputs ``τ(m_B)`` and ``τ(n_B) = Σ_j c_j τ(x_j)`` and
Alice's weights scaled by the kernel's multinomial weights.  Each
party's :class:`~repro.core.similarity.profile.SimilarityProfile`
makes that choice, so one driver runs both kinds:

1. Both parties locally compute their bounded-hyperplane boundary
   points (Eq. 5), centroid ``m``, and normal ``w``.
2. Bob → Alice (clear): ``|m_B|²`` and ``|w_B|²`` — vector-module
   squares from which no coordinate can be recovered.
3. OMPE #1 and #2, one run of two functions over Bob's input
   ``m_B‖w_B`` (:mod:`repro.core.ompe.sender`): sender function
   ``m_A · y`` with positive amplifier ``r_am``, and ``w_A · y`` with
   amplifier ``r_aw`` *and* offset ``r_b`` (so an orthogonal-normals
   zero is not recognizable).  Bob obtains
   ``x₁ = r_am (m_A · m_B)`` and ``x₂ = r_aw (w_A · w_B) + r_b``.
   His input is his model's alone, so a caller scoring one model of
   Bob's against many of Alice's may hide it once
   (:func:`hide_dots_input`) and pass it to every pair; each pair still
   runs a fresh OT and Alice draws fresh masks.
4. OMPE #3 — Alice assembles the two-variate polynomial of Eq. (7)
   with constants

       c₁ = |m_A|² + |m_B|²,  c₂ = L₀⁴,
       c₃ = (|w_A|² |w_B|²)⁻¹,  c₄ = 1 + sin²θ₀,
       d₁ = r_am⁻¹,  d₂ = r_aw⁻²,  d₃ = −r_b

   (note ``d₂ = r_aw⁻²``: the paper's Eq. 7 prints ``r_aw⁻¹``, which
   does not cancel the squared amplifier — see DESIGN.md errata).  It
   has degree 2 in each of ``x₁`` and ``x₂``, so she sends it as a
   degree-1 form over its monomial map (Section IV-B's τ over
   ``(x₁, x₂)``): the weights are its coefficients on the 8 monomials
   ``x₁^a x₂^b``, ``1 ≤ a + b``, ``a, b ≤ 2`` (:data:`AREA_BASIS`),
   the constant its constant term.  Bob evaluates it *unamplified* at
   ``τ(x₁, x₂)`` (:func:`area_input`), obtaining ``T²``.  Like the
   first run it is a degree-1 OMPE: ``m = q + 1`` covers.

The steps are written once, as a party pair: :class:`SimilarityAlice`
checks Bob's clear norms and sends both runs, :class:`SimilarityBob`
sends the norms, receives both runs and releases ``T``.  Each run's
seed fork, flags and function count are keyword arguments of the OMPE
entry points.  :func:`evaluate_similarity_private` drives both objects
lock-step in one process; :func:`run_similarity_alice` and
:func:`run_similarity_bob` each drive one over a connection, one fresh
channel per phase, so all three report the same transcripts, masked
values and ``T²`` for the same seed.  A pair whose public parameters
differ is refused before any message (:func:`check_pair`): in process
here, over TCP by the service from Bob's ``session/open``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, Optional, Tuple

from repro import obs
from repro.core.ompe import OMPEConfig, execute_ompe
from repro.core.ompe.precompute import HiddenInput, hide_input
from repro.core.ompe.protocol import run_ompe_receiver, run_ompe_sender
from repro.core.similarity.exact import snap
from repro.core.similarity.metric import MetricParams
from repro.core.similarity.policy import (
    OutputPolicy,
    mitigate_similarity_outcome,
    policy_seed,
)
from repro.core.similarity.profile import (
    DotForm,
    ModelOrProfile,
    SimilarityProfile,
    similarity_profile,
)
from repro.exceptions import SimilarityError, ValidationError
from repro.math.multinomial import mixed_degree_basis, monomial_value
from repro.math.polynomials import Number
from repro.net.channel import Channel
from repro.net.runner import ProtocolReport, channel_report
from repro.utils.rng import ReproRandom

#: OMPE #3's monomial map: the 8 monomials ``x₁^a x₂^b`` with
#: ``1 ≤ a + b`` and ``a, b ≤ 2``, over which Eq. (7) is a degree-1 form.
AREA_BASIS: Tuple[Tuple[int, int], ...] = tuple(
    exponents for exponents in mixed_degree_basis(2, 4) if max(exponents) <= 2
)

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


def check_normal(party: str, normal_norm: Number) -> None:
    """Refuse a degenerate normal: ``‖w‖²`` or ``⟨n, n⟩`` not positive."""
    if normal_norm <= 0:
        raise SimilarityError(
            f"{party}'s normal is degenerate (squared norm {normal_norm})"
        )


def check_norms(norms) -> Tuple[Number, Number]:
    """Bob's clear norms as Alice receives them: ``(centroid, normal)``.

    Refuses anything but a pair of ``int``/``Fraction`` values (never
    ``bool``) with the centroid norm ``≥ 0`` and the normal norm
    ``> 0``, with :class:`~repro.exceptions.SimilarityError`, before
    either enters a protocol run.
    """
    if not isinstance(norms, (tuple, list)) or len(norms) != 2:
        raise SimilarityError(
            f"Bob's norms are a {type(norms).__name__}, not a (centroid, normal) pair"
        )
    for value in norms:
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise SimilarityError(
                f"Bob's norm is a {type(value).__name__}, not an int or Fraction"
            )
    centroid_norm, normal_norm = norms
    if centroid_norm < 0:
        raise SimilarityError(f"Bob's centroid norm {centroid_norm} is negative")
    check_normal("Bob", normal_norm)
    return centroid_norm, normal_norm


def area_function(
    params: MetricParams,
    alice: SimilarityProfile,
    centroid_norm_b: Number,
    normal_norm_b: Number,
    dots,
) -> DotForm:
    """Alice's OMPE #3 function: Eq. (7) with this pair's constants.

    ``centroid_norm_b`` and ``normal_norm_b`` are Bob's clear norms;
    ``dots`` is Alice's outcome of the OMPE #1/#2 run, whose two
    amplifiers and offset the polynomial cancels.  Eq. (7),

        T²(x₁, x₂) = ¼ [(c₁ − 2 d₁ x₁)² + c₂] [c₄ − c₃ d₂ (d₃ + x₂)²],

    is ``¼ L(x₁) R(x₂)`` with ``L = (c₁² + c₂, −4 c₁ d₁, 4 d₁²)`` and
    ``R = (c₄ − c₃ d₂ d₃², −2 c₃ d₂ d₃, −c₃ d₂)`` by ascending power,
    so the form weighs :func:`area_input`'s coordinate ``x₁^a x₂^b`` by
    ``¼ L[a] R[b]`` and its constant is ``¼ L[0] R[0]``.
    """
    r_am, r_aw = dots.amplifiers
    c1 = alice.centroid_norm + centroid_norm_b
    c2 = snap(params.l0) ** 4
    c3 = 1 / (alice.normal_norm * normal_norm_b)
    c4 = 1 + snap(params.sin_theta0) ** 2
    d1 = 1 / r_am
    d2 = 1 / r_aw**2
    d3 = -dots.offsets[1]
    left = (c1 * c1 + c2, -4 * c1 * d1, 4 * d1 * d1)
    right = (c4 - c3 * d2 * d3 * d3, -2 * c3 * d2 * d3, -c3 * d2)
    quarter = Fraction(1, 4)
    return DotForm.of(
        [quarter * left[a] * right[b] for a, b in AREA_BASIS],
        quarter * left[0] * right[0],
    )


def hide_dots_input(
    bob: SimilarityProfile, config: OMPEConfig, seed: Optional[int]
) -> HiddenInput:
    """Bob's OMPE #1/#2 input hidden once, on ``ReproRandom(seed)``.

    Every pair of Bob's model may send it as its OMPE #1/#2 points
    message: the run is degree 1 whoever Alice is, and the input is
    Bob's alone.  OMPE #3's input depends on the pair, so it is hidden
    in each run.
    """
    return hide_input(ReproRandom(seed), config, bob.dots_input, 1)


def area_input(x1: Number, x2: Number) -> tuple:
    """Bob's OMPE #3 input: ``τ(x₁, x₂)`` over :data:`AREA_BASIS`."""
    point = (Fraction(x1), Fraction(x2))
    return tuple(monomial_value(point, exponents) for exponents in AREA_BASIS)


def check_pair(alice: SimilarityProfile, kernel, dimension, params) -> None:
    """Refuse Bob's public pair parameters unless they are Alice's.

    ``kernel`` is his snapped ``(a0, b0, degree)`` triple (``None`` when
    linear), ``dimension`` his input dimension and ``params`` his
    :class:`~repro.core.similarity.metric.MetricParams`, as his profile
    holds them and ``session/open`` carries them.  A linear side paired
    with a kernel side raises :class:`~repro.exceptions.ValidationError`,
    any other difference :class:`~repro.exceptions.SimilarityError`.
    """
    if (alice.kernel is None) != (kernel is None):
        raise ValidationError(
            "similarity requires both models to be linear or both kernel, "
            "got one of each"
        )
    if alice.kernel != kernel:
        raise SimilarityError("both models must share the same kernel configuration")
    if alice.dimension != dimension:
        raise SimilarityError("models must share input dimensionality")
    if alice.params != params:
        raise SimilarityError(
            f"both parties must share the metric parameters, not {alice.params!r} "
            f"and {params!r}"
        )


def phase_reports(clear, dots, area) -> Dict[str, ProtocolReport]:
    """One report per protocol phase, keyed as every driver reports them."""
    return {"clear": clear, "dots_ompe": dots.report, "area_ompe": area.report}


class _SimilarityParty:
    """One side's model (or profile) under ``params``, and its runs' seeds."""

    party = ""

    def __init__(
        self,
        model_or_profile: ModelOrProfile,
        params: Optional[MetricParams] = None,
        config: Optional[OMPEConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.params = params or MetricParams()
        self.config = config or OMPEConfig()
        self.profile = similarity_profile(
            model_or_profile, self.params, party=self.party
        )
        self.seed = seed
        # Each side forks the runs' seeds alike, so every driver's
        # messages match for the same seed.
        root = ReproRandom(seed)
        self._dots_seed, self._area_seed = (
            root.fork(run).seed for run in ("run1", "run3")
        )


class SimilarityAlice(_SimilarityParty):
    """Alice's side: she checks Bob's norms and is the OMPE sender.

    :meth:`dots_run` and :meth:`area_run` are keyword arguments of
    :func:`~repro.core.ompe.protocol.run_ompe_sender` (and of
    :func:`~repro.core.ompe.protocol.execute_ompe`).
    """

    party = "alice"

    def receive_norms(self, channel) -> ProtocolReport:
        """Step 2: Bob's clear norms, refused before any run if mistyped,
        negative or degenerate (or if her own normal is degenerate)."""
        norms = channel.receive("alice", self.profile.norms_tag)
        self._bob_norms = check_norms(norms)
        check_normal("Alice", self.profile.normal_norm)
        return channel_report(channel)

    def dots_run(self) -> Dict[str, Any]:
        """OMPE #1 and #2: ``x₁ = r_am (m_A · m_B)``, ``x₂ = r_aw (w_A · w_B) + r_b``."""
        return {
            "function": self.profile.dots_functions(),
            "seed": self._dots_seed,
            "amplify": True,
            "offset": (False, True),
        }

    def area_run(self, dots) -> Dict[str, Any]:
        """OMPE #3: Eq. (7), unamplified, from her outcome ``dots`` of
        the first run."""
        area = area_function(self.params, self.profile, *self._bob_norms, dots)
        return {
            "function": area.function(),
            "seed": self._area_seed,
            "amplify": False,
            "offset": False,
        }


class SimilarityBob(_SimilarityParty):
    """Bob's side: he sends his norms, is the OMPE receiver and learns ``T``.

    :meth:`dots_run` and :meth:`area_run` are keyword arguments of
    :func:`~repro.core.ompe.protocol.run_ompe_receiver`.  ``dots_hidden``
    is his OMPE #1/#2 input hidden before the pair
    (:func:`hide_dots_input`); :meth:`release` applies ``policy``.
    """

    party = "bob"

    def __init__(
        self,
        model_or_profile: ModelOrProfile,
        params: Optional[MetricParams] = None,
        config: Optional[OMPEConfig] = None,
        seed: Optional[int] = None,
        policy: Optional[OutputPolicy] = None,
        dots_hidden: Optional[HiddenInput] = None,
    ) -> None:
        super().__init__(model_or_profile, params, config, seed)
        self.policy = policy
        self.dots_hidden = dots_hidden

    def send_norms(self, channel) -> ProtocolReport:
        """Step 2: his two inseparable norms in the clear.  He refuses
        his own degenerate normal right after, as Alice does on receipt,
        so neither side waits on a run the other never starts."""
        profile = self.profile
        channel.send(
            "bob", profile.norms_tag, (profile.centroid_norm, profile.normal_norm)
        )
        check_normal("Bob", profile.normal_norm)
        return channel_report(channel)

    def dots_run(self) -> Dict[str, Any]:
        """His input ``m_B‖w_B`` to Alice's two functions."""
        return {
            "input_vector": self.profile.dots_input,
            "seed": self._dots_seed,
            "function_count": 2,
            "hidden": self.dots_hidden,
        }

    def area_run(self, dots) -> Dict[str, Any]:
        """His input ``τ(x₁, x₂)`` to Eq. (7), from his outcome ``dots``."""
        return {
            "input_vector": area_input(*dots.values),
            "seed": self._area_seed,
            "function_count": 1,
            "hidden": None,
        }

    def release(self, kind: str, clear: ProtocolReport, dots, area):
        """Refuse a negative ``T²``, count the run under ``kind`` in
        ``repro_similarity_runs_total`` and apply the policy, whose
        mitigation seed derives from the protocol seed on every transport."""
        t_squared = area.value
        if t_squared < 0:
            raise SimilarityError(f"negative T² ({t_squared}) — protocol corrupted")
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_similarity_runs_total",
                "Completed private similarity evaluations",
            ).inc(kind=kind)
        outcome = PrivateSimilarityOutcome(
            t=math.sqrt(float(t_squared)),
            t_squared=t_squared,
            reports=phase_reports(clear, dots, area),
        )
        if self.policy is None:
            return outcome
        return mitigate_similarity_outcome(
            outcome, self.policy, seed=policy_seed(self.seed)
        )


def evaluate_similarity_private(
    model_a: ModelOrProfile,
    model_b: ModelOrProfile,
    params: Optional[MetricParams] = None,
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
    policy: Optional[OutputPolicy] = None,
    dots_hidden: Optional[HiddenInput] = None,
) -> PrivateSimilarityOutcome:
    """Run the full private similarity protocol, both parties in process.

    Each side is a linear or polynomial-kernel model, or its
    :class:`~repro.core.similarity.profile.SimilarityProfile` built
    under ``params``; the pair must pass :func:`check_pair`.  ``policy``
    (an :class:`~repro.core.similarity.policy.OutputPolicy`) switches
    the return type to a
    :class:`~repro.core.similarity.policy.MitigatedSimilarityOutcome`
    that withholds whatever the policy forbids.  ``dots_hidden`` is
    Bob's OMPE #1/#2 input hidden before the call
    (:func:`hide_dots_input`); ``None`` hides it in the run.
    """
    kind = "linear" if model_a.is_linear() else "nonlinear"
    tracer = obs.get_tracer()
    with tracer.span(
        f"similarity.{kind}", phase="similarity", dimension=model_a.dimension
    ) as span:
        # Step 1 — local geometry, snapped to exact rationals.
        alice = SimilarityAlice(model_a, params, config, seed)
        bob = SimilarityBob(model_b, params, config, seed, policy, dots_hidden)
        profile = bob.profile
        check_pair(alice.profile, profile.kernel, profile.dimension, profile.params)

        def run(phase, send, receive):
            with tracer.span(f"similarity.{phase}_ompe", phase=phase):
                return execute_ompe(
                    **send,
                    input_vector=receive["input_vector"],
                    config=alice.config,
                    sender_name="alice",
                    receiver_name="bob",
                    receiver_hidden=receive["hidden"],
                )

        # Step 2 — Bob sends the two inseparable norms in the clear.
        with tracer.span("similarity.clear", party="bob", phase="norms"):
            channel = Channel("bob", "alice")
            bob.send_norms(channel)
            clear = alice.receive_norms(channel)
        # Step 3 — OMPE #1 and #2 in one run; step 4 — OMPE #3.
        dots = run("dots", alice.dots_run(), bob.dots_run())
        area = run("area", alice.area_run(dots), bob.area_run(dots))
        outcome = bob.release(kind, clear, dots, area)
        span.set(total_bytes=outcome.total_bytes, t=math.sqrt(float(area.value)))
    return outcome


#: Factory yielding one fresh channel endpoint per protocol phase.
ChannelFactory = Callable[[], object]


def run_similarity_alice(
    model_a: ModelOrProfile,
    channel_factory: ChannelFactory,
    params: Optional[MetricParams] = None,
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
) -> Dict[str, ProtocolReport]:
    """Alice's side over ``channel_factory``; returns her phase reports
    (``T`` is Bob's and never enters her view)."""
    alice = SimilarityAlice(model_a, params, config, seed)
    clear = alice.receive_norms(channel_factory())

    def send(run):
        return run_ompe_sender(
            channel=channel_factory(), config=alice.config, name="alice", **run
        )

    dots = send(alice.dots_run())
    return phase_reports(clear, dots, send(alice.area_run(dots)))


def run_similarity_bob(
    model_b: ModelOrProfile,
    channel_factory: ChannelFactory,
    params: Optional[MetricParams] = None,
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
    policy: Optional[OutputPolicy] = None,
    dots_hidden: Optional[HiddenInput] = None,
) -> PrivateSimilarityOutcome:
    """Bob's side over ``channel_factory``; ``policy`` and ``dots_hidden``
    as for :func:`evaluate_similarity_private`."""
    bob = SimilarityBob(model_b, params, config, seed, policy, dots_hidden)
    clear = bob.send_norms(channel_factory())

    def receive(run):
        return run_ompe_receiver(
            channel=channel_factory(), config=bob.config, name="bob", **run
        )

    dots = receive(bob.dots_run())
    return bob.release("remote", clear, dots, receive(bob.area_run(dots)))
