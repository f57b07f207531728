"""Paillier encrypted-domain classification baseline (related work [15]).

Rahulamathavan et al. evaluate SVM decision functions homomorphically:
the client encrypts each coordinate of its sample under its own
Paillier key; the trainer computes

    Enc(d(t)) = Π_i Enc(t_i)^{w_i} · Enc(b)

using only public-key operations (the trainer never decrypts); the
client decrypts and takes the sign.  The paper argues this approach
"introduces too much complexity for the computations" — this baseline
exists so ``benchmarks/bench_baseline_paillier.py`` can measure that
claim against the OMPE protocol.

Privacy profile differs from OMPE: the client learns the *exact*
decision value ``d(t)`` (enabling the Fig. 6 reconstruction after
``n + 1`` queries), whereas the OMPE protocol releases only an
amplified value.  The trainer learns nothing either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from repro import obs
from repro.crypto.paillier import (
    PaillierCipher,
    generate_keypair,
)
from repro.exceptions import ValidationError
from repro.ml.svm.model import SVMModel
from repro.net.channel import Channel
from repro.net.runner import ProtocolReport
from repro.utils.rng import ReproRandom


@dataclass(frozen=True)
class PaillierClassificationOutcome:
    """Client-side result of one encrypted-domain classification."""

    label: float
    decision_value: Fraction
    report: ProtocolReport


def classify_paillier(
    model: SVMModel,
    sample: Sequence[float],
    key_bits: int = 512,
    seed: Optional[int] = None,
    precision: int = 10**6,
) -> PaillierClassificationOutcome:
    """Run the Paillier baseline protocol for one sample.

    The client (Bob) generates the keypair, encrypts its sample, and
    sends ciphertexts + public key; the trainer (Alice) computes the
    encrypted decision value homomorphically and returns it.
    """
    if not model.is_linear():
        raise ValidationError(
            "the Paillier baseline supports linear models only "
            "(homomorphic multiplication of two ciphertexts is unavailable)"
        )
    sample = tuple(float(v) for v in sample)
    if len(sample) != model.dimension:
        raise ValidationError(
            f"sample has {len(sample)} coordinates, expected {model.dimension}"
        )
    rng = ReproRandom(seed)
    tracer = obs.get_tracer()
    channel = Channel("bob", "alice")

    # Client: key generation + encryption.
    with tracer.span("paillier.keygen", party="bob", phase="keygen"):
        public, private = generate_keypair(key_bits, rng.fork("keys"))
        cipher = PaillierCipher(public, private, precision=precision, rng=rng.fork("enc"))
    with tracer.span("paillier.encrypt", party="bob", phase="encrypt"):
        encrypted_sample = tuple(cipher.encrypt(value) for value in sample)
    channel.send("bob", "paillier/query", (public.n, encrypted_sample))

    # Trainer: homomorphic evaluation (public-key side only).
    modulus, ciphertexts = channel.receive("alice", "paillier/query")
    trainer_cipher = PaillierCipher(public, None, precision=precision, rng=rng.fork("alice"))
    weights = model.weight_vector()
    with tracer.span("paillier.evaluate", party="alice", phase="evaluate"):
        accumulator = trainer_cipher.encrypt(float(model.bias))
        # Enc(b)·Π Enc(t_i)^{w_i} = Enc(b + Σ w_i t_i); the plain-weight
        # product adds one fixed-point scale factor, so the bias must be
        # pre-scaled to match.
        accumulator = trainer_cipher.multiply_plain(accumulator, 1)
        for weight, ciphertext in zip(weights, ciphertexts):
            term = trainer_cipher.multiply_plain(ciphertext, float(weight))
            accumulator = trainer_cipher.add(accumulator, term)
    channel.send("alice", "paillier/result", accumulator)

    # Client: decrypt and classify.
    encrypted_result = channel.receive("bob", "paillier/result")
    with tracer.span("paillier.decrypt", party="bob", phase="decrypt"):
        decision_value = cipher.decrypt(encrypted_result, scale_power=2)
    channel.assert_drained()
    report = ProtocolReport(
        result=decision_value,
        transcript=channel.transcript,
        simulated_network_s=channel.simulated_time,
    )
    return PaillierClassificationOutcome(
        label=1.0 if decision_value >= 0 else -1.0,
        decision_value=decision_value,
        report=report,
    )
