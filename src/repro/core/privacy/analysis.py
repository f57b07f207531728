"""Executable privacy objectives (paper Section VI-A).

The paper states two privacy levels; this module turns both into
checkable properties over protocol transcripts:

* **Level 1** — during the computation, neither party's private values
  appear in the other's view.  :func:`extract_view` pulls a party's
  received messages from a transcript; :func:`scan_view_for_values`
  searches every scalar in that view for forbidden values (the client's
  raw coordinates, the trainer's raw coefficients).  The OMPE design
  makes these searches come up empty: covers are polynomial evaluations
  at nonzero nodes, never the constant terms themselves.
* **Level 2** — after the computation, even colluding participants
  learn nothing beyond the output.  :func:`cover_disguise_samples`
  extracts the cover and disguise vectors from a transcript so a K-S
  test can confirm they are statistically indistinguishable (our
  disguises are *identically distributed* with covers by construction),
  and the attack classes in :mod:`repro.core.privacy.attacks` cover the
  collusion side.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Set, Tuple

from repro.exceptions import ValidationError
from repro.math.scaled import ScaledVector
from repro.math.statistics import KSResult, ks_2samp
from repro.net.message import Message
from repro.net.transcript import Transcript


def extract_view(transcript: Transcript, party: str) -> List[Message]:
    """A party's protocol view: every message it received."""
    return transcript.received_by(party)


def _iter_scalars(payload) -> Iterable:
    if isinstance(payload, (int, float, Fraction)) and not isinstance(payload, bool):
        yield payload
    elif isinstance(payload, (tuple, list)):
        for item in payload:
            yield from _iter_scalars(item)
    elif isinstance(payload, dict):
        for value in payload.values():
            yield from _iter_scalars(value)
    elif type(payload) is ScaledVector:
        # A points vector's scalars are its exact coordinates, not the
        # integers it is written in.
        yield from payload
    elif hasattr(payload, "__dataclass_fields__"):
        for name in payload.__dataclass_fields__:
            yield from _iter_scalars(getattr(payload, name))
    # bytes payloads (OT ciphertexts) carry no readable scalars.


def scan_view_for_values(
    view: Sequence[Message], forbidden: Sequence
) -> List[Tuple[str, object]]:
    """Find forbidden scalar values anywhere in a party's view.

    Returns ``(msg_type, value)`` hits; an empty list certifies the
    Level-1 objective for those values.  Comparison is exact, which is
    the right notion here: the protocol manipulates exact rationals, so
    a leak would reproduce the value bit-for-bit.
    """
    forbidden_set: Set = set(forbidden)
    if not forbidden_set:
        raise ValidationError("no forbidden values given")
    hits: List[Tuple[str, object]] = []
    for message in view:
        for scalar in _iter_scalars(message.payload):
            if scalar in forbidden_set:
                hits.append((message.msg_type, scalar))
    return hits


def cover_disguise_samples(
    transcript: Transcript,
    cover_positions: Sequence[int],
) -> Tuple[List[float], List[float]]:
    """Split the OMPE point-phase vectors into cover and disguise pools.

    ``cover_positions`` is receiver-side ground truth (never available
    to the sender); the returned flattened scalar pools feed a K-S
    indistinguishability test.
    """
    point_messages = transcript.of_type("ompe/points")
    if not point_messages:
        raise ValidationError("transcript contains no ompe/points message")
    pairs = point_messages[0].payload
    cover_set = set(cover_positions)
    covers: List[float] = []
    disguises: List[float] = []
    for index, (node, vector) in enumerate(pairs):
        target = covers if index in cover_set else disguises
        target.extend(float(v) for v in vector)
    if not covers or not disguises:
        raise ValidationError("transcript has no covers or no disguises")
    return covers, disguises


def indistinguishability_test(
    transcript: Transcript, cover_positions: Sequence[int]
) -> KSResult:
    """K-S test of cover vs disguise marginals (large p = indistinguishable)."""
    covers, disguises = cover_disguise_samples(transcript, cover_positions)
    return ks_2samp(covers, disguises)


def client_view_is_randomized(
    randomized_values: Sequence, true_values: Sequence
) -> bool:
    """Check the Level-2 client-side property: values differ from truth.

    With fresh positive amplifiers, the client's received value should
    equal the true decision value essentially never (probability zero
    over the amplifier draw); signs must agree.
    """
    if len(randomized_values) != len(true_values):
        raise ValidationError("value sequences must be paired")
    for randomized, truth in zip(randomized_values, true_values):
        sign_match = (randomized >= 0) == (truth >= 0)
        if not sign_match:
            return False
        if truth != 0 and randomized == truth:
            return False
    return True
