"""Analytic communication-cost model, validated against transcripts.

Every message of the OMPE protocol has a size that is a closed-form
function of the configuration: the points message carries ``M`` nodes
plus ``M·n`` coordinates, the OT phase carries the ``M`` evaluations
sealed once plus one ``bits``-bit group element and ``m`` rows of ``M``
16-byte padded keys, and so on.
:func:`predict_classification_bytes` computes that closed form;
``tests/evaluation/test_costmodel.py`` checks it against measured
transcripts (within a tolerance covering the variable-length integer
encodings).  Operators can budget bandwidth without running protocols.
:func:`predict_public_key_ops` gives the public-key side of the same
budget: the group exponentiations of one m-of-M transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.ompe.config import OMPEConfig
from repro.crypto.hashing import TAG_BYTES
from repro.crypto.ot.base import KEY_BYTES
from repro.exceptions import ValidationError

#: Canonical phase label (see :func:`repro.net.transcript.phase_of`)
#: for each breakdown field — the shared vocabulary between predicted
#: and measured per-phase byte accounting.
PHASE_FIELDS = {
    "request": "request_bytes",
    "params": "params_bytes",
    "points": "points_bytes",
    "ot-setups": "ot_setup_bytes",
    "ot-choices": "ot_choice_bytes",
    "ot-transfers": "ot_transfer_bytes",
}


@dataclass(frozen=True)
class CostBreakdown:
    """Wire bytes per protocol phase (predicted or measured)."""

    request_bytes: int
    params_bytes: int
    points_bytes: int
    ot_setup_bytes: int
    ot_choice_bytes: int
    ot_transfer_bytes: int

    @property
    def total_bytes(self) -> int:
        return (
            self.request_bytes
            + self.params_bytes
            + self.points_bytes
            + self.ot_setup_bytes
            + self.ot_choice_bytes
            + self.ot_transfer_bytes
        )

    def by_phase(self) -> Dict[str, int]:
        """Mapping of canonical phase label to bytes."""
        return {phase: getattr(self, field) for phase, field in PHASE_FIELDS.items()}


def breakdown_from_transcript(transcript) -> CostBreakdown:
    """Measured per-phase bytes of one protocol run, in the model's shape.

    Uses :meth:`~repro.net.transcript.Transcript.bytes_by_phase` so the
    validation path, the live metrics, and the drift detector all share
    one byte-accounting definition.
    """
    by_phase = transcript.bytes_by_phase()
    return CostBreakdown(
        **{
            field: by_phase.get(phase, 0)
            for phase, field in PHASE_FIELDS.items()
        }
    )


#: Average wire size of one exact-rational scalar (a degree-q hiding
#: polynomial evaluation).  Calibrated against measured transcripts
#: over the default coefficient/node grids.
def _scalar_bytes(security_degree: int) -> int:
    return 18 + round(3.5 * security_degree)


#: Average wire size of one encoded evaluation ``h(v) + r_a P(G(v))``:
#: the rational's bit length compounds with the total composed degree
#: ``q * deg(P)``.
def _evaluation_bytes(security_degree: int, function_degree: int) -> int:
    return 24 + 7 * security_degree * function_degree


#: Wire size of one big-int group element (tag + length + sign framing).
def _element_bytes(group_bytes: int) -> int:
    return 6 + group_bytes


def predict_classification_bytes(
    config: OMPEConfig,
    dimension: int,
    function_degree: int = 1,
) -> CostBreakdown:
    """Predict the wire cost of one private classification.

    Accurate to ~25% with default bounds (the rational encodings are
    variable-length); the *scaling* in ``M``, ``n``, and the group size
    is exact.
    """
    if dimension < 1:
        raise ValidationError(f"dimension must be at least 1, got {dimension}")
    if function_degree < 1:
        raise ValidationError(
            f"function_degree must be at least 1, got {function_degree}"
        )
    m = config.cover_count(function_degree)
    M = config.pair_count(function_degree)
    q = config.security_degree
    group_bytes = (config.resolved_group().p.bit_length() + 7) // 8
    element = _element_bytes(group_bytes)
    scalar = _scalar_bytes(q)
    evaluation = _evaluation_bytes(q, function_degree)

    # Container/record framing of the wire codec: every container
    # (tuple/list/dict/bytes/str) costs a 5-byte tag + count header, and
    # every registered dataclass costs 5 bytes plus its type name.
    frame = 5
    setup_record = frame + len("ot/setup") + (frame + 16) + frame
    choice_record = frame + len("ot/choice") + (frame + 16) + frame
    transfer_record = frame + len("ot/kofn2") + frame + frame

    # Points: M pairs, each (node scalar, n-coordinate vector).
    points = frame + M * (2 * frame + (1 + dimension) * scalar)
    # OT setup: one record carrying one element ``w``; choice: one
    # record carrying m blinded elements.
    ot_setup = setup_record + element
    ot_choice = choice_record + m * element
    # OT transfer: M sealed blobs once (framed evaluation ciphertext +
    # MAC tag), one ephemeral point, then m rows of M framed 16-byte
    # padded keys.
    ot_transfer = (
        transfer_record
        + M * (frame + evaluation + TAG_BYTES)
        + element
        + m * (frame + M * (frame + KEY_BYTES))
    )

    return CostBreakdown(
        request_bytes=7,
        params_bytes=frame + 3 * 7,
        points_bytes=points,
        ot_setup_bytes=ot_setup,
        ot_choice_bytes=ot_choice,
        ot_transfer_bytes=ot_transfer,
    )


def predict_public_key_ops(cover_count: int) -> Tuple[int, int]:
    """``(sender, receiver)`` group exponentiations of one transfer.

    One Naor–Pinkas exchange moves ``m = cover_count`` of the ``M``
    slots: the sender pays one setup point, one ephemeral and one key
    per chosen slot plus the ephemeral's shared point (``m + 3``); the
    receiver pays two per blinded choice and one per retrieved key
    (``3m``).  ``M`` does not enter: the pads hash.
    """
    if cover_count < 1:
        raise ValidationError(f"cover_count must be at least 1, got {cover_count}")
    return cover_count + 3, 3 * cover_count


def predict_similarity_bytes(
    config: OMPEConfig,
    dimension: int,
    kernel_degree: Optional[int] = None,
    homogeneous: bool = True,
) -> int:
    """Lower-bound the wire cost of one private similarity run.

    Two degree-1 OMPE runs, plus the clear norm exchange.  OMPE #1 and
    #2 share one run over both dot products' inputs, each slot sealing
    two evaluations.  A linear pair's dot products run over
    ``dimension`` inputs each; a polynomial-kernel pair's
    (``kernel_degree`` set) over the kernel's monomial map, whose arity
    is the monomial count — plus, for OMPE #2 of a non-``homogeneous``
    kernel (``b0 ≠ 0``), the constant monomial.  The area run (OMPE #3)
    of either kind runs over Eq. (7)'s monomial map of ``(x₁, x₂)``,
    8 inputs.  This is a *lower bound*: the area run's cover
    coordinates ``τ_k(x₁, x₂)`` are products of long exact rationals,
    so they exceed the calibrated scalar size.  A degree-``p`` kernel
    pair's ``x₁`` and ``x₂`` are degree-``p`` in the snapped
    coordinates, so its ``m`` area covers are priced at ``p`` scalars a
    coordinate.
    """
    from repro.core.classification.transform import MonomialTransform
    from repro.core.similarity.linear import AREA_BASIS

    area = len(AREA_BASIS)
    centroid = normal = dimension
    cover_growth = 0
    if kernel_degree is not None:
        centroid = MonomialTransform(dimension, kernel_degree, homogeneous).arity
        normal = centroid + (0 if homogeneous else 1)
        # The area run's first scalar per coordinate is priced below.
        cover_growth = config.cover_count(1) * area * (kernel_degree - 1)
    scalar = _scalar_bytes(config.security_degree)
    # The OMPE #1/#2 run's second evaluation in each of its M slots.
    second_values = config.pair_count(1) * _evaluation_bytes(config.security_degree, 1)
    runs = sum(
        predict_classification_bytes(config, arity, 1).total_bytes
        for arity in (centroid + normal, area)
    )
    clear_exchange = 5 + 2 * scalar
    return runs + second_values + cover_growth * scalar + clear_exchange
