"""Configuration shared by the OMPE sender and receiver.

The paper's parameters (Sections III-C and IV):

* ``q`` — the security degree: the receiver hides each coordinate in a
  random degree-``q`` polynomial and the sender masks with ``h(u)`` of
  degree ``deg(P) * q``, so the interpolation needs
  ``m = deg(P) * q + 1`` covers.
* ``cover_expansion`` (the paper's ``k``) — the receiver sends
  ``M = m * cover_expansion`` point/vector pairs, of which only ``m``
  are real covers; the rest are disguises.

Every run is exact: inputs, hiders, masks and evaluations are ``int``
or :class:`fractions.Fraction`, so labels and ``T²`` equal the
plaintext results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from repro.exceptions import ValidationError
from repro.math.groups import SchnorrGroup, fast_group
from repro.utils.serialization import register_payload_type


#: Fields that must be plain ``int`` (``bool`` does not count).
_INT_FIELDS = ("security_degree", "cover_expansion", "coefficient_bound", "node_bound")


@register_payload_type("ompe/config")
@dataclass(frozen=True)
class OMPEConfig:
    """Parameters of one OMPE execution (shared by both parties)."""

    security_degree: int = 2
    cover_expansion: int = 3
    coefficient_bound: int = 8
    node_bound: int = 4
    group: Optional[SchnorrGroup] = None

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(
                    f"{name} must be an int, got {type(value).__name__}"
                )
        if self.group is not None and not isinstance(self.group, SchnorrGroup):
            raise ValidationError(
                f"group must be a SchnorrGroup or None, got {type(self.group).__name__}"
            )
        if self.security_degree < 1:
            raise ValidationError(
                f"security_degree must be at least 1, got {self.security_degree}"
            )
        if self.cover_expansion < 2:
            raise ValidationError(
                f"cover_expansion must be at least 2 (covers must hide among "
                f"disguises), got {self.cover_expansion}"
            )
        if self.coefficient_bound < 1 or self.node_bound < 1:
            raise ValidationError("bounds must be at least 1")

    def resolved_group(self) -> SchnorrGroup:
        """The OT group (a shared 256-bit group unless overridden)."""
        return self.group if self.group is not None else fast_group()

    def cover_count(self, function_degree: int) -> int:
        """``m = deg(P) * q + 1`` interpolation covers."""
        if function_degree < 1:
            raise ValidationError(
                f"function degree must be at least 1, got {function_degree}"
            )
        return function_degree * self.security_degree + 1

    def pair_count(self, function_degree: int) -> int:
        """``M = m * k`` total transmitted pairs."""
        return self.cover_count(function_degree) * self.cover_expansion


#: The amplifier's decimal exponent is uniform on ``[-2, 2]``.
AMPLIFIER_DECADES = 2


def draw_amplifier(rng) -> Fraction:
    """Draw the positive amplifier ``r_a`` (paper Section IV-A.1).

    The paper only requires ``r_a > 0``; we draw it *log-uniformly*:
    a mantissa in [1, 10) times ``10`` to a uniform exponent in
    ``[-AMPLIFIER_DECADES, AMPLIFIER_DECADES]``.
    A heavy-tailed scale is what makes the Fig. 5 collusion attack
    "keep rambling": a narrow uniform amplifier would let least-squares
    average the noise away, while a four-decade spread keeps pooled
    regressions dominated by a handful of samples.
    """
    exponent = rng.randint(-AMPLIFIER_DECADES, AMPLIFIER_DECADES)
    return rng.positive_fraction(1, 10) * Fraction(10) ** exponent
