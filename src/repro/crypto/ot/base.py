"""Message types and interfaces shared by the OT constructions.

All OT variants here follow the same four-step shape (paper Section
III-B), expressed as explicit message dataclasses so the protocols can
run either as direct function calls or over the simulated network of
:mod:`repro.net`:

1. sender  → receiver : :class:`OTSetup` (public parameters)
2. receiver → sender  : :class:`OTChoice` (blinded selection)
3. sender  → receiver : :class:`OTTransfer` (all wrapped payloads)
4. receiver unwraps exactly the chosen payload(s) locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.exceptions import ValidationError
from repro.utils.serialization import register_payload_type


@register_payload_type("ot/setup")
@dataclass(frozen=True)
class OTSetup:
    """Sender's public parameters for one OT session.

    ``session`` namespaces the key derivation so concurrent sessions
    cannot be cross-fed; ``blinding_points`` carries the construction's
    public group elements (one per OT variant's needs).
    """

    session: bytes
    blinding_points: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.session:
            raise ValidationError("session identifier must be non-empty")


@register_payload_type("ot/choice")
@dataclass(frozen=True)
class OTChoice:
    """Receiver's blinded choice: one group element per parallel slot."""

    session: bytes
    blinded_keys: Tuple[int, ...]


@register_payload_type("ot/transfer2")
@dataclass(frozen=True)
class OTTransfer:
    """Sender's payload: one ephemeral point and the wrapped messages.

    ``ephemeral_point`` is ``g^r`` for the transfer's single exponent
    ``r``; ``wrapped[i]`` is the i-th message encrypted under the key
    only the legitimate chooser of slot ``i`` can derive.  The wire tag
    is ``ot/transfer2``: the retired per-slot shape (``ot/transfer``,
    one point per slot) no longer decodes, so a peer still on that
    schedule fails at its first transfer instead of mis-keying.
    """

    session: bytes
    ephemeral_point: int
    wrapped: Tuple[bytes, ...]

    @property
    def message_count(self) -> int:
        return len(self.wrapped)

    def size_bytes(self, element_bytes: int) -> int:
        """Approximate wire size, for communication accounting."""
        return (
            len(self.session)
            + element_bytes
            + sum(len(w) for w in self.wrapped)
        )


def validate_messages(messages: Sequence[bytes]) -> List[bytes]:
    """Validate the sender's message list (non-empty, all bytes)."""
    items = list(messages)
    if not items:
        raise ValidationError("OT requires at least one message")
    for index, message in enumerate(items):
        if not isinstance(message, (bytes, bytearray)):
            raise ValidationError(
                f"messages[{index}] must be bytes, got {type(message).__name__}"
            )
    return [bytes(m) for m in items]


def validate_index(index: int, count: int) -> int:
    """Validate a receiver index against the message count."""
    if not isinstance(index, int) or isinstance(index, bool):
        raise ValidationError(f"index must be an int, got {type(index).__name__}")
    if not 0 <= index < count:
        raise ValidationError(f"index {index} out of range for {count} messages")
    return index
