"""Message types and validators of the k-out-of-n oblivious transfer.

The OT follows the four-step shape of paper Section III-B, expressed as
explicit message dataclasses so the protocol can run either as direct
function calls or over the simulated network of :mod:`repro.net`:

1. sender  → receiver : one :class:`OTSetup` (a session id and ``w``)
2. receiver → sender  : one :class:`OTChoice` (``k`` blinded keys)
3. sender  → receiver : one :class:`KOfNTransfer` (payloads sealed
   once, one ephemeral point, ``k`` rows of padded keys)
4. receiver unpads exactly the chosen keys and opens their payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.crypto.hashing import TAG_BYTES
from repro.exceptions import ValidationError
from repro.utils.serialization import register_payload_type

#: Length of the per-payload keys the padded rows carry.
KEY_BYTES = 16


@register_payload_type("ot/setup")
@dataclass(frozen=True)
class OTSetup:
    """Sender's public parameters for one k-of-n exchange.

    ``session`` namespaces the key derivation so concurrent exchanges
    cannot be cross-fed; ``blinding_points`` carries ``(w,)``.
    """

    session: bytes
    blinding_points: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.session, bytes) or not self.session:
            raise ValidationError("session identifier must be non-empty bytes")


@register_payload_type("ot/choice")
@dataclass(frozen=True)
class OTChoice:
    """Receiver's blinded choice: one group element per requested slot."""

    session: bytes
    blinded_keys: Tuple[int, ...]


@register_payload_type("ot/kofn2")
@dataclass(frozen=True)
class KOfNTransfer:
    """The sender's whole answer to a k-out-of-n OT.

    ``sealed[i]`` is payload ``i`` wrapped once under its own fresh
    16-byte key ``κ_i``; ``ephemeral_point`` is ``R = g^r`` for the
    exchange's one ``r``; ``pads[j][i]`` is ``κ_i`` padded so only the
    receiver whose ``j``-th choice is ``i`` can unpad it.  The wire tag
    is ``ot/kofn2``: the retired one-session-per-choice shapes
    (``ot/kofn``, ``ot/transfer2``) no longer decode, so a peer still
    on them fails at its first transfer instead of mis-keying.
    Decoding runs ``__post_init__``, so a hostile record is refused by
    the type itself.
    """

    sealed: Tuple[bytes, ...]
    ephemeral_point: int
    pads: Tuple[Tuple[bytes, ...], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.sealed, tuple) or not all(
            isinstance(blob, bytes) and len(blob) >= TAG_BYTES for blob in self.sealed
        ):
            raise ValidationError(
                f"sealed payloads must be a tuple of byte strings of at least "
                f"{TAG_BYTES} bytes"
            )
        if not isinstance(self.pads, tuple) or not all(
            isinstance(row, tuple)
            and all(isinstance(pad, bytes) and len(pad) == KEY_BYTES for pad in row)
            for row in self.pads
        ):
            raise ValidationError(
                f"pads must be a tuple of rows of {KEY_BYTES}-byte strings"
            )

    def size_bytes(self, element_bytes: int) -> int:
        """Approximate wire size, for communication accounting."""
        return (
            sum(len(blob) for blob in self.sealed)
            + element_bytes
            + KEY_BYTES * sum(len(row) for row in self.pads)
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
