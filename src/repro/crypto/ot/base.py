"""Message types and interfaces shared by the OT constructions.

All OT variants here follow the same four-step shape (paper Section
III-B), expressed as explicit message dataclasses so the protocols can
run either as direct function calls or over the simulated network of
:mod:`repro.net`:

1. sender  → receiver : :class:`OTSetup` (public parameters)
2. receiver → sender  : :class:`OTChoice` (blinded selection)
3. sender  → receiver : :class:`KOfNTransfer` (payloads sealed once,
   plus one :class:`OTTransfer` of padded keys per session)
4. receiver unpads exactly the chosen key(s) and opens their payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.crypto.hashing import TAG_BYTES
from repro.exceptions import ValidationError
from repro.utils.serialization import register_payload_type

#: Length of the per-payload keys the Naor–Pinkas sessions carry.
KEY_BYTES = 16


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
    """One 1-of-n session's answer: an ephemeral point and padded keys.

    ``ephemeral_point`` is ``g^r`` for the transfer's single exponent
    ``r``; ``pads[i]`` is the i-th 16-byte key XORed with a pad only the
    legitimate chooser of slot ``i`` can derive.  The wire tag is
    ``ot/transfer2``: the retired per-slot shape (``ot/transfer``, one
    point per slot) no longer decodes, so a peer still on that schedule
    fails at its first transfer instead of mis-keying.
    """

    session: bytes
    ephemeral_point: int
    pads: Tuple[bytes, ...]

    @property
    def message_count(self) -> int:
        return len(self.pads)

    def size_bytes(self, element_bytes: int) -> int:
        """Approximate wire size, for communication accounting."""
        return len(self.session) + element_bytes + sum(len(p) for p in self.pads)


@register_payload_type("ot/kofn")
@dataclass(frozen=True)
class KOfNTransfer:
    """The sender's whole answer to a k-out-of-n OT.

    ``sealed[i]`` is payload ``i`` wrapped once under its own fresh
    16-byte key; ``sessions`` holds the ``k`` parallel 1-of-n transfers
    that move those keys.  Decoding runs ``__post_init__``, so a hostile
    record is refused by the type itself.
    """

    sealed: Tuple[bytes, ...]
    sessions: Tuple[OTTransfer, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.sealed, tuple) or not all(
            isinstance(blob, bytes) and len(blob) >= TAG_BYTES for blob in self.sealed
        ):
            raise ValidationError(
                f"sealed payloads must be a tuple of byte strings of at least "
                f"{TAG_BYTES} bytes"
            )
        if not isinstance(self.sessions, tuple) or not all(
            isinstance(session, OTTransfer) for session in self.sessions
        ):
            raise ValidationError("sessions must be a tuple of ot/transfer2 records")
        for session in self.sessions:
            if not isinstance(session.pads, tuple) or not all(
                isinstance(pad, bytes) and len(pad) == KEY_BYTES for pad in session.pads
            ):
                raise ValidationError(f"padded slots must be {KEY_BYTES}-byte strings")

    def size_bytes(self, element_bytes: int) -> int:
        """Approximate wire size, for communication accounting."""
        return sum(len(blob) for blob in self.sealed) + sum(
            session.size_bytes(element_bytes) for session in self.sessions
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


def validate_keys(keys: Sequence[bytes]) -> List[bytes]:
    """Validate the keys of a 1-of-n transfer (each ``KEY_BYTES`` long)."""
    items = validate_messages(keys)
    for index, key in enumerate(items):
        if len(key) != KEY_BYTES:
            raise ValidationError(
                f"keys[{index}] must be {KEY_BYTES} bytes, got {len(key)}"
            )
    return items


def validate_index(index: int, count: int) -> int:
    """Validate a receiver index against the message count."""
    if not isinstance(index, int) or isinstance(index, bool):
        raise ValidationError(f"index must be an int, got {type(index).__name__}")
    if not 0 <= index < count:
        raise ValidationError(f"index {index} out of range for {count} messages")
    return index
