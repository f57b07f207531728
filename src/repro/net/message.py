"""Protocol messages and wire-size accounting.

Every value exchanged by the protocols travels as a :class:`Message`
through a :class:`~repro.net.channel.Channel`.  Messages carry their
wire size so the harness can report communication costs (the
distributed-systems dimension of the paper's evaluation) without a real
network.  The size is not an estimate: :func:`measure_size` computes
the exact length of the message codec's canonical encoding
(:func:`repro.utils.serialization.encoded_payload_size`), so the
simulated transport and the TCP transport (:mod:`repro.net.wire`)
account every message identically, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ValidationError
from repro.utils.serialization import encoded_payload_size


def measure_size(payload: Any) -> int:
    """Exact serialized size of a payload in bytes.

    Handles the protocol's actual vocabulary: ``None``, booleans, bytes,
    scalars (int / float / Fraction — integers count their true byte
    length, group elements are big), strings, tuples/lists/dicts of
    payloads, and registered protocol dataclasses.  Equal to
    ``len(encode_payload(payload))`` by construction — the regression
    suite pins the equality across the vocabulary.
    """
    return encoded_payload_size(payload)


@dataclass(frozen=True)
class Message:
    """One directed protocol message.

    Attributes
    ----------
    sender, recipient:
        Party names.
    msg_type:
        Short protocol-step label (e.g. ``"ompe/points"``).
    payload:
        The value itself (kept as a Python object; sizes are estimated).
    size_bytes:
        Estimated wire size.
    session_id:
        Wire session the message travelled on (protocol v2
        multiplexing); ``None`` on unmultiplexed transports.  Excluded
        from equality so v1, v2, and in-memory transcripts of the same
        protocol run compare equal message for message.
    """

    sender: str
    recipient: str
    msg_type: str
    payload: Any
    size_bytes: int = field(default=-1)
    session_id: Any = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.msg_type:
            raise ValidationError("msg_type must be non-empty")
        if self.size_bytes < 0:
            object.__setattr__(self, "size_bytes", measure_size(self.payload))
