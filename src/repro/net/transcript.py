"""Protocol transcripts: the recorded view of each party.

A :class:`Transcript` accumulates every message crossing a channel.
Beyond cost accounting, transcripts are the object of the paper's
privacy analysis (Section VI-A): the *view* of a party is exactly the
set of messages it received plus its own randomness, and
:mod:`repro.core.privacy.analysis` inspects these views to check the
Level-1 objectives (e.g. the trainer's view never contains the raw
sample, the client's view never contains raw model coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.net.message import Message


def phase_of(msg_type: str) -> str:
    """Canonical phase label for a message type.

    Message types are ``<protocol>/<phase>`` (``"ompe/points"``,
    ``"similarity/norms"``); the phase is the last path segment, so
    every protocol — and the metrics registry, the transcripts, and the
    cost model — accounts bytes under one phase vocabulary:
    ``request``, ``params``, ``points``, ``ot-setups``, ``ot-choices``,
    ``ot-transfers``, ...
    """
    return msg_type.rsplit("/", 1)[-1]


@dataclass
class Transcript:
    """An append-only log of protocol messages."""

    messages: List[Message] = field(default_factory=list)

    def record(self, message: Message) -> None:
        """Append one message."""
        self.messages.append(message)

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self) -> Iterator[Message]:
        return iter(self.messages)

    # -- views -----------------------------------------------------------

    def received_by(self, party: str) -> List[Message]:
        """Messages delivered to ``party`` — that party's protocol view."""
        return [m for m in self.messages if m.recipient == party]

    def of_type(self, msg_type: str) -> List[Message]:
        """Messages with the given protocol-step label."""
        return [m for m in self.messages if m.msg_type == msg_type]

    # -- accounting ---------------------------------------------------------

    def total_bytes(self, predicate: Optional[Callable[[Message], bool]] = None) -> int:
        """Total wire bytes, optionally filtered."""
        return sum(
            m.size_bytes for m in self.messages if predicate is None or predicate(m)
        )

    def bytes_by_phase(self) -> Dict[str, int]:
        """Wire bytes grouped by canonical protocol phase.

        This is the byte-accounting definition shared with the live
        metrics (``repro_phase_bytes_total``) and the cost-model drift
        detector (:mod:`repro.obs.drift`): one phase label per message
        type via :func:`phase_of`, bytes summed per label.
        """
        totals: Dict[str, int] = {}
        for message in self.messages:
            phase = phase_of(message.msg_type)
            totals[phase] = totals.get(phase, 0) + message.size_bytes
        return totals

    def bytes_by_direction(self) -> Dict[str, int]:
        """Bytes grouped by ``sender->recipient`` direction."""
        totals: Dict[str, int] = {}
        for message in self.messages:
            key = f"{message.sender}->{message.recipient}"
            totals[key] = totals.get(key, 0) + message.size_bytes
        return totals

    def round_count(self) -> int:
        """Number of direction changes + 1 — communication rounds."""
        if not self.messages:
            return 0
        rounds = 1
        for previous, current in zip(self.messages, self.messages[1:]):
            if (previous.sender, previous.recipient) != (
                current.sender,
                current.recipient,
            ):
                rounds += 1
        return rounds

    def summary(self) -> Dict[str, object]:
        """Compact cost summary for reports."""
        return {
            "messages": len(self.messages),
            "rounds": self.round_count(),
            "total_bytes": self.total_bytes(),
            "by_direction": self.bytes_by_direction(),
            "by_phase": self.bytes_by_phase(),
        }
