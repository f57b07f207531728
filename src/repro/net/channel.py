"""In-memory bidirectional channels with cost simulation.

A :class:`Channel` connects exactly two named parties.  Sends append to
the peer's FIFO inbox, record into the shared transcript, and advance a
simulated clock according to a :class:`LinkModel` (fixed latency plus
bandwidth-proportional transfer time).  The simulated clock gives the
evaluation harness network-cost curves that are independent of Python's
constant-factor slowness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional, Tuple

from repro import obs
from repro.exceptions import ProtocolError, ValidationError
from repro.net.message import Message, measure_size
from repro.net.transcript import Transcript, phase_of


@dataclass(frozen=True)
class LinkModel:
    """A simple latency/bandwidth link model.

    ``latency_s`` is added per message; payloads take
    ``size / bandwidth_bytes_per_s`` on the wire.  The defaults model a
    LAN-grade 1 Gbit/s link with 0.5 ms latency.
    """

    latency_s: float = 0.0005
    bandwidth_bytes_per_s: float = 125_000_000.0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValidationError("latency must be non-negative")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValidationError("bandwidth must be positive")

    def transfer_time(self, size_bytes: int) -> float:
        """Simulated seconds for a message of the given size."""
        return self.latency_s + size_bytes / self.bandwidth_bytes_per_s


def observe_message(
    message: Message, last_direction: Optional[Tuple[str, str]]
) -> Optional[Tuple[str, str]]:
    """Record one sent protocol message into the global metrics/tracer.

    Shared by the in-memory :class:`Channel` and the wire
    :class:`~repro.net.mux.MuxChannel` so both transports produce
    identical metric streams for identical protocol runs.  Returns the
    updated last-send direction (for round-trip counting); when metrics
    are disabled the direction state is left untouched, mirroring the
    original inline behaviour.
    """
    metrics = obs.get_metrics()
    if metrics.enabled:
        phase = phase_of(message.msg_type)
        size = message.size_bytes
        metrics.counter(
            "repro_messages_total", "Protocol messages sent"
        ).inc(phase=phase)
        metrics.counter(
            "repro_bytes_sent_total", "Wire bytes sent, by party"
        ).inc(size, party=message.sender)
        metrics.counter(
            "repro_bytes_received_total", "Wire bytes received, by party"
        ).inc(size, party=message.recipient)
        metrics.counter(
            "repro_phase_bytes_total", "Wire bytes, by protocol phase"
        ).inc(size, phase=phase)
        metrics.histogram(
            "repro_message_bytes", "Wire size of individual messages"
        ).observe(size)
        direction = (message.sender, message.recipient)
        if direction != last_direction:
            metrics.counter(
                "repro_round_trips_total",
                "Communication rounds (direction changes)",
            ).inc()
            last_direction = direction
    tracer = obs.get_tracer()
    if tracer.enabled:
        tracer.current().add("bytes_on_wire", message.size_bytes)
    return last_direction


class Channel:
    """A reliable, ordered, bidirectional channel between two parties."""

    def __init__(
        self,
        first: str,
        second: str,
        link: Optional[LinkModel] = None,
        transcript: Optional[Transcript] = None,
    ) -> None:
        if first == second:
            raise ValidationError("a channel needs two distinct parties")
        self.parties: Tuple[str, str] = (first, second)
        self.link = link or LinkModel()
        self.transcript = transcript if transcript is not None else Transcript()
        self._inboxes: Dict[str, Deque[Message]] = {
            first: deque(),
            second: deque(),
        }
        self.simulated_time: float = 0.0
        self._last_direction: Optional[Tuple[str, str]] = None

    def _peer(self, party: str) -> str:
        first, second = self.parties
        if party == first:
            return second
        if party == second:
            return first
        raise ProtocolError(f"{party!r} is not an endpoint of this channel")

    def send(self, sender: str, msg_type: str, payload: Any) -> Message:
        """Send a message from ``sender`` to its peer."""
        recipient = self._peer(sender)
        message = Message(
            sender=sender,
            recipient=recipient,
            msg_type=msg_type,
            payload=payload,
            size_bytes=measure_size(payload),
        )
        self._inboxes[recipient].append(message)
        self.transcript.record(message)
        self.simulated_time += self.link.transfer_time(message.size_bytes)
        self._last_direction = observe_message(message, self._last_direction)
        return message

    def receive(self, recipient: str, expected_type: Optional[str] = None) -> Any:
        """Pop the next message for ``recipient``; returns the payload.

        When ``expected_type`` is given, a mismatched label aborts the
        protocol — the parties are out of sync.
        """
        self._peer(recipient)  # validates endpoint membership
        inbox = self._inboxes[recipient]
        if not inbox:
            raise ProtocolError(f"{recipient} has no pending messages")
        message = inbox.popleft()
        if expected_type is not None and message.msg_type != expected_type:
            raise ProtocolError(
                f"{recipient} expected {expected_type!r} but got {message.msg_type!r}"
            )
        return message.payload

    def pending(self, recipient: str) -> int:
        """Number of undelivered messages waiting for ``recipient``."""
        self._peer(recipient)
        return len(self._inboxes[recipient])

    def assert_drained(self) -> None:
        """Raise unless both inboxes are empty (protocol completed cleanly)."""
        for party, inbox in self._inboxes.items():
            if inbox:
                raise ProtocolError(
                    f"{party} still has {len(inbox)} undelivered messages"
                )
