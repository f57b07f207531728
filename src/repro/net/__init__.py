"""Distributed-systems substrate: parties, channels, transcripts.

Two interchangeable transports implement the channel contract: the
in-memory :class:`Channel` (both parties lock-step in one process, with
a simulated network clock) and :class:`~repro.net.mux.MuxChannel` (one
endpoint per party over a real connection from :mod:`repro.net.wire`,
on either wire protocol).  Protocol code in :mod:`repro.core` is written
against the contract and runs unchanged over either.
"""

from repro.net.channel import Channel, LinkModel, observe_message
from repro.net.faults import (
    CorruptingChannel,
    DelayingChannel,
    DroppingChannel,
    DuplicatingChannel,
    RetryingChannel,
)
from repro.net.message import Message, measure_size
from repro.net.party import Party, connect_parties
from repro.net.runner import ProtocolReport, finish_report
from repro.net.transcript import Transcript, phase_of
from repro.net.wire import (
    MAX_FRAME_BYTES,
    WireConnection,
    accept,
    connect,
    listen,
)

__all__ = [
    "Channel",
    "CorruptingChannel",
    "DelayingChannel",
    "DroppingChannel",
    "DuplicatingChannel",
    "LinkModel",
    "MAX_FRAME_BYTES",
    "Message",
    "measure_size",
    "Party",
    "WireConnection",
    "accept",
    "connect",
    "connect_parties",
    "listen",
    "observe_message",
    "ProtocolReport",
    "RetryingChannel",
    "finish_report",
    "Transcript",
    "phase_of",
]
