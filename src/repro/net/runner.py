"""Protocol execution helper.

Two-party protocols in this library are written as plain sequential
code (both roles in one process, communicating strictly through the
channel).  :class:`ProtocolReport` bundles everything an experiment
needs afterwards: the result, the transcript, and the simulated
network time.  Wall time per phase lives in the trace spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.net.channel import Channel
from repro.net.transcript import Transcript


@dataclass
class ProtocolReport:
    """Outcome of one protocol execution."""

    result: Any
    transcript: Transcript
    simulated_network_s: float = 0.0

    @property
    def total_bytes(self) -> int:
        """Total wire bytes exchanged."""
        return self.transcript.total_bytes()

    @property
    def rounds(self) -> int:
        """Communication rounds."""
        return self.transcript.round_count()

    def summary(self) -> Dict[str, object]:
        """Flat dictionary for tables and benchmark reports."""
        return {
            "total_bytes": self.total_bytes,
            "rounds": self.rounds,
            "messages": len(self.transcript),
            "simulated_network_s": self.simulated_network_s,
        }


def channel_report(channel: Channel, result: Any = None) -> ProtocolReport:
    """The report of ``channel``'s conversation so far."""
    return ProtocolReport(
        result=result,
        transcript=channel.transcript,
        simulated_network_s=channel.simulated_time,
    )


def finish_report(result: Any, channel: Channel) -> ProtocolReport:
    """Build a report and assert the channel drained cleanly."""
    channel.assert_drained()
    return channel_report(channel, result)
