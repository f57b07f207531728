"""Sealed k-of-n OT: tampering, hostile records, shape checks, the probe.

The k-of-n sender seals each payload once under its own 16-byte key and
its 1-of-n sessions carry only padded keys.  The pads have no tag of
their own, so every tamper must surface when the chosen sealed payload
fails its MAC, as a typed :class:`ObliviousTransferError`.  The oracle
for the construction itself is ``tests/crypto/test_ot_schedule.py``.
"""

from dataclasses import replace

import pytest

from repro.crypto.ot import KOfNReceiver, KOfNSender
from repro.crypto.ot.base import KOfNTransfer, OTTransfer
from repro.exceptions import ObliviousTransferError, ValidationError
from repro.utils.rng import ReproRandom
from repro.utils.serialization import decode_payload, encode_payload

INDICES = [1, 4, 6]
MESSAGES = [f"evaluation-{i}".encode() for i in range(8)]


@pytest.fixture
def exchange(group):
    """A 3-of-8 exchange up to the transfer: ``(receiver, transfer)``."""
    sender = KOfNSender(group, ReproRandom(21))
    receiver = KOfNReceiver(group, ReproRandom(22))
    choices = receiver.choose(sender.setup(len(INDICES)), INDICES, len(MESSAGES))
    return receiver, sender.transfer(MESSAGES, choices)


def flip(blob: bytes) -> bytes:
    return bytes([blob[0] ^ 1]) + blob[1:]


def with_pads(transfer, session_index, pads):
    sessions = list(transfer.sessions)
    sessions[session_index] = replace(sessions[session_index], pads=tuple(pads))
    return replace(transfer, sessions=tuple(sessions))


class TestRoundTrip:
    def test_survives_the_codec(self, exchange):
        receiver, transfer = exchange
        decoded = decode_payload(encode_payload(transfer))
        assert decoded == transfer
        assert receiver.retrieve(decoded) == [MESSAGES[i] for i in INDICES]

    def test_size_counts_sealed_payloads_once(self, exchange):
        _, transfer = exchange
        sealed = sum(len(blob) for blob in transfer.sealed)
        sessions = sum(session.size_bytes(32) for session in transfer.sessions)
        assert transfer.size_bytes(32) == sealed + sessions
        assert sessions == len(INDICES) * (16 + 32 + 16 * len(MESSAGES))


class TestTampering:
    def test_flipped_sealed_bit(self, exchange):
        receiver, transfer = exchange
        sealed = list(transfer.sealed)
        sealed[INDICES[0]] = flip(sealed[INDICES[0]])
        with pytest.raises(ObliviousTransferError, match="failed to authenticate"):
            receiver.retrieve(replace(transfer, sealed=tuple(sealed)))

    def test_flipped_pad_bit(self, exchange):
        receiver, transfer = exchange
        pads = list(transfer.sessions[1].pads)
        pads[INDICES[1]] = flip(pads[INDICES[1]])
        with pytest.raises(ObliviousTransferError, match="failed to authenticate"):
            receiver.retrieve(with_pads(transfer, 1, pads))

    def test_swapped_sealed_blobs(self, exchange):
        receiver, transfer = exchange
        sealed = list(transfer.sealed)
        sealed[INDICES[0]], sealed[0] = sealed[0], sealed[INDICES[0]]
        with pytest.raises(ObliviousTransferError, match="failed to authenticate"):
            receiver.retrieve(replace(transfer, sealed=tuple(sealed)))

    def test_swapped_pads(self, exchange):
        receiver, transfer = exchange
        pads = list(transfer.sessions[2].pads)
        pads[INDICES[2]], pads[0] = pads[0], pads[INDICES[2]]
        with pytest.raises(ObliviousTransferError, match="failed to authenticate"):
            receiver.retrieve(with_pads(transfer, 2, pads))

    def test_sessions_swapped(self, exchange):
        receiver, transfer = exchange
        sessions = transfer.sessions
        swapped = replace(transfer, sessions=(sessions[1], sessions[0], sessions[2]))
        with pytest.raises(ObliviousTransferError, match="different session"):
            receiver.retrieve(swapped)


class TestShape:
    def test_bare_session_list_refused(self, exchange):
        """The pre-sealing shape: one ``ot/transfer2`` per session."""
        receiver, transfer = exchange
        with pytest.raises(ObliviousTransferError, match="ot/kofn"):
            receiver.retrieve(list(transfer.sessions))

    def test_session_count_mismatch(self, exchange):
        receiver, transfer = exchange
        short = replace(transfer, sessions=transfer.sessions[:2])
        with pytest.raises(ObliviousTransferError, match="2 transfers for 3 sessions"):
            receiver.retrieve(short)

    def test_sealed_count_mismatch(self, exchange):
        receiver, transfer = exchange
        short = replace(transfer, sealed=transfer.sealed[:-1])
        with pytest.raises(ObliviousTransferError, match="seals 7 payloads, expected 8"):
            receiver.retrieve(short)

    def test_session_slot_count_mismatch(self, exchange):
        receiver, transfer = exchange
        short = with_pads(transfer, 0, transfer.sessions[0].pads[:-1])
        with pytest.raises(ObliviousTransferError, match="7 slots, expected 8"):
            receiver.retrieve(short)

    def test_retrieve_before_choose(self, group, exchange):
        _, transfer = exchange
        with pytest.raises(ObliviousTransferError, match="before choose"):
            KOfNReceiver(group, ReproRandom(1)).retrieve(transfer)


def _hostile(transfer, field, value):
    """``transfer`` with one field replaced, bypassing validation."""
    hostile = object.__new__(KOfNTransfer)
    for name in ("sealed", "sessions"):
        object.__setattr__(hostile, name, getattr(transfer, name))
    object.__setattr__(hostile, field, value)
    return hostile


def _hostile_pads(transfer, pads):
    session = object.__new__(OTTransfer)
    for name in ("session", "ephemeral_point"):
        object.__setattr__(session, name, getattr(transfer.sessions[0], name))
    object.__setattr__(session, "pads", pads)
    return _hostile(transfer, "sessions", (session,) + transfer.sessions[1:])


HOSTILE = {
    "sealed-not-bytes": lambda t: _hostile(t, "sealed", ("text",) + t.sealed[1:]),
    "sealed-list": lambda t: _hostile(t, "sealed", list(t.sealed)),
    "sealed-shorter-than-tag": lambda t: _hostile(t, "sealed", (b"x",) + t.sealed[1:]),
    "session-not-transfer": lambda t: _hostile(t, "sessions", (b"x",) + t.sessions[1:]),
    "sessions-list": lambda t: _hostile(t, "sessions", list(t.sessions)),
    "pad-15-bytes": lambda t: _hostile_pads(t, (b"\x00" * 15,) + t.sessions[0].pads[1:]),
    "pad-not-bytes": lambda t: _hostile_pads(t, (7,) + t.sessions[0].pads[1:]),
    "pads-list": lambda t: _hostile_pads(t, list(t.sessions[0].pads)),
}


class TestHostileRecords:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_constructor_refuses(self, exchange, case):
        _, transfer = exchange
        hostile = HOSTILE[case](transfer)
        values = {"sealed": hostile.sealed, "sessions": hostile.sessions}
        with pytest.raises(ValidationError):
            KOfNTransfer(**values)

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_decoder_refuses(self, exchange, case):
        _, transfer = exchange
        with pytest.raises(ValidationError):
            decode_payload(encode_payload(HOSTILE[case](transfer)))


class TestProbe:
    def test_attempt_all_opens_only_chosen(self, exchange):
        receiver, transfer = exchange
        opened = receiver.attempt_all(transfer)
        assert opened == [
            MESSAGES[i] if i in INDICES else None for i in range(len(MESSAGES))
        ]
