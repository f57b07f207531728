"""Sealed k-of-n OT: tampering, hostile records, shape checks, the probe.

The k-of-n sender seals each payload once under its own 16-byte key;
its ``k`` pad rows carry only padded keys.  The pads have no tag of
their own, so every tamper must surface when the chosen sealed payload
fails its MAC, as a typed :class:`ObliviousTransferError`.  The oracle
for the construction itself is ``tests/crypto/test_ot_schedule.py``.
"""

from dataclasses import replace

import pytest

from repro.crypto.ot import KOfNReceiver, KOfNSender
from repro.crypto.ot.base import KOfNTransfer
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
    choice = receiver.choose(sender.setup(len(INDICES)), INDICES, len(MESSAGES))
    return receiver, sender.transfer(MESSAGES, choice)


def flip(blob: bytes) -> bytes:
    return bytes([blob[0] ^ 1]) + blob[1:]


def with_pads(transfer, row_index, pads):
    rows = list(transfer.pads)
    rows[row_index] = tuple(pads)
    return replace(transfer, pads=tuple(rows))


class TestRoundTrip:
    def test_survives_the_codec(self, exchange):
        receiver, transfer = exchange
        decoded = decode_payload(encode_payload(transfer))
        assert decoded == transfer
        assert receiver.retrieve(decoded) == [MESSAGES[i] for i in INDICES]

    def test_size_counts_sealed_payloads_once(self, exchange):
        _, transfer = exchange
        sealed = sum(len(blob) for blob in transfer.sealed)
        assert transfer.size_bytes(32) == sealed + 32 + len(INDICES) * 16 * len(MESSAGES)


class TestTampering:
    def test_flipped_sealed_bit(self, exchange):
        receiver, transfer = exchange
        sealed = list(transfer.sealed)
        sealed[INDICES[0]] = flip(sealed[INDICES[0]])
        with pytest.raises(ObliviousTransferError, match="failed to authenticate"):
            receiver.retrieve(replace(transfer, sealed=tuple(sealed)))

    def test_flipped_pad_bit(self, exchange):
        receiver, transfer = exchange
        pads = list(transfer.pads[1])
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
        pads = list(transfer.pads[2])
        pads[INDICES[2]], pads[0] = pads[0], pads[INDICES[2]]
        with pytest.raises(ObliviousTransferError, match="failed to authenticate"):
            receiver.retrieve(with_pads(transfer, 2, pads))

    def test_sessions_swapped(self, exchange):
        """The row index is inside every pad's hash: swapped rows open
        nothing even though both rows' keys are the receiver's."""
        receiver, transfer = exchange
        rows = transfer.pads
        swapped = replace(transfer, pads=(rows[1], rows[0], rows[2]))
        with pytest.raises(ObliviousTransferError, match="failed to authenticate"):
            receiver.retrieve(swapped)

    def test_foreign_ephemeral_point(self, group, exchange):
        """Another member ``R`` keys every row wrongly: the MAC fails."""
        receiver, transfer = exchange
        foreign = replace(transfer, ephemeral_point=group.exp(group.g, 12345))
        with pytest.raises(ObliviousTransferError, match="failed to authenticate"):
            receiver.retrieve(foreign)


class TestShape:
    def test_bare_session_list_refused(self, exchange):
        """A bare list of rows, outside an ``ot/kofn2`` record."""
        receiver, transfer = exchange
        with pytest.raises(ObliviousTransferError, match="ot/kofn2"):
            receiver.retrieve(list(transfer.pads))

    def test_session_count_mismatch(self, exchange):
        receiver, transfer = exchange
        short = replace(transfer, pads=transfer.pads[:2])
        with pytest.raises(ObliviousTransferError, match="2 pad rows for 3 choices"):
            receiver.retrieve(short)

    def test_extra_row(self, exchange):
        receiver, transfer = exchange
        extra = replace(transfer, pads=transfer.pads + transfer.pads[:1])
        with pytest.raises(ObliviousTransferError, match="4 pad rows for 3 choices"):
            receiver.retrieve(extra)

    def test_sealed_count_mismatch(self, exchange):
        receiver, transfer = exchange
        short = replace(transfer, sealed=transfer.sealed[:-1])
        with pytest.raises(ObliviousTransferError, match="seals 7 payloads, expected 8"):
            receiver.retrieve(short)

    def test_session_slot_count_mismatch(self, exchange):
        receiver, transfer = exchange
        short = with_pads(transfer, 0, transfer.pads[0][:-1])
        with pytest.raises(ObliviousTransferError, match="7 slots, expected 8"):
            receiver.retrieve(short)

    @pytest.mark.parametrize("point", [0, -4, 2.0, b"\x04", None], ids=repr)
    def test_ephemeral_point_not_a_member(self, group, exchange, point):
        receiver, transfer = exchange
        if point == 0:
            point = group.p
        with pytest.raises(ObliviousTransferError, match="not a group element"):
            receiver.retrieve(replace(transfer, ephemeral_point=point))

    def test_retrieve_before_choose(self, group, exchange):
        _, transfer = exchange
        with pytest.raises(ObliviousTransferError, match="before choose"):
            KOfNReceiver(group, ReproRandom(1)).retrieve(transfer)


def _hostile(transfer, field, value):
    """``transfer`` with one field replaced, bypassing validation."""
    hostile = object.__new__(KOfNTransfer)
    for name in ("sealed", "ephemeral_point", "pads"):
        object.__setattr__(hostile, name, getattr(transfer, name))
    object.__setattr__(hostile, field, value)
    return hostile


def _hostile_pads(transfer, row):
    return _hostile(transfer, "pads", (row,) + transfer.pads[1:])


HOSTILE = {
    "sealed-not-bytes": lambda t: _hostile(t, "sealed", ("text",) + t.sealed[1:]),
    "sealed-list": lambda t: _hostile(t, "sealed", list(t.sealed)),
    "sealed-shorter-than-tag": lambda t: _hostile(t, "sealed", (b"x",) + t.sealed[1:]),
    "session-not-transfer": lambda t: _hostile_pads(t, b"x" * 16),
    "sessions-list": lambda t: _hostile(t, "pads", list(t.pads)),
    "pad-15-bytes": lambda t: _hostile_pads(t, (b"\x00" * 15,) + t.pads[0][1:]),
    "pad-not-bytes": lambda t: _hostile_pads(t, (7,) + t.pads[0][1:]),
    "pads-list": lambda t: _hostile_pads(t, list(t.pads[0])),
}


class TestHostileRecords:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_constructor_refuses(self, exchange, case):
        _, transfer = exchange
        hostile = HOSTILE[case](transfer)
        values = {
            name: getattr(hostile, name) for name in ("sealed", "ephemeral_point", "pads")
        }
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
