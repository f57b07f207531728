"""Failure-injection tests: the protocols fail loudly, never silently.

Distributed-systems hygiene: every malformed, replayed, truncated, or
tampered message must abort the protocol with a typed error — a silent
wrong answer would be a correctness *and* privacy bug.  These tests
drive the actual party state machines off the happy path.
"""

import struct
import threading
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.core.ompe import OMPEFunction
from repro.core.ompe.protocol import run_ompe_receiver, run_ompe_sender
from repro.core.ompe.receiver import OMPEReceiver
from repro.core.ompe.sender import OMPESender
from repro.crypto.ot import KOfNReceiver, KOfNSender
from repro.crypto.ot.base import OTChoice
from repro.exceptions import (
    ObliviousTransferError,
    ProtocolAbort,
    ProtocolError,
    ReproError,
    ValidationError,
)
from repro.math.multivariate import MultivariatePolynomial
from repro.net import wire
from repro.net.party import connect_parties
from repro.net.mux import MuxChannel, V1Session
from repro.utils.rng import ReproRandom
from repro.utils.serialization import WIRE_VERSION, encode_payload


def make_parties(fast_config, seed=1, arity=2):
    polynomial = MultivariatePolynomial.affine(
        [Fraction(3, 7)] * arity, Fraction(1, 2)
    )
    root = ReproRandom(seed)
    sender = OMPESender(
        "alice", OMPEFunction.from_polynomial(polynomial),
        fast_config, rng=root.fork("s"),
    )
    receiver = OMPEReceiver(
        "bob", tuple(Fraction(1, 3) for _ in range(arity)),
        fast_config, rng=root.fork("r"),
    )
    channel = connect_parties(sender, receiver)
    return sender, receiver, channel


class TestOMPEMessageTampering:
    def test_wrong_message_type_aborts(self, fast_config):
        sender, receiver, channel = make_parties(fast_config)
        channel.send("bob", "ompe/bogus", 2)
        with pytest.raises(ProtocolError):
            sender.handle_request()

    def test_truncated_points_abort(self, fast_config):
        sender, receiver, channel = make_parties(fast_config)
        receiver.send_request()
        sender.handle_request()
        receiver.handle_params()
        # Replace the points message with a truncated copy.
        pairs = channel.receive("alice", "ompe/points")
        channel.send("bob", "ompe/points", pairs[:-1])
        with pytest.raises(ProtocolAbort):
            sender.handle_points()

    def test_wrong_arity_vectors_abort(self, fast_config):
        sender, receiver, channel = make_parties(fast_config)
        receiver.send_request()
        sender.handle_request()
        receiver.handle_params()
        pairs = channel.receive("alice", "ompe/points")
        corrupted = tuple((node, vector[:-1]) for node, vector in pairs)
        channel.send("bob", "ompe/points", corrupted)
        with pytest.raises(ProtocolAbort):
            sender.handle_points()

    def test_mismatched_params_abort(self, fast_config):
        sender, receiver, channel = make_parties(fast_config)
        receiver.send_request()
        sender.handle_request()
        degree, m, M = channel.receive("bob", "ompe/params")
        channel.send("alice", "ompe/params", (degree, m + 1, M))
        with pytest.raises(ProtocolAbort):
            receiver.handle_params()

    def test_out_of_order_receive_fails(self, fast_config):
        sender, receiver, channel = make_parties(fast_config)
        with pytest.raises(ProtocolError):
            sender.handle_request()  # nothing sent yet


def keys(count):
    """16-byte messages, the shape of the keys an OT row pads."""
    return [bytes([65 + i]) * 16 for i in range(count)]


def sealed_exchange(group, rng, indices, count):
    """A k-of-n exchange up to the transfer: ``(receiver, transfer)``."""
    sender = KOfNSender(group, rng.fork("s"))
    receiver = KOfNReceiver(group, rng.fork("r"))
    choice = receiver.choose(sender.setup(len(indices)), indices, count)
    messages = [f"payload-{i}".encode() for i in range(count)]
    return receiver, sender.transfer(messages, choice)


class TestOTTampering:
    def test_tampered_ciphertext_detected(self, group, rng):
        receiver, transfer = sealed_exchange(group, rng, [1], 4)
        tampered_sealed = list(transfer.sealed)
        tampered_sealed[1] = bytes([tampered_sealed[1][0] ^ 1]) + tampered_sealed[1][1:]
        tampered = replace(transfer, sealed=tuple(tampered_sealed))
        with pytest.raises(ObliviousTransferError):
            receiver.retrieve(tampered)

    def test_swapped_slots_detected(self, group, rng):
        """Slot binding: a sealed payload moved to another slot must not
        open there."""
        receiver, transfer = sealed_exchange(group, rng, [0], 3)
        swapped = replace(
            transfer,
            sealed=(transfer.sealed[1], transfer.sealed[0], transfer.sealed[2]),
        )
        with pytest.raises(ObliviousTransferError):
            receiver.retrieve(swapped)

    def test_cross_session_replay_detected(self, group, rng):
        sender_a = KOfNSender(group, rng.fork("a"))
        sender_b = KOfNSender(group, rng.fork("b"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        setup_a = sender_a.setup(1)
        sender_b.setup(1)  # B's exchange exists but its setup is unused
        choice_a = receiver.choose(setup_a, [0], 2)
        # Feed A's choice to B (session ids differ).
        with pytest.raises(ObliviousTransferError, match="different session"):
            sender_b.transfer(keys(2), choice_a)

    def test_short_transfer_detected(self, group, rng):
        receiver, transfer = sealed_exchange(group, rng, [3], 4)
        short = replace(transfer, pads=(transfer.pads[0][:2],))
        with pytest.raises(ObliviousTransferError):
            receiver.retrieve(short)

    def test_empty_transfer_detected(self, group, rng):
        receiver, transfer = sealed_exchange(group, rng, [0], 2)
        with pytest.raises(ObliviousTransferError, match="0 slots"):
            receiver.retrieve(replace(transfer, pads=((),)))

    @pytest.mark.parametrize("point", ["zero", "modulus", "non-residue", "bytes"])
    def test_non_group_ephemeral_point_detected(self, group, rng, point):
        receiver, transfer = sealed_exchange(group, rng, [1], 2)
        non_residue = 2
        while group.contains(non_residue):
            non_residue += 1
        hostile = {
            "zero": 0,
            "modulus": group.p,
            "non-residue": non_residue,
            "bytes": b"\x04",
        }[point]
        with pytest.raises(ObliviousTransferError, match="not a group element"):
            receiver.retrieve(replace(transfer, ephemeral_point=hostile))

    def test_non_group_element_choice_detected(self, group, rng):
        sender = KOfNSender(group, rng.fork("s"))
        setup = sender.setup(1)
        non_member = 2
        while group.contains(non_member):
            non_member += 1
        with pytest.raises(ObliviousTransferError):
            sender.transfer(keys(1), OTChoice(session=setup.session,
                                             blinded_keys=(non_member,)))


def _varbytes(raw: bytes) -> bytes:
    return struct.pack(">I", len(raw)) + raw


def _record(name: bytes, *fields) -> bytes:
    """A registered-dataclass frame body, whether or not ``name`` is
    still registered."""
    return b"C" + _varbytes(name) + b"".join(encode_payload(field) for field in fields)


def _send_raw(channel, msg_type: str, body: bytes) -> None:
    channel.connection.send_frame(
        bytes([WIRE_VERSION]) + _varbytes(msg_type.encode("ascii")) + body
    )


class _RawSenderChannel(MuxChannel):
    """A v1 sender endpoint that can also put hand-built frames on its
    connection."""

    def __init__(self, local, peer, connection):
        super().__init__(local, peer, V1Session(connection))
        self.connection = connection


class _LegacyTransferChannel(_RawSenderChannel):
    """A sender endpoint still on the per-slot schedule: its OT
    transfers go out as ``ot/transfer`` records with one point per slot."""

    def send(self, sender, msg_type, payload):
        if msg_type != "ompe/ot-transfers":
            return super().send(sender, msg_type, payload)
        records = [
            _record(
                b"ot/transfer",
                b"s" * 16,
                (payload.ephemeral_point,) * len(row),
                payload.sealed,
            )
            for row in payload.pads
        ]
        _send_raw(
            self, msg_type, b"L" + struct.pack(">I", len(records)) + b"".join(records)
        )


class _PerSessionTransferChannel(_RawSenderChannel):
    """A sender endpoint on the one-session-per-choice schedule: its OT
    transfers go out as an ``ot/kofn`` record of ``ot/transfer2``
    sessions, each with its own point."""

    def send(self, sender, msg_type, payload):
        if msg_type != "ompe/ot-transfers":
            return super().send(sender, msg_type, payload)
        sessions = [
            _record(b"ot/transfer2", b"s" * 16, payload.ephemeral_point, row)
            for row in payload.pads
        ]
        _send_raw(
            self,
            msg_type,
            _record(b"ot/kofn", payload.sealed)
            + b"T" + struct.pack(">I", len(sessions)) + b"".join(sessions),
        )


class _PreSealingTransferChannel(_RawSenderChannel):
    """A sender endpoint from before sealing: its OT transfers go out as
    a bare list of padded rows, outside any ``ot/kofn2`` record."""

    def send(self, sender, msg_type, payload):
        if msg_type == "ompe/ot-transfers":
            payload = list(payload.pads)
        return super().send(sender, msg_type, payload)


@contextmanager
def _legacy_peer(fast_config, channel_type):
    """Serve a real OMPE sender over loopback TCP through a channel that
    rewrites its transfers; yields the receiver's run, then checks that
    the sender thread finished cleanly."""
    function = OMPEFunction.from_polynomial(
        MultivariatePolynomial.affine([Fraction(3, 7)] * 2, Fraction(1, 2))
    )
    server = wire.listen()
    host, port = server.getsockname()[:2]
    outcome = {}

    def legacy_sender():
        try:
            with wire.accept(server, timeout=10.0, connection_timeout=10.0) as conn:
                channel = channel_type("alice", "bob", conn)
                run_ompe_sender(function, channel, config=fast_config, seed=5)
        except Exception as error:  # noqa: BLE001 — checked below
            outcome["sender"] = error

    peer = threading.Thread(target=legacy_sender, daemon=True)
    peer.start()
    try:
        with wire.connect(host, port, timeout=10.0) as conn:
            channel = MuxChannel("bob", "alice", V1Session(conn))
            yield lambda: run_ompe_receiver(
                (Fraction(1, 3),) * 2, channel, config=fast_config, seed=5
            )
        peer.join(10.0)
        assert not peer.is_alive(), "legacy sender did not finish"
    finally:
        server.close()
    assert "sender" not in outcome, outcome


@pytest.mark.socket
class TestRetiredTransferTag:
    def test_legacy_peer_refused_over_tcp(self, fast_config):
        """A receiver on the one-exchange schedule refuses a per-slot
        transfer with a typed error at once, over TCP."""
        with _legacy_peer(fast_config, _LegacyTransferChannel) as receive:
            with pytest.raises(ValidationError, match="'ot/transfer'"):
                receive()

    def test_per_session_peer_refused_over_tcp(self, fast_config):
        """The retired ``ot/kofn`` record of per-choice ``ot/transfer2``
        sessions no longer decodes: a typed error, never a TypeError."""
        with _legacy_peer(fast_config, _PerSessionTransferChannel) as receive:
            with pytest.raises(ValidationError, match="'ot/kofn'"):
                receive()

    def test_pre_sealing_peer_refused_over_tcp(self, fast_config):
        """A bare list of pad rows decodes, and the k-of-n receiver
        refuses it with a typed error."""
        with _legacy_peer(fast_config, _PreSealingTransferChannel) as receive:
            with pytest.raises(ObliviousTransferError, match="ot/kofn2"):
                receive()


class TestErrorTaxonomy:
    def test_all_protocol_errors_are_repro_errors(self):
        for error_type in (ProtocolAbort, ProtocolError, ObliviousTransferError):
            assert issubclass(error_type, ReproError)

    def test_typed_catch_at_boundary(self, fast_config):
        """A caller catching ReproError sees every failure mode."""
        sender, receiver, channel = make_parties(fast_config)
        channel.send("bob", "ompe/request", 999)  # wrong arity
        with pytest.raises(ReproError):
            sender.handle_request()
