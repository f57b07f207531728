"""Tests for the distributed substrate: messages, channels, transcripts."""

import threading
from dataclasses import dataclass
from fractions import Fraction

import pytest

from repro.core.classification import private_classify
from repro.exceptions import ProtocolError, ValidationError
from repro.ml.svm.model import make_linear_model
from repro.net import (
    Channel,
    LinkModel,
    Message,
    Party,
    Transcript,
    connect_parties,
    finish_report,
    measure_size,
    wire,
)
from repro.net.service import TrainerClient, TrainerServer
from repro.utils.serialization import encode_payload, register_payload_type


class TestMeasureSize:
    def test_bytes(self):
        # tag + u32 length prefix + raw bytes
        assert measure_size(b"abcd") == 5 + 4

    def test_scalars(self):
        assert measure_size(1) > 0
        assert measure_size(1.5) > 0
        assert measure_size(Fraction(1, 3)) > 0
        assert measure_size(None) == 1
        assert measure_size(True) == 2

    def test_big_int_bigger(self):
        assert measure_size(2**512) > measure_size(2)

    def test_string(self):
        assert measure_size("abc") == 5 + 3

    def test_containers(self):
        assert measure_size((1, 2)) == 5 + 2 * measure_size(1)
        assert measure_size([1, 2]) == measure_size((1, 2))
        assert measure_size({}) == 5

    def test_dataclass(self):
        @register_payload_type("test/measure-payload")
        @dataclass
        class Payload:
            a: int
            b: bytes

        name_bytes = len(b"test/measure-payload")
        assert measure_size(Payload(1, b"xy")) == (
            5 + name_bytes + measure_size(1) + measure_size(b"xy")
        )

    def test_unregistered_dataclass(self):
        @dataclass
        class Opaque:
            a: int

        with pytest.raises(ValidationError):
            measure_size(Opaque(1))

    def test_measure_matches_encoding(self):
        for payload in (b"abcd", "abc", (1, Fraction(2, 3)), {"k": [True, None]}):
            assert measure_size(payload) == len(encode_payload(payload))

    def test_unmeasurable(self):
        with pytest.raises(ValidationError):
            measure_size(object())


class TestMessage:
    def test_auto_size(self):
        message = Message(sender="a", recipient="b", msg_type="t", payload=b"12345")
        assert message.size_bytes == 5 + 5

    def test_equal_fields_compare_equal(self):
        first = Message(sender="a", recipient="b", msg_type="t", payload=b"x")
        assert first == Message(
            sender="a", recipient="b", msg_type="t", payload=b"x"
        )
        assert first == Message(
            sender="a", recipient="b", msg_type="t", payload=b"x", session_id=3
        )
        assert first != Message(
            sender="a", recipient="b", msg_type="t", payload=b"y"
        )

    def test_one_run_same_messages_on_every_transport(self, fast_config):
        """One seeded classification records equal messages in process,
        over protocol v1 and over protocol v2 (memory connections)."""
        model = make_linear_model([0.75, -0.5], 0.25)
        sample = (0.5, 0.25)
        reference = private_classify(model, sample, config=fast_config, seed=7)
        for protocol in ("v1", "v2"):
            server = TrainerServer(model, config=fast_config)
            server_end, client_end = wire.memory_pair(timeout=10.0)
            serving = threading.Thread(
                target=server.serve_connection, args=(server_end,)
            )
            serving.start()
            with TrainerClient(
                connection=client_end, config=fast_config, protocol=protocol
            ) as client:
                outcome = client.classify(sample, seed=7)
            serving.join(10.0)
            server.close()
            assert not serving.is_alive()
            assert (
                outcome.report.transcript.messages
                == reference.report.transcript.messages
            ), protocol

    def test_empty_type_rejected(self):
        with pytest.raises(ValidationError):
            Message(sender="a", recipient="b", msg_type="", payload=b"")


class TestLinkModel:
    def test_transfer_time(self):
        link = LinkModel(latency_s=0.001, bandwidth_bytes_per_s=1000.0)
        assert link.transfer_time(500) == pytest.approx(0.501)

    def test_validation(self):
        with pytest.raises(ValidationError):
            LinkModel(latency_s=-1)
        with pytest.raises(ValidationError):
            LinkModel(bandwidth_bytes_per_s=0)


class TestChannel:
    def test_send_receive(self):
        channel = Channel("alice", "bob")
        channel.send("alice", "greet", b"hello")
        assert channel.receive("bob", "greet") == b"hello"

    def test_fifo_order(self):
        channel = Channel("alice", "bob")
        channel.send("alice", "m", 1)
        channel.send("alice", "m", 2)
        assert channel.receive("bob") == 1
        assert channel.receive("bob") == 2

    def test_bidirectional(self):
        channel = Channel("alice", "bob")
        channel.send("alice", "ping", b"x")
        channel.send("bob", "pong", b"y")
        assert channel.receive("bob") == b"x"
        assert channel.receive("alice") == b"y"

    def test_same_party_rejected(self):
        with pytest.raises(ValidationError):
            Channel("alice", "alice")

    def test_outsider_rejected(self):
        channel = Channel("alice", "bob")
        with pytest.raises(ProtocolError):
            channel.send("carol", "m", b"")
        with pytest.raises(ProtocolError):
            channel.receive("carol")

    def test_empty_inbox(self):
        channel = Channel("alice", "bob")
        with pytest.raises(ProtocolError):
            channel.receive("bob")

    def test_type_mismatch_aborts(self):
        channel = Channel("alice", "bob")
        channel.send("alice", "expected", b"")
        with pytest.raises(ProtocolError):
            channel.receive("bob", "other")

    def test_pending(self):
        channel = Channel("alice", "bob")
        assert channel.pending("bob") == 0
        channel.send("alice", "m", b"")
        assert channel.pending("bob") == 1

    def test_assert_drained(self):
        channel = Channel("alice", "bob")
        channel.send("alice", "m", b"")
        with pytest.raises(ProtocolError):
            channel.assert_drained()
        channel.receive("bob")
        channel.assert_drained()

    def test_simulated_time_accumulates(self):
        link = LinkModel(latency_s=0.01, bandwidth_bytes_per_s=100.0)
        channel = Channel("alice", "bob", link=link)
        channel.send("alice", "m", b"x" * 100)
        assert channel.simulated_time == pytest.approx(0.01 + 1.05)


class TestTranscript:
    def _sample(self):
        transcript = Transcript()
        channel = Channel("alice", "bob", transcript=transcript)
        channel.send("alice", "a", b"123")
        channel.send("bob", "b", b"4567")
        channel.send("bob", "b", b"89")
        return transcript

    def test_views(self):
        transcript = self._sample()
        assert len(transcript.received_by("bob")) == 1
        assert len(transcript.received_by("alice")) == 2
        assert len(transcript.of_type("b")) == 2

    def test_total_bytes(self):
        transcript = self._sample()
        assert transcript.total_bytes() == 8 + 9 + 7
        assert transcript.total_bytes(lambda m: m.sender == "bob") == 16

    def test_direction_accounting(self):
        by_direction = self._sample().bytes_by_direction()
        assert by_direction == {"alice->bob": 8, "bob->alice": 16}

    def test_round_count(self):
        transcript = self._sample()
        assert transcript.round_count() == 2
        assert Transcript().round_count() == 0

    def test_summary(self):
        summary = self._sample().summary()
        assert summary["messages"] == 3
        assert summary["rounds"] == 2

    def test_iteration(self):
        assert len(list(self._sample())) == 3


class TestParty:
    def test_connect_and_exchange(self):
        alice, bob = Party("alice"), Party("bob")
        channel = connect_parties(alice, bob)
        alice.send("hi", b"there")
        assert bob.receive("hi") == b"there"
        assert channel.transcript.total_bytes() == 10

    def test_unconnected_party(self):
        with pytest.raises(ProtocolError):
            Party("solo").send("m", b"")

    def test_wrong_channel_endpoint(self):
        channel = Channel("x", "y")
        with pytest.raises(ProtocolError):
            Party("alice").connect(channel)

    def test_empty_name(self):
        with pytest.raises(ProtocolError):
            Party("")


class TestReport:
    def test_finish_report(self):
        alice, bob = Party("alice"), Party("bob")
        channel = connect_parties(alice, bob)
        alice.send("m", b"xyz")
        bob.receive()
        report = finish_report("result", channel)
        assert report.result == "result"
        assert report.total_bytes == 8
        assert report.rounds == 1
        assert report.summary()["messages"] == 1

    def test_finish_report_undrained(self):
        alice, bob = Party("alice"), Party("bob")
        channel = connect_parties(alice, bob)
        alice.send("m", b"xyz")
        with pytest.raises(ProtocolError):
            finish_report(None, channel)
