"""Tests for fault-injecting channels and protocol fail-loud behaviour."""

from fractions import Fraction

import pytest

from repro import obs

from repro.core.ompe import OMPEFunction
from repro.core.ompe.receiver import OMPEReceiver
from repro.core.ompe.sender import OMPESender
from repro.exceptions import ProtocolError, ReproError, ValidationError
from repro.math.multivariate import MultivariatePolynomial
from repro.net import (
    Channel,
    CorruptingChannel,
    DelayingChannel,
    DroppingChannel,
    DuplicatingChannel,
    RetryingChannel,
)
from repro.utils.rng import ReproRandom


class TestDroppingChannel:
    def test_zero_probability_is_transparent(self):
        channel = DroppingChannel(Channel("a", "b"), 0.0)
        channel.send("a", "m", b"x")
        assert channel.receive("b") == b"x"
        assert channel.dropped == 0

    def test_certain_drop(self):
        channel = DroppingChannel(Channel("a", "b"), 1.0, ReproRandom(1))
        channel.send("a", "m", b"x")
        assert channel.dropped == 1
        with pytest.raises(ProtocolError):
            channel.receive("b")

    def test_partial_drop_statistics(self):
        channel = DroppingChannel(Channel("a", "b"), 0.5, ReproRandom(2))
        for _ in range(100):
            channel.send("a", "m", b"x")
        assert 25 <= channel.dropped <= 75

    def test_bad_probability(self):
        with pytest.raises(ValidationError):
            DroppingChannel(Channel("a", "b"), 1.5)


class TestDuplicatingChannel:
    def test_duplicate_breaks_lockstep(self):
        channel = DuplicatingChannel(Channel("a", "b"), 1.0, ReproRandom(3))
        channel.send("a", "first", b"1")
        assert channel.duplicated == 1
        assert channel.receive("b", "first") == b"1"
        # The duplicate now blocks the next expected type.
        with pytest.raises(ProtocolError):
            channel.receive("b", "second")

    def test_bad_probability(self):
        with pytest.raises(ValidationError):
            DuplicatingChannel(Channel("a", "b"), -0.1)


class TestCorruptingChannel:
    def test_corrupts_bytes_payload(self):
        channel = CorruptingChannel(Channel("a", "b"), 1.0, rng=ReproRandom(4))
        channel.send("a", "m", b"\x00\xff")
        received = channel.receive("b")
        assert received == b"\x01\xff"
        assert channel.corrupted == 1

    def test_corrupts_nested_tuples(self):
        channel = CorruptingChannel(Channel("a", "b"), 1.0, rng=ReproRandom(5))
        channel.send("a", "m", (1, (b"\x00", 2)))
        received = channel.receive("b")
        assert received == (1, (b"\x01", 2))

    def test_custom_mutator(self):
        channel = CorruptingChannel(
            Channel("a", "b"), 1.0, mutator=lambda payload: b"evil",
            rng=ReproRandom(6),
        )
        channel.send("a", "m", b"good")
        assert channel.receive("b") == b"evil"


class TestDelayingChannel:
    def test_inflates_simulated_time_only(self):
        channel = DelayingChannel(Channel("a", "b"), 0.25)
        channel.send("a", "m", b"x")
        channel.send("a", "m2", b"y")
        assert channel.delayed == 2
        assert channel.extra_delay_s == 0.5
        assert channel.simulated_time == channel.inner.simulated_time + 0.5
        # Delivery itself is untouched (FIFO, no loss).
        assert channel.receive("b", "m") == b"x"
        assert channel.receive("b", "m2") == b"y"

    def test_probability_gates_injection(self):
        channel = DelayingChannel(Channel("a", "b"), 1.0, 0.0)
        channel.send("a", "m", b"x")
        assert channel.delayed == 0
        assert channel.extra_delay_s == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            DelayingChannel(Channel("a", "b"), -0.1)
        with pytest.raises(ValidationError):
            DelayingChannel(Channel("a", "b"), 0.1, delay_probability=2.0)


class TestRetryingChannel:
    def test_transparent_over_reliable_channel(self):
        channel = RetryingChannel(Channel("a", "b"))
        channel.send("a", "m", b"x")
        assert channel.retries == 0
        assert channel.receive("b") == b"x"

    def test_recovers_from_drops(self):
        # Seeded so some sends are dropped at least once but none are
        # lost 4 times in a row.
        lossy = DroppingChannel(Channel("a", "b"), 0.5, ReproRandom(12))
        channel = RetryingChannel(lossy, max_retries=10)
        for index in range(20):
            channel.send("a", f"m{index}", index)
        for index in range(20):
            assert channel.receive("b", f"m{index}") == index
        assert channel.retries > 0
        assert lossy.dropped == channel.retries

    def test_exhaustion_raises(self):
        lossy = DroppingChannel(Channel("a", "b"), 1.0, ReproRandom(13))
        channel = RetryingChannel(lossy, max_retries=2)
        with pytest.raises(ProtocolError, match="lost after 2 retries"):
            channel.send("a", "m", b"x")
        assert channel.retries == 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryingChannel(Channel("a", "b"), max_retries=0)


class TestFaultObservability:
    def test_faults_visible_as_counters_and_span_attributes(self):
        with obs.observed() as (tracer, registry):
            with tracer.span("workload") as span:
                dropping = DroppingChannel(Channel("a", "b"), 1.0, ReproRandom(14))
                dropping.send("a", "m", b"x")
                delaying = DelayingChannel(Channel("a", "b"), 0.1)
                delaying.send("a", "m", b"x")
        counter = registry.counter("repro_faults_injected_total")
        assert counter.value(kind="drop") == 1
        assert counter.value(kind="delay") == 1
        assert span.attributes["faults.drop"] == 1
        assert span.attributes["faults.delay"] == 1

    def test_retries_visible_as_counter_and_span_attribute(self):
        with obs.observed() as (tracer, registry):
            with tracer.span("workload") as span:
                lossy = DroppingChannel(Channel("a", "b"), 0.5, ReproRandom(15))
                channel = RetryingChannel(lossy, max_retries=10)
                for index in range(10):
                    channel.send("a", f"m{index}", index)
        assert channel.retries > 0
        assert (
            registry.counter("repro_net_retries_total").total() == channel.retries
        )
        assert span.attributes["net.retries"] == channel.retries


class TestProtocolUnderFaults:
    def _parties(self, fast_config, channel):
        polynomial = MultivariatePolynomial.affine(
            [Fraction(3, 7), Fraction(-2, 5)], Fraction(1, 2)
        )
        root = ReproRandom(9)
        sender = OMPESender(
            "alice", OMPEFunction.from_polynomial(polynomial),
            fast_config, rng=root.fork("s"),
        )
        receiver = OMPEReceiver(
            "bob", (Fraction(1, 3), Fraction(1, 4)),
            fast_config, rng=root.fork("r"),
        )
        sender.connect(channel)
        receiver.connect(channel)
        return sender, receiver

    def _drive(self, sender, receiver):
        receiver.send_request()
        sender.handle_request()
        receiver.handle_params()
        sender.handle_points()
        receiver.handle_ot_setups()
        sender.handle_choices()
        return receiver.finish()

    def test_protocol_survives_transparent_wrappers(self, fast_config):
        channel = DroppingChannel(Channel("alice", "bob"), 0.0)
        sender, receiver = self._parties(fast_config, channel)
        value = self._drive(sender, receiver)
        assert value is not None

    def test_dropped_message_aborts_not_hangs(self, fast_config):
        channel = DroppingChannel(Channel("alice", "bob"), 1.0, ReproRandom(7))
        sender, receiver = self._parties(fast_config, channel)
        receiver.send_request()  # dropped
        with pytest.raises(ProtocolError):
            sender.handle_request()

    def test_retrying_channel_completes_protocol_over_lossy_link(
        self, fast_config
    ):
        """Recovery path: a full OMPE run succeeds over a 40%-loss link,
        and the retries show up in the trace and the fault counters."""
        lossy = DroppingChannel(
            Channel("alice", "bob"), 0.4, ReproRandom(31)
        )
        channel = RetryingChannel(lossy, max_retries=25)
        with obs.observed() as (tracer, registry):
            sender, receiver = self._parties(fast_config, channel)
            value = self._drive(sender, receiver)
        assert value is not None
        assert channel.retries > 0
        assert lossy.dropped == channel.retries
        counter = registry.counter("repro_faults_injected_total")
        assert counter.value(kind="drop") == lossy.dropped
        # Retries annotate the protocol-phase spans they occurred inside,
        # so the trace shows which phase absorbed the loss.
        retries_traced = sum(
            s.attributes.get("net.retries", 0) for s, _ in tracer.spans()
        )
        assert retries_traced == channel.retries

    def test_corrupted_ot_payload_detected(self, fast_config):
        """Corrupt only the OT transfer bytes: the MAC check aborts."""

        def corrupt_transfers(payload):
            import dataclasses

            sealed = tuple(bytes([blob[0] ^ 1]) + blob[1:] for blob in payload.sealed)
            return dataclasses.replace(payload, sealed=sealed)

        base = Channel("alice", "bob")
        sender, receiver = self._parties(fast_config, base)
        receiver.send_request()
        sender.handle_request()
        receiver.handle_params()
        sender.handle_points()
        receiver.handle_ot_setups()
        sender.handle_choices()
        # Intercept: pull the transfers out of bob's inbox, corrupt one
        # ciphertext, and re-deliver the corrupted copy.
        transfers = base.receive("bob", "ompe/ot-transfers")
        base.send("alice", "ompe/ot-transfers", corrupt_transfers(transfers))
        with pytest.raises(ReproError):
            receiver.finish()
