"""Tests for the TCP wire transport: framing, channel contract, faults.

Everything here opens real sockets (loopback TCP or a local
socketpair) and is marked ``socket`` so the default test matrix stays
hermetic; CI runs these in a dedicated job under a hard per-test
timeout (see ``tests/conftest.py``).
"""

import socket
import struct
import threading
import time

import pytest

from repro import obs
from repro.core.ompe.protocol import run_ompe_receiver
from repro.exceptions import ProtocolError, ValidationError
from repro.net import wire
from repro.net.message import measure_size
from repro.net.mux import MuxChannel, V1Session
from repro.net.service import TrainerClient, TrainerServer
from repro.net.wire import WireConnection
from repro.obs import MetricsRegistry

pytestmark = pytest.mark.socket

FAULTS = "repro_wire_faults_total"


@pytest.fixture
def registry():
    """A live metrics registry installed for the test, then restored."""
    previous = obs.get_metrics()
    registry = MetricsRegistry()
    obs.set_metrics(registry)
    try:
        yield registry
    finally:
        obs.set_metrics(previous)


@pytest.fixture
def pair():
    """Two connected WireConnections over a local socketpair."""
    left_sock, right_sock = socket.socketpair()
    left = WireConnection(left_sock, timeout=10.0)
    right = WireConnection(right_sock, timeout=10.0)
    try:
        yield left, right
    finally:
        left.close()
        right.close()


class _Peer(threading.Thread):
    """Run one side of a two-party exchange; re-raise its errors on join."""

    def __init__(self, target):
        super().__init__(daemon=True)
        self._target = target
        self.result = None
        self.error = None

    def run(self):
        try:
            self.result = self._target()
        except BaseException as error:  # noqa: BLE001 — reported on join
            self.error = error

    def join_result(self, timeout=30.0):
        self.join(timeout)
        assert not self.is_alive(), "peer thread did not finish"
        if self.error is not None:
            raise self.error
        return self.result


def _free_port() -> int:
    """Reserve (and release) a loopback port for delayed-bind tests."""
    server = wire.listen()
    port = server.getsockname()[1]
    server.close()
    return port


def _wait_readable(connection: WireConnection, deadline_s: float = 5.0) -> None:
    deadline = time.monotonic() + deadline_s
    while not connection.readable():
        assert time.monotonic() < deadline, "peer data never arrived"
        time.sleep(0.005)


class TestFraming:
    def test_round_trip(self, pair):
        left, right = pair
        sent = left.send_frame(b"hello, wire")
        assert right.recv_frame() == b"hello, wire"
        assert sent == 4 + len(b"hello, wire")
        assert left.bytes_sent == sent
        assert right.bytes_received == sent

    def test_empty_frame(self, pair):
        left, right = pair
        left.send_frame(b"")
        assert right.recv_frame() == b""

    def test_many_frames_in_order(self, pair):
        left, right = pair
        frames = [bytes([i]) * (i * 37 + 1) for i in range(20)]
        for frame in frames:
            left.send_frame(frame)
        assert [right.recv_frame() for _ in frames] == frames

    def test_oversized_send_rejected(self, registry, pair):
        left, _ = pair
        left.max_frame_bytes = 16
        with pytest.raises(ProtocolError):
            left.send_frame(b"x" * 17)
        assert registry.counter(FAULTS).value(kind="oversized-send") == 1

    def test_hostile_length_prefix_rejected(self, registry):
        """A 4 GiB length claim must be refused *before* any allocation."""
        attacker, victim_sock = socket.socketpair()
        victim = WireConnection(victim_sock, timeout=5.0)
        try:
            attacker.sendall(struct.pack(">I", 0xFFFFFFFF))
            with pytest.raises(ProtocolError, match="frame cap"):
                victim.recv_frame()
            assert registry.counter(FAULTS).value(kind="oversized-recv") == 1
        finally:
            attacker.close()
            victim.close()

    def test_eof_mid_frame(self, registry, pair):
        left, right = pair
        # Announce 100 bytes, deliver 10, hang up.
        left._sock.sendall(struct.pack(">I", 100) + b"0123456789")
        left.close()
        with pytest.raises(ProtocolError, match="closed the connection"):
            right.recv_frame()
        assert registry.counter(FAULTS).value(kind="disconnect") >= 1

    def test_recv_timeout(self, registry):
        left_sock, right_sock = socket.socketpair()
        left = WireConnection(left_sock, timeout=10.0)
        right = WireConnection(right_sock, timeout=0.05)
        try:
            with pytest.raises(ProtocolError, match="timed out"):
                right.recv_frame()
        finally:
            left.close()
            right.close()
        assert registry.counter(FAULTS).value(kind="timeout") == 1

    def test_send_after_peer_close(self, registry, pair):
        left, right = pair
        right.close()
        with pytest.raises(ProtocolError):
            # One big frame: small ones can vanish into buffers without
            # an immediate error on every platform.
            for _ in range(64):
                left.send_frame(b"x" * 65536)

    def test_invalid_frame_cap_rejected(self, pair):
        left_sock, right_sock = socket.socketpair()
        with left_sock, right_sock, pytest.raises(ValidationError):
            WireConnection(left_sock, max_frame_bytes=0)


class TestWireChannel:
    """The channel contract over a v1 wire endpoint: a
    :class:`MuxChannel` over a :class:`V1Session`."""

    @pytest.fixture
    def channels(self, pair):
        left, right = pair
        return (
            MuxChannel("alice", "bob", V1Session(left)),
            MuxChannel("bob", "alice", V1Session(right)),
        )

    def test_exchange_and_size_accounting(self, channels):
        alice, bob = channels
        payload = (1, 2, 3)
        message = alice.send("alice", "greeting", payload)
        assert bob.receive("bob", "greeting") == payload
        # The recorded size is the true encoded payload size — the same
        # number the in-memory transport computes via measure_size.
        assert message.size_bytes == measure_size(payload)
        assert alice.transcript.messages[-1].size_bytes == measure_size(payload)
        assert bob.transcript.messages[-1].size_bytes == measure_size(payload)

    def test_both_transcripts_complete(self, channels):
        alice, bob = channels
        alice.send("alice", "ping", 1)
        assert bob.receive("bob") == 1
        bob.send("bob", "pong", 2)
        assert alice.receive("alice") == 2
        for channel in (alice, bob):
            assert [m.msg_type for m in channel.transcript.messages] == [
                "ping",
                "pong",
            ]

    def test_wrong_party_rejected(self, channels):
        alice, _ = channels
        with pytest.raises(ProtocolError):
            alice.send("bob", "x", 1)
        with pytest.raises(ProtocolError):
            alice.receive("bob")
        with pytest.raises(ProtocolError):
            alice.pending("bob")

    def test_type_mismatch(self, channels):
        alice, bob = channels
        alice.send("alice", "actual", 1)
        with pytest.raises(ProtocolError, match="expected"):
            bob.receive("bob", expected_type="expected")

    def test_pending_and_drained(self, pair, channels):
        alice, bob = channels
        assert bob.pending("bob") == 0
        bob.assert_drained()
        alice.send("alice", "x", 7)
        _wait_readable(pair[1])
        assert bob.pending("bob") == 1
        with pytest.raises(ProtocolError, match="undelivered"):
            bob.assert_drained()
        assert bob.receive("bob") == 7
        assert bob.pending("bob") == 0
        bob.assert_drained()

    def test_distinct_nonempty_parties_required(self, pair):
        left, _ = pair
        with pytest.raises(ValidationError):
            MuxChannel("alice", "alice", V1Session(left))
        with pytest.raises(ValidationError):
            MuxChannel("", "bob", V1Session(left))

    def test_simulated_time_advances_on_both_ends(self, channels):
        alice, bob = channels
        alice.send("alice", "x", (1, 2))
        bob.receive("bob")
        assert alice.simulated_time > 0
        assert alice.simulated_time == bob.simulated_time


class TestConnect:
    def test_retry_then_succeed(self, registry):
        port = _free_port()

        def late_server():
            # Bind only after the client has provably failed a dial —
            # deterministic, unlike a fixed sleep that races the
            # client's first attempt on a loaded machine.
            deadline = time.monotonic() + 10.0
            while registry.counter("repro_wire_retries_total").total() == 0:
                assert time.monotonic() < deadline, "client never retried"
                time.sleep(0.005)
            server = wire.listen("127.0.0.1", port)
            try:
                connection = wire.accept(server, timeout=10.0)
            finally:
                server.close()
            with connection:
                assert connection.recv_frame() == b"made it"
                connection.send_frame(b"welcome")

        peer = _Peer(late_server)
        peer.start()
        connection = wire.connect(
            "127.0.0.1", port, timeout=10.0, attempts=60, retry_delay_s=0.02
        )
        with connection:
            connection.send_frame(b"made it")
            assert connection.recv_frame() == b"welcome"
        peer.join_result()
        assert registry.counter("repro_wire_retries_total").total() >= 1

    def test_exhausted_attempts(self, registry):
        port = _free_port()  # nothing is listening here
        with pytest.raises(ProtocolError, match="cannot connect"):
            wire.connect("127.0.0.1", port, timeout=1.0, attempts=2,
                         retry_delay_s=0.01)
        assert registry.counter(FAULTS).value(kind="connect-failed") == 1
        assert registry.counter("repro_wire_retries_total").total() == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            wire.connect("127.0.0.1", 1, attempts=0)
        with pytest.raises(ValidationError):
            wire.connect("127.0.0.1", 1, retry_delay_s=-1.0)

    def test_accept_timeout(self):
        server = wire.listen()
        try:
            with pytest.raises(ProtocolError, match="timed out"):
                wire.accept(server, timeout=0.05)
        finally:
            server.close()


class TestTypedStopConditions:
    """Regression: serve loops must be able to tell deliberate stops
    (timeout, closed listener) apart from transient accept faults."""

    def test_accept_timeout_is_typed(self):
        server = wire.listen()
        try:
            with pytest.raises(wire.AcceptTimeout):
                wire.accept(server, timeout=0.05)
        finally:
            server.close()

    def test_closed_listener_is_typed(self):
        server = wire.listen()
        server.close()
        with pytest.raises(wire.ListenerClosed):
            wire.accept(server, timeout=0.05)

    def test_boundary_eof_is_typed(self, registry, pair):
        """EOF cleanly between frames raises ConnectionClosed — distinct
        from a truncation mid-frame (plain ProtocolError)."""
        left, right = pair
        left.close()
        with pytest.raises(wire.ConnectionClosed):
            right.recv_frame()

    def test_mid_frame_eof_is_not_boundary(self, registry, pair):
        left, right = pair
        left._sock.sendall(struct.pack(">I", 100) + b"0123456789")
        left.close()
        with pytest.raises(ProtocolError) as excinfo:
            right.recv_frame()
        assert not isinstance(excinfo.value, wire.ConnectionClosed)


class TestAcceptTimeoutInheritance:
    """Regression: the accepted connection must not inherit the
    listener's accept timeout as its per-operation timeout."""

    def _accept_with(self, **kwargs):
        server = wire.listen()
        host, port = server.getsockname()[:2]
        peer = _Peer(lambda: wire.connect(host, port, timeout=5.0))
        peer.start()
        try:
            connection = wire.accept(server, **kwargs)
        finally:
            server.close()
        client = peer.join_result()
        client.close()
        return connection

    def test_default_is_no_timeout(self):
        connection = self._accept_with(timeout=5.0)
        try:
            assert connection._sock.gettimeout() is None
        finally:
            connection.close()

    def test_explicit_connection_timeout_honored(self):
        connection = self._accept_with(timeout=5.0, connection_timeout=1.5)
        try:
            assert connection._sock.gettimeout() == 1.5
        finally:
            connection.close()


class TestConnectFastFail:
    """Regression: non-retryable connect errors must not burn the whole
    attempts x retry_delay budget."""

    def test_bad_hostname_fails_fast(self, registry):
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="not retryable"):
            # With the old retry-everything loop this would sleep
            # ~39 x 0.5s; fast-fail returns after one resolver error.
            wire.connect("nonexistent-host-zzz.invalid", 9, timeout=1.0,
                         attempts=40, retry_delay_s=0.5)
        assert time.monotonic() - start < 5.0
        assert registry.counter("repro_wire_retries_total").total() == 0
        assert registry.counter(FAULTS).value(kind="connect-failed") == 1

    def test_refused_is_still_retryable(self):
        assert wire._retryable_connect_error(ConnectionRefusedError())
        assert wire._retryable_connect_error(socket.timeout())
        assert wire._retryable_connect_error(
            OSError(__import__("errno").ECONNABORTED, "aborted")
        )
        assert not wire._retryable_connect_error(
            socket.gaierror(-2, "Name or service not known")
        )
        assert not wire._retryable_connect_error(
            OSError(__import__("errno").EACCES, "denied")
        )


class TestFaultPaths:
    def test_peer_disconnect_mid_ompe(self, registry, fast_config):
        """A trainer that vanishes mid-protocol surfaces as one typed
        ProtocolError on the client, with the disconnect counted."""
        server = wire.listen()
        host, port = server.getsockname()[:2]

        def flaky_trainer():
            connection = wire.accept(server, timeout=10.0)
            connection.recv_frame()  # take the request, then vanish
            connection.close()

        peer = _Peer(flaky_trainer)
        peer.start()
        try:
            with wire.connect(host, port, timeout=5.0) as connection:
                channel = MuxChannel("bob", "alice", V1Session(connection))
                with pytest.raises(ProtocolError):
                    run_ompe_receiver(
                        (0.5, -0.25), channel, config=fast_config, seed=3
                    )
        finally:
            peer.join_result()
            server.close()
        assert registry.counter(FAULTS).value(kind="disconnect") >= 1

    def test_server_times_out_stalled_client_then_recovers(
        self, registry, fast_config
    ):
        """A silent client is dropped by the per-connection timeout and
        the very next client is served normally."""
        from repro.core.classification import private_classify
        from repro.ml.svm.model import make_linear_model

        model = make_linear_model([0.75, -0.5], 0.25)
        sample = (0.5, 0.25)
        server = TrainerServer(model, config=fast_config, session_timeout=0.2)
        host, port = server.address
        peer = _Peer(
            lambda: server.serve_forever(max_sessions=1, accept_timeout=10.0)
        )
        peer.start()
        try:
            # Client 1 connects and says nothing; the server must cut it
            # loose rather than wedge the serve loop.
            stalled = wire.connect(host, port, timeout=5.0)
            with pytest.raises(ProtocolError):
                stalled.recv_frame()  # server closes after its timeout
            stalled.close()
            # Client 2 gets a full, correct session.
            with TrainerClient(host, port, config=fast_config) as client:
                outcome = client.classify(sample, seed=11)
        finally:
            served = peer.join_result()
            server.close()
        expected = private_classify(model, sample, config=fast_config, seed=11)
        assert served == 1
        assert outcome.label == expected.label
        assert registry.counter(FAULTS).value(kind="timeout") >= 1

    def test_client_retries_until_service_appears(self, registry, fast_config):
        """TrainerClient keeps dialing while the trainer is still coming
        up, then completes a session — the documented recovery path."""
        from repro.core.classification import private_classify
        from repro.ml.svm.model import make_linear_model

        model = make_linear_model([0.5, 0.25], -0.125)
        sample = (0.75, -0.5)
        port = _free_port()

        def late_service():
            # Same deterministic gate as test_retry_then_succeed: bind
            # once the client has recorded a retry, not after a timed
            # nap that may or may not cover the first dial.
            deadline = time.monotonic() + 10.0
            while registry.counter("repro_wire_retries_total").total() == 0:
                assert time.monotonic() < deadline, "client never retried"
                time.sleep(0.005)
            with TrainerServer(
                model, port=port, config=fast_config
            ) as server:
                return server.serve_forever(max_sessions=1, accept_timeout=10.0)

        peer = _Peer(late_service)
        peer.start()
        with TrainerClient(
            "127.0.0.1", port, config=fast_config,
            attempts=60, retry_delay_s=0.02,
        ) as client:
            outcome = client.classify(sample, seed=29)
        assert peer.join_result() == 1
        expected = private_classify(model, sample, config=fast_config, seed=29)
        assert outcome.label == expected.label
        assert outcome.randomized_value == expected.randomized_value
        assert registry.counter("repro_wire_retries_total").total() >= 1

    def test_malformed_session_open_is_refused(self, registry, fast_config):
        """A bogus open payload aborts that session with a session/error
        reply instead of crashing the server."""
        from repro.ml.svm.model import make_linear_model

        model = make_linear_model([1.0, -1.0], 0.0)
        server = TrainerServer(model, config=fast_config, session_timeout=5.0)
        host, port = server.address
        peer = _Peer(
            lambda: server.serve_forever(max_sessions=1, accept_timeout=10.0)
        )
        peer.start()
        try:
            connection = wire.connect(host, port, timeout=5.0)
            session = V1Session(connection)
            session.send_control("session/open", {"kind": "frobnicate"})
            with pytest.raises(ProtocolError, match="session error"):
                session.recv_control()
            connection.close()
            # The server survives and serves the next, well-formed client.
            with TrainerClient(host, port, config=fast_config) as client:
                outcome = client.classify((0.5, 0.5), seed=1)
            assert outcome.label in (-1.0, 1.0)
        finally:
            peer.join_result()
            server.close()
        assert (
            registry.counter("repro_service_faults_total").value(
                kind="session-aborted"
            )
            == 1
        )
