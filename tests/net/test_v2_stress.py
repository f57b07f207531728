"""Concurrency stress for protocol v2: many sessions, hostile clients.

The contract under load: 64+ multiplexed sessions on ONE connection all
complete bit-identically; a misbehaving client — hostile frames on a
live connection, a mid-session disconnect, a stalled session — is
counted under ``repro_wire_faults_total`` / ``repro_service_faults_total``
and contained to its own session or connection while every other
session completes; and shutdown drains gracefully, force-closing only
what the drain deadline leaves behind.

All tests open loopback sockets and are marked ``socket``.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.core.classification import private_classify
from repro.exceptions import ProtocolError
from repro.ml.svm.model import make_linear_model
from repro.net import wire
from repro.net.mux import ACCEPT, OPEN, MuxClientConnection
from repro.net.service import (
    SERVICE_FAULTS,
    SESSIONS_INFLIGHT,
    TrainerClient,
    TrainerServer,
)
from repro.obs import MetricsRegistry
from repro.utils.serialization import encode_message, encode_mux_frame

pytestmark = pytest.mark.socket

WIRE_FAULTS = "repro_wire_faults_total"


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
def model():
    return make_linear_model([0.5, 0.25], -0.125)


class _Peer(threading.Thread):
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

    def join_result(self, timeout=55.0):
        self.join(timeout)
        assert not self.is_alive(), "peer thread did not finish"
        if self.error is not None:
            raise self.error
        return self.result


def _serve(server, sessions):
    peer = _Peer(
        lambda: server.serve_forever(
            max_sessions=sessions, accept_timeout=30.0
        )
    )
    peer.start()
    return peer


def _sample(index):
    return (0.125 * ((index % 9) - 4), 0.25 * ((index % 5) - 2))


def _await_fault(registry, counter, kind, minimum=1, deadline_s=20.0):
    """Poll a labelled fault counter until it reaches ``minimum``."""
    deadline = time.monotonic() + deadline_s
    while registry.counter(counter).value(kind=kind) < minimum:
        assert time.monotonic() < deadline, (
            f"{counter}{{kind={kind}}} never reached {minimum} "
            f"(at {registry.counter(counter).value(kind=kind)})"
        )
        time.sleep(0.005)


class TestManySessions:
    def test_64_sessions_on_one_connection(
        self, registry, fast_config, model
    ):
        """64 concurrent multiplexed sessions on a single socket all
        finish bit-identical to their dedicated in-process runs."""
        count = 64
        samples = [_sample(index) for index in range(count)]
        seeds = list(range(300, 300 + count))
        expected = [
            private_classify(model, sample, config=fast_config, seed=seed)
            for sample, seed in zip(samples, seeds)
        ]

        server = TrainerServer(
            model, config=fast_config, session_workers=8
        )
        host, port = server.address
        peer = _serve(server, count)
        with TrainerClient(
            host, port, config=fast_config, protocol="v2"
        ) as client, ThreadPoolExecutor(max_workers=count) as threads:
            futures = [
                threads.submit(client.classify, sample, seed=seed)
                for sample, seed in zip(samples, seeds)
            ]
            outcomes = [future.result(timeout=55.0) for future in futures]
        assert peer.join_result() == count
        server.close()

        for outcome, reference in zip(outcomes, expected):
            assert outcome.label == reference.label
            assert outcome.randomized_value == reference.randomized_value
            assert (
                outcome.report.transcript.bytes_by_phase()
                == reference.report.transcript.bytes_by_phase()
            )
        # Every begin was matched by a finish: the in-flight gauge is
        # back to zero once the budget is served.
        assert registry.gauge(SESSIONS_INFLIGHT).value(protocol="v2") == 0


class TestHostileFrames:
    def test_hostile_session_ids_are_counted_and_contained(
        self, registry, fast_config, model
    ):
        """Frames for unknown, duplicate, and closed session ids raise
        typed faults on both endpoints while in-flight sessions on the
        same connection complete untouched."""
        server = TrainerServer(model, config=fast_config, session_workers=4)
        host, port = server.address
        peer = _serve(server, 9)
        with TrainerClient(
            host, port, config=fast_config, protocol="v2"
        ) as client, ThreadPoolExecutor(max_workers=8) as threads:
            futures = [
                threads.submit(client.classify, _sample(index), seed=500 + index)
                for index in range(8)
            ]
            # Unknown session: never opened on this connection.  The
            # server answers with an error frame on that id, which this
            # client (that never opened it) also drops as a fault.
            client._connection._send_frame(
                encode_mux_frame(
                    9999, encode_message("ompe/points", (1, 2))
                )
            )
            outcomes = [future.result(timeout=55.0) for future in futures]
            _await_fault(registry, WIRE_FAULTS, "unknown-session", minimum=2)

            # Duplicate open: reuse the id of a finished session.  The
            # server refuses with DuplicateSessionError; its error frame
            # lands on an id this client already finished — dropped and
            # counted as closed-session, never delivered anywhere.
            client._connection._send_frame(
                encode_mux_frame(
                    1, encode_message(OPEN, {"kind": "classify", "seed": 0})
                )
            )
            _await_fault(registry, WIRE_FAULTS, "duplicate-session")
            _await_fault(registry, WIRE_FAULTS, "closed-session")

            # Closed session: a protocol frame for a finished id.
            client._connection._send_frame(
                encode_mux_frame(2, encode_message("ompe/points", (3, 4)))
            )
            _await_fault(registry, WIRE_FAULTS, "closed-session", minimum=2)

            # The connection survived all three: a fresh session on it
            # still completes, bit-identical.
            reference = private_classify(
                model, _sample(70), config=fast_config, seed=700
            )
            outcome = client.classify(_sample(70), seed=700)
            assert outcome.randomized_value == reference.randomized_value
        assert peer.join_result() == 9
        server.close()

        for index, outcome in enumerate(outcomes):
            reference = private_classify(
                model, _sample(index), config=fast_config, seed=500 + index
            )
            assert outcome.label == reference.label
            assert outcome.randomized_value == reference.randomized_value


class TestMisbehavingClients:
    def test_mid_session_disconnect_spares_other_connections(
        self, registry, fast_config, model
    ):
        """A client that vanishes mid-session is counted and contained;
        sessions on other connections complete."""
        server = TrainerServer(model, config=fast_config, session_workers=4)
        host, port = server.address
        peer = _serve(server, None)
        try:
            bad = MuxClientConnection(
                wire.connect(host, port, timeout=10.0), timeout=10.0
            )
            session = bad.open_session({"kind": "classify", "seed": 9})
            session.recv_control(expected=ACCEPT)
            # Vanish without session/close: cut the socket itself.
            bad._connection.close()

            with TrainerClient(
                host, port, config=fast_config, protocol="v2"
            ) as client, ThreadPoolExecutor(max_workers=4) as threads:
                futures = [
                    threads.submit(
                        client.classify, _sample(index), seed=600 + index
                    )
                    for index in range(4)
                ]
                outcomes = [
                    future.result(timeout=55.0) for future in futures
                ]
            for index, outcome in enumerate(outcomes):
                reference = private_classify(
                    model, _sample(index), config=fast_config,
                    seed=600 + index,
                )
                assert outcome.randomized_value == reference.randomized_value

            # The cut connection is a wire fault; the orphaned session
            # died as a service fault, not a hang.
            _await_fault(registry, WIRE_FAULTS, "disconnect")
            _await_fault(registry, SERVICE_FAULTS, "session-aborted")
        finally:
            server.stop()
            peer.join_result()
            server.close()

    def test_stalled_session_times_out_and_connection_survives(
        self, registry, fast_config, model
    ):
        """A session that opens and never sends again is timed out by
        the server (counted), its error frame reaches the client, and
        the same connection still opens fresh sessions afterwards."""
        server = TrainerServer(
            model, config=fast_config, session_timeout=0.5,
            session_workers=2,
        )
        host, port = server.address
        peer = _serve(server, None)
        try:
            connection = MuxClientConnection(
                wire.connect(host, port, timeout=10.0), timeout=10.0
            )
            with connection:
                stalled = connection.open_session(
                    {"kind": "classify", "seed": 1}
                )
                stalled.recv_control(expected=ACCEPT)
                # While the server-side worker waits on this session,
                # the in-flight gauge shows it.
                deadline = time.monotonic() + 10.0
                while (
                    registry.gauge(SESSIONS_INFLIGHT).value(protocol="v2")
                    < 1
                ):
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                # Stall: never send a protocol frame.  The server's
                # receive times out and aborts only this session.
                _await_fault(registry, WIRE_FAULTS, "timeout")
                with pytest.raises(ProtocolError, match="session error"):
                    stalled.recv_message(timeout=20.0)
                stalled.cancel("peer aborted first")
                _await_fault(registry, SERVICE_FAULTS, "session-aborted")

                # The connection survived: a fresh session opens and is
                # accepted.
                fresh = connection.open_session(
                    {"kind": "classify", "seed": 2}
                )
                fresh.recv_control(expected=ACCEPT)
                fresh.cancel("test done")
        finally:
            server.stop()
            peer.join_result()
            server.close()
        assert registry.gauge(SESSIONS_INFLIGHT).value(protocol="v2") == 0


class TestDrain:
    def test_stop_force_closes_stalled_connection_at_deadline(
        self, registry, fast_config, model
    ):
        """Shutdown with a stalled session in flight: the drain waits
        out its deadline, then force-closes the straggler (counted) —
        stop() never hangs on a misbehaving client."""
        server = TrainerServer(
            model, config=fast_config,
            session_timeout=30.0, drain_timeout=0.3, session_workers=2,
        )
        host, port = server.address
        peer = _serve(server, None)
        connection = MuxClientConnection(
            wire.connect(host, port, timeout=10.0), timeout=10.0
        )
        stalled = connection.open_session({"kind": "classify", "seed": 5})
        stalled.recv_control(expected=ACCEPT)
        deadline = time.monotonic() + 10.0
        while registry.gauge(SESSIONS_INFLIGHT).value(protocol="v2") < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)

        started = time.monotonic()
        server.stop()
        assert peer.join_result() is not None
        assert time.monotonic() - started < 20.0, "stop() hung on drain"
        assert (
            registry.counter(SERVICE_FAULTS).value(kind="force-closed") >= 1
        )
        # The force-close poisons the stalled client session.
        with pytest.raises(ProtocolError):
            stalled.recv_message(timeout=20.0)
        connection.close()
        server.close()
