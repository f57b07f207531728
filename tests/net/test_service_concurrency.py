"""Concurrent trainer-service tests: parallel clients, drain, faults.

The server under test serves every connection on one event loop and
runs sessions on a bounded worker pool.  Everything here checks the two invariants that
make concurrency safe to ship: results stay **bit-identical** to the
in-process protocols whatever the interleaving, and one client's fate
(disconnect, stall, refusal) never leaks into another's session.

Real loopback sockets throughout, so the module is ``socket``-marked
and runs in the dedicated serial CI job under the SIGALRM hard timeout.
"""

import socket
import sys
import threading
import time

import pytest

from repro import obs
from repro.core.classification import private_classify
from repro.core.similarity import evaluate_similarity_private
from repro.core.similarity.metric import MetricParams
from repro.exceptions import ProtocolError, ValidationError
from repro.ml.svm.model import make_linear_model
from repro.net import wire
from repro.net.mux import MuxRouter, V1Session
from repro.net.muxserver import MuxServerLoop
from repro.net.service import (
    ACCEPT,
    ERROR,
    OPEN,
    SERVICE_FAULTS,
    TrainerClient,
    TrainerClientPool,
    TrainerServer,
)
from repro.obs import MetricsRegistry
from repro.utils.serialization import decode_message

pytestmark = pytest.mark.socket


@pytest.fixture
def registry():
    previous = obs.get_metrics()
    registry = MetricsRegistry()
    obs.set_metrics(registry)
    try:
        yield registry
    finally:
        obs.set_metrics(previous)


@pytest.fixture(scope="module")
def model_a():
    return make_linear_model([0.75, -0.5, 0.25], 0.125)


@pytest.fixture(scope="module")
def model_b():
    return make_linear_model([0.5, 0.625, -0.25], -0.0625)


SAMPLES = [
    (0.5, -0.25, 0.75),
    (-0.375, 0.125, -0.5),
    (0.25, 0.5, -0.125),
    (-0.625, -0.25, 0.375),
]


class _Peer(threading.Thread):
    """Run one party in a thread; re-raise its errors on join."""

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


def _serve_in_thread(server, **kwargs):
    peer = _Peer(lambda: server.serve_forever(**kwargs))
    peer.start()
    return peer


class TestConcurrentSessions:
    def test_parallel_classify_bit_identical(
        self, registry, fast_config, model_a
    ):
        """Four clients at once; every outcome matches the in-process
        protocol bit for bit."""
        seeds = [101, 102, 103, 104]
        expected = [
            private_classify(model_a, sample, config=fast_config, seed=seed)
            for sample, seed in zip(SAMPLES, seeds)
        ]
        server = TrainerServer(
            model_a, config=fast_config, max_connections=4
        )
        host, port = server.address
        serving = _serve_in_thread(
            server, max_sessions=len(SAMPLES), accept_timeout=30.0
        )

        def session(index):
            with TrainerClient(host, port, config=fast_config) as client:
                return client.classify(SAMPLES[index], seed=seeds[index])

        clients = [_Peer(lambda i=i: session(i)) for i in range(len(SAMPLES))]
        for client in clients:
            client.start()
        outcomes = [client.join_result() for client in clients]
        assert serving.join_result() == len(SAMPLES)
        server.close()

        for outcome, reference in zip(outcomes, expected):
            assert outcome.label == reference.label
            assert outcome.randomized_value == reference.randomized_value
            assert (
                outcome.report.transcript.bytes_by_phase()
                == reference.report.transcript.bytes_by_phase()
            )
        assert registry.counter(SERVICE_FAULTS).total() == 0

    def test_interleaved_classify_and_similarity_under_fault(
        self, registry, fast_config, model_a, model_b
    ):
        """Mixed workload with a mid-session disconnect thrown in: the
        dead client is counted as a fault and nobody else notices."""
        params = MetricParams()
        seeds = [7, 8, 9]
        expected_cls = [
            private_classify(model_a, SAMPLES[i], config=fast_config, seed=s)
            for i, s in enumerate(seeds)
        ]
        expected_sim = evaluate_similarity_private(
            model_a, model_b, params=params, config=fast_config, seed=77
        )
        server = TrainerServer(
            model_a, config=fast_config, params=params,
            max_connections=4, session_timeout=10.0, drain_timeout=30.0,
        )
        host, port = server.address
        # No session budget: the vanisher would otherwise transiently
        # claim a budget unit and starve a legitimate session.  The
        # test stops the server once every client has finished.
        serving = _serve_in_thread(server, accept_timeout=30.0)

        def classify_twice(index):
            # Two sequential sessions per connection, interleaved with
            # every other client's traffic.
            with TrainerClient(host, port, config=fast_config) as client:
                first = client.classify(SAMPLES[index], seed=seeds[index])
                return first

        def similarity():
            with TrainerClient(
                host, port, config=fast_config, params=params
            ) as client:
                return client.evaluate_similarity(model_b, seed=77)

        def vanisher():
            # Open a session, then hang up mid-protocol.
            connection = wire.connect(host, port, timeout=5.0)
            V1Session(connection).send_control(
                OPEN, {"kind": "classify", "seed": 1}
            )
            connection.recv_frame()  # session/accept
            connection.close()

        workers = [_Peer(lambda i=i: classify_twice(i)) for i in range(3)]
        workers.append(_Peer(similarity))
        workers.append(_Peer(vanisher))
        for worker in workers:
            worker.start()
        results = [worker.join_result() for worker in workers]
        server.stop()
        assert serving.join_result() == len(seeds) + 1
        server.close()

        for outcome, reference in zip(results[:3], expected_cls):
            assert outcome.label == reference.label
            assert outcome.randomized_value == reference.randomized_value
        assert results[3].t_squared == expected_sim.t_squared
        assert (
            registry.counter(SERVICE_FAULTS).value(kind="session-aborted")
            >= 1
        )

    def test_single_slot_still_serves_everyone(self, fast_config, model_a):
        """max_connections=1 reproduces sequential serving: later
        clients wait in the backlog instead of being refused."""
        server = TrainerServer(
            model_a, config=fast_config, max_connections=1
        )
        host, port = server.address
        serving = _serve_in_thread(
            server, max_sessions=3, accept_timeout=30.0
        )

        def session(index):
            with TrainerClient(host, port, config=fast_config) as client:
                return client.classify(SAMPLES[index], seed=50 + index)

        clients = [_Peer(lambda i=i: session(i)) for i in range(3)]
        for client in clients:
            client.start()
        outcomes = [client.join_result() for client in clients]
        assert serving.join_result() == 3
        server.close()
        for index, outcome in enumerate(outcomes):
            reference = private_classify(
                model_a, SAMPLES[index], config=fast_config, seed=50 + index
            )
            assert outcome.randomized_value == reference.randomized_value


class TestEventLoopHandoff:
    def test_concurrent_adopts_all_reach_the_loop(self):
        """Sockets handed to the event loop from several threads while
        it admits them, under a tiny switch interval: none is lost."""
        def slow_router():
            time.sleep(0.001)  # widens the window a lost handoff needs
            return MuxRouter()

        loop = MuxServerLoop(
            session_handler=lambda conn, session, request: True,
            control_handler=lambda conn, msg_type, payload: None,
            service_fault=lambda kind: None,
            router_factory=slow_router,
        )
        peers = []

        def adopt_many():
            for _ in range(25):
                ours, theirs = socket.socketpair()
                peers.append(theirs)
                loop.adopt(ours)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [_Peer(adopt_many) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join_result()
            assert loop.connection_count == 100
        finally:
            sys.setswitchinterval(previous)
            loop.shutdown(drain_timeout=0.0)
            for sock in peers:
                sock.close()


class TestStopAndDrain:
    def test_stop_drains_in_flight_session(
        self, registry, fast_config, model_a
    ):
        """stop() during an active session lets it finish; the client
        sees a complete, correct outcome."""
        server = TrainerServer(
            model_a, config=fast_config, max_connections=2, drain_timeout=30.0
        )
        host, port = server.address
        serving = _serve_in_thread(server, accept_timeout=30.0)

        def session():
            with TrainerClient(host, port, config=fast_config) as client:
                return client.classify(SAMPLES[0], seed=5)

        client = _Peer(session)
        client.start()
        # Wait until the session is actually in flight (or already
        # done) before stopping; stopping sooner would just close an
        # idle connection, which exercises nothing.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with server._lock:
                in_session = bool(server._live)
                served = server._served
            if in_session or served:
                break
            time.sleep(0.005)
        server.stop()
        outcome = client.join_result()
        assert serving.join_result() >= 0
        reference = private_classify(
            model_a, SAMPLES[0], config=fast_config, seed=5
        )
        assert outcome.randomized_value == reference.randomized_value
        # Nothing was force-closed: the drain let the session finish.
        assert registry.counter(SERVICE_FAULTS).value(kind="force-closed") == 0

    def test_drain_deadline_force_closes_stuck_session(
        self, registry, fast_config, model_a
    ):
        """A session that never progresses is force-closed once the
        drain deadline passes, and counted as such."""
        server = TrainerServer(
            model_a, config=fast_config,
            max_connections=2, session_timeout=30.0, drain_timeout=0.3,
        )
        host, port = server.address
        serving = _serve_in_thread(server, accept_timeout=30.0)

        # Open a session and then go silent: the session worker blocks
        # waiting for protocol traffic that never comes.
        connection = wire.connect(host, port, timeout=5.0)
        V1Session(connection).send_control(
            OPEN, {"kind": "classify", "seed": 1}
        )
        connection.recv_frame()  # session/accept — now mid-session
        start = time.monotonic()
        server.stop()
        assert serving.join_result() == 0
        # stop() honored the deadline rather than waiting out the
        # 30-second session timeout.
        assert time.monotonic() - start < 10.0
        assert (
            registry.counter(SERVICE_FAULTS).value(kind="force-closed") >= 1
        )
        connection.close()

    def test_budget_exhausted_refuses_next_session(
        self, registry, fast_config, model_a
    ):
        """Once max_sessions is spent the connection is shut down; a
        further session attempt on it fails instead of hanging."""
        server = TrainerServer(model_a, config=fast_config)
        host, port = server.address
        serving = _serve_in_thread(
            server, max_sessions=1, accept_timeout=30.0
        )
        client = TrainerClient(host, port, config=fast_config)
        outcome = client.classify(SAMPLES[0], seed=3)
        assert outcome.label in (-1.0, 1.0)
        assert serving.join_result() == 1
        with pytest.raises(ProtocolError):
            client.classify(SAMPLES[1], seed=4)
        client.close()
        server.close()

    def test_begin_session_refusals(self, fast_config, model_a):
        """Session admission: stopping, draining, and a spent budget
        all refuse; a live budget claims one unit per session."""
        server = TrainerServer(model_a, config=fast_config)
        try:
            with server._lock:
                server._remaining = 2
            assert server._begin_session("v1")
            with server._lock:
                assert server._remaining == 1
            server._abort_session("v1")
            with server._lock:
                assert server._remaining == 2

            server._draining.set()
            assert not server._begin_session("v2")
            server._draining.clear()

            server._stopping.set()
            assert not server._begin_session("v1")
            server._stopping.clear()

            with server._lock:
                server._remaining = 0
            assert not server._begin_session("v2")
        finally:
            server.close()

    def test_validation(self, fast_config, model_a):
        with pytest.raises(ValidationError):
            TrainerServer(model_a, config=fast_config, max_connections=0)
        with pytest.raises(ValidationError):
            TrainerServer(model_a, config=fast_config, drain_timeout=-1.0)
        server = TrainerServer(model_a, config=fast_config)
        try:
            with pytest.raises(ValidationError):
                server.serve_forever(max_sessions=0)
        finally:
            server.close()


class TestV1ControlFaults:
    def test_undecodable_control_frame_drops_only_that_client(
        self, registry, fast_config, model_a
    ):
        """A v1 client that sends an undecodable frame between sessions
        gets a session/error and loses its own connection; the fault is
        counted once as ``control`` and everyone else keeps being
        served."""
        server = TrainerServer(model_a, config=fast_config)
        host, port = server.address
        serving = _serve_in_thread(server, max_sessions=4, accept_timeout=30.0)
        bystander = TrainerClient(host, port, config=fast_config)
        faulty_end = wire.connect(host, port, timeout=30.0)
        faulty = TrainerClient(connection=faulty_end, config=fast_config)
        try:
            bystander.classify(SAMPLES[0], seed=21)
            faulty.classify(SAMPLES[1], seed=22)
            faulty_end.send_frame(b"\x07 not a message")
            msg_type, _, _ = decode_message(faulty_end.recv_frame())
            assert msg_type == ERROR
            with pytest.raises(ProtocolError):
                faulty_end.recv_frame()  # the server hung up
            bystander.classify(SAMPLES[2], seed=23)
            with TrainerClient(host, port, config=fast_config) as late:
                outcome = late.classify(SAMPLES[3], seed=24)
        finally:
            faulty.close()
            bystander.close()
        assert serving.join_result() == 4
        server.close()
        reference = private_classify(
            model_a, SAMPLES[3], config=fast_config, seed=24
        )
        assert outcome.randomized_value == reference.randomized_value
        assert registry.counter(SERVICE_FAULTS).value(kind="control") == 1


class TestAcceptFaultTolerance:
    def test_transient_accept_fault_keeps_serving(
        self, registry, fast_config, model_a, monkeypatch
    ):
        """Regression: a transient accept-time fault (EMFILE et al.)
        must be counted and survived, not treated as a stop request."""
        real_accept = wire.accept
        fault_budget = [2]

        def flaky_accept(server_socket, **kwargs):
            if fault_budget[0] > 0:
                fault_budget[0] -= 1
                raise ProtocolError(
                    "accept failed: [Errno 24] Too many open files"
                )
            return real_accept(server_socket, **kwargs)

        monkeypatch.setattr(wire, "accept", flaky_accept)
        server = TrainerServer(model_a, config=fast_config)
        host, port = server.address
        serving = _serve_in_thread(
            server, max_sessions=1, accept_timeout=30.0
        )
        with TrainerClient(host, port, config=fast_config) as client:
            outcome = client.classify(SAMPLES[0], seed=9)
        assert serving.join_result() == 1
        server.close()
        reference = private_classify(
            model_a, SAMPLES[0], config=fast_config, seed=9
        )
        assert outcome.randomized_value == reference.randomized_value
        assert registry.counter(SERVICE_FAULTS).value(kind="accept") == 2


class TestClientAcceptValidation:
    def test_classify_rejects_accept_without_dimension(
        self, fast_config
    ):
        """Regression: a session/accept payload missing 'dimension'
        must fail with a clear ProtocolError, not a TypeError."""
        server = wire.listen()
        host, port = server.getsockname()[:2]

        def bogus_trainer():
            connection = wire.accept(server, timeout=10.0)
            with connection:
                session = V1Session(connection)
                session.recv_control()  # session/open
                session.send_control(ACCEPT, {"degree": 1})

        peer = _Peer(bogus_trainer)
        peer.start()
        try:
            with TrainerClient(host, port, config=fast_config) as client:
                with pytest.raises(ProtocolError, match="dimension"):
                    client.classify(SAMPLES[0], seed=1)
        finally:
            peer.join_result()
            server.close()

    def test_similarity_rejects_non_mapping_accept(self, fast_config, model_b):
        server = wire.listen()
        host, port = server.getsockname()[:2]

        def bogus_trainer():
            connection = wire.accept(server, timeout=10.0)
            with connection:
                session = V1Session(connection)
                session.recv_control()
                session.send_control(ACCEPT, "yes")

        peer = _Peer(bogus_trainer)
        peer.start()
        try:
            with TrainerClient(host, port, config=fast_config) as client:
                with pytest.raises(ProtocolError, match="mapping"):
                    client.evaluate_similarity(model_b, seed=1)
        finally:
            peer.join_result()
            server.close()


class TestClientPool:
    def test_classify_many_ordered_and_bit_identical(
        self, fast_config, model_a
    ):
        samples = SAMPLES + [(0.125, -0.5, 0.25), (-0.25, 0.75, -0.375)]
        seeds = list(range(200, 200 + len(samples)))
        expected = [
            private_classify(model_a, sample, config=fast_config, seed=seed)
            for sample, seed in zip(samples, seeds)
        ]
        server = TrainerServer(
            model_a, config=fast_config, max_connections=3
        )
        host, port = server.address
        serving = _serve_in_thread(
            server, max_sessions=len(samples), accept_timeout=30.0
        )
        with TrainerClientPool(
            host, port, size=3, config=fast_config
        ) as pool:
            outcomes = pool.classify_many(samples, seeds=seeds)
        assert serving.join_result() == len(samples)
        server.close()
        assert len(outcomes) == len(samples)
        for outcome, reference in zip(outcomes, expected):
            assert outcome.label == reference.label
            assert outcome.randomized_value == reference.randomized_value

    def test_pool_single_session_helpers(
        self, fast_config, model_a, model_b
    ):
        params = MetricParams()
        expected = evaluate_similarity_private(
            model_a, model_b, params=params, config=fast_config, seed=4
        )
        server = TrainerServer(
            model_a, config=fast_config, params=params, max_connections=2
        )
        host, port = server.address
        serving = _serve_in_thread(
            server, max_sessions=2, accept_timeout=30.0
        )
        with TrainerClientPool(
            host, port, size=2, config=fast_config, params=params
        ) as pool:
            outcome = pool.classify(SAMPLES[0], seed=2)
            similarity = pool.evaluate_similarity(model_b, seed=4)
        assert serving.join_result() == 2
        server.close()
        reference = private_classify(
            model_a, SAMPLES[0], config=fast_config, seed=2
        )
        assert outcome.randomized_value == reference.randomized_value
        assert similarity.t_squared == expected.t_squared

    def test_pool_validation(self, fast_config, model_a):
        with pytest.raises(ValidationError):
            TrainerClientPool("127.0.0.1", 1, size=0)
        server = TrainerServer(model_a, config=fast_config)
        host, port = server.address
        serving = _serve_in_thread(server, accept_timeout=30.0)
        with TrainerClientPool(
            host, port, size=2, config=fast_config
        ) as pool:
            with pytest.raises(ValidationError, match="seeds"):
                pool.classify_many(SAMPLES[:2], seeds=[1])
            assert pool.classify_many([]) == []
        server.stop()
        serving.join_result()
        server.close()
