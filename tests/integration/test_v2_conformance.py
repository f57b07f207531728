"""Protocol-v2 conformance: multiplexed TCP must match v1 and in-memory.

The differential contract, extended to the third transport: with the
same seed, classification and similarity (linear and nonlinear, every
output policy) produce the same labels, the same ``T²``, and the same
``bytes_by_phase()`` whether the protocol runs in memory, over a v1 TCP
connection, or over a v2-multiplexed TCP connection — including when
many v2 sessions interleave on one socket.  Negotiation is covered at
the wire level: a v1 client never sees a v2 frame, and a v2 client
gets a typed refusal from a server that predates the mux layer.

All tests open loopback sockets and are marked ``socket``.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.core.classification import private_classify
from repro.core.similarity import (
    evaluate_similarity_private,
)
from repro.core.similarity.metric import MetricParams
from repro.core.similarity.policy import parse_output_policy
from repro.exceptions import ProtocolError, ValidationError
from repro.ml.datasets import interaction_boundary
from repro.ml.svm import train_svm
from repro.ml.svm.model import make_linear_model
from repro.net import wire
from repro.net.mux import ERROR, HELLO, WELCOME
from repro.net.service import TrainerClient, TrainerServer
from repro.net.wire import AcceptTimeout
from repro.obs import MetricsRegistry
from repro.utils.serialization import (
    CONTROL_SESSION_ID,
    decode_message,
    encode_message,
    encode_mux_frame,
    split_mux_frame,
)

pytestmark = pytest.mark.socket

POLICIES = ["raw", "threshold:0.5", "top-k:1", "permuted"]

LEAKAGE_GAUGE = "repro_privacy_leakage_score"


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


@pytest.fixture(scope="module")
def linear_model_a():
    return make_linear_model([0.75, -0.5, 0.25], 0.125)


@pytest.fixture(scope="module")
def linear_model_b():
    return make_linear_model([0.5, 0.625, -0.25], -0.0625)


@pytest.fixture(scope="module")
def poly_models():
    """Two small degree-3 polynomial-kernel models on the same task."""
    models = []
    for seed in (1, 2):
        data = interaction_boundary(f"v2-poly-{seed}", 3, 60, 5, seed=seed)
        models.append(
            train_svm(
                data.X_train, data.y_train, kernel="poly",
                C=10.0, degree=3, a0=1 / 3, b0=0.0,
            )
        )
    return tuple(models)


def _phase_profile(report):
    """The transcript facts that must match across transports."""
    return (
        report.transcript.bytes_by_phase(),
        [m.msg_type for m in report.transcript.messages],
        report.total_bytes,
        report.rounds,
    )


def _leakage_series(registry):
    snapshot = registry.snapshot().get(LEAKAGE_GAUGE)
    if snapshot is None:
        return {}
    return {
        (
            series["labels"]["policy"],
            series["labels"]["component"],
        ): series["value"]
        for series in snapshot["series"]
    }


def _with_registry(run):
    previous = obs.get_metrics()
    registry = MetricsRegistry()
    obs.set_metrics(registry)
    try:
        return run(), registry
    finally:
        obs.set_metrics(previous)


def _serve(server, sessions):
    peer = _Peer(
        lambda: server.serve_forever(
            max_sessions=sessions, accept_timeout=30.0
        )
    )
    peer.start()
    return peer


class TestClassificationConformance:
    def test_linear_v1_v2_and_memory_identical(
        self, fast_config, linear_model_a
    ):
        samples = [(0.5, -0.25, 0.75), (-0.375, 0.125, -0.5)]
        seeds = [7, 8]
        expected = [
            private_classify(
                linear_model_a, sample, config=fast_config, seed=seed
            )
            for sample, seed in zip(samples, seeds)
        ]

        by_protocol = {}
        for protocol in ("v1", "v2"):
            server = TrainerServer(linear_model_a, config=fast_config)
            host, port = server.address
            peer = _serve(server, len(samples))
            with TrainerClient(
                host, port, config=fast_config, protocol=protocol
            ) as client:
                assert client.protocol == protocol
                by_protocol[protocol] = [
                    client.classify(sample, seed=seed)
                    for sample, seed in zip(samples, seeds)
                ]
            assert peer.join_result() == len(samples)
            server.close()

        for protocol, outcomes in by_protocol.items():
            for outcome, reference in zip(outcomes, expected):
                assert outcome.label == reference.label, protocol
                assert (
                    outcome.randomized_value == reference.randomized_value
                ), protocol
                assert _phase_profile(outcome.report) == _phase_profile(
                    reference.report
                ), protocol

    def test_interleaved_v2_sessions_stay_bit_identical(
        self, fast_config, linear_model_a
    ):
        """Six sessions pipelined concurrently on ONE v2 connection
        each match their dedicated in-process run — interleaving frames
        from other sessions must not perturb any transcript."""
        samples = [
            (0.5, -0.25, 0.75), (-0.375, 0.125, -0.5), (0.25, 0.5, -0.125),
            (0.125, -0.625, 0.375), (-0.25, 0.75, 0.0), (0.625, 0.0, -0.375),
        ]
        seeds = [100 + index for index in range(len(samples))]
        expected = [
            private_classify(
                linear_model_a, sample, config=fast_config, seed=seed
            )
            for sample, seed in zip(samples, seeds)
        ]

        server = TrainerServer(
            linear_model_a, config=fast_config, session_workers=4
        )
        host, port = server.address
        peer = _serve(server, len(samples))
        with TrainerClient(
            host, port, config=fast_config, protocol="v2"
        ) as client, ThreadPoolExecutor(max_workers=len(samples)) as threads:
            futures = [
                threads.submit(client.classify, sample, seed=seed)
                for sample, seed in zip(samples, seeds)
            ]
            outcomes = [future.result(timeout=55.0) for future in futures]
        assert peer.join_result() == len(samples)
        server.close()

        for outcome, reference in zip(outcomes, expected):
            assert outcome.label == reference.label
            assert outcome.randomized_value == reference.randomized_value
            assert _phase_profile(outcome.report) == _phase_profile(
                reference.report
            )

    def test_nonlinear_v2_matches_in_process(self, fast_config, poly_models):
        model = poly_models[0]
        sample = (0.5, -0.75, 0.25)
        reference = private_classify(
            model, sample, config=fast_config, seed=31
        )

        server = TrainerServer(model, config=fast_config)
        host, port = server.address
        peer = _serve(server, 1)
        with TrainerClient(
            host, port, config=fast_config, protocol="v2"
        ) as client:
            outcome = client.classify(sample, seed=31)
        assert peer.join_result() == 1
        server.close()

        assert outcome.label == reference.label
        assert outcome.randomized_value == reference.randomized_value
        assert _phase_profile(outcome.report) == _phase_profile(
            reference.report
        )


class TestSimilarityConformance:
    @pytest.mark.parametrize("spec", POLICIES)
    def test_linear_policies_v2_bit_identical(
        self, spec, fast_config, linear_model_a, linear_model_b
    ):
        policy = parse_output_policy(spec)
        reference, reference_registry = _with_registry(
            lambda: evaluate_similarity_private(
                linear_model_a, linear_model_b,
                config=fast_config, seed=42, policy=policy,
            )
        )

        def over_v2():
            server = TrainerServer(linear_model_a, config=fast_config)
            host, port = server.address
            peer = _serve(server, 1)
            with TrainerClient(
                host, port, config=fast_config, protocol="v2"
            ) as client:
                outcome = client.evaluate_similarity(
                    linear_model_b, seed=42, policy=policy
                )
            assert peer.join_result() == 1
            server.close()
            return outcome

        outcome, v2_registry = _with_registry(over_v2)

        assert outcome.policy == policy
        assert outcome.released.entries == reference.released.entries
        if policy.mode == "raw":
            assert outcome.t == reference.t
            assert outcome.t ** 2 == reference.t ** 2
        assert _leakage_series(v2_registry) == _leakage_series(
            reference_registry
        )
        assert _leakage_series(reference_registry), "gauge never exported"
        assert set(outcome.reports) == set(reference.reports)
        for phase in reference.reports:
            assert _phase_profile(outcome.reports[phase]) == _phase_profile(
                reference.reports[phase]
            ), f"similarity phase {phase!r} diverged on v2 ({spec})"

    def test_nonlinear_t_squared_identical_across_transports(
        self, fast_config, poly_models
    ):
        model_a, model_b = poly_models
        params = MetricParams(resolution=32)
        reference = evaluate_similarity_private(
            model_a, model_b, params=params, config=fast_config, seed=13
        )

        by_protocol = {}
        for protocol in ("v1", "v2"):
            server = TrainerServer(model_a, config=fast_config, params=params)
            host, port = server.address
            peer = _serve(server, 1)
            with TrainerClient(
                host, port, config=fast_config, params=params,
                protocol=protocol,
            ) as client:
                by_protocol[protocol] = client.evaluate_similarity(
                    model_b, seed=13
                )
            assert peer.join_result() == 1
            server.close()

        for protocol, outcome in by_protocol.items():
            assert outcome.t_squared == reference.t_squared, protocol
            assert set(outcome.reports) == set(reference.reports)
            for phase in reference.reports:
                assert _phase_profile(
                    outcome.reports[phase]
                ) == _phase_profile(reference.reports[phase]), (
                    f"phase {phase!r} diverged on {protocol}"
                )


class TestNegotiation:
    def test_hello_welcome_exchange_at_wire_level(
        self, fast_config, linear_model_a
    ):
        """The negotiation bytes themselves: mux/hello (v1-framed) gets
        mux/welcome {version: 2}, after which session-0 v2 frames work."""
        server = TrainerServer(linear_model_a, config=fast_config)
        host, port = server.address
        peer = _serve(server, None)
        try:
            connection = wire.connect(host, port, timeout=10.0)
            with connection:
                connection.send_frame(
                    encode_message(HELLO, {"versions": [1, 2]})
                )
                msg_type, payload, _ = decode_message(connection.recv_frame())
                assert msg_type == WELCOME
                assert payload == {"version": 2}
                # The connection now speaks v2: an admin request on the
                # reserved control session (id 0) round-trips.
                connection.send_frame(
                    encode_mux_frame(
                        CONTROL_SESSION_ID,
                        encode_message("admin/health", None),
                    )
                )
                session_id, message = split_mux_frame(connection.recv_frame())
                assert session_id == CONTROL_SESSION_ID
                reply_type, _, _ = decode_message(message)
                assert reply_type == "admin/health"
        finally:
            server.stop()
            peer.join_result()
            server.close()

    def test_v1_client_unchanged_on_v2_server(
        self, fast_config, linear_model_a
    ):
        """A legacy client (never sends mux/hello) gets a pure v1
        conversation from a v2-capable server while a v2 client is
        multiplexing on the same server."""
        sample = (0.5, -0.25, 0.75)
        reference = private_classify(
            linear_model_a, sample, config=fast_config, seed=77
        )
        server = TrainerServer(linear_model_a, config=fast_config)
        host, port = server.address
        peer = _serve(server, 2)
        with TrainerClient(
            host, port, config=fast_config, protocol="v2"
        ) as v2_client, TrainerClient(
            host, port, config=fast_config, protocol="v1"
        ) as v1_client:
            assert v1_client.protocol == "v1"
            assert v2_client.protocol == "v2"
            v2_outcome = v2_client.classify(sample, seed=77)
            v1_outcome = v1_client.classify(sample, seed=77)
        assert peer.join_result() == 2
        server.close()

        for outcome in (v1_outcome, v2_outcome):
            assert outcome.label == reference.label
            assert outcome.randomized_value == reference.randomized_value
            assert _phase_profile(outcome.report) == _phase_profile(
                reference.report
            )

    def test_v2_client_refused_by_legacy_server(self, fast_config):
        """Against a server that answers mux/hello with a session error
        (what a pre-v2 build does with any unknown control frame), a v2
        client raises the typed refusal at once and never redials."""
        listener = wire.listen()
        host, port = listener.getsockname()[:2]

        def legacy_server():
            first = wire.accept(listener, timeout=30.0)
            with first:
                msg_type, _, _ = decode_message(first.recv_frame())
                assert msg_type == HELLO
                first.send_frame(
                    encode_message(ERROR, f"unexpected {HELLO!r}")
                )

        peer = _Peer(legacy_server)
        peer.start()
        try:
            started = time.monotonic()
            with pytest.raises(ProtocolError, match="peer refused protocol v2"):
                TrainerClient(
                    host, port, config=fast_config, timeout=10.0,
                    protocol="v2",
                )
            elapsed = time.monotonic() - started
            peer.join_result()
            # A redial would already sit in the listener's backlog.
            with pytest.raises(AcceptTimeout):
                wire.accept(listener, timeout=0.5)
        finally:
            listener.close()
        assert elapsed < 2.5

    def test_unknown_protocol_refused_before_negotiating(self, fast_config):
        end_a, end_b = wire.memory_pair(timeout=1.0)
        with end_a, end_b:
            with pytest.raises(ValidationError, match=r"\('v1', 'v2'\)"):
                TrainerClient(
                    connection=end_b, config=fast_config, protocol="auto"
                )

    def test_v2_over_memory_transport_bit_identical(
        self, fast_config, linear_model_a
    ):
        """Explicit v2 over an in-memory pair negotiates and serves
        pipelined sessions bit-identical to the in-process protocol —
        the same connection state machine runs either transport."""
        samples = [(0.5, -0.25, 0.75), (-0.375, 0.125, -0.5)]
        seeds = [61, 62]
        expected = [
            private_classify(
                linear_model_a, sample, config=fast_config, seed=seed
            )
            for sample, seed in zip(samples, seeds)
        ]
        end_a, end_b = wire.memory_pair(timeout=30.0)
        server = TrainerServer(linear_model_a, config=fast_config)
        peer = _Peer(lambda: server.serve_connection(end_a))
        peer.start()
        try:
            with TrainerClient(
                connection=end_b, config=fast_config, protocol="v2"
            ) as client, ThreadPoolExecutor(max_workers=len(samples)) as threads:
                assert client.protocol == "v2"
                futures = [
                    threads.submit(client.classify, sample, seed=seed)
                    for sample, seed in zip(samples, seeds)
                ]
                outcomes = [future.result(timeout=30.0) for future in futures]
        finally:
            peer.join_result()
            server.close()

        for outcome, reference in zip(outcomes, expected):
            assert outcome.label == reference.label
            assert outcome.randomized_value == reference.randomized_value
            assert _phase_profile(outcome.report) == _phase_profile(
                reference.report
            )
