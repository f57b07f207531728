"""Cross-transport conformance: TCP must be indistinguishable from in-memory.

The differential contract: with the same seed, every protocol produces
the same labels, the same masked values ``r_a·d(t̃)``, the same ``T²``,
and the same per-phase byte counts whether it runs over the in-memory
:class:`~repro.net.channel.Channel` or a real TCP connection
(:mod:`repro.net.wire`).  Each test runs the protocol both ways and
compares the outputs and the transcripts bit for bit.

All tests open loopback sockets and are marked ``socket``.
"""

import threading

import pytest

from repro import obs
from repro.core.classification import private_classify
from repro.core.classification.session import decision_function_for_model
from repro.core.ompe.protocol import (
    execute_ompe,
    run_ompe_receiver,
    run_ompe_sender,
)
from repro.core.similarity import (
    evaluate_similarity_private,
)
from repro.core.similarity.metric import MetricParams
from repro.ml.datasets import interaction_boundary
from repro.ml.svm import train_svm
from repro.ml.svm.model import make_linear_model
from repro.net import wire
from repro.net.mux import MuxChannel, V1Session
from repro.net.service import TrainerClient, TrainerServer
from repro.obs import MetricsRegistry

pytestmark = pytest.mark.socket


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
        data = interaction_boundary(f"wire-poly-{seed}", 3, 60, 5, seed=seed)
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


class TestOMPEConformance:
    def test_value_and_transcript_identical(self, fast_config, linear_model_a):
        function = decision_function_for_model(linear_model_a)
        sample = (0.5, -0.25, 0.75)
        seed = 101

        reference = execute_ompe(
            function, sample, config=fast_config, seed=seed
        )

        server = wire.listen()
        host, port = server.getsockname()[:2]

        def alice():
            connection = wire.accept(server, timeout=30.0)
            with connection:
                channel = MuxChannel("alice", "bob", V1Session(connection))
                return run_ompe_sender(
                    function, channel, config=fast_config, seed=seed
                )

        peer = _Peer(alice)
        peer.start()
        try:
            connection = wire.connect(host, port, timeout=30.0)
            with connection:
                channel = MuxChannel("bob", "alice", V1Session(connection))
                outcome = run_ompe_receiver(
                    sample, channel, config=fast_config, seed=seed
                )
            sender_outcome = peer.join_result()
        finally:
            server.close()

        assert outcome.value == reference.value
        assert sender_outcome.amplifier == reference.amplifier
        assert _phase_profile(outcome.report) == _phase_profile(
            reference.report
        )
        # The sender's endpoint logs the same conversation.
        assert (
            sender_outcome.report.transcript.bytes_by_phase()
            == reference.report.transcript.bytes_by_phase()
        )


class TestClassificationConformance:
    def test_linear_sessions_match_in_process(
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

        previous = obs.get_metrics()
        registry = MetricsRegistry()
        obs.set_metrics(registry)
        try:
            server = TrainerServer(linear_model_a, config=fast_config)
            host, port = server.address
            peer = _Peer(
                lambda: server.serve_forever(
                    max_sessions=len(samples), accept_timeout=30.0
                )
            )
            peer.start()
            # One connection, two sequential sessions.
            with TrainerClient(host, port, config=fast_config) as client:
                outcomes = [
                    client.classify(sample, seed=seed)
                    for sample, seed in zip(samples, seeds)
                ]
            assert peer.join_result() == len(samples)
            server.close()
        finally:
            obs.set_metrics(previous)

        for outcome, reference in zip(outcomes, expected):
            assert outcome.label == reference.label
            assert outcome.randomized_value == reference.randomized_value
            assert _phase_profile(outcome.report) == _phase_profile(
                reference.report
            )
        # Shared-registry message metrics count each message exactly
        # once (send side only), matching the in-memory accounting.
        expected_messages = sum(
            len(r.report.transcript.messages) for r in expected
        )
        assert (
            registry.counter("repro_messages_total").total()
            == expected_messages
        )

    def test_nonlinear_session_matches_in_process(
        self, fast_config, poly_models
    ):
        model = poly_models[0]
        sample = (0.5, -0.75, 0.25)
        reference = private_classify(
            model, sample, config=fast_config, seed=31
        )

        server = TrainerServer(model, config=fast_config)
        host, port = server.address
        peer = _Peer(
            lambda: server.serve_forever(max_sessions=1, accept_timeout=30.0)
        )
        peer.start()
        with TrainerClient(host, port, config=fast_config) as client:
            outcome = client.classify(sample, seed=31)
        assert peer.join_result() == 1
        server.close()

        assert outcome.label == reference.label
        assert outcome.randomized_value == reference.randomized_value
        assert _phase_profile(outcome.report) == _phase_profile(
            reference.report
        )


class TestSimilarityConformance:
    def test_linear_t_squared_and_reports_match(
        self, fast_config, linear_model_a, linear_model_b
    ):
        params = MetricParams()
        reference = evaluate_similarity_private(
            linear_model_a, linear_model_b,
            params=params, config=fast_config, seed=5,
        )

        server = TrainerServer(
            linear_model_a, config=fast_config, params=params
        )
        host, port = server.address
        peer = _Peer(
            lambda: server.serve_forever(max_sessions=1, accept_timeout=30.0)
        )
        peer.start()
        with TrainerClient(
            host, port, config=fast_config, params=params
        ) as client:
            outcome = client.evaluate_similarity(linear_model_b, seed=5)
        assert peer.join_result() == 1
        server.close()

        assert outcome.t_squared == reference.t_squared
        assert outcome.t == reference.t
        assert set(outcome.reports) == set(reference.reports)
        for phase in reference.reports:
            assert _phase_profile(outcome.reports[phase]) == _phase_profile(
                reference.reports[phase]
            ), f"similarity phase {phase!r} diverged across transports"

    def test_nonlinear_t_squared_and_reports_match(
        self, fast_config, poly_models
    ):
        model_a, model_b = poly_models
        params = MetricParams(resolution=32)
        reference = evaluate_similarity_private(
            model_a, model_b, params=params, config=fast_config, seed=13
        )

        server = TrainerServer(model_a, config=fast_config, params=params)
        host, port = server.address
        peer = _Peer(
            lambda: server.serve_forever(max_sessions=1, accept_timeout=30.0)
        )
        peer.start()
        with TrainerClient(
            host, port, config=fast_config, params=params
        ) as client:
            outcome = client.evaluate_similarity(model_b, seed=13)
        assert peer.join_result() == 1
        server.close()

        assert outcome.t_squared == reference.t_squared
        assert set(outcome.reports) == set(reference.reports)
        for phase in reference.reports:
            assert _phase_profile(outcome.reports[phase]) == _phase_profile(
                reference.reports[phase]
            ), f"similarity phase {phase!r} diverged across transports"


class TestServeCLI:
    def test_serve_and_remote_classify(self, tmp_path, capsys):
        from repro.cli import main

        data_path = tmp_path / "tiny.libsvm"
        data_path.write_text(
            "+1 1:0.5 2:0.25\n"
            "-1 1:-0.5 2:-0.75\n"
            "+1 1:0.75 2:0.5\n"
            "-1 1:-0.25 2:-0.5\n"
        )
        model_path = tmp_path / "model.json"
        assert main(
            ["train", str(data_path), str(model_path), "--kernel", "linear"]
        ) == 0
        port_file = tmp_path / "port"

        def serve():
            return main([
                "serve", str(model_path),
                "--port-file", str(port_file),
                "--max-sessions", "2",
                "--security-degree", "2",
            ])

        peer = _Peer(serve)
        peer.start()
        deadline = 50
        import time

        while not port_file.exists() and deadline:
            time.sleep(0.1)
            deadline -= 1
        assert port_file.exists(), "server never wrote its port file"
        port = int(port_file.read_text())

        assert main([
            "remote-classify", str(data_path),
            "--connect", f"127.0.0.1:{port}",
            "--limit", "2",
            "--seed", "40",
            "--security-degree", "2",
        ]) == 0
        assert peer.join_result() == 0
        output = capsys.readouterr().out
        assert "accuracy: 100.0% over 2 samples" in output
        assert "served 2 sessions" in output
