"""Output-policy conformance across transports (ISSUE 7 satellite 2).

Three contracts:

1. **Bit-identity** — for every policy, the mitigated outcome a
   :class:`~repro.net.service.TrainerClient` receives over real TCP is
   byte-for-byte the outcome the in-process evaluator produces with the
   same models, config, and seed, and both export the identical
   ``repro_privacy_leakage_score`` gauge values.
2. **No raw-score leakage** — under any non-raw policy, neither the
   IEEE-754 encoding of ``T`` nor the exact encoding of ``T²`` appears
   anywhere in the wire transcript payloads.
3. **Hostile negotiation** — a malformed ``policy`` field in
   ``session/open``, or a request conflicting with a server mandate, is
   refused with a session error instead of silently degrading to raw.

TCP tests are marked ``socket``; the ``memory_pair`` tests run the same
service loop hermetically.
"""

import struct
import threading

import pytest

from repro import obs
from repro.core.similarity import evaluate_similarity_private
from repro.core.similarity.linear import PrivateSimilarityOutcome
from repro.core.similarity.policy import (
    MitigatedSimilarityOutcome,
    parse_output_policy,
)
from repro.exceptions import ProtocolError, ValidationError
from repro.ml.svm.model import make_linear_model
from repro.net import wire
from repro.net.mux import V1Session
from repro.net.service import OPEN, TrainerClient, TrainerServer
from repro.obs import MetricsRegistry
from repro.utils.serialization import encode_payload

POLICIES = ["raw", "threshold:0.5", "top-k:1", "permuted"]
SEED = 42

LEAKAGE_GAUGE = "repro_privacy_leakage_score"


@pytest.fixture(scope="module")
def models():
    return (
        make_linear_model([0.75, -0.5, 0.25], 0.125),
        make_linear_model([0.5, 0.625, -0.25], -0.0625),
    )


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


def _leakage_series(registry):
    """All leakage-gauge label/value pairs exported in a registry."""
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


@pytest.mark.socket
class TestPolicyTransportConformance:
    @pytest.mark.parametrize("spec", POLICIES)
    def test_tcp_outcome_bit_identical_to_in_memory(
        self, spec, fast_config, models
    ):
        model_a, model_b = models
        policy = parse_output_policy(spec)

        reference, reference_registry = _with_registry(
            lambda: evaluate_similarity_private(
                model_a, model_b,
                config=fast_config, seed=SEED, policy=policy,
            )
        )

        def over_tcp():
            server = TrainerServer(model_a, config=fast_config)
            host, port = server.address
            peer = _Peer(
                lambda: server.serve_forever(
                    max_sessions=1, accept_timeout=30.0
                )
            )
            peer.start()
            with TrainerClient(host, port, config=fast_config) as client:
                outcome = client.evaluate_similarity(
                    model_b, seed=SEED, policy=policy
                )
            assert peer.join_result() == 1
            server.close()
            return outcome

        outcome, tcp_registry = _with_registry(over_tcp)

        assert isinstance(outcome, MitigatedSimilarityOutcome)
        assert outcome.policy == policy
        assert outcome.released.entries == reference.released.entries
        if policy.mode == "raw":
            assert outcome.t == reference.t
        # Identical leakage-score export on both sides of the wire.
        assert _leakage_series(tcp_registry) == _leakage_series(
            reference_registry
        )
        assert _leakage_series(reference_registry), "gauge never exported"
        # Same conversation on the wire as in memory, phase for phase.
        for phase in reference.reports:
            assert (
                outcome.reports[phase].transcript.bytes_by_phase()
                == reference.reports[phase].transcript.bytes_by_phase()
            ), f"phase {phase!r} diverged across transports"


class TestNoRawScoreLeakage:
    @pytest.mark.parametrize("spec", ["threshold:0.5", "top-k:1", "permuted"])
    def test_transcript_never_carries_raw_score(
        self, spec, fast_config, models
    ):
        """The mitigation boundary sits at Bob's output layer, but the
        *wire* must never carry the finished score either: scan every
        transcript payload for the raw ``T`` and exact ``T²`` bytes."""
        model_a, model_b = models
        raw = evaluate_similarity_private(
            model_a, model_b, config=fast_config, seed=SEED
        )

        end_a, end_b = wire.memory_pair()
        server = TrainerServer(model_a, config=fast_config)
        peer = _Peer(lambda: server.serve_connection(end_a))
        peer.start()
        with TrainerClient(connection=end_b, config=fast_config) as client:
            outcome = client.evaluate_similarity(
                model_b, seed=SEED, policy=parse_output_policy(spec)
            )
        peer.join_result()
        server.close()

        blob = b"".join(
            encode_payload(message.payload)
            for report in outcome.reports.values()
            for message in report.transcript.messages
        )
        assert blob, "expected a non-empty wire transcript"
        assert struct.pack(">d", raw.t) not in blob
        assert struct.pack(">d", float(raw.t_squared)) not in blob
        assert encode_payload(raw.t_squared) not in blob


class TestPolicyNegotiation:
    def _serve_pair(self, fast_config, model, **server_kwargs):
        end_a, end_b = wire.memory_pair()
        server = TrainerServer(
            model, config=fast_config, **server_kwargs
        )
        peer = _Peer(lambda: server.serve_connection(end_a))
        peer.start()
        return server, peer, end_b

    def test_server_mandate_propagates_to_client(self, fast_config, models):
        """A client that asks for nothing still gets the server's
        mandated policy — the echoed accept field governs."""
        model_a, model_b = models
        mandate = parse_output_policy("threshold:0.5")
        server, peer, end = self._serve_pair(
            fast_config, model_a, output_policy=mandate
        )
        with TrainerClient(connection=end, config=fast_config) as client:
            outcome = client.evaluate_similarity(model_b, seed=SEED)
        peer.join_result()
        server.close()
        assert isinstance(outcome, MitigatedSimilarityOutcome)
        assert outcome.policy == mandate

    def test_matching_request_accepted_under_mandate(
        self, fast_config, models
    ):
        model_a, model_b = models
        mandate = parse_output_policy("top-k:1")
        server, peer, end = self._serve_pair(
            fast_config, model_a, output_policy=mandate
        )
        with TrainerClient(connection=end, config=fast_config) as client:
            outcome = client.evaluate_similarity(
                model_b, seed=SEED, policy=mandate
            )
        peer.join_result()
        server.close()
        assert outcome.policy == mandate

    def test_conflicting_request_refused(self, fast_config, models):
        model_a, model_b = models
        server, peer, end = self._serve_pair(
            fast_config, model_a,
            output_policy=parse_output_policy("threshold:0.5"),
        )
        with TrainerClient(connection=end, config=fast_config) as client:
            with pytest.raises(ProtocolError, match="mandates"):
                client.evaluate_similarity(
                    model_b, seed=SEED,
                    policy=parse_output_policy("top-k:2"),
                )
        peer.join_result()
        server.close()

    def test_no_mandate_no_request_stays_raw_legacy(
        self, fast_config, models
    ):
        """Pre-policy clients keep getting the legacy raw outcome."""
        model_a, model_b = models
        server, peer, end = self._serve_pair(fast_config, model_a)
        with TrainerClient(connection=end, config=fast_config) as client:
            outcome = client.evaluate_similarity(model_b, seed=SEED)
        peer.join_result()
        server.close()
        assert isinstance(outcome, PrivateSimilarityOutcome)
        assert not isinstance(outcome, MitigatedSimilarityOutcome)

    def test_hostile_policy_field_refused(self, fast_config, models):
        """A raw string (or any non-payload) in the ``policy`` field is
        a protocol error, not a silent raw session."""
        model_a, _ = models
        server, peer, end = self._serve_pair(fast_config, model_a)
        try:
            session = V1Session(end)
            session.send_control(OPEN, {
                "kind": "similarity",
                "seed": SEED,
                "linear": True,
                "policy": "top-k:2",
            })
            with pytest.raises(ProtocolError, match="output-policy"):
                session.recv_control()
        finally:
            end.close()
            peer.join_result()
            server.close()

    def test_client_rejects_non_policy_argument(self, fast_config, models):
        model_a, model_b = models
        server, peer, end = self._serve_pair(fast_config, model_a)
        with TrainerClient(connection=end, config=fast_config) as client:
            with pytest.raises(ValidationError):
                client.evaluate_similarity(model_b, policy="raw")
        peer.join_result()
        server.close()
