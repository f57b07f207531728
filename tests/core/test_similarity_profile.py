"""Differential, op-count and guard tests for similarity profiles.

A :class:`~repro.core.similarity.profile.SimilarityProfile` is each
party's local step-1/2 state.  Running the protocol from prebuilt
profiles must be indistinguishable from running it from the models:
identical ``T²`` and identical per-phase transcript rows, both in
process and through the split Alice/Bob drivers.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from repro import obs
from repro.core.ompe import OMPEConfig
from repro.core.ompe.receiver import OMPEReceiver
from repro.core.similarity import (
    MetricParams,
    evaluate_similarity_private,
    similarity_profile,
)
from repro.core.similarity import profile as profile_module
from repro.core.similarity import linear
from repro.core.similarity.exact import snap
from repro.core.similarity.linear import AREA_BASIS
from repro.core.similarity.linear import run_similarity_alice, run_similarity_bob
from repro.exceptions import ProtocolError, SimilarityError, ValidationError
from repro.linkage import LinkageJobSpec, SerialLinkageRunner, run_linkage
from repro.math.groups import fast_group
from repro.ml.kernels import polynomial_kernel
from repro.ml.svm.model import SVMModel, make_linear_model
from repro.net import wire
from repro.net.channel import Channel
from repro.net.service import TrainerClient, TrainerServer
from repro.obs import Tracer

PARAMS = MetricParams(resolution=16)


@pytest.fixture(scope="module")
def light_config():
    return OMPEConfig(security_degree=1, cover_expansion=2, group=fast_group())


def _kernel_model(seed: int, svs: int = 4, dimension: int = 2) -> SVMModel:
    """A small degree-2 polynomial model whose boundary crosses the box."""
    rng = random.Random(seed)
    corners = np.array([[x, y] for x in (-1.0, 1.0) for y in (-1.0, 1.0)])
    while True:
        model = SVMModel(
            support_vectors=[
                [rng.uniform(-1.0, 1.0) for _ in range(dimension)]
                for _ in range(svs)
            ],
            dual_coefficients=[rng.uniform(-1.0, 1.0) for _ in range(svs)],
            bias=rng.uniform(-0.05, 0.05),
            kernel=polynomial_kernel(degree=2, a0=0.5, b0=0.0),
            kernel_spec=("poly", {"degree": 2, "a0": 0.5, "b0": 0.0}),
        )
        values = model.decision_values(corners)
        if values.min() < 0 < values.max():
            return model


PAIRS = {
    "linear": (
        make_linear_model([1.0, 0.7], -0.2),
        make_linear_model([0.8, -0.5], 0.3),
    ),
    "kernel": (_kernel_model(1), _kernel_model(2)),
}


def _rows(outcome):
    """Per-phase transcript rows: bytes by phase, message types, rounds."""
    return {
        phase: (
            report.transcript.bytes_by_phase(),
            [message.msg_type for message in report.transcript.messages],
            report.total_bytes,
            report.rounds,
        )
        for phase, report in outcome.reports.items()
    }


class _BlockingChannel(Channel):
    """In-memory channel whose ``receive`` waits for the peer's send."""

    def __init__(self) -> None:
        super().__init__("bob", "alice")
        self._ready = threading.Condition()

    def send(self, sender, msg_type, payload):
        with self._ready:
            message = super().send(sender, msg_type, payload)
            self._ready.notify_all()
        return message

    def receive(self, recipient, expected_type=None):
        with self._ready:
            if not self._ready.wait_for(lambda: self.pending(recipient), 60):
                raise TimeoutError(f"{recipient} waited 60 s for a message")
            return super().receive(recipient, expected_type)


def _split_pair(side_a, side_b, config, seed):
    """Alice's and Bob's drivers on two threads, one channel per phase.

    Returns ``(outcome, bob_error, alice_error)`` once both sides have
    stopped; an error is ``None`` when that side did not raise.
    """
    channels = []
    lock = threading.Lock()

    def factory_for():
        used = 0

        def factory():
            nonlocal used
            with lock:
                if used == len(channels):
                    channels.append(_BlockingChannel())
                channel = channels[used]
            used += 1
            return channel

        return factory

    alice_errors = []

    def run_alice():
        try:
            run_similarity_alice(
                side_a, factory_for(), params=PARAMS, config=config,
                seed=seed,
            )
        except Exception as error:  # surfaced below
            alice_errors.append(error)

    thread = threading.Thread(target=run_alice)
    thread.start()
    outcome = bob_error = None
    try:
        outcome = run_similarity_bob(
            side_b, factory_for(), params=PARAMS, config=config, seed=seed
        )
    except Exception as error:  # surfaced below
        bob_error = error
    thread.join(60)
    assert not thread.is_alive()
    return outcome, bob_error, next(iter(alice_errors), None)


def _run_split(side_a, side_b, config, seed):
    outcome, bob_error, alice_error = _split_pair(side_a, side_b, config, seed)
    assert bob_error is None and alice_error is None, (bob_error, alice_error)
    return outcome


@pytest.mark.parametrize("kind", ["linear", "kernel"])
class TestProfileDifferential:
    def test_in_process_profiles_match_models(self, kind, light_config):
        model_a, model_b = PAIRS[kind]
        evaluate = evaluate_similarity_private
        reference = evaluate(model_a, model_b, PARAMS, config=light_config, seed=5)
        profile_a = similarity_profile(model_a, PARAMS)
        profile_b = similarity_profile(model_b, PARAMS)
        for side_a, side_b in (
            (profile_a, profile_b),
            (profile_a, model_b),
            (model_a, profile_b),
        ):
            outcome = evaluate(side_a, side_b, PARAMS, config=light_config, seed=5)
            assert outcome.t_squared == reference.t_squared
            assert _rows(outcome) == _rows(reference)

    def test_split_drivers_match_in_process(self, kind, light_config):
        model_a, model_b = PAIRS[kind]
        reference = evaluate_similarity_private(
            model_a, model_b, PARAMS, config=light_config, seed=9
        )
        profile_a = similarity_profile(model_a, PARAMS)
        profile_b = similarity_profile(model_b, PARAMS)
        for side_a, side_b in ((model_a, model_b), (profile_a, profile_b)):
            outcome = _run_split(side_a, side_b, light_config, seed=9)
            assert outcome.t_squared == reference.t_squared
            assert _rows(outcome) == _rows(reference)


class TestProfileReuse:
    def _counting(self, monkeypatch, name):
        calls = []
        original = getattr(profile_module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(profile_module, name, counted)
        return calls

    def test_serial_runner_derives_each_model_once(
        self, monkeypatch, light_config, tmp_path
    ):
        scans = self._counting(monkeypatch, "kernel_boundary_points")
        maps = self._counting(monkeypatch, "monomial_map")
        spec = LinkageJobSpec(
            {f"L{i}": _kernel_model(10 + i) for i in range(2)},
            {f"R{j}": _kernel_model(20 + j) for j in range(4)},
            chunk_pairs=4,
            seed=3,
            config=light_config,
            params=PARAMS,
        )
        runner = SerialLinkageRunner()
        report = run_linkage(spec, runner, tmp_path / "store")
        assert report.pairs_scored == 8
        # 2 + 4 distinct models; per-pair derivation would make 16 each.
        assert len(scans) == 6
        assert len(maps) == 6
        assert runner._profiles == {}


@pytest.mark.socket
class TestServerProfiles:
    def test_built_lazily_and_once_under_racing_sessions(self, light_config):
        model = PAIRS["kernel"][0]
        server = TrainerServer(model, config=light_config, params=PARAMS)
        try:
            assert server._profiles == {}  # nothing derived at start-up
            barrier = threading.Barrier(8)
            results = []

            def first_session():
                barrier.wait(10)
                results.append(server._similarity_profile(None, model))

            threads = [threading.Thread(target=first_session) for _ in range(8)]
            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
            finally:
                sys.setswitchinterval(previous)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == 8
            assert all(result is server._profiles[None] for result in results)
        finally:
            server.close()


class TestProfileGuards:
    def test_profile_passes_through_under_equal_params(self):
        profile = similarity_profile(PAIRS["linear"][0], PARAMS)
        assert similarity_profile(profile, MetricParams(resolution=16)) is profile

    def test_profile_under_other_params_is_refused(self, light_config):
        model_a, model_b = PAIRS["linear"]
        profile = similarity_profile(model_a, PARAMS)
        with pytest.raises(ValidationError, match="profile was built under"):
            similarity_profile(profile, MetricParams())
        with pytest.raises(ValidationError, match="profile was built under"):
            evaluate_similarity_private(
                profile, model_b, MetricParams(), config=light_config
            )

    def test_linear_profile_refused_like_linear_model(self, light_config):
        """A linear side paired with a kernel side: same refusal from
        profiles as from models."""
        linear, kernel = PAIRS["linear"][0], PAIRS["kernel"][0]
        profiles = (
            similarity_profile(linear, PARAMS),
            similarity_profile(kernel, PARAMS),
        )
        with pytest.raises(ValidationError) as from_model:
            evaluate_similarity_private(
                linear, kernel, PARAMS, config=light_config
            )
        with pytest.raises(ValidationError) as from_profile:
            evaluate_similarity_private(*profiles, PARAMS, config=light_config)
        assert str(from_profile.value) == str(from_model.value)

    def test_kernel_profile_refused_by_linear_driver(self, light_config):
        """The same pair in the other order: kernel side first."""
        linear, kernel = PAIRS["linear"][0], PAIRS["kernel"][0]
        profiles = (
            similarity_profile(kernel, PARAMS),
            similarity_profile(linear, PARAMS),
        )
        with pytest.raises(ValidationError) as from_model:
            evaluate_similarity_private(
                kernel, linear, PARAMS, config=light_config
            )
        with pytest.raises(ValidationError) as from_profile:
            evaluate_similarity_private(*profiles, PARAMS, config=light_config)
        assert str(from_profile.value) == str(from_model.value)


class TestDegenerateNormal:
    @pytest.mark.parametrize("kind", ["linear", "kernel"])
    def test_split_bob_refuses_his_degenerate_normal(self, kind, light_config):
        """Both sides refuse Bob's zero normal right after the clear
        exchange; neither waits on an OMPE run the other never starts."""
        model_a, model_b = PAIRS[kind]
        degenerate = dataclasses.replace(
            similarity_profile(model_b, PARAMS), normal_norm=Fraction(0)
        )
        outcome, bob_error, alice_error = _split_pair(
            model_a, degenerate, light_config, seed=3
        )
        assert outcome is None
        assert isinstance(bob_error, SimilarityError)
        assert isinstance(alice_error, SimilarityError)
        assert str(bob_error) == str(alice_error)


class TestMixedKindSession:
    def test_kernel_client_refused_by_linear_server(self, light_config):
        """A typed ProtocolError on both sides, and nothing hangs."""
        server = TrainerServer(
            PAIRS["linear"][0], config=light_config, params=PARAMS
        )
        end_a, end_b = wire.memory_pair(timeout=30.0)
        peer = threading.Thread(target=server.serve_connection, args=(end_a,))
        previous = obs.get_tracer()
        obs.set_tracer(Tracer())
        try:
            peer.start()
            with TrainerClient(
                connection=end_b, config=light_config, params=PARAMS
            ) as client:
                with pytest.raises(
                    ProtocolError, match="both models to be linear or both kernel"
                ):
                    client.evaluate_similarity(PAIRS["kernel"][1], seed=4)
            peer.join(30)
            assert not peer.is_alive()
        finally:
            obs.set_tracer(previous)
            server.close()
        (entry,) = server._trace_log
        assert entry["error"].startswith("ProtocolError: ")

    def test_packed_model_client_refused_with_protocol_abort(self, light_config):
        """A client still sending the packed kernel model (duals, then
        support vectors: arity k_B·(d+1) = 12) into OMPE #2 meets the
        server's typed arity abort at the OMPE #1/#2 run (3 + 3
        degree-2 monomials in 2 variables, where the client announces
        3 + 12), never a TypeError."""
        model_b = PAIRS["kernel"][1]
        packed = tuple(snap(c) for c in model_b.dual_coefficients) + tuple(
            snap(value) for row in model_b.support_vectors for value in row
        )
        old_shaped = dataclasses.replace(
            similarity_profile(model_b, PARAMS), normal_input=packed
        )
        server = TrainerServer(
            PAIRS["kernel"][0], config=light_config, params=PARAMS
        )
        end_a, end_b = wire.memory_pair(timeout=30.0)
        peer = threading.Thread(target=server.serve_connection, args=(end_a,))
        previous = obs.get_tracer()
        obs.set_tracer(Tracer())
        try:
            peer.start()
            with TrainerClient(
                connection=end_b, config=light_config, params=PARAMS
            ) as client:
                with pytest.raises(ProtocolError, match="session/error"):
                    client.evaluate_similarity(old_shaped, seed=4)
            peer.join(30)
            assert not peer.is_alive()
        finally:
            obs.set_tracer(previous)
            server.close()
        (entry,) = server._trace_log
        assert len(packed) == 12
        assert entry["error"] == (
            "ProtocolAbort: receiver announced arity 15, function has 6"
        )


class TestOldAreaShape:
    """A client still running OMPE #3 over ``(x₁, x₂)``, from before it
    moved onto Eq. (7)'s 8 monomials, meets the server's typed abort
    over a real connection: never a hang, never a TypeError."""

    def _refusal(self, light_config):
        """Run one linear session; return the server's logged error."""
        server = TrainerServer(
            PAIRS["linear"][0], config=light_config, params=PARAMS
        )
        end_a, end_b = wire.memory_pair(timeout=30.0)
        peer = threading.Thread(target=server.serve_connection, args=(end_a,))
        previous = obs.get_tracer()
        obs.set_tracer(Tracer())
        try:
            peer.start()
            with TrainerClient(
                connection=end_b, config=light_config, params=PARAMS
            ) as client:
                with pytest.raises(ProtocolError, match="session/error"):
                    client.evaluate_similarity(PAIRS["linear"][1], seed=4)
            peer.join(30)
            assert not peer.is_alive()
        finally:
            obs.set_tracer(previous)
            server.close()
        (entry,) = server._trace_log
        return entry["error"]

    def test_old_arity_refused_at_request(self, light_config, monkeypatch):
        monkeypatch.setattr(linear, "area_input", lambda x1, x2: (x1, x2))
        assert self._refusal(light_config) == (
            "ProtocolAbort: receiver announced arity 2, function has 8"
        )

    def test_two_coordinate_points_refused_by_check_points(
        self, light_config, monkeypatch
    ):
        """The client announces the new arity for OMPE #3, then sends
        points of 2 coordinates: ``check_points`` refuses the message
        before the sender evaluates anything."""
        monkeypatch.setattr(linear, "area_input", lambda x1, x2: (x1, x2))
        send_request = OMPEReceiver.send_request
        requests = []

        def announce_new_area_arity(receiver):
            requests.append(receiver)
            if len(requests) < 2:
                return send_request(receiver)
            receiver.send("ompe/request", len(AREA_BASIS))

        monkeypatch.setattr(OMPEReceiver, "send_request", announce_new_area_arity)
        assert self._refusal(light_config) == (
            "ProtocolAbort: points entry 0: vector is not 8 coordinates"
        )
        assert len(requests) == 2
