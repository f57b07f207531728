"""Differential, op-count and guard tests for similarity profiles.

A :class:`~repro.core.similarity.profile.SimilarityProfile` is each
party's local step-1/2 state.  Running the protocol from prebuilt
profiles must be indistinguishable from running it from the models:
identical ``T²`` and identical per-phase transcript rows, both in
process and through the split Alice/Bob drivers.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro.core.ompe import OMPEConfig
from repro.core.similarity import (
    MetricParams,
    evaluate_similarity_private,
    evaluate_similarity_private_nonlinear,
    similarity_profile,
)
from repro.core.similarity import profile as profile_module
from repro.core.similarity.remote import (
    run_similarity_alice_linear,
    run_similarity_alice_nonlinear,
    run_similarity_bob_linear,
    run_similarity_bob_nonlinear,
)
from repro.engine.jobs import SimilarityJob
from repro.engine.worker import EngineSpec, WorkerState, execute_job
from repro.exceptions import ValidationError
from repro.linkage import LinkageJobSpec, SerialLinkageRunner, run_linkage
from repro.math.groups import fast_group
from repro.ml.kernels import polynomial_kernel
from repro.ml.svm.model import SVMModel, make_linear_model
from repro.ml.svm.persistence import model_to_dict
from repro.net.channel import Channel
from repro.net.service import TrainerServer

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

IN_PROCESS = {
    "linear": evaluate_similarity_private,
    "kernel": evaluate_similarity_private_nonlinear,
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


def _run_split(kind, side_a, side_b, config, seed):
    """Alice's and Bob's drivers on two threads, one channel per phase."""
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

    if kind == "linear":
        alice = lambda: run_similarity_alice_linear(  # noqa: E731
            side_a, factory_for(), params=PARAMS, config=config, seed=seed
        )
        bob_driver = run_similarity_bob_linear
    else:
        alice = lambda: run_similarity_alice_nonlinear(  # noqa: E731
            side_a, side_b.n_support, factory_for(),
            params=PARAMS, config=config, seed=seed,
        )
        bob_driver = run_similarity_bob_nonlinear
    errors = []

    def run_alice():
        try:
            alice()
        except Exception as error:  # surfaced below
            errors.append(error)

    thread = threading.Thread(target=run_alice)
    thread.start()
    outcome = bob_driver(
        side_b, factory_for(), params=PARAMS, config=config, seed=seed
    )
    thread.join(60)
    assert not thread.is_alive() and not errors, errors
    return outcome


@pytest.mark.parametrize("kind", ["linear", "kernel"])
class TestProfileDifferential:
    def test_in_process_profiles_match_models(self, kind, light_config):
        model_a, model_b = PAIRS[kind]
        evaluate = IN_PROCESS[kind]
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
        reference = IN_PROCESS[kind](
            model_a, model_b, PARAMS, config=light_config, seed=9
        )
        profile_a = similarity_profile(model_a, PARAMS)
        profile_b = similarity_profile(model_b, PARAMS)
        for side_a, side_b in ((model_a, model_b), (profile_a, profile_b)):
            outcome = _run_split(kind, side_a, side_b, light_config, seed=9)
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
        inners = self._counting(monkeypatch, "exact_normal_inner")
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
        assert len(inners) == 6
        assert runner._profiles == {}

    def test_engine_worker_reuses_left_profile(self, light_config):
        left = _kernel_model(30)
        spec = EngineSpec(
            model_document=model_to_dict(left),
            config=light_config,
            seed=1,
            metric_params=PARAMS,
        )
        state = WorkerState.from_spec(spec, worker_id=0)
        for job_id, seed in enumerate((4, 5)):
            job = SimilarityJob(
                job_id=job_id,
                model_document=model_to_dict(_kernel_model(31)),
                seed=seed,
            )
            assert execute_job(state, job, attempt=1).ok
            if job_id == 0:
                first = state.profiles[None]
        assert state.profiles == {None: first}


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
        model = PAIRS["linear"][0]
        profile = similarity_profile(model, PARAMS)
        with pytest.raises(ValidationError) as from_model:
            evaluate_similarity_private_nonlinear(
                model, model, PARAMS, config=light_config
            )
        with pytest.raises(ValidationError) as from_profile:
            evaluate_similarity_private_nonlinear(
                profile, profile, PARAMS, config=light_config
            )
        assert str(from_profile.value) == str(from_model.value)

    def test_kernel_profile_refused_by_linear_driver(self, light_config):
        model = PAIRS["kernel"][0]
        profile = similarity_profile(model, PARAMS)
        with pytest.raises(ValidationError) as from_model:
            evaluate_similarity_private(model, model, PARAMS, config=light_config)
        with pytest.raises(ValidationError) as from_profile:
            evaluate_similarity_private(
                profile, profile, PARAMS, config=light_config
            )
        assert str(from_profile.value) == str(from_model.value)
