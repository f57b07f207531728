"""Batch fan-out error semantics: one bad item never hurts the rest.

Regression suite for the bounded-window fan-out in
:class:`~repro.net.service.TrainerClientPool`.  The bug class pinned
here: a session that errors or gets poisoned mid-fan-out used to hold
its in-flight slot (stalling the window into deadlock) or shift its
neighbours' results.  Now every item's outcome — or a typed
:class:`~repro.exceptions.BatchItemError` — lands at its own index,
failed items release their slots, and the default mode re-raises the
*original* first error once the batch has been attempted.

Real loopback sockets throughout (``socket``-marked; the SIGALRM hard
timeout in ``tests/conftest.py`` is what turns a would-be deadlock
into a loud failure).
"""

from __future__ import annotations

import threading

import pytest

from repro.core.classification import private_classify
from repro.core.similarity import evaluate_similarity_private
from repro.exceptions import BatchItemError, ProtocolError
from repro.ml.svm.model import make_linear_model
from repro.net.service import TrainerClientPool, TrainerServer

pytestmark = pytest.mark.socket


@pytest.fixture(scope="module")
def model_a():
    return make_linear_model([0.75, -0.5, 0.25], 0.125)


@pytest.fixture(scope="module")
def right_models():
    return [
        make_linear_model([0.7 + 0.05 * i, -0.45, 0.2], 0.1 * i)
        for i in range(6)
    ]


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

    def join_result(self, timeout=30.0):
        self.join(timeout)
        if self.error is not None:
            raise self.error
        return self.result


@pytest.fixture
def served(model_a, fast_config):
    server = TrainerServer(
        model_a, config=fast_config, max_connections=4
    )
    peer = _Peer(lambda: server.serve_forever(accept_timeout=30.0))
    peer.start()
    try:
        yield server
    finally:
        server.stop()
        peer.join_result()
        server.close()


def similarity_references(model_a, right_models, fast_config, seeds):
    return [
        evaluate_similarity_private(
            model_a, right, config=fast_config, seed=seed
        )
        for right, seed in zip(right_models, seeds)
    ]


class TestPoisonedItemIsolation:
    """One refused session mid-batch: typed error at its index only."""

    BAD = 2  # mid-window: earlier items already in flight, later queued

    def _run_batch(self, served, fast_config, right_models):
        host, port = served.address
        seeds = list(range(300, 300 + len(right_models)))
        # server_models["nope"] is refused at session/accept — a
        # deterministic mid-fan-out session failure.
        keys = [None] * len(right_models)
        keys[self.BAD] = "nope"
        with TrainerClientPool(
            host, port, size=2, config=fast_config
        ) as pool:
            outcomes = pool.evaluate_similarity_many(
                right_models, seeds=seeds, server_models=keys,
                return_errors=True,
            )
        return outcomes, seeds

    def test_neighbours_bit_identical_error_typed(
        self, served, fast_config, model_a, right_models
    ):
        outcomes, seeds = self._run_batch(served, fast_config, right_models)
        references = similarity_references(
            model_a, right_models, fast_config, seeds
        )
        assert len(outcomes) == len(right_models)
        for index, outcome in enumerate(outcomes):
            if index == self.BAD:
                assert isinstance(outcome, BatchItemError)
                assert outcome.index == self.BAD
                assert isinstance(outcome.__cause__, ProtocolError)
            else:
                assert outcome.t_squared == references[index].t_squared

    def test_default_mode_reraises_the_original_error(
        self, served, fast_config, right_models
    ):
        host, port = served.address
        keys = [None] * len(right_models)
        keys[self.BAD] = "nope"
        with TrainerClientPool(
            host, port, size=2, config=fast_config
        ) as pool:
            with pytest.raises(ProtocolError, match="nope"):
                pool.evaluate_similarity_many(
                    right_models, server_models=keys
                )
            # The pool is still healthy after the failed batch.
            outcome = pool.evaluate_similarity(right_models[0], seed=1)
        assert outcome.t is not None


class TestWindowAdvancesPastFailures:
    def test_tiny_window_with_early_failure_completes(
        self, served, fast_config, model_a, right_models
    ):
        """window = pipeline x clients = 2; the failed first item must
        release its slot or every later item deadlocks behind it."""
        host, port = served.address
        seeds = list(range(400, 400 + len(right_models)))
        keys = [None] * len(right_models)
        keys[0] = "nope"
        with TrainerClientPool(
            host, port, size=1, pipeline=2, config=fast_config,
        ) as pool:
            outcomes = pool.evaluate_similarity_many(
                right_models, seeds=seeds, server_models=keys,
                return_errors=True,
            )
        references = similarity_references(
            model_a, right_models, fast_config, seeds
        )
        assert isinstance(outcomes[0], BatchItemError)
        for index in range(1, len(right_models)):
            assert outcomes[index].t_squared == references[index].t_squared

    def test_every_item_failing_terminates(
        self, served, fast_config, right_models
    ):
        host, port = served.address
        keys = ["nope"] * len(right_models)
        with TrainerClientPool(
            host, port, size=2, config=fast_config
        ) as pool:
            outcomes = pool.evaluate_similarity_many(
                right_models, server_models=keys, return_errors=True
            )
        assert all(
            isinstance(outcome, BatchItemError) for outcome in outcomes
        )
        assert [outcome.index for outcome in outcomes] == list(
            range(len(right_models))
        )


class TestMidFanOutDisconnect:
    def test_server_shutdown_mid_batch_poisons_not_deadlocks(
        self, model_a, fast_config
    ):
        """The server dies after two sessions with a whole batch in
        flight; every unserved item surfaces as a typed error at its
        own index, every served item stays bit-identical, and the
        batch returns (the socket watchdog would turn a deadlock into
        a loud TimeoutError)."""
        server = TrainerServer(
            model_a, config=fast_config, max_connections=2,
            session_workers=1, drain_timeout=0.05,
        )
        host, port = server.address
        peer = _Peer(
            lambda: server.serve_forever(max_sessions=2, accept_timeout=30.0)
        )
        peer.start()
        samples = [
            (0.1 * i - 0.4, 0.05 * i, 0.3 - 0.1 * i) for i in range(8)
        ]
        seeds = list(range(500, 508))
        try:
            with TrainerClientPool(
                host, port, size=2, config=fast_config, timeout=10.0,
            ) as pool:
                outcomes = pool.classify_many(
                    samples, seeds=seeds, return_errors=True
                )
        finally:
            peer.join_result()
            server.close()
        assert len(outcomes) == len(samples)
        failures = 0
        for index, outcome in enumerate(outcomes):
            if isinstance(outcome, BatchItemError):
                assert outcome.index == index
                failures += 1
            else:
                reference = private_classify(
                    model_a, samples[index], config=fast_config,
                    seed=seeds[index],
                )
                assert outcome.label == reference.label
                assert (
                    outcome.randomized_value == reference.randomized_value
                )
        assert failures >= 1
