"""``session/open`` and ``session/accept`` refuse mistyped fields.

The service reads ``linear`` and ``seed`` by type, not by truthiness: a
peer that sends ``"linear": "false"`` is not taken as linear, and a
``bool`` seed is not taken as an ``int``.  A similarity session's
clear norms are read by type too: a text, float, NaN or ``bool`` norm,
or a negative or zero one, ends the session with a ``session/error``
reply before any OMPE run.  Each case runs the service loop over
:func:`repro.net.wire.memory_pair`, so no socket is opened.
"""

import threading
from fractions import Fraction

import pytest

from repro.core.ompe import OMPEConfig
from repro.exceptions import ProtocolError
from repro.ml.svm.model import make_linear_model
from repro.net import wire
from repro.net.mux import MuxChannel, V1Session
from repro.net.service import ACCEPT, OPEN, TrainerClient, TrainerServer

SEED = 42


@pytest.fixture(scope="module")
def config():
    return OMPEConfig(security_degree=1)


@pytest.fixture(scope="module")
def model():
    return make_linear_model([0.75, -0.5, 0.25], 0.125)


def _run_in_thread(target):
    errors = []

    def run():
        try:
            target()
        except BaseException as error:  # noqa: BLE001 — reported on join
            errors.append(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, errors


def _refusal(config, model, request):
    """Send ``request`` as ``session/open`` and return the server's reply."""
    end_server, end_client = wire.memory_pair(timeout=10.0)
    server = TrainerServer(model, config=config)
    thread, _ = _run_in_thread(lambda: server.serve_connection(end_server))
    try:
        session = V1Session(end_client)
        session.send_control(OPEN, request)
        with pytest.raises(ProtocolError) as refused:
            session.recv_control()
    finally:
        end_client.close()
        thread.join(10.0)
        server.close()
    assert not thread.is_alive(), "server did not finish"
    return str(refused.value)


class TestServerRefuses:
    @pytest.mark.parametrize("claimed", ["false", "true", 1, 0, None])
    def test_non_bool_linear(self, config, model, claimed):
        request = {"kind": "similarity", "seed": SEED, "policy": None}
        if claimed is not None:
            request["linear"] = claimed
        message = _refusal(config, model, request)
        assert "'linear' must be a bool" in message

    @pytest.mark.parametrize("kind", ["classify", "similarity"])
    def test_bool_seed(self, config, model, kind):
        request = {"kind": kind, "seed": True, "linear": True, "policy": None}
        message = _refusal(config, model, request)
        assert "seed must be an int or None" in message


def _norms_refusal(config, model, norms):
    """Open a similarity session, send ``norms`` as Bob's clear norms
    and return the server's ``session/error`` text."""
    end_server, end_client = wire.memory_pair(timeout=10.0)
    server = TrainerServer(model, config=config)
    thread, _ = _run_in_thread(lambda: server.serve_connection(end_server))
    try:
        session = V1Session(end_client)
        session.send_control(
            OPEN, {"kind": "similarity", "seed": SEED, "linear": True, "policy": None}
        )
        session.recv_control(ACCEPT)
        MuxChannel("bob", "alice", session).send("bob", "similarity/norms", norms)
        with pytest.raises(ProtocolError) as refused:
            session.recv_control()
    finally:
        end_client.close()
        thread.join(10.0)
        server.close()
    assert not thread.is_alive(), "server did not finish"
    return str(refused.value)


class TestServerRefusesNorms:
    @pytest.mark.parametrize(
        "norms, reason",
        [
            (("1", Fraction(1)), "norm is a str"),
            ((1.5, Fraction(1)), "norm is a float"),
            ((Fraction(1), float("nan")), "norm is a float"),
            ((True, Fraction(1)), "norm is a bool"),
            ((Fraction(1), True), "norm is a bool"),
            ((Fraction(1),), "not a (centroid, normal) pair"),
            ("norms", "not a (centroid, normal) pair"),
            ((Fraction(-1), Fraction(1)), "centroid norm -1 is negative"),
            ((Fraction(1), 0), "normal is degenerate"),
        ],
        ids=[
            "str", "float", "nan", "bool-centroid", "bool-normal", "one-value",
            "text", "negative-centroid", "zero-normal",
        ],
    )
    def test_session_error_before_any_ompe_run(self, config, model, norms, reason):
        assert reason in _norms_refusal(config, model, norms)


class TestClientRefuses:
    @pytest.mark.parametrize("echoed", ["false", 1, None])
    def test_non_bool_linear_in_accept(self, config, model, echoed):
        end_server, end_client = wire.memory_pair(timeout=10.0)

        def fake_server():
            try:
                session = V1Session(end_server)
                session.recv_control(OPEN)
                session.send_control(ACCEPT, {
                    "linear": echoed,
                    "session": "s1",
                    "policy": None,
                    "model": None,
                })
            finally:
                end_server.close()

        thread, errors = _run_in_thread(fake_server)
        with TrainerClient(connection=end_client, config=config) as client:
            with pytest.raises(ProtocolError, match="'linear' must be a bool"):
                client.evaluate_similarity(model, seed=SEED)
        thread.join(10.0)
        assert not thread.is_alive() and not errors
