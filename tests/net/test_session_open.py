"""``session/open`` refuses mistyped fields and mismatched pairs.

The service reads a similarity session's public pair parameters —
``kernel``, ``dimension`` and ``params`` — and ``seed`` by type, not by
truthiness: a peer that sends ``"kernel": "false"`` is not taken as
linear, and a ``bool`` seed is not taken as an ``int``.  Well-typed
parameters that differ from the server's model (another kernel,
dimension or metric parameters) are refused before ``session/accept``,
so Bob's clear norms never leave; the client, in turn, refuses a
``session/accept`` that still echoes a ``linear`` flag.  A similarity
session's clear norms are read by type too: a text, float, NaN or
``bool`` norm, or a negative or zero one, ends the session with a
``session/error`` reply before any OMPE run.  Each case runs the service loop over
:func:`repro.net.wire.memory_pair`, so no socket is opened.
"""

import threading
from fractions import Fraction

import numpy as np
import pytest

from repro.core.ompe import OMPEConfig
from repro.core.similarity import MetricParams
from repro.exceptions import ProtocolError
from repro.ml.kernels import polynomial_kernel
from repro.ml.svm.model import SVMModel, make_linear_model
from repro.net import service, wire
from repro.net.mux import MuxChannel, V1Session
from repro.net.service import ACCEPT, OPEN, TrainerClient, TrainerServer

SEED = 42

#: The public pair parameters of the ``model`` fixture under the
#: default metric parameters.
PAIR = {"kernel": None, "dimension": 3, "params": MetricParams()}

_ABSENT = object()


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
    @pytest.mark.parametrize(
        "field, value",
        [
            ("kernel", "false"),
            ("kernel", "true"),
            ("kernel", 1),
            ("kernel", 0),
            ("kernel", (1, 0)),
            ("kernel", _ABSENT),
            ("dimension", "3"),
            ("dimension", True),
            ("dimension", _ABSENT),
            ("params", {"l0": 0.01}),
            ("params", _ABSENT),
        ],
        ids=[
            "kernel-false", "kernel-true", "kernel-1", "kernel-0", "kernel-pair",
            "kernel-absent",
            "dimension-text", "dimension-bool", "dimension-absent",
            "params-mapping", "params-absent",
        ],
    )
    def test_mistyped_pair_field(self, config, model, field, value):
        request = {"kind": "similarity", "seed": SEED, **PAIR, "policy": None}
        if value is _ABSENT:
            del request[field]
        else:
            request[field] = value
        message = _refusal(config, model, request)
        assert "session/open needs 'kernel' (None or an (a0, b0, degree) triple)" in message

    @pytest.mark.parametrize("kind", ["classify", "similarity"])
    def test_bool_seed(self, config, model, kind):
        request = {"kind": kind, "seed": True, **PAIR, "policy": None}
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
            OPEN, {"kind": "similarity", "seed": SEED, **PAIR, "policy": None}
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


class TestClientSends:
    def test_open_carries_the_pair_parameters(self, config, model):
        """Bob's ``session/open`` names his kernel, dimension and metric
        parameters, and no longer a ``linear`` flag."""
        end_server, end_client = wire.memory_pair(timeout=10.0)
        opened = []

        def fake_server():
            try:
                session = V1Session(end_server)
                opened.append(session.recv_control(OPEN)[1])
                session.send_control(service.ERROR, "refused by the test")
            finally:
                end_server.close()

        thread, errors = _run_in_thread(fake_server)
        with TrainerClient(connection=end_client, config=config) as client:
            with pytest.raises(ProtocolError, match="refused by the test"):
                client.evaluate_similarity(model, seed=SEED)
        thread.join(10.0)
        assert not thread.is_alive() and not errors
        (request,) = opened
        assert {key: request[key] for key in PAIR} == PAIR
        assert "linear" not in request


class TestClientRefuses:
    @pytest.mark.parametrize("echoed", ["false", 1, None])
    def test_non_bool_linear_in_accept(self, config, model, monkeypatch, echoed):
        """A ``session/accept`` that still echoes a ``linear`` flag is
        refused before the client's protocol driver starts."""
        started = []
        monkeypatch.setattr(
            service, "run_similarity_bob", lambda *args, **kwargs: started.append(args)
        )
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
            with pytest.raises(ProtocolError, match="carries no 'linear' flag"):
                client.evaluate_similarity(model, seed=SEED)
        thread.join(10.0)
        assert not thread.is_alive() and not errors
        assert started == []


# -- a well-typed pair that is not the server's ------------------------------

SMALL = MetricParams(resolution=16)


def _kernel_model(a0: float) -> SVMModel:
    """A degree-2 kernel model in 2 variables whose boundary crosses the box."""
    spec = {"degree": 2, "a0": a0, "b0": 0.0}
    return SVMModel(
        support_vectors=np.array([[0.5, -0.25], [-0.75, 0.5], [0.25, 0.75]]),
        dual_coefficients=np.array([1.0, -1.0, 0.5]),
        bias=-0.05,
        kernel=polynomial_kernel(**spec),
        kernel_spec=("poly", spec),
    )


MISMATCHES = {
    # name: (server model, server params, client model, client params, reason)
    "kernel-a0": (
        _kernel_model(1 / 3), SMALL, _kernel_model(0.5), SMALL,
        "share the same kernel configuration",
    ),
    "dimension": (
        make_linear_model([0.75, -0.5, 0.25], 0.125), SMALL,
        make_linear_model([0.5, -0.25], 0.1), SMALL,
        "share input dimensionality",
    ),
    "metric-params": (
        make_linear_model([0.75, -0.5, 0.25], 0.125), MetricParams(l0=0.5),
        make_linear_model([0.5, -0.25, 0.5], 0.1), MetricParams(),
        "share the metric parameters",
    ),
}


@pytest.mark.parametrize("protocol", ["v1", "v2"])
@pytest.mark.parametrize("mismatch", sorted(MISMATCHES))
def test_mismatched_pair_refused_before_accept(config, monkeypatch, protocol, mismatch):
    """The server refuses the pair from ``session/open`` alone: the
    client's protocol driver never starts, so no clear norm is sent."""
    server_model, server_params, client_model, client_params, reason = MISMATCHES[
        mismatch
    ]
    started = []
    monkeypatch.setattr(
        service, "run_similarity_bob", lambda *args, **kwargs: started.append(args)
    )
    server = TrainerServer(server_model, config=config, params=server_params)
    end_server, end_client = wire.memory_pair(timeout=10.0)
    thread, errors = _run_in_thread(lambda: server.serve_connection(end_server))
    try:
        with TrainerClient(
            connection=end_client, config=config, params=client_params,
            protocol=protocol,
        ) as client:
            with pytest.raises(ProtocolError, match=reason):
                client.evaluate_similarity(client_model, seed=SEED)
    finally:
        thread.join(10.0)
        server.close()
    assert not thread.is_alive() and not errors
    assert started == []
