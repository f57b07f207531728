"""A session that fails with an untyped exception is contained like a typed one.

The trainer service catches every exception a session raises, not only
the typed :class:`~repro.exceptions.ReproError` ones: the session
returns its slot (``repro_service_sessions_inflight`` back to 0), counts
a ``session-aborted`` fault and answers with a ``session/error`` naming
the exception type, so the client fails fast instead of waiting out its
timeout.  The fault is planted here as a ``TypeError`` in the server's
classification handler, over :func:`repro.net.wire.memory_pair`.
"""

import threading
import time

import pytest

from repro import obs
from repro.core.classification import private_classify
from repro.core.ompe import OMPEConfig
from repro.exceptions import ProtocolError
from repro.ml.svm.model import make_linear_model
from repro.net import wire
from repro.net.service import (
    SERVICE_FAULTS,
    SESSIONS_INFLIGHT,
    TrainerClient,
    TrainerServer,
)
from repro.obs import MetricsRegistry

CONFIG = OMPEConfig(security_degree=1)
MODEL = make_linear_model([0.75, -0.5, 0.25], 0.125)
SAMPLE = (0.5, -0.25, 0.75)
TIMEOUT = 10.0


@pytest.fixture
def registry():
    previous = obs.get_metrics()
    registry = MetricsRegistry()
    obs.set_metrics(registry)
    try:
        yield registry
    finally:
        obs.set_metrics(previous)


@pytest.fixture
def planted_type_error(monkeypatch):
    """The server's first classification session raises ``TypeError``."""
    serve = TrainerServer._serve_classify
    planted = []

    def broken(self, *args):
        if not planted:
            planted.append(True)
            raise TypeError("planted fault")
        return serve(self, *args)

    monkeypatch.setattr(TrainerServer, "_serve_classify", broken)
    return planted


@pytest.mark.parametrize("protocol", ["v1", "v2"])
def test_untyped_fault_aborts_only_its_session(
    registry, planted_type_error, protocol
):
    server = TrainerServer(MODEL, config=CONFIG)
    end_server, end_client = wire.memory_pair(timeout=TIMEOUT)
    thread = threading.Thread(
        target=server.serve_connection, args=(end_server,), daemon=True
    )
    thread.start()
    try:
        with TrainerClient(
            connection=end_client, config=CONFIG, protocol=protocol,
            timeout=TIMEOUT,
        ) as client:
            started = time.monotonic()
            with pytest.raises(ProtocolError, match="TypeError: planted fault"):
                client.classify(SAMPLE, seed=1)
            assert time.monotonic() - started < TIMEOUT / 4
            assert planted_type_error == [True]
            inflight = registry.gauge(SESSIONS_INFLIGHT)
            assert inflight.value(protocol=protocol) == 0
            faults = registry.counter(SERVICE_FAULTS)
            assert faults.value(kind="session-aborted") == 1
            if protocol == "v2":
                # The connection survives its failed session.
                outcome = client.classify(SAMPLE, seed=2)
                reference = private_classify(MODEL, SAMPLE, config=CONFIG, seed=2)
                assert outcome.randomized_value == reference.randomized_value
                assert inflight.value(protocol=protocol) == 0
    finally:
        thread.join(TIMEOUT)
        server.close()
    assert not thread.is_alive()
