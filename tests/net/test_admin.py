"""Trainer-service admin channel tests.

Most of the module is hermetic: the server serves one end of an
in-memory connection pair (:func:`repro.net.wire.memory_pair`) on a
thread, so admin/health/metrics/trace behavior is pinned without
sockets.  One socket-marked class checks the acceptance criterion that
an ``admin/metrics`` dump taken *mid-run* is consistent with the final
snapshot for monotonic counters.
"""

import threading

import pytest

from repro import obs
from repro.core.classification import private_classify
from repro.exceptions import ProtocolError
from repro.ml.svm.model import make_linear_model
from repro.net import wire
from repro.net.mux import V1Session
from repro.net.service import (
    ADMIN_HEALTH,
    SESSION_BYTES,
    SESSION_PHASE_BYTES,
    AdminClient,
    TrainerClient,
    TrainerServer,
)
from repro.obs import MetricsRegistry
from repro.obs.distributed import stitch
from repro.obs.drift import drift_from_service_metrics
from repro.obs.tracing import Tracer, spans_to_jsonl
from tests.spans import find, structure

SAMPLE = (0.5, -0.25, 0.75)


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
def tracer():
    previous = obs.get_tracer()
    tracer = Tracer()
    obs.set_tracer(tracer)
    try:
        yield tracer
    finally:
        obs.set_tracer(previous)


@pytest.fixture(scope="module")
def model():
    return make_linear_model([0.75, -0.5, 0.25], 0.125)


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


def _serve_memory(server, timeout=20.0):
    """One served in-memory connection; returns (client_end, peer)."""
    server_end, client_end = wire.memory_pair(timeout=timeout)
    peer = _Peer(lambda: server.serve_connection(server_end))
    peer.start()
    return client_end, peer


class TestAdminHealth:
    def test_health_snapshot_idle(self, fast_config, model):
        with TrainerServer(model, config=fast_config) as server:
            client_end, peer = _serve_memory(server)
            with AdminClient(connection=client_end) as admin:
                health = admin.health()
            assert health.active_connections == 1
            assert health.max_connections == 8
            assert health.sessions_served == 0
            assert health.stopping is False
            assert health.draining is False
            assert health.sessions == ()
            peer.join_result()

    def test_health_sees_in_flight_session(self, fast_config, model, tracer):
        """While one connection is mid-session, a second admin
        connection reports its session id, kind, and open span."""
        with TrainerServer(model, config=fast_config) as server:
            session_end, session_peer = _serve_memory(server)
            admin_end, admin_peer = _serve_memory(server)

            seen = {}
            barrier = threading.Barrier(2, timeout=30.0)

            original_span = tracer.span

            def spying_span(name, **kwargs):
                span = original_span(name, **kwargs)
                if name == "service.session" and not seen:
                    seen["entered"] = True
                    barrier.wait()       # admin probe runs now
                    barrier.wait()       # ...and has finished
                return span

            tracer.span = spying_span

            def run_session():
                with TrainerClient(
                    config=fast_config, connection=session_end
                ) as client:
                    return client.classify(SAMPLE, seed=7)

            session = _Peer(run_session)
            session.start()
            barrier.wait()
            with AdminClient(connection=admin_end) as admin:
                health = admin.health()
            barrier.wait()
            session.join_result()
            session_peer.join_result()
            admin_peer.join_result()

        assert health.active_connections == 2
        entries = {e.get("kind") for e in health.sessions}
        assert "classify" in entries
        live = [e for e in health.sessions if e.get("kind") == "classify"]
        assert live[0]["session"].startswith("s")
        assert live[0]["age_s"] >= 0.0

    def test_admin_consumes_no_session_budget(self, fast_config, model):
        with TrainerServer(model, config=fast_config) as server:
            client_end, peer = _serve_memory(server)
            with server._lock:
                server._remaining = 1  # one session left in the budget
            with AdminClient(connection=client_end) as admin:
                for _ in range(5):
                    admin.health()
            peer.join_result()
            with server._lock:
                assert server._remaining == 1


class TestAdminMetrics:
    def test_disabled_registry_reports_disabled(self, fast_config, model):
        with TrainerServer(model, config=fast_config) as server:
            client_end, peer = _serve_memory(server)
            with AdminClient(connection=client_end) as admin:
                dump = admin.metrics()
            peer.join_result()
        assert dump.enabled is False
        assert dump.prometheus == ""
        assert dump.snapshot() == {}

    def test_session_telemetry_reconciles_with_transcript(
        self, fast_config, model, registry
    ):
        """The per-session byte counters equal the client transcript's
        bytes_by_phase — the server records both directions."""
        with TrainerServer(model, config=fast_config) as server:
            client_end, peer = _serve_memory(server)

            def run():
                with TrainerClient(
                    config=fast_config, connection=client_end
                ) as client:
                    return client.classify(SAMPLE, seed=7)

            session = _Peer(run)
            session.start()
            outcome = session.join_result()
            peer.join_result()

            admin_end, admin_peer = _serve_memory(server)
            with AdminClient(connection=admin_end) as admin:
                dump = admin.metrics()
            admin_peer.join_result()

        snapshot = dump.snapshot()
        phase_series = snapshot[SESSION_PHASE_BYTES]["series"]
        observed = {
            entry["labels"]["phase"]: entry["value"]
            for entry in phase_series
            if entry["labels"]["kind"] == "classify"
        }
        expected = outcome.report.transcript.bytes_by_phase()
        assert observed == {k: float(v) for k, v in expected.items()}
        session_series = snapshot[SESSION_BYTES]["series"]
        assert sum(e["value"] for e in session_series) == float(
            sum(expected.values())
        )
        assert (
            dump.prometheus.count(SESSION_PHASE_BYTES + "{") == len(expected)
        )

    def test_drift_detector_accepts_service_counters(
        self, fast_config, model, registry
    ):
        """repro_service_phase_bytes_total feeds the cost-model drift
        check directly: a real session must come out within tolerance."""
        with TrainerServer(model, config=fast_config) as server:
            client_end, peer = _serve_memory(server)

            def run():
                with TrainerClient(
                    config=fast_config, connection=client_end
                ) as client:
                    return client.classify(SAMPLE, seed=7)

            session = _Peer(run)
            session.start()
            session.join_result()
            peer.join_result()

        report = drift_from_service_metrics(
            registry, fast_config, dimension=len(SAMPLE)
        )
        assert report.runs == 1
        assert report.ok, report.to_text()


class TestAdminTrace:
    def test_trace_dump_stitches_under_client_span(
        self, fast_config, model, registry, tracer
    ):
        """The acceptance path, hermetically: a traced remote classify
        yields client + server fragments that stitch into ONE tree."""
        with TrainerServer(model, config=fast_config) as server:
            client_end, peer = _serve_memory(server)

            def run():
                with tracer.span("cli.remote-classify", party="bob"):
                    with TrainerClient(
                        config=fast_config, connection=client_end
                    ) as client:
                        return client.classify(SAMPLE, seed=7)

            session = _Peer(run)
            session.start()
            session.join_result()
            peer.join_result()

            admin_end, admin_peer = _serve_memory(server)
            with AdminClient(connection=admin_end) as admin:
                dump = admin.trace()
            admin_peer.join_result()

        assert len(dump.sessions) == 1
        entry = dump.sessions[0]
        assert entry["kind"] == "classify"
        assert entry["error"] is None
        # One process, one shared tracer: the server-side session span
        # landed in the same tracer.  The client *fragment* is just the
        # client's root tree — exactly what a separate process exports.
        client_roots = [
            root for root in tracer.roots
            if root.name == "cli.remote-classify"
        ]
        fragments = [
            ("client", spans_to_jsonl(client_roots)),
            (f"server/{entry['session']}", entry["jsonl"]),
        ]
        roots = stitch(fragments)
        assert len(roots) == 1  # ONE stitched tree, nothing orphaned
        tree = structure(roots)
        assert tree[0][0] == "cli.remote-classify"
        session_spans = find(roots[0], "service.session")
        assert [span.origin for span in session_spans] == [
            f"server/{entry['session']}"
        ]
        assert not any(
            span.orphan for root in roots for span, _ in root.walk()
        )

    def test_trace_session_filter(self, fast_config, model, registry, tracer):
        with TrainerServer(model, config=fast_config) as server:
            client_end, peer = _serve_memory(server)

            def run():
                with TrainerClient(
                    config=fast_config, connection=client_end
                ) as client:
                    client.classify(SAMPLE, seed=1)
                    client.classify(SAMPLE, seed=2)

            session = _Peer(run)
            session.start()
            session.join_result()
            peer.join_result()

            admin_end, admin_peer = _serve_memory(server)
            with AdminClient(connection=admin_end) as admin:
                everything = admin.trace()
                first = everything.sessions[0]["session"]
                only = admin.trace(session=first)
                missing = admin.trace(session="s999")
            admin_peer.join_result()

        assert len(everything.sessions) == 2
        assert [e["session"] for e in only.sessions] == [first]
        assert missing.sessions == ()

    def test_trace_log_is_bounded(self, fast_config, model, registry, tracer):
        with TrainerServer(
            model, config=fast_config, trace_log_size=2
        ) as server:
            client_end, peer = _serve_memory(server)

            def run():
                with TrainerClient(
                    config=fast_config, connection=client_end
                ) as client:
                    for seed in range(4):
                        client.classify(SAMPLE, seed=seed)

            session = _Peer(run)
            session.start()
            session.join_result()
            peer.join_result()

            admin_end, admin_peer = _serve_memory(server)
            with AdminClient(connection=admin_end) as admin:
                dump = admin.trace()
            admin_peer.join_result()

        assert len(dump.sessions) == 2  # newest two survived
        assert [e["session"] for e in dump.sessions] == ["s3", "s4"]

    def test_malformed_session_filter_rejected(self, fast_config, model):
        with TrainerServer(model, config=fast_config) as server:
            client_end, peer = _serve_memory(server)
            V1Session(client_end).send_control("admin/trace", {"session": 7})
            with pytest.raises(ProtocolError):
                AdminClient(connection=client_end)._request(ADMIN_HEALTH, None)
            peer.join_result()


class TestAdminOffTranscript:
    def test_admin_frames_never_touch_protocol_counters(
        self, fast_config, model, registry
    ):
        """admin/* traffic must not perturb per-session telemetry."""
        with TrainerServer(model, config=fast_config) as server:
            client_end, peer = _serve_memory(server)
            with AdminClient(connection=client_end) as admin:
                for _ in range(3):
                    admin.health()
                    admin.metrics()
                    admin.trace()
            peer.join_result()
        names = registry.names()
        assert SESSION_PHASE_BYTES not in names
        assert SESSION_BYTES not in names
        assert "repro_service_sessions_total" not in names


@pytest.mark.socket
class TestAdminOverTCP:
    def test_midrun_metrics_consistent_with_final(
        self, fast_config, model, registry
    ):
        """Monotonic counters in a mid-run admin/metrics dump never
        exceed the final snapshot — the acceptance criterion."""
        server = TrainerServer(model, config=fast_config, max_connections=4)
        host, port = server.address
        serve = _Peer(lambda: server.serve_forever())
        serve.start()
        try:
            expected = private_classify(
                model, SAMPLE, config=fast_config, seed=11
            )
            with TrainerClient(host, port, config=fast_config) as client:
                client.classify(SAMPLE, seed=11)
                with AdminClient(host, port) as admin:
                    midrun = admin.metrics()
                outcome = client.classify(SAMPLE, seed=11)
            assert outcome.label == expected.label
            with AdminClient(host, port) as admin:
                final = admin.metrics()
        finally:
            server.stop()
            serve.join_result()

        assert midrun.enabled and final.enabled
        mid, fin = midrun.snapshot(), final.snapshot()
        for name, dump in mid.items():
            if dump["kind"] != "counter":
                continue
            fin_series = {
                tuple(sorted(e["labels"].items())): e["value"]
                for e in fin[name]["series"]
            }
            for entry in dump["series"]:
                key = tuple(sorted(entry["labels"].items()))
                assert key in fin_series
                assert entry["value"] <= fin_series[key]
        # Two sessions total, one at mid-run.
        def sessions_total(snapshot):
            series = snapshot["repro_service_sessions_total"]["series"]
            return sum(e["value"] for e in series)

        assert sessions_total(mid) == 1.0
        assert sessions_total(fin) == 2.0

    def test_health_reports_span_and_phase_of_v2_session(
        self, fast_config, model, tracer
    ):
        """An in-flight *v2* session carries its open span and phase in
        admin/health, exactly like a v1 session."""
        server = TrainerServer(model, config=fast_config)
        host, port = server.address
        serve = _Peer(lambda: server.serve_forever())
        serve.start()
        barrier = threading.Barrier(2, timeout=30.0)
        paused = []
        original_span = tracer.span

        def spying_span(name, **kwargs):
            # Pause the session worker the first time it opens a span
            # nested inside an already-open one.
            span = original_span(name, **kwargs)
            nested = threading.get_ident() in tracer.open_spans()
            worker = threading.current_thread().name.startswith("mux-session")
            if nested and worker and not paused:
                paused.append(name)
                barrier.wait()  # admin probe runs now
                barrier.wait()  # ...and has finished
            return span

        tracer.span = spying_span
        try:
            def run_session():
                with TrainerClient(
                    host, port, config=fast_config, protocol="v2"
                ) as client:
                    return client.classify(SAMPLE, seed=7)

            session = _Peer(run_session)
            session.start()
            barrier.wait()
            try:
                with AdminClient(host, port) as admin:
                    health = admin.health()
            finally:
                barrier.wait()
            session.join_result()
        finally:
            tracer.span = original_span
            server.stop()
            serve.join_result()

        live = [e for e in health.sessions if e.get("kind") == "classify"]
        assert len(live) == 1
        assert isinstance(live[0].get("span"), str)
        assert isinstance(live[0].get("phase"), str)
