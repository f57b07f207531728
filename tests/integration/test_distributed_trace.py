"""Distributed-trace integration: conformance, fault paths, CLI e2e.

Three layers of the tentpole contract:

* **Cross-transport conformance** — a traced remote classification
  yields a stitched tree whose *structure* is identical whether the
  session ran over TCP or an in-memory pair.  Span identity, context
  propagation, and stitching are transport-independent.
* **Fault paths** — a mid-session disconnect and a force-close at the
  drain deadline both surface as error-annotated spans *inside* the
  stitched tree, never as orphans.
* **CLI end-to-end** — ``serve --observe`` + ``remote-classify
  --trace-out`` + ``trace --stitch`` produce one stitched view, the
  acceptance criterion, through the real subcommands.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.ml.svm.model import make_linear_model
from repro.net import wire
from repro.net.mux import V1Session
from repro.net.service import (
    ACCEPT,
    OPEN,
    AdminClient,
    TrainerClient,
    TrainerServer,
)
from repro.obs import MetricsRegistry
from repro.obs.distributed import (
    current_trace_context,
    render,
    stitch,
)
from repro.obs.tracing import Tracer, spans_to_jsonl
from tests.spans import find, structure

SAMPLE = (0.5, -0.25, 0.75)


@pytest.fixture
def tracer():
    previous = obs.get_tracer()
    tracer = Tracer()
    obs.set_tracer(tracer)
    try:
        yield tracer
    finally:
        obs.set_tracer(previous)


@pytest.fixture
def registry():
    previous = obs.get_metrics()
    registry = MetricsRegistry()
    obs.set_metrics(registry)
    try:
        yield registry
    finally:
        obs.set_metrics(previous)


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


def _client_fragment(tracer, root_name):
    """Export just the client's root tree — what a separate process
    would export — from the shared in-process tracer."""
    roots = [root for root in tracer.roots if root.name == root_name]
    assert roots, f"no root named {root_name!r} recorded"
    return spans_to_jsonl(roots)


def _server_entries(server):
    return list(server._trace_log)


def _poll_trace_entries(host, port, minimum=1, timeout=10.0):
    """Admin-fetch trace entries, waiting out the tiny window between
    the client seeing the final message and the server's finally-block
    recording the session."""
    deadline = time.monotonic() + timeout
    while True:
        with AdminClient(host, port) as admin:
            dump = admin.trace()
        if len(dump.sessions) >= minimum or time.monotonic() >= deadline:
            return [dict(entry) for entry in dump.sessions]
        time.sleep(0.02)


@pytest.mark.socket
class TestCrossTransportConformance:
    """The same traced run stitches to the same *structure* over TCP
    and over an in-memory pair."""

    def _run_memory(self, tracer, model, fast_config):
        tracer.roots.clear()
        with TrainerServer(model, config=fast_config) as server:
            server_end, client_end = wire.memory_pair(timeout=20.0)
            peer = _Peer(lambda: server.serve_connection(server_end))
            peer.start()
            with tracer.span("client.run", party="bob"):
                with TrainerClient(
                    config=fast_config, connection=client_end
                ) as client:
                    outcome = client.classify(SAMPLE, seed=7)
            peer.join_result()
            entries = _server_entries(server)
        return outcome, _client_fragment(tracer, "client.run"), entries

    def _run_tcp(self, tracer, model, fast_config):
        tracer.roots.clear()
        server = TrainerServer(model, config=fast_config)
        host, port = server.address
        serve = _Peer(lambda: server.serve_forever())
        serve.start()
        try:
            with tracer.span("client.run", party="bob"):
                with TrainerClient(host, port, config=fast_config) as client:
                    outcome = client.classify(SAMPLE, seed=7)
            entries = _poll_trace_entries(host, port)
        finally:
            server.stop()
            serve.join_result()
        return outcome, _client_fragment(tracer, "client.run"), entries

    def test_stitched_structure_is_transport_independent(
        self, tracer, model, fast_config
    ):
        mem_outcome, mem_client, mem_entries = self._run_memory(
            tracer, model, fast_config
        )
        tcp_outcome, tcp_client, tcp_entries = self._run_tcp(
            tracer, model, fast_config
        )
        assert mem_outcome.label == tcp_outcome.label
        assert mem_outcome.randomized_value == tcp_outcome.randomized_value

        def stitched(client_fragment, entries):
            fragments = [("client", client_fragment)] + [
                (f"server/{e['session']}", e["jsonl"]) for e in entries
            ]
            return stitch(fragments)

        mem_roots = stitched(mem_client, mem_entries)
        tcp_roots = stitched(tcp_client, tcp_entries)
        assert structure(mem_roots) == structure(tcp_roots)
        # One tree each, session stitched under the client, no orphans.
        for roots in (mem_roots, tcp_roots):
            assert len(roots) == 1
            assert find(roots[0], "service.session")
            assert not any(
                span.orphan for span, _ in roots[0].walk()
            )
        # The transport label is the one allowed difference.
        mem_session = find(mem_roots[0], "service.session")[0]
        tcp_session = find(tcp_roots[0], "service.session")[0]
        assert mem_session.attributes["transport"] == "memory"
        assert tcp_session.attributes["transport"] == "tcp"


class TestFaultPathTraces:
    """Broken runs still stitch — with error-annotated spans."""

    def test_mid_session_disconnect_annotates_span(
        self, tracer, model, fast_config
    ):
        with TrainerServer(model, config=fast_config) as server:
            server_end, client_end = wire.memory_pair(timeout=5.0)
            peer = _Peer(lambda: server.serve_connection(server_end))
            peer.start()
            with tracer.span("client.vanishes", party="bob"):
                context = current_trace_context()
                session = V1Session(client_end)
                session.send_control(OPEN, {
                    "kind": "classify", "seed": 1, "trace": context,
                })
                session.recv_control(ACCEPT)
                client_end.close()  # walk away mid-protocol
            peer.join_result()
            entries = _server_entries(server)

        assert len(entries) == 1
        assert entries[0]["error"] is not None
        roots = stitch([
            ("client", _client_fragment(tracer, "client.vanishes")),
            (f"server/{entries[0]['session']}", entries[0]["jsonl"]),
        ])
        assert len(roots) == 1  # stitched under the client span
        sessions = find(roots[0], "service.session")
        assert len(sessions) == 1
        assert not sessions[0].orphan
        assert "error" in sessions[0].attributes
        assert "!!" in render(roots)

    def test_force_close_during_drain_annotates_span(
        self, tracer, model, fast_config
    ):
        with TrainerServer(
            model, config=fast_config, drain_timeout=0.2
        ) as server:
            server_end, client_end = wire.memory_pair(timeout=10.0)
            peer = _Peer(lambda: server.serve_connection(server_end))
            peer.start()
            with tracer.span("client.stalls", party="bob"):
                context = current_trace_context()
                session = V1Session(client_end)
                session.send_control(OPEN, {
                    "kind": "classify", "seed": 1, "trace": context,
                })
                session.recv_control(ACCEPT)
                # Session is open; never send the first protocol
                # message.  The drain deadline must cut us off.
                server.stop()
            peer.join_result()
            entries = _server_entries(server)
            client_end.close()

        assert len(entries) == 1
        assert entries[0]["error"] is not None
        roots = stitch([
            ("client", _client_fragment(tracer, "client.stalls")),
            (f"server/{entries[0]['session']}", entries[0]["jsonl"]),
        ])
        assert len(roots) == 1
        session = find(roots[0], "service.session")[0]
        assert not session.orphan
        assert "error" in session.attributes


@pytest.mark.socket
class TestCliEndToEnd:
    """The acceptance run, through the real subcommands."""

    def test_remote_classify_yields_single_stitched_trace(
        self, tmp_path, capsys, model
    ):
        """Acceptance: serve --observe in a REAL separate process,
        remote-classify --trace-out here, then repro trace --stitch
        prints one stitched tree spanning both processes."""
        from repro.cli import main
        from repro.ml.datasets import write_libsvm
        from repro.ml.svm import save_model

        import numpy as np

        model_path = tmp_path / "model.json"
        data_path = tmp_path / "data.libsvm"
        port_file = tmp_path / "port"
        trace_out = tmp_path / "client-trace.jsonl"
        save_model(model, str(model_path))
        write_libsvm(
            str(data_path), np.array([SAMPLE]), np.array([1.0])
        )

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(model_path),
             "--observe", "--port", "0", "--port-file", str(port_file),
             "--security-degree", "1"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not port_file.exists() and time.monotonic() < deadline:
                assert server.poll() is None, server.stdout.read().decode()
                time.sleep(0.05)
            assert port_file.exists(), "server never wrote its port file"
            port = int(port_file.read_text())
            endpoint = f"127.0.0.1:{port}"

            code = main([
                "remote-classify", str(data_path), "--connect", endpoint,
                "--limit", "1", "--security-degree", "1",
                "--trace-out", str(trace_out),
            ])
            assert code == 0
            records = [
                json.loads(line)
                for line in trace_out.read_text().splitlines() if line
            ]
            assert any(r["name"] == "service.classify" for r in records)
            capsys.readouterr()  # drop remote-classify output
            assert _poll_trace_entries("127.0.0.1", port)

            code = main([
                "trace", "--connect", endpoint, "--stitch", str(trace_out),
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert "service.classify" in out
            assert "service.session" in out
            assert "[ORPHAN]" not in out
            # Exactly one top-level tree: every non-blank line but the
            # first is indented under the client root.
            lines = [line for line in out.splitlines() if line.strip()]
            unindented = [
                line for line in lines if not line.startswith(" ")
            ]
            assert len(unindented) == 1
        finally:
            try:
                server.send_signal(signal.SIGINT)
            except OSError:
                pass
            try:
                server.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait(timeout=10.0)

    def test_trace_subcommand_stitches_live_server(
        self, tmp_path, capsys, model, fast_config
    ):
        """repro trace --connect --stitch against an in-process server:
        one tree, session under the client span, no orphans."""
        from repro.cli import main

        trace_out = tmp_path / "client.jsonl"
        server = TrainerServer(model, config=fast_config)
        host, port = server.address
        serve = _Peer(lambda: server.serve_forever())
        serve.start()
        previous_tracer = obs.get_tracer()
        try:
            tracer = obs.enable_tracing()
            try:
                with tracer.span("cli.remote-classify", party="bob"):
                    with TrainerClient(
                        host, port, config=fast_config
                    ) as client:
                        client.classify(SAMPLE, seed=3)
            finally:
                obs.set_tracer(previous_tracer)
            assert _poll_trace_entries(host, port)  # session recorded
            fragment = spans_to_jsonl([
                root for root in tracer.roots
                if root.name == "cli.remote-classify"
            ])
            trace_out.write_text(fragment + "\n")

            code = main([
                "trace", "--connect", f"{host}:{port}",
                "--stitch", str(trace_out),
            ])
        finally:
            server.stop()
            serve.join_result()

        assert code == 0
        out = capsys.readouterr().out
        assert "cli.remote-classify" in out
        assert "service.session" in out
        assert "[ORPHAN]" not in out
        # The session line is indented: stitched under the client root.
        session_lines = [
            line for line in out.splitlines()
            if line.lstrip().startswith("service.session")
        ]
        assert session_lines and session_lines[0].startswith("  ")

    def test_top_subcommand_prints_health(self, capsys, model, fast_config):
        from repro.cli import main

        server = TrainerServer(model, config=fast_config)
        host, port = server.address
        serve = _Peer(lambda: server.serve_forever())
        serve.start()
        try:
            code = main(["top", "--connect", f"{host}:{port}"])
        finally:
            server.stop()
            serve.join_result()
        assert code == 0
        out = capsys.readouterr().out
        # top's own admin connection is the one active connection.
        assert "connections 1/8" in out
        assert "no sessions in flight" in out
