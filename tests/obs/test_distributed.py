"""Tests for cross-process trace propagation and stitching.

Everything here is hermetic: contexts are captured from a local tracer,
fragments are jsonl strings, and stitching is pure — the wire-borne
paths (session/open frames, engine job envelopes, admin dumps) are
covered by ``tests/net/test_admin.py`` and
``tests/integration/test_distributed_trace.py``.
"""

import json

import pytest

from repro.exceptions import ValidationError
from repro.obs import disable_tracing, enable_tracing
from repro.obs.distributed import (
    MAX_BAGGAGE_ITEMS,
    AdminHealth,
    AdminMetricsDump,
    AdminTraceDump,
    StitchedSpan,
    TraceContext,
    adopt_context,
    current_trace_context,
    render,
    stitch,
)
from repro.obs.tracing import Tracer, new_span_id, spans_to_jsonl
from repro.utils.serialization import decode_message, encode_message
from tests.spans import structure


@pytest.fixture
def tracer():
    tracer = enable_tracing()
    try:
        yield tracer
    finally:
        disable_tracing()


def roundtrip(payload):
    _, decoded, _ = decode_message(encode_message("test", payload))
    return decoded


class TestTraceContext:
    def test_wire_roundtrip(self):
        context = TraceContext("t1", "p1", {"session": "s1"})
        decoded = roundtrip(context)
        assert isinstance(decoded, TraceContext)
        assert decoded == context

    def test_validation_rejects_bad_ids(self):
        with pytest.raises(ValidationError):
            TraceContext("", "p1")
        with pytest.raises(ValidationError):
            TraceContext("t1", 7)
        with pytest.raises(ValidationError):
            TraceContext("x" * 200, "p1")

    def test_validation_bounds_baggage(self):
        with pytest.raises(ValidationError):
            TraceContext("t", "p", {"k": 1})
        with pytest.raises(ValidationError):
            TraceContext("t", "p", {"k": "v" * 300})
        too_many = {f"k{i}": "v" for i in range(MAX_BAGGAGE_ITEMS + 1)}
        with pytest.raises(ValidationError):
            TraceContext("t", "p", too_many)

    def test_hostile_wire_payload_is_validated_on_decode(self):
        """A peer cannot smuggle an invalid context past __post_init__."""
        good = encode_message("test", TraceContext("t1", "p1"))
        evil = good.replace(b"t1", b"")
        with pytest.raises(ValidationError):
            decode_message(evil)


class TestCapture:
    def test_none_when_disabled(self):
        assert current_trace_context() is None

    def test_none_outside_spans(self, tracer):
        assert current_trace_context() is None

    def test_captures_innermost_span(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                context = current_trace_context(session="s9")
        assert context is not None
        assert context.parent_span_id == inner.span_id
        assert context.trace_id == inner.trace_id
        assert context.baggage == {"session": "s9"}

    def test_trace_id_assigned_once(self, tracer):
        with tracer.span("root") as root:
            first = current_trace_context()
            second = current_trace_context()
        assert first.trace_id == second.trace_id == root.span_id

    def test_adopt_links_and_carries_baggage(self, tracer):
        context = TraceContext("t1", "p1", {"session": "s1"})
        with tracer.span("remote") as span:
            adopt_context(span, context)
        assert span.trace_id == "t1"
        assert span.remote_parent == "p1"
        assert span.attributes["session"] == "s1"

    def test_adopt_is_noop_for_none_and_noop_spans(self, tracer):
        with tracer.span("s") as span:
            adopt_context(span, None)
        assert span.remote_parent is None
        disable_tracing()
        from repro.obs.tracing import NOOP_SPAN

        adopt_context(NOOP_SPAN, TraceContext("t", "p"))  # must not raise


class TestSpanIdentity:
    def test_ids_unique_and_stringy(self):
        ids = {new_span_id() for _ in range(1000)}
        assert len(ids) == 1000
        assert all(isinstance(i, str) and i for i in ids)

    def test_jsonl_carries_identity(self, tracer):
        with tracer.span("root") as root:
            pass
        record = json.loads(spans_to_jsonl([root]))
        assert record["span_id"] == root.span_id
        assert record["remote_parent"] is None


def _fragment(name_tree, remote_parent=None, start=0.0):
    """Build a jsonl fragment from a tiny (name, children) spec."""
    lines = []
    counter = [0]

    def emit(spec, parent):
        local_id = counter[0]
        counter[0] += 1
        name, children = spec
        lines.append(json.dumps({
            "id": local_id,
            "parent": parent,
            "span_id": f"{name}#id",
            "trace_id": "t",
            "remote_parent": remote_parent if parent is None else None,
            "name": name,
            "party": None,
            "phase": None,
            "start_s": start + local_id,
            "duration_s": 0.001,
            "attributes": {},
        }))
        for child in children:
            emit(child, local_id)

    emit(name_tree, None)
    return "\n".join(lines)


class TestStitch:
    def test_attaches_fragment_under_remote_parent(self):
        client = _fragment(("client.op", (("client.send", ()),)))
        server = _fragment(
            ("server.session", (("server.work", ()),)),
            remote_parent="client.send#id",
            start=10.0,
        )
        roots = stitch([("client", client), ("server", server)])
        assert structure(roots) == (
            ("client.op", (
                ("client.send", (
                    ("server.session", (("server.work", ()),)),
                )),
            )),
        )
        assert not any(span.orphan for root in roots for span, _ in root.walk())

    def test_missing_parent_flags_orphan(self):
        server = _fragment(("server.session", ()), remote_parent="gone#id")
        roots = stitch([("server", server)])
        assert len(roots) == 1
        assert roots[0].orphan is True
        assert "[ORPHAN]" in render(roots)

    def test_cycle_is_flagged_not_infinite(self):
        """A hostile fragment naming its own descendant as remote parent
        must surface as an orphan, not recurse forever."""
        evil = _fragment(
            ("a", (("b", ()),)), remote_parent="b#id"
        )
        roots = stitch([("evil", evil)])
        assert len(roots) == 1
        assert roots[0].orphan is True

    def test_deterministic_order(self):
        early = _fragment(("early", ()), start=1.0)
        late = _fragment(("late", ()), start=2.0)
        forward = stitch([("a", early), ("b", late)])
        backward = stitch([("b", late), ("a", early)])
        assert structure(forward) == structure(backward)
        assert [root.name for root in forward] == ["early", "late"]

    def test_malformed_fragment_raises(self):
        with pytest.raises(ValidationError):
            stitch([("bad", "not json")])
        with pytest.raises(ValidationError):
            stitch([("bad", json.dumps({"name": "no-id"}))])

    def test_pre_identity_records_still_stitch_locally(self):
        """Fragments without span_id (old exports) keep their local tree."""
        lines = "\n".join([
            json.dumps({"id": 0, "parent": None, "name": "root",
                        "start_s": 0.0, "duration_s": 0.0, "attributes": {}}),
            json.dumps({"id": 1, "parent": 0, "name": "leaf",
                        "start_s": 0.1, "duration_s": 0.0, "attributes": {}}),
        ])
        roots = stitch([("legacy", lines)])
        assert structure(roots) == (("root", (("leaf", ()),)),)

    def test_real_tracer_fragments_stitch(self, tracer):
        """End-to-end through the real capture path, two tracers."""
        remote_tracer = Tracer()
        with tracer.span("client.call") as client_span:
            context = current_trace_context()
        with remote_tracer.span("server.session") as server_span:
            adopt_context(server_span, context)
            with remote_tracer.span("server.phase"):
                pass
        roots = stitch([
            ("client", spans_to_jsonl(tracer.roots)),
            ("server", spans_to_jsonl(remote_tracer.roots)),
        ])
        assert structure(roots) == (
            ("client.call", (
                ("server.session", (("server.phase", ()),)),
            )),
        )
        stitched_server = roots[0].children[0]
        assert stitched_server.origin == "server"
        assert stitched_server.span_id == server_span.span_id

    def test_render_marks_errors(self):
        record = json.dumps({
            "id": 0, "parent": None, "span_id": "x", "name": "failing",
            "start_s": 0.0, "duration_s": 0.0,
            "attributes": {"error": "ProtocolError: boom"},
        })
        text = render(stitch([("server", record)]))
        assert "!! ProtocolError: boom" in text
        assert "<server>" in text


class TestAdminPayloads:
    def test_health_roundtrip_and_validation(self):
        health = AdminHealth(
            active_connections=2, max_connections=8, sessions_served=5,
            stopping=False, draining=False,
            sessions=({"session": "s1", "kind": "classify", "age_s": 0.5},),
        )
        decoded = roundtrip(health)
        assert isinstance(decoded, AdminHealth)
        assert decoded.sessions[0]["session"] == "s1"
        with pytest.raises(ValidationError):
            AdminHealth(-1, 8, 0, False, False)
        with pytest.raises(ValidationError):
            AdminHealth(0, 8, 0, "no", False)
        with pytest.raises(ValidationError):
            AdminHealth(0, 8, 0, False, False, sessions=("not-a-dict",))

    def test_metrics_dump_roundtrip(self):
        dump = AdminMetricsDump(
            enabled=True, prometheus="# HELP x y\n",
            snapshot_json=json.dumps({"m": {"kind": "counter"}}),
        )
        decoded = roundtrip(dump)
        assert isinstance(decoded, AdminMetricsDump)
        assert decoded.snapshot() == {"m": {"kind": "counter"}}
        assert AdminMetricsDump(False, "", "").snapshot() == {}
        with pytest.raises(ValidationError):
            AdminMetricsDump("yes", "", "")

    def test_trace_dump_roundtrip_and_validation(self):
        dump = AdminTraceDump(sessions=({"session": "s1", "jsonl": "{}"},))
        decoded = roundtrip(dump)
        assert isinstance(decoded, AdminTraceDump)
        assert decoded.sessions[0]["session"] == "s1"
        with pytest.raises(ValidationError):
            AdminTraceDump(sessions=({"jsonl": 7},))


class TestStitchedSpanHelpers:
    def test_walk_and_find(self):
        root = StitchedSpan(
            {"id": 0, "span_id": "r", "name": "root"}, "x", 0
        )
        child = StitchedSpan(
            {"id": 1, "span_id": "c", "name": "leaf"}, "x", 1
        )
        root.children.append(child)
        assert [d for _, d in root.walk()] == [0, 1]
        assert [span for span, _ in root.walk() if span.name == "leaf"] == [child]
