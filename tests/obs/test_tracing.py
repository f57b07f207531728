"""Tests for the span tracer."""

import json

from repro.obs import (
    NOOP_TRACER,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    observed,
)
from repro.obs.tracing import NOOP_SPAN
from tests.spans import find


class TestSpanTree:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child-a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child-b"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert [child.name for child in root.children] == ["child-a", "child-b"]
        assert root.children[0].children[0].name == "grandchild"

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots] == ["first", "second"]

    def test_attributes_and_accumulation(self):
        tracer = Tracer()
        with tracer.span("s", party="alice", phase="points", m=3) as span:
            span.set(extra="yes")
            span.add("bytes", 10)
            span.add("bytes", 7)
        assert span.party == "alice"
        assert span.phase == "points"
        assert span.attributes == {"m": 3, "extra": "yes", "bytes": 17}

    def test_duration_measured(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            assert span.duration_s == 0.0  # still open
        assert span.duration_s > 0.0

    def test_current_tracks_innermost(self):
        tracer = Tracer()
        assert tracer.current().enabled is False  # no-op outside spans
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer

    def test_find_and_phases(self):
        tracer = Tracer()
        with tracer.span("a", phase="one"):
            with tracer.span("b", phase="two"):
                pass
            with tracer.span("b", phase="one"):
                pass
        assert len(find(tracer, "b")) == 2
        assert tracer.phases() == ["one", "two"]


class TestExport:
    def test_jsonl_parents_precede_children(self):
        tracer = Tracer()
        with tracer.span("root", m=3):
            with tracer.span("leaf", party="bob"):
                pass
        records = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
        assert len(records) == 2
        by_name = {record["name"]: record for record in records}
        assert by_name["root"]["parent"] is None
        assert by_name["leaf"]["parent"] == by_name["root"]["id"]
        assert by_name["root"]["attributes"] == {"m": 3}
        assert by_name["leaf"]["party"] == "bob"

    def test_jsonl_coerces_exotic_attributes(self):
        tracer = Tracer()
        with tracer.span("s", thing=object()):
            pass
        record = json.loads(tracer.to_jsonl())
        assert isinstance(record["attributes"]["thing"], str)

    def test_flame_indents_children(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("leaf", party="bob", m=3):
                pass
        lines = tracer.flame().splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  leaf")
        assert "[bob]" in lines[1]
        assert "m=3" in lines[1]


class TestGlobalTracer:
    def test_disabled_by_default(self):
        assert get_tracer() is NOOP_TRACER
        assert get_tracer().enabled is False

    def test_noop_span_is_inert(self):
        span = NOOP_TRACER.span("anything", party="alice", m=1)
        with span as entered:
            entered.set(a=1)
            entered.add("b", 2)
        assert span.attributes == {}
        assert span.enabled is False

    def test_enable_disable_roundtrip(self):
        tracer = enable_tracing()
        try:
            assert get_tracer() is tracer
            with get_tracer().span("visible"):
                pass
            assert find(tracer, "visible")
        finally:
            disable_tracing()
        assert get_tracer() is NOOP_TRACER

    def test_observed_installs_and_restores(self):
        before = get_tracer()
        with observed() as (tracer, registry):
            assert get_tracer() is tracer
            assert tracer.enabled and registry.enabled
        assert get_tracer() is before


class TestThreadSafety:
    """Serve threads trace into one shared tracer: each thread's spans
    must form their own root trees, with no span lost or misparented."""

    def test_threads_record_independent_root_trees(self):
        import threading

        tracer = Tracer()
        threads_n, spans_per_thread = 6, 50

        def record(worker):
            for index in range(spans_per_thread):
                with tracer.span(f"w{worker}", party="alice") as root:
                    root.set(index=index)
                    with tracer.span(f"w{worker}.child"):
                        pass

        threads = [
            threading.Thread(target=record, args=(worker,))
            for worker in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer.roots) == threads_n * spans_per_thread
        for worker in range(threads_n):
            roots = find(tracer, f"w{worker}")
            assert len(roots) == spans_per_thread
            for root in roots:
                # Children stayed on their own thread's tree.
                assert [c.name for c in root.children] == [f"w{worker}.child"]

    def test_current_is_per_thread(self):
        import threading

        tracer = Tracer()
        observed = {}

        def inner():
            # This thread has no open span, whatever main has open.
            observed["inner"] = tracer.current()

        with tracer.span("outer") as outer:
            worker = threading.Thread(target=inner)
            worker.start()
            worker.join()
            assert tracer.current() is outer
        assert observed["inner"] is NOOP_SPAN



class TestSpanIdentity:
    def test_every_span_has_a_unique_id(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                pass
        assert a.span_id and b.span_id and a.span_id != b.span_id

    def test_open_spans_reports_innermost_per_thread(self):
        import threading

        tracer = Tracer()
        entered = threading.Event()
        release = threading.Event()
        seen = {}

        def worker():
            with tracer.span("worker.outer"):
                with tracer.span("worker.inner"):
                    entered.set()
                    release.wait(5.0)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        assert entered.wait(5.0)
        try:
            seen = tracer.open_spans()
            assert seen[thread.ident].name == "worker.inner"
            assert threading.get_ident() not in seen
        finally:
            release.set()
            thread.join(5.0)
        assert tracer.open_spans() == {}
