"""End-to-end tests: the instrumentation threaded through the protocol
layers produces a faithful span tree and byte-exact metrics."""

from fractions import Fraction

import pytest

from repro import obs
from repro.core.classification import classify_linear
from repro.core.classification.session import PrivateClassificationSession
from repro.core.ompe import OMPEFunction, execute_ompe
from repro.core.similarity import evaluate_similarity_private
from repro.math.multivariate import MultivariatePolynomial
from repro.ml.svm.model import make_linear_model
from tests.spans import find


@pytest.fixture
def traced_classification(fast_config):
    model = make_linear_model([1.0, -0.5, 0.25], 0.1)
    with obs.observed() as (tracer, registry):
        outcome = classify_linear(
            model, [0.2, 0.4, -0.6], config=fast_config, seed=9
        )
    return tracer, registry, outcome


class TestClassificationSpanTree:
    def test_root_is_the_protocol_span(self, traced_classification):
        tracer, _, _ = traced_classification
        assert [root.name for root in tracer.roots] == ["ompe"]
        root = tracer.roots[0]
        assert root.attributes["arity"] == 3
        assert root.attributes["total_bytes"] > 0

    def test_tree_covers_all_protocol_steps(self, traced_classification):
        """Acceptance: params -> points -> OT setup -> OT transfer ->
        interpolation all appear, nested under one protocol root."""
        tracer, _, _ = traced_classification
        root = tracer.roots[0]
        child_names = [child.name for child in root.children]
        assert child_names == [
            "ompe.request",
            "ompe.params",
            "ompe.points",
            "ompe.evaluate",
            "ompe.ot_setup",
            "ompe.ot_choice",
            "ompe.ot_transfer",
            "ompe.finish",
        ]
        # The OT primitives and interpolation nest one level deeper.
        assert find(root, "ot.setup")
        assert find(root, "ot.choose")
        assert find(root, "ot.transfer")
        assert find(root, "ot.retrieve")
        assert find(root, "ompe.interpolate")

    def test_phases_cover_the_wire_vocabulary(self, traced_classification):
        tracer, _, _ = traced_classification
        assert {
            "request",
            "params",
            "points",
            "ot-setups",
            "ot-choices",
            "ot-transfers",
            "interpolate",
        } <= set(tracer.phases())

    def test_parties_attributed(self, traced_classification):
        tracer, _, _ = traced_classification
        by_name = {span.name: span for span, _ in tracer.spans()}
        assert by_name["ompe.params"].party == "alice"
        assert by_name["ompe.points"].party == "bob"
        assert by_name["ompe.ot_transfer"].party == "alice"
        assert by_name["ompe.finish"].party == "bob"

    def test_bytes_on_wire_attributed_to_phase_spans(self, traced_classification):
        tracer, _, outcome = traced_classification
        wire_spans = [
            span
            for span, _ in tracer.spans()
            if "bytes_on_wire" in span.attributes
        ]
        assert sum(s.attributes["bytes_on_wire"] for s in wire_spans) == (
            outcome.report.total_bytes
        )


class TestClassificationMetrics:
    def test_phase_bytes_match_transcript(self, traced_classification):
        _, registry, outcome = traced_classification
        counter = registry.counter("repro_phase_bytes_total")
        by_phase = outcome.report.transcript.bytes_by_phase()
        for phase, expected in by_phase.items():
            assert counter.value(phase=phase) == expected
        assert counter.total() == outcome.report.total_bytes

    def test_party_byte_symmetry(self, traced_classification):
        _, registry, _ = traced_classification
        sent = registry.counter("repro_bytes_sent_total")
        received = registry.counter("repro_bytes_received_total")
        assert sent.value(party="alice") == received.value(party="bob")
        assert sent.value(party="bob") == received.value(party="alice")

    def test_run_and_ot_counters(self, traced_classification):
        _, registry, _ = traced_classification
        assert registry.counter("repro_ompe_runs_total").total() == 1
        assert registry.counter("repro_ot_transfers_total").total() > 0

    def test_message_histogram_counts_every_message(self, traced_classification):
        _, registry, outcome = traced_classification
        histogram = registry.histogram("repro_message_bytes")
        assert histogram.count() == len(outcome.report.transcript.messages)
        assert histogram.sum() == outcome.report.total_bytes


class TestHigherLayers:
    def test_session_spans_and_gauges(self, fast_config):
        model = make_linear_model([0.5, -1.0], 0.0)
        with obs.observed() as (tracer, registry):
            session = PrivateClassificationSession(
                model, config=fast_config, pool_size=2, seed=3
            )
            session.classify([0.1, 0.2])
            session.classify([0.3, -0.4])
        assert find(tracer, "classification.refill")
        assert len(find(tracer, "classification.query")) == 2
        # Each query span wraps one full protocol tree.
        query = find(tracer, "classification.query")[0]
        assert find(query, "ompe")
        assert registry.counter("repro_classifications_total").total() == 2
        assert registry.counter("repro_session_refills_total").total() == 1

    def test_similarity_spans(self, fast_config):
        model_a = make_linear_model([1.0, 0.7], -0.2)
        model_b = make_linear_model([0.8, -0.5], 0.3)
        with obs.observed() as (tracer, registry):
            outcome = evaluate_similarity_private(
                model_a, model_b, config=fast_config, seed=4
            )
        assert [root.name for root in tracer.roots] == ["similarity.linear"]
        root = tracer.roots[0]
        assert root.attributes["total_bytes"] == outcome.total_bytes
        for name in (
            "similarity.clear",
            "similarity.dots_ompe",
            "similarity.area_ompe",
        ):
            assert find(root, name), name
        # Two OMPE sub-protocols (OMPE #1 and #2 share one), each a
        # complete tree.
        assert len(find(root, "ompe")) == 2
        assert registry.counter("repro_similarity_runs_total").value(
            kind="linear"
        ) == 1

    def test_batch_execution_spans(self, fast_config):
        """A run of two functions is one ``ompe`` tree and one run."""
        function = OMPEFunction.from_polynomial(
            MultivariatePolynomial.affine([Fraction(1, 2), Fraction(-1, 3)], Fraction(1, 4))
        )
        with obs.observed() as (tracer, registry):
            execute_ompe(
                (function, function),
                (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)),
                config=fast_config,
                seed=6,
            )
        assert [root.name for root in tracer.roots] == ["ompe"]
        assert tracer.roots[0].attributes["arity"] == 4
        assert registry.counter("repro_ompe_runs_total").total() == 1

    def test_disabled_run_records_nothing(self, fast_config):
        polynomial = MultivariatePolynomial.affine(
            [Fraction(1, 2)], Fraction(1, 4)
        )
        outcome = execute_ompe(
            OMPEFunction.from_polynomial(polynomial),
            (Fraction(1, 3),),
            config=fast_config,
            seed=8,
        )
        # Default globals are the no-ops: nothing recorded, result sound.
        assert obs.get_tracer().enabled is False
        assert obs.get_metrics().enabled is False
        assert outcome.report.total_bytes > 0
