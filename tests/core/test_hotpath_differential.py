"""End-to-end differential tests: the hot paths against plain oracles.

Every protocol runs on the scaled-integer hot paths.  These tests hold
their outputs to plaintext oracles in ``Fraction`` arithmetic
(:mod:`tests.reference`): an OMPE value is exactly ``r_a·P(α) + r_b``,
a classification label is the sign of the exact decision value (and,
unamplified, the value itself), and a private ``T²`` equals Eq. (6)
over the snapped geometry.  A rerun on the same seed repeats every
transcript byte for byte; the digests in ``test_hiding.py``,
``test_kernel_integer.py``, ``test_batch_evaluation.py`` and the
linear similarity tests pin those bytes across changes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from repro.core.classification.linear import classify_linear
from repro.core.classification.nonlinear import classify_nonlinear
from repro.core.ompe import OMPEFunction, execute_ompe
from repro.core.similarity import MetricParams, boundary
from repro.core.similarity.linear import evaluate_similarity_private
from repro.math.multivariate import MultivariatePolynomial
from repro.ml.kernels import polynomial_kernel
from repro.ml.svm.model import SVMModel, make_linear_model
from repro.utils.rng import ReproRandom
from tests import reference


def transcript_messages(report):
    """Flatten a transcript to comparable (sender, type, payload) rows."""
    messages = getattr(report.transcript, "messages", report.transcript)
    return [(m.sender, m.msg_type, m.payload) for m in messages]


def make_poly_model(seed, n_sv=6, dim=3, degree=2):
    rng = np.random.default_rng(seed)
    return SVMModel(
        support_vectors=rng.uniform(-1, 1, size=(n_sv, dim)),
        dual_coefficients=rng.uniform(-1, 1, size=n_sv),
        bias=float(rng.uniform(-0.5, 0.5)),
        kernel=polynomial_kernel(degree=degree, a0=1.0, b0=1.0),
        kernel_spec=("poly", {"degree": degree, "a0": 1.0, "b0": 1.0}),
    )


def exact_sample(sample):
    return [Fraction(float(value)) for value in sample]


def label_of(value) -> float:
    return 1.0 if value >= 0 else -1.0


class TestOMPEDifferential:
    @pytest.mark.parametrize("seed,amplify,offset", [
        (11, True, False),
        (12, True, True),
        (13, False, False),
    ])
    def test_transcripts_identical(self, fast_config, seed, amplify, offset):
        terms = {(2, 0): Fraction(3, 7), (1, 1): Fraction(-2, 5), (0, 0): Fraction(1, 3)}
        polynomial = MultivariatePolynomial(2, terms)
        point = (Fraction(1, 3), Fraction(-2, 7))

        def run():
            return execute_ompe(
                OMPEFunction.from_polynomial(polynomial),
                point,
                config=fast_config,
                seed=seed,
                amplify=amplify,
                offset=offset,
            )

        first, second = run(), run()
        expected = first.amplifier * reference.term_sum(terms, point) + first.offset
        assert first.value == expected
        assert type(first.value) is Fraction
        assert (first.amplifier == 1) is not amplify
        assert (first.offset == 0) is not offset
        assert second.value == first.value
        assert transcript_messages(second.report) == transcript_messages(first.report)


class TestClassificationDifferential:
    def test_nonlinear_direct_identical(self, fast_config):
        model = make_poly_model(3)
        sample = np.random.default_rng(4).uniform(-1, 1, size=model.dimension)
        expected = reference.decision_value(model, exact_sample(sample))
        out = classify_nonlinear(model, sample, config=fast_config, seed=21)
        assert out.label == label_of(expected)
        assert out.randomized_value / expected > 0
        clear = classify_nonlinear(
            model, sample, config=fast_config, seed=21, amplify=False
        )
        assert clear.randomized_value == expected
        again = classify_nonlinear(model, sample, config=fast_config, seed=21)
        assert again.randomized_value == out.randomized_value
        assert transcript_messages(again.report) == transcript_messages(out.report)

    def test_nonlinear_monomial_identical(self, fast_config):
        model = make_poly_model(5, n_sv=4, dim=2, degree=2)
        sample = np.random.default_rng(6).uniform(-1, 1, size=2)
        expected = reference.decision_value(model, exact_sample(sample))
        monomial = classify_nonlinear(
            model, sample, config=fast_config, seed=22, method="monomial"
        )
        direct = classify_nonlinear(model, sample, config=fast_config, seed=22)
        assert monomial.label == direct.label == label_of(expected)
        # Same seed, same amplifier: the two representations of d agree.
        assert monomial.randomized_value == direct.randomized_value
        clear = classify_nonlinear(
            model, sample, config=fast_config, seed=22, method="monomial",
            amplify=False,
        )
        assert clear.randomized_value == expected

    def test_linear_identical(self, fast_config):
        model = make_linear_model([0.6, -0.3, 0.2], 0.05)
        sample = [0.4, 0.1, -0.8]
        expected = reference.decision_value(model, exact_sample(sample))
        out = classify_linear(model, sample, config=fast_config, seed=23)
        assert out.label == label_of(expected)
        assert out.randomized_value / expected > 0
        clear = classify_linear(model, sample, config=fast_config, seed=23, amplify=False)
        assert clear.randomized_value == expected
        again = classify_linear(model, sample, config=fast_config, seed=23)
        assert transcript_messages(again.report) == transcript_messages(out.report)


class TestSimilarityDifferential:
    def test_linear_t_squared_identical(self, fast_config):
        model_a = make_linear_model([0.5, -0.25, 0.75], 0.1)
        model_b = make_linear_model([0.4, -0.2, 0.9], -0.05)
        out = evaluate_similarity_private(model_a, model_b, config=fast_config, seed=31)
        assert out.t_squared == reference.t_squared(model_a, model_b, MetricParams())
        assert out.t == math.sqrt(out.t_squared)
        again = evaluate_similarity_private(model_a, model_b, config=fast_config, seed=31)
        for name in out.reports:
            assert transcript_messages(again.reports[name]) == transcript_messages(
                out.reports[name]
            )

    def test_nonlinear_t_squared_identical(self, fast_config):
        model_a = make_poly_model(1, n_sv=4, dim=2, degree=2)
        model_b = make_poly_model(2, n_sv=4, dim=2, degree=2)
        out = evaluate_similarity_private(model_a, model_b, config=fast_config, seed=32)
        assert out.t_squared == reference.t_squared(model_a, model_b, MetricParams())
        again = evaluate_similarity_private(model_a, model_b, config=fast_config, seed=32)
        for name in out.reports:
            assert transcript_messages(again.reports[name]) == transcript_messages(
                out.reports[name]
            )


class TestModelFastPath:
    def test_exact_decision_value_matches_naive_poly(self):
        model = make_poly_model(7, n_sv=5, dim=3, degree=3)
        draw = ReproRandom(8)
        for _ in range(10):
            point = [draw.fraction(-2, 2) for _ in range(3)]
            value = model.exact_decision_value(point)
            expected = reference.decision_value(model, point)
            assert value == expected
            assert type(value) is type(expected)

    def test_exact_decision_value_matches_naive_linear(self):
        model = make_linear_model([0.3, -0.7, 0.2, 0.9], -0.1)
        draw = ReproRandom(9)
        for _ in range(10):
            point = [draw.fraction(-2, 2) for _ in range(4)]
            assert model.exact_decision_value(point) == reference.decision_value(
                model, point
            )

    def test_matches_decision_polynomial(self):
        model = make_poly_model(10, n_sv=4, dim=2, degree=2)
        polynomial = model.decision_polynomial()
        draw = ReproRandom(11)
        for _ in range(5):
            point = (draw.fraction(-1, 1), draw.fraction(-1, 1))
            assert model.exact_decision_value(point) == polynomial(point)


class TestBoundaryScanDifferential:
    def test_batched_scan_matches_scalar_reference(self):
        model = make_poly_model(12, n_sv=6, dim=3, degree=2)
        batched = boundary.kernel_boundary_points(model, resolution=48)

        # Scalar reference: the original per-edge scan loop.
        n = model.dimension
        points = []
        for axis in range(n):
            others = [i for i in range(n) if i != axis]
            for corner in itertools.product((-1.0, 1.0), repeat=n - 1):
                template = np.zeros(n)
                for position, index in enumerate(others):
                    template[index] = corner[position]

                def along_edge(u):
                    template[axis] = u
                    return model.decision_value(template)

                for root in boundary._roots_on_segment(along_edge, -1.0, 1.0, 48):
                    point = template.copy()
                    point[axis] = root
                    points.append(tuple(float(v) for v in point))
        reference = boundary._dedupe(points)

        assert len(batched) == len(reference)
        for fast_point, ref_point in zip(batched, reference):
            assert max(
                abs(a - b) for a, b in zip(fast_point, ref_point)
            ) < 1e-9
