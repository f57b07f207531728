"""End-to-end differential tests: hot path ≡ naive reference.

The acceptance contract of the hot-path arithmetic engine is that every
protocol — OMPE, private classification, private similarity — produces
*bit-identical* output on the same seeds with the optimizations on or
off: identical transcripts (every message payload), identical labels,
identical randomized values, identical ``T²``.  These tests are the
enforcement.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from repro.core.classification.linear import classify_linear
from repro.core.classification.nonlinear import classify_nonlinear
from repro.core.ompe import OMPEFunction, execute_ompe
from repro.core.ompe.compose import clear_composition_cache, composition_cache_stats
from repro.core.similarity import boundary
from repro.core.similarity.linear import evaluate_similarity_private
from repro.math import fastpath
from repro.math.multivariate import MultivariatePolynomial
from repro.ml.kernels import polynomial_kernel
from repro.ml.svm.model import SVMModel, make_linear_model
from repro.utils.rng import ReproRandom


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


class TestOMPEDifferential:
    @pytest.mark.parametrize("seed,amplify,offset", [
        (11, True, False),
        (12, True, True),
        (13, False, False),
    ])
    def test_transcripts_identical(self, fast_config, seed, amplify, offset):
        polynomial = MultivariatePolynomial(
            2,
            {(2, 0): Fraction(3, 7), (1, 1): Fraction(-2, 5), (0, 0): Fraction(1, 3)},
        )
        point = (Fraction(1, 3), Fraction(-2, 7))

        def run():
            clear_composition_cache()
            return execute_ompe(
                OMPEFunction.from_polynomial(polynomial),
                point,
                config=fast_config,
                seed=seed,
                amplify=amplify,
                offset=offset,
            )

        fast = run()
        with fastpath.naive_arithmetic():
            naive = run()
        assert fast.value == naive.value
        assert type(fast.value) is type(naive.value)
        assert fast.amplifier == naive.amplifier
        assert fast.offset == naive.offset
        assert transcript_messages(fast.report) == transcript_messages(naive.report)


class TestClassificationDifferential:
    def test_nonlinear_direct_identical(self, fast_config):
        model = make_poly_model(3)
        sample = np.random.default_rng(4).uniform(-1, 1, size=model.dimension)
        outcomes = {}
        for mode in ("fast", "naive"):
            clear_composition_cache()
            if mode == "naive":
                with fastpath.naive_arithmetic():
                    out = classify_nonlinear(model, sample, config=fast_config, seed=21)
            else:
                out = classify_nonlinear(model, sample, config=fast_config, seed=21)
            outcomes[mode] = out
        fast, naive = outcomes["fast"], outcomes["naive"]
        assert fast.label == naive.label
        assert fast.randomized_value == naive.randomized_value
        assert transcript_messages(fast.report) == transcript_messages(naive.report)

    def test_nonlinear_monomial_identical(self, fast_config):
        model = make_poly_model(5, n_sv=4, dim=2, degree=2)
        sample = np.random.default_rng(6).uniform(-1, 1, size=2)
        clear_composition_cache()
        fast = classify_nonlinear(
            model, sample, config=fast_config, seed=22, method="monomial"
        )
        clear_composition_cache()
        with fastpath.naive_arithmetic():
            naive = classify_nonlinear(
                model, sample, config=fast_config, seed=22, method="monomial"
            )
        assert fast.label == naive.label
        assert fast.randomized_value == naive.randomized_value
        assert transcript_messages(fast.report) == transcript_messages(naive.report)

    def test_linear_identical(self, fast_config):
        model = make_linear_model([0.6, -0.3, 0.2], 0.05)
        sample = [0.4, 0.1, -0.8]
        clear_composition_cache()
        fast = classify_linear(model, sample, config=fast_config, seed=23)
        clear_composition_cache()
        with fastpath.naive_arithmetic():
            naive = classify_linear(model, sample, config=fast_config, seed=23)
        assert fast.label == naive.label
        assert fast.randomized_value == naive.randomized_value
        assert transcript_messages(fast.report) == transcript_messages(naive.report)


class TestSimilarityDifferential:
    def test_linear_t_squared_identical(self, fast_config):
        model_a = make_linear_model([0.5, -0.25, 0.75], 0.1)
        model_b = make_linear_model([0.4, -0.2, 0.9], -0.05)
        clear_composition_cache()
        fast = evaluate_similarity_private(model_a, model_b, config=fast_config, seed=31)
        clear_composition_cache()
        with fastpath.naive_arithmetic():
            naive = evaluate_similarity_private(
                model_a, model_b, config=fast_config, seed=31
            )
        assert fast.t_squared == naive.t_squared
        assert fast.t == naive.t
        for name in fast.reports:
            assert transcript_messages(fast.reports[name]) == transcript_messages(
                naive.reports[name]
            )

    def test_nonlinear_t_squared_identical(self, fast_config):
        model_a = make_poly_model(1, n_sv=4, dim=2, degree=2)
        model_b = make_poly_model(2, n_sv=4, dim=2, degree=2)
        clear_composition_cache()
        fast = evaluate_similarity_private(
            model_a, model_b, config=fast_config, seed=32
        )
        clear_composition_cache()
        with fastpath.naive_arithmetic():
            naive = evaluate_similarity_private(
                model_a, model_b, config=fast_config, seed=32
            )
        assert fast.t_squared == naive.t_squared
        for name in fast.reports:
            assert transcript_messages(fast.reports[name]) == transcript_messages(
                naive.reports[name]
            )


class TestModelFastPath:
    def test_exact_decision_value_matches_naive_poly(self):
        model = make_poly_model(7, n_sv=5, dim=3, degree=3)
        draw = ReproRandom(8)
        for _ in range(10):
            point = [draw.fraction(-2, 2) for _ in range(3)]
            fast = model.exact_decision_value(point)
            with fastpath.naive_arithmetic():
                naive = model.exact_decision_value(point)
            assert fast == naive
            assert type(fast) is type(naive)

    def test_exact_decision_value_matches_naive_linear(self):
        model = make_linear_model([0.3, -0.7, 0.2, 0.9], -0.1)
        draw = ReproRandom(9)
        for _ in range(10):
            point = [draw.fraction(-2, 2) for _ in range(4)]
            fast = model.exact_decision_value(point)
            with fastpath.naive_arithmetic():
                naive = model.exact_decision_value(point)
            assert fast == naive

    def test_matches_decision_polynomial(self):
        model = make_poly_model(10, n_sv=4, dim=2, degree=2)
        polynomial = model.decision_polynomial()
        draw = ReproRandom(11)
        for _ in range(5):
            point = (draw.fraction(-1, 1), draw.fraction(-1, 1))
            assert model.exact_decision_value(point) == polynomial(point)


class TestCompositionCache:
    def test_from_polynomial_memoized(self):
        clear_composition_cache()
        polynomial = MultivariatePolynomial(2, {(1, 0): Fraction(1, 2)})
        first = OMPEFunction.from_polynomial(polynomial)
        second = OMPEFunction.from_polynomial(polynomial)
        assert first is second
        stats = composition_cache_stats()
        assert stats["hits"] >= 1

    def test_equal_polynomials_share_entry(self):
        clear_composition_cache()
        first = OMPEFunction.from_polynomial(
            MultivariatePolynomial(2, {(1, 1): Fraction(2, 3)})
        )
        second = OMPEFunction.from_polynomial(
            MultivariatePolynomial(2, {(1, 1): Fraction(2, 3)})
        )
        assert first is second

    def test_naive_mode_bypasses_cache(self):
        clear_composition_cache()
        polynomial = MultivariatePolynomial(1, {(1,): Fraction(1, 2)})
        with fastpath.naive_arithmetic():
            first = OMPEFunction.from_polynomial(polynomial)
            second = OMPEFunction.from_polynomial(polynomial)
        assert first is not second

    def test_clear_resets(self):
        clear_composition_cache()
        stats = composition_cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0


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
