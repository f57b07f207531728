"""Tests for the analytic communication-cost model."""


import pytest

from repro.core.ompe import OMPEConfig, OMPEFunction, execute_ompe
from repro.core.similarity import evaluate_similarity_private
from repro.evaluation.costmodel import (
    breakdown_from_transcript,
    predict_classification_bytes,
    predict_similarity_bytes,
)
from repro.exceptions import ValidationError
from repro.math.groups import fast_group
from repro.math.multivariate import MultivariatePolynomial
from repro.ml.kernels import polynomial_kernel
from repro.ml.svm.model import SVMModel, make_linear_model
from repro.utils.rng import ReproRandom


def _measured_bytes(q, k, n, degree, seed=1):
    config = OMPEConfig(security_degree=q, cover_expansion=k, group=fast_group())
    rng = ReproRandom(seed + q * 100 + k * 10 + n)
    if degree == 1:
        polynomial = MultivariatePolynomial.affine(
            [rng.fraction(-3, 3) for _ in range(n)], rng.fraction(-1, 1)
        )
    else:
        terms = {
            tuple(degree if j == i else 0 for j in range(n)): rng.fraction(-3, 3)
            for i in range(n)
        }
        terms[tuple([0] * n)] = rng.fraction(-1, 1)
        polynomial = MultivariatePolynomial(n, terms)
    outcome = execute_ompe(
        OMPEFunction.from_polynomial(polynomial),
        tuple(rng.fraction(-1, 1) for _ in range(n)),
        config=config,
        seed=seed,
    )
    return config, outcome.report


class TestClassificationModel:
    @pytest.mark.parametrize(
        "q,k,n,degree",
        [(1, 2, 2, 1), (2, 3, 2, 1), (2, 3, 4, 1), (3, 4, 3, 1), (2, 2, 2, 3)],
    )
    def test_total_within_25_percent(self, q, k, n, degree):
        config, report = _measured_bytes(q, k, n, degree)
        predicted = predict_classification_bytes(config, n, degree).total_bytes
        assert abs(predicted - report.total_bytes) / report.total_bytes < 0.25

    @pytest.mark.parametrize(
        "q,k,n,degree",
        [(1, 2, 2, 1), (2, 3, 2, 1), (2, 3, 4, 1), (3, 4, 3, 1), (2, 2, 2, 3)],
    )
    def test_per_phase_within_tolerance(self, q, k, n, degree):
        """Every *large* phase tracks its prediction, not just the total."""
        config, report = _measured_bytes(q, k, n, degree)
        measured = breakdown_from_transcript(report.transcript)
        assert measured.total_bytes == report.total_bytes
        predicted = predict_classification_bytes(config, n, degree)
        for phase, predicted_bytes in predicted.by_phase().items():
            observed = measured.by_phase()[phase]
            if predicted_bytes < 64:
                assert abs(observed - predicted_bytes) <= 64, phase
            else:
                error = abs(observed - predicted_bytes) / predicted_bytes
                assert error < 0.35, f"{phase}: {observed} vs {predicted_bytes}"

    def test_measured_breakdown_matches_transcript_by_phase(self, fast_config):
        config, report = _measured_bytes(2, 2, 3, 1)
        measured = breakdown_from_transcript(report.transcript)
        assert measured.by_phase() == report.transcript.bytes_by_phase()

    def test_phase_breakdown_sums(self, fast_config):
        breakdown = predict_classification_bytes(fast_config, 3, 1)
        assert breakdown.total_bytes == (
            breakdown.request_bytes
            + breakdown.params_bytes
            + breakdown.points_bytes
            + breakdown.ot_setup_bytes
            + breakdown.ot_choice_bytes
            + breakdown.ot_transfer_bytes
        )

    def test_transfer_dominates(self, fast_config):
        breakdown = predict_classification_bytes(fast_config, 3, 1)
        assert breakdown.ot_transfer_bytes > breakdown.points_bytes

    def test_scaling_in_dimension(self, fast_config):
        narrow = predict_classification_bytes(fast_config, 2, 1)
        wide = predict_classification_bytes(fast_config, 10, 1)
        # Only the points message scales with n.
        assert wide.points_bytes > narrow.points_bytes
        assert wide.ot_transfer_bytes == narrow.ot_transfer_bytes

    def test_scaling_in_security_degree(self, group):
        low = predict_classification_bytes(
            OMPEConfig(security_degree=1, cover_expansion=2, group=group), 3, 1
        )
        high = predict_classification_bytes(
            OMPEConfig(security_degree=4, cover_expansion=2, group=group), 3, 1
        )
        assert high.total_bytes > 2 * low.total_bytes

    def test_scaling_in_group_size(self):
        from repro.math.groups import default_group

        small = predict_classification_bytes(
            OMPEConfig(group=fast_group()), 3, 1
        )
        large = predict_classification_bytes(
            OMPEConfig(group=default_group()), 3, 1
        )
        assert large.ot_transfer_bytes > small.ot_transfer_bytes

    def test_validation(self, fast_config):
        with pytest.raises(ValidationError):
            predict_classification_bytes(fast_config, 0, 1)
        with pytest.raises(ValidationError):
            predict_classification_bytes(fast_config, 2, 0)


class TestSimilarityModel:
    def test_lower_bound_holds(self, fast_config):
        model_a = make_linear_model([1.0, 0.7, -0.4], -0.2)
        model_b = make_linear_model([0.8, -0.5, 0.3], 0.3)
        outcome = evaluate_similarity_private(
            model_a, model_b, config=fast_config, seed=4
        )
        predicted = predict_similarity_bytes(fast_config, 3)
        assert predicted <= outcome.total_bytes
        assert outcome.total_bytes < 2.5 * predicted

    @pytest.mark.parametrize("b0", [0.0, 0.5])
    def test_lower_bound_holds_for_a_kernel_pair(self, fast_config, b0):
        """OMPE #1 and #2 of a kernel pair run over the kernel's
        monomial map: 10 degree-3 monomials in 3 variables (20 with
        every degree, 21 with the constant for OMPE #2)."""
        params = {"degree": 3, "a0": 1 / 3, "b0": b0}
        models = [
            SVMModel(
                support_vectors=rows,
                dual_coefficients=[0.75, -0.5, 0.25],
                bias=0.05,
                kernel=polynomial_kernel(**params),
                kernel_spec=("poly", params),
            )
            for rows in (
                [[0.9, -0.2, 0.4], [-0.6, 0.8, 0.1], [0.3, 0.5, -0.9]],
                [[-0.7, 0.4, 0.6], [0.2, -0.9, 0.3], [0.8, 0.1, -0.5]],
            )
        ]
        outcome = evaluate_similarity_private(*models, config=fast_config, seed=4)
        predicted = predict_similarity_bytes(
            fast_config, 3, kernel_degree=3, homogeneous=b0 == 0
        )
        assert predicted > predict_similarity_bytes(fast_config, 3)
        assert predicted <= outcome.total_bytes
        assert outcome.total_bytes < 2.5 * predicted
