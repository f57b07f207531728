"""Tests for N-party private partner matching."""

import pytest

from repro.core.similarity import (
    evaluate_similarity_plain,
    run_matching,
)
from repro.evaluation.costmodel import predict_similarity_bytes
from repro.exceptions import SimilarityError, ValidationError
from repro.ml.datasets import two_gaussians
from repro.ml.svm import train_svm
from repro.ml.svm.model import make_linear_model


@pytest.fixture(scope="module")
def linear_models():
    """Four linear models: 1 and 2 near-identical, 3 rotated, 4 far."""
    return {
        "org1": make_linear_model([1.0, 0.5], 0.0),
        "org2": make_linear_model([0.95, 0.55], 0.02),
        "org3": make_linear_model([0.2, 1.0], -0.1),
        "org4": make_linear_model([-0.8, 0.3], 0.4),
    }


class TestRunMatching:
    @pytest.fixture(scope="class")
    def result(self, linear_models, fast_config):
        return run_matching(linear_models, config=fast_config, seed=5)

    def test_all_pairs_present(self, result):
        assert len(result.t_values) == 6

    def test_mutual_match_of_near_identical_pair(self, result):
        assert ("org1", "org2") in result.mutual_matches
        assert result.best_match["org1"] == "org2"
        assert result.best_match["org2"] == "org1"

    def test_t_values_match_plain(self, result, linear_models):
        for (a, b), value in result.t_values.items():
            plain = evaluate_similarity_plain(linear_models[a], linear_models[b])
            assert value == pytest.approx(plain.t, rel=1e-9)

    def test_bytes_accounted(self, result, fast_config):
        # Each of the 6 pairs pays at least the cost model's lower bound.
        assert result.total_bytes >= 6 * predict_similarity_bytes(fast_config, 2)

    def test_deterministic(self, linear_models, fast_config):
        a = run_matching(linear_models, config=fast_config, seed=7)
        b = run_matching(linear_models, config=fast_config, seed=7)
        assert a.t_values == b.t_values


class TestValidation:
    def test_needs_two_parties(self, fast_config):
        with pytest.raises(ValidationError):
            run_matching({"solo": make_linear_model([1.0], 0.0)}, config=fast_config)

    def test_mixed_families_rejected(self, fast_config):
        data = two_gaussians("mm", dimension=2, train_size=50, test_size=5, seed=1)
        poly = train_svm(
            data.X_train, data.y_train, kernel="poly", degree=3, a0=0.5, b0=0.0
        )
        models = {"lin": make_linear_model([1.0, 0.0], 0.0), "poly": poly}
        with pytest.raises(SimilarityError):
            run_matching(models, config=fast_config)

    def test_mixed_kernel_specs_rejected(self, fast_config):
        data = two_gaussians("mk2", dimension=2, train_size=50, test_size=5, seed=2)
        poly_a = train_svm(
            data.X_train, data.y_train, kernel="poly", degree=3, a0=0.5, b0=0.0
        )
        poly_b = train_svm(
            data.X_train, data.y_train, kernel="poly", degree=2, a0=0.5, b0=0.0
        )
        with pytest.raises(SimilarityError):
            run_matching({"a": poly_a, "b": poly_b}, config=fast_config)


class TestNonlinearMatching:
    def test_three_party_kernel_tournament(self, fast_config):
        from repro.core.similarity import MetricParams
        from repro.ml.datasets import interaction_boundary

        kwargs = dict(kernel="poly", C=10.0, degree=3, a0=1 / 3, b0=0.0)
        models = {}
        for index, name in enumerate(["h1", "h2", "h3"]):
            data = interaction_boundary(name, 3, 60, 5, seed=index)
            models[name] = train_svm(data.X_train, data.y_train, **kwargs)
        result = run_matching(
            models, params=MetricParams(resolution=24), config=fast_config, seed=9
        )
        assert len(result.t_values) == 3
        assert set(result.best_match) == {"h1", "h2", "h3"}
