"""Tests for the plaintext and Paillier baselines."""


import numpy as np
import pytest

from repro import obs
from repro.core.baselines import (
    classify_paillier,
    classify_plain,
    similarity_plain,
)
from repro.exceptions import ValidationError
from repro.ml.datasets import two_gaussians
from repro.ml.svm import train_svm
from repro.ml.svm.model import make_linear_model


@pytest.fixture(scope="module")
def linear_model():
    data = two_gaussians("bl", dimension=3, train_size=80, test_size=20, seed=1)
    return train_svm(data.X_train, data.y_train, kernel="linear", C=10.0), data


class TestPlainClassification:
    def test_matches_model_predict(self, linear_model):
        model, data = linear_model
        outcome = classify_plain(model, data.X_test)
        assert np.allclose(outcome.labels, model.predict(data.X_test))
        assert outcome.elapsed_s >= 0

    def test_shape_check(self, linear_model):
        model, _ = linear_model
        with pytest.raises(ValidationError):
            classify_plain(model, np.zeros(3))


class TestPlainSimilarity:
    def test_runs_and_times(self):
        a = make_linear_model([1.0, 0.2], 0.0)
        b = make_linear_model([0.9, 0.3], 0.1)
        outcome = similarity_plain(a, b)
        assert outcome.result.t > 0
        assert outcome.elapsed_s >= 0


class TestPaillierBaseline:
    def test_decision_value_correct(self, linear_model):
        model, data = linear_model
        for index in range(3):
            outcome = classify_paillier(
                model, data.X_test[index], key_bits=256, seed=index
            )
            true_value = model.decision_value(data.X_test[index])
            assert float(outcome.decision_value) == pytest.approx(
                true_value, abs=1e-4
            )
            assert outcome.label == (1.0 if true_value >= 0 else -1.0)

    def test_leaks_exact_value_unlike_ompe(self, linear_model):
        """The baseline's privacy gap: the client learns d(t) exactly."""
        model, data = linear_model
        outcome = classify_paillier(model, data.X_test[0], key_bits=256, seed=9)
        true_value = model.decision_value(data.X_test[0])
        assert float(outcome.decision_value) == pytest.approx(true_value, abs=1e-4)

    def test_transcript_two_messages(self, linear_model):
        model, data = linear_model
        outcome = classify_paillier(model, data.X_test[0], key_bits=256, seed=2)
        types = [m.msg_type for m in outcome.report.transcript]
        assert types == ["paillier/query", "paillier/result"]

    def test_timing_phases_recorded(self, linear_model):
        model, data = linear_model
        with obs.observed() as (tracer, _):
            classify_paillier(model, data.X_test[0], key_bits=256, seed=3)
        names = [span.name for span, _ in tracer.spans()]
        assert names == [
            "paillier.keygen",
            "paillier.encrypt",
            "paillier.evaluate",
            "paillier.decrypt",
        ]

    def test_rejects_nonlinear(self):
        data = two_gaussians("pn", dimension=2, train_size=50, test_size=5, seed=4)
        poly = train_svm(
            data.X_train, data.y_train, kernel="poly", degree=3, a0=0.5, b0=0.0
        )
        with pytest.raises(ValidationError):
            classify_paillier(poly, data.X_test[0])

    def test_rejects_wrong_sample_size(self, linear_model):
        model, _ = linear_model
        with pytest.raises(ValidationError):
            classify_paillier(model, [0.1], key_bits=256)

    def test_negative_decision_value(self):
        model = make_linear_model([1.0, 1.0], -5.0)
        outcome = classify_paillier(model, [0.5, 0.5], key_bits=256, seed=5)
        assert outcome.label == -1.0
        assert float(outcome.decision_value) == pytest.approx(-4.0, abs=1e-4)
