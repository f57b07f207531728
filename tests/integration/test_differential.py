"""Differential tests: every protocol path agrees on the observable outputs.

Three implementations compute ``sign(d(t̃))`` for the same model and
samples — the plain (non-private) decision function, the one-shot OMPE
protocol, and one OMPE run of the decision function repeated once per
sample over their concatenation.  Their masked values
differ by construction (independent ``r_a`` draws), but the *labels and
signs* must be identical on identical inputs: any divergence means one
path evaluates a different polynomial than the others.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.classification import classify_linear
from repro.core.ompe import OMPEFunction, execute_ompe
from repro.ml.svm.model import make_linear_model
from repro.utils.rng import ReproRandom, derive_seed

SEED = 20160627


def _sign(value) -> int:
    return (value > 0) - (value < 0)


@pytest.fixture(scope="module")
def model():
    return make_linear_model([1.5, -2.0, 0.5], bias=0.25)


@pytest.fixture(scope="module")
def samples():
    rng = ReproRandom(SEED)
    near_boundary = [0.0, 0.125, 0.0]  # d = 0.25 - 0.25 = 0, the boundary
    random_points = [
        [rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(6)
    ]
    return [near_boundary] + random_points


def _repeated(function, samples, config):
    """One OMPE run of ``function`` once per sample."""
    return execute_ompe(
        [function] * len(samples), sum(samples, ()), config=config, seed=SEED
    )


class TestOneShotVsBatchVsPlain:
    def test_labels_and_signs_agree(self, model, fast_config, samples):
        function = OMPEFunction.from_polynomial(
            model.linear_decision_polynomial()
        )
        exact_samples = [
            tuple(Fraction(value) for value in sample) for sample in samples
        ]

        plain_signs = [
            _sign(model.exact_decision_value(list(sample)))
            for sample in exact_samples
        ]
        one_shot = [
            execute_ompe(
                function,
                sample,
                config=fast_config,
                seed=derive_seed(SEED, "one-shot", index),
            )
            for index, sample in enumerate(exact_samples)
        ]
        batch = _repeated(function, exact_samples, fast_config)

        assert [_sign(o.value) for o in one_shot] == plain_signs
        assert [_sign(v) for v in batch.values] == plain_signs
        # Amplifiers are positive in every path (sign preservation).
        assert all(o.amplifier > 0 for o in one_shot)
        assert all(a > 0 for a in batch.amplifiers)

    def test_batch_is_deterministic_per_seed(self, model, fast_config, samples):
        function = OMPEFunction.from_polynomial(
            model.linear_decision_polynomial()
        )
        exact_samples = [
            tuple(Fraction(value) for value in sample) for sample in samples
        ]
        first = _repeated(function, exact_samples, fast_config)
        second = _repeated(function, exact_samples, fast_config)
        assert first.values == second.values
        assert first.amplifiers == second.amplifiers

    def test_boundary_sample_classified_positive_everywhere(
        self, model, fast_config, samples
    ):
        """d(t̃) = 0 must label +1 (the paper's boundary convention) in
        the plain path and the one-shot protocol."""
        boundary = samples[0]
        assert model.exact_decision_value(list(boundary)) == 0
        direct = classify_linear(model, boundary, config=fast_config, seed=1)
        assert direct.label == 1.0
