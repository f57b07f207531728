"""Many evaluations in one OMPE conversation: a run of ``k`` functions.

A run of ``k`` functions over one hidden input ``α₁‖…‖α_k`` costs the
six messages of a one-function run, whatever ``k``: one points message
and one ``m``-of-``M`` transfer whose slots carry ``k`` values.  With
``f`` repeated it evaluates one function at ``k`` inputs.  Per-function
randomness stays independent (fresh mask, amplifier and offset per
function).
"""

from fractions import Fraction

import pytest

from repro.core.ompe import OMPEFunction, execute_ompe
from repro.exceptions import ProtocolAbort, ValidationError
from repro.math.multivariate import MultivariatePolynomial
from repro.net.channel import LinkModel


@pytest.fixture(scope="module")
def polynomial():
    return MultivariatePolynomial.affine(
        [Fraction(2), Fraction(-3)], Fraction(1, 2)
    )


@pytest.fixture(scope="module")
def function(polynomial):
    return OMPEFunction.from_polynomial(polynomial)


INPUTS = [
    (Fraction(1, 3), Fraction(1, 4)),
    (Fraction(-1, 2), Fraction(2, 5)),
    (Fraction(0), Fraction(1)),
    (Fraction(7, 9), Fraction(-7, 9)),
]


def run_repeated(function, inputs, **kwargs):
    """``function`` repeated once per input, in one run."""
    return execute_ompe(
        [function] * len(inputs), sum(inputs, ()), **kwargs
    )


class TestCorrectness:
    def test_every_value_exact(self, fast_config, polynomial, function):
        outcome = run_repeated(function, INPUTS, config=fast_config, seed=3)
        assert len(outcome.values) == len(INPUTS)
        for value, amplifier, vector in zip(
            outcome.values, outcome.amplifiers, INPUTS
        ):
            assert value == polynomial(vector) * amplifier

    def test_single_input_batch(self, fast_config, polynomial, function):
        outcome = run_repeated(function, INPUTS[:1], config=fast_config, seed=4)
        assert outcome.values[0] == polynomial(INPUTS[0]) * outcome.amplifiers[0]

    def test_independent_amplifiers(self, fast_config, function):
        outcome = run_repeated(function, INPUTS, config=fast_config, seed=5)
        assert len(set(outcome.amplifiers)) == len(INPUTS)

    def test_degree_three_function(self, fast_config):
        cubic = MultivariatePolynomial(
            2, {(3, 0): Fraction(1), (1, 1): Fraction(-1), (0, 0): Fraction(2)}
        )
        outcome = run_repeated(
            OMPEFunction.from_polynomial(cubic), INPUTS[:2],
            config=fast_config, seed=6,
        )
        for value, amplifier, vector in zip(
            outcome.values, outcome.amplifiers, INPUTS[:2]
        ):
            assert value == cubic(vector) * amplifier


class TestRoundAmortization:
    def test_six_rounds_regardless_of_batch_size(self, fast_config, function):
        small = run_repeated(function, INPUTS[:1], config=fast_config, seed=7)
        large = run_repeated(function, INPUTS, config=fast_config, seed=7)
        assert small.report.rounds == 6
        assert large.report.rounds == 6

    def test_beats_sequential_on_latency(self, fast_config, function):
        """With a high-latency link one run beats one run per input."""
        link = LinkModel(latency_s=0.05, bandwidth_bytes_per_s=1e9)
        batch = run_repeated(function, INPUTS, config=fast_config, seed=8, link=link)
        sequential_time = 0.0
        for index, vector in enumerate(INPUTS):
            outcome = execute_ompe(
                function, vector, config=fast_config, seed=index, link=link
            )
            sequential_time += outcome.report.simulated_network_s
        assert batch.report.simulated_network_s < sequential_time / 2

    def test_bytes_scale_with_batch(self, fast_config, function):
        """Points and sealed slots grow with ``k``; nodes and the OT's
        keys are shared, so ``k`` functions cost less than ``k`` runs."""
        one = run_repeated(function, INPUTS[:1], config=fast_config, seed=9)
        four = run_repeated(function, INPUTS, config=fast_config, seed=9)
        assert one.report.total_bytes < four.report.total_bytes
        assert four.report.total_bytes < 4 * one.report.total_bytes


class TestValidation:
    def test_empty_batch(self, fast_config):
        with pytest.raises(ValidationError):
            execute_ompe([], (), config=fast_config)

    def test_ragged_batch(self, fast_config, function):
        """One flag per function, or one for all."""
        with pytest.raises(ValidationError, match="2 amplify flags for 3 functions"):
            run_repeated(
                function, INPUTS[:3], config=fast_config, amplify=(True, False)
            )

    def test_wrong_arity(self, fast_config, function):
        """An input one coordinate short of ``Σ arity`` is refused by the
        sender at the request."""
        with pytest.raises(ProtocolAbort, match="arity 3, function has 4"):
            execute_ompe(
                (function, function), INPUTS[0] + INPUTS[1][:1], config=fast_config
            )


class TestBatchProperties:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @given(
        seed=st.integers(0, 10**6),
        batch_size=st.integers(1, 5),
    )
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_batches_exact(self, fast_config, polynomial, function,
                                  seed, batch_size):
        from repro.utils.rng import ReproRandom

        rng = ReproRandom(seed)
        inputs = [
            (rng.fraction(-1, 1), rng.fraction(-1, 1))
            for _ in range(batch_size)
        ]
        outcome = run_repeated(function, inputs, config=fast_config, seed=seed)
        for value, amplifier, vector in zip(
            outcome.values, outcome.amplifiers, inputs
        ):
            assert value == polynomial(vector) * amplifier
