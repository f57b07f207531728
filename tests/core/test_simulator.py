"""Tests for the simulation-based privacy argument."""

from fractions import Fraction

import pytest

from repro.core.ompe import OMPEFunction, OMPEReceiver, execute_ompe
from repro.core.privacy import (
    sender_view_indistinguishable,
    simulate_sender_view,
)
from repro.exceptions import ValidationError
from repro.math.multivariate import MultivariatePolynomial
from repro.math.statistics import ks_2samp
from repro.net.channel import Channel
from repro.utils.rng import ReproRandom


def collect_real_views(fast_config, inputs, seeds):
    """Run real protocols and extract the sender's points messages."""
    polynomial = MultivariatePolynomial.affine(
        [Fraction(3, 7), Fraction(-2, 5)], Fraction(1, 2)
    )
    function = OMPEFunction.from_polynomial(polynomial)
    messages = []
    for vector, seed in zip(inputs, seeds):
        outcome = execute_ompe(function, vector, config=fast_config, seed=seed)
        messages.append(
            outcome.report.transcript.of_type("ompe/points")[0].payload
        )
    return messages


class TestSimulator:
    def test_simulated_shape_matches_protocol(self, fast_config):
        simulated = simulate_sender_view(fast_config, arity=2, function_degree=1)
        assert len(simulated) == fast_config.pair_count(1)
        for node, vector in simulated:
            assert node != 0
            assert len(vector) == 2

    def test_real_vs_simulated_indistinguishable(self, fast_config):
        """The core Level-1 claim, as a statistical test."""
        rng = ReproRandom(77)
        inputs = [
            (rng.fraction(-1, 1), rng.fraction(-1, 1)) for _ in range(12)
        ]
        real = collect_real_views(fast_config, inputs, seeds=range(12))
        simulated = [
            simulate_sender_view(
                fast_config, arity=2, function_degree=1, rng=rng.fork("sim", i)
            )
            for i in range(12)
        ]
        passed, node_test, coordinate_test = sender_view_indistinguishable(
            real, simulated
        )
        assert passed, (node_test, coordinate_test)

    def test_input_variation_does_not_shift_view(self, fast_config):
        """Views for wildly different inputs are mutually indistinguishable."""
        small_inputs = [(Fraction(0), Fraction(0))] * 10
        large_inputs = [(Fraction(9, 10), Fraction(-9, 10))] * 10
        views_small = collect_real_views(fast_config, small_inputs, seeds=range(10))
        views_large = collect_real_views(
            fast_config, large_inputs, seeds=range(100, 110)
        )
        passed, _, _ = sender_view_indistinguishable(views_small, views_large)
        assert passed

    def test_detects_a_leaky_protocol(self, fast_config):
        """Sanity: the test CAN reject — a view that embeds the input fails."""
        rng = ReproRandom(5)
        honest = [
            simulate_sender_view(fast_config, 2, 1, rng.fork("h", i))
            for i in range(10)
        ]
        leaky = []
        for i in range(10):
            view = list(simulate_sender_view(fast_config, 2, 1, rng.fork("l", i)))
            # A broken implementation that ships raw coordinates ~100x
            # larger than the hidden evaluations.
            view = [
                (node, tuple(v + Fraction(500) for v in vector))
                for node, vector in view
            ]
            leaky.append(tuple(view))
        passed, _, coordinate_test = sender_view_indistinguishable(honest, leaky)
        assert not passed
        assert coordinate_test.pvalue < 0.01

    def test_equals_receiver_points_for_zero_input(self, fast_config):
        """The simulator is the receiver's generator on the zero input."""
        rng = ReproRandom(31)
        receiver = OMPEReceiver("bob", (0, 0, 0, 0), fast_config, rng=rng)
        channel = Channel("alice", "bob")
        receiver.connect(channel)
        channel.send(
            "alice",
            "ompe/params",
            (2, fast_config.cover_count(2), fast_config.pair_count(2)),
        )
        receiver.handle_params()
        real = channel.receive("alice", "ompe/points")
        assert simulate_sender_view(fast_config, 4, 2, rng) == real

    def test_within_vector_spreads_match_real(self, fast_config):
        """Every coordinate gets its own hiding polynomial: the spread
        (max - min) inside one vector is distributed as in a real view.
        Disguises whose coordinates shared their non-constant
        coefficients would collapse the simulated spreads."""
        arity = 4
        polynomial = MultivariatePolynomial.affine(
            [Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5), Fraction(2, 7)],
            Fraction(1, 4),
        )
        function = OMPEFunction.from_polynomial(polynomial)
        rng = ReproRandom(41)
        real, simulated = [], []
        for index in range(20):
            vector = tuple(rng.fraction(-1, 1) for _ in range(arity))
            outcome = execute_ompe(function, vector, config=fast_config, seed=index)
            real.append(outcome.report.transcript.of_type("ompe/points")[0].payload)
            simulated.append(
                simulate_sender_view(fast_config, arity, 1, rng.fork("sim", index))
            )

        def spreads(messages):
            return [
                float(max(vector) - min(vector))
                for message in messages
                for _, vector in message
            ]

        assert ks_2samp(spreads(real), spreads(simulated)).pvalue > 0.01

    def test_validation(self, fast_config):
        with pytest.raises(ValidationError):
            simulate_sender_view(fast_config, arity=0, function_degree=1)
        with pytest.raises(ValidationError):
            sender_view_indistinguishable([], [])
        good = [simulate_sender_view(fast_config, 2, 1, ReproRandom(1))]
        with pytest.raises(ValidationError):
            sender_view_indistinguishable(good, good, significance=2.0)
