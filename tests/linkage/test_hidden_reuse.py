"""Bob hides each right model's OMPE #1/#2 input once per linkage job.

The serial and TCP linkage backends hide a right model's
``m_B‖w_B`` (or ``τ(m_B)‖τ(n_B)``) once per job, from
:meth:`~repro.linkage.spec.LinkageJobSpec.hide_seed`, and every pair of
that model sends the same points message with a fresh OT session and
fresh sender masks.  These tests pin the reuse (one draw per right key,
one points message per right model, fresh OT choices per pair), that
``T²`` does not move, and the receiver's refusals of a hidden input
that does not fit its run.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro import obs
from repro.core.ompe import OMPEConfig, OMPEFunction, OMPEReceiver, execute_ompe
from repro.core.ompe import precompute
from repro.core.ompe.precompute import hide_input
from repro.core.similarity import evaluate_similarity_private, similarity_profile
from repro.core.similarity.linear import hide_dots_input
from repro.exceptions import OMPEError, ProtocolAbort
from repro.linkage import SerialLinkageRunner, ServiceLinkageRunner, run_linkage
from repro.linkage import runner as runner_module
from repro.math.multivariate import MultivariatePolynomial
from repro.net.channel import Channel
from repro.utils.rng import ReproRandom
from tests.spans import find


def right_key_of(spec, seed):
    """The right key of the pair whose protocol seed is ``seed``."""
    (key,) = [
        right
        for left in spec.left_keys
        for right in spec.right_keys
        if spec.pair_seed(left, right) == seed
    ]
    return key


@pytest.fixture
def recorded_pairs(small_spec, monkeypatch, tmp_path):
    """Run ``small_spec`` serially; each pair's right key and outcome."""
    pairs = []
    evaluate = runner_module.evaluate_similarity_private

    def recording(*args, **kwargs):
        outcome = evaluate(*args, **kwargs)
        pairs.append((right_key_of(small_spec, kwargs["seed"]), outcome))
        return outcome

    monkeypatch.setattr(runner_module, "evaluate_similarity_private", recording)
    run_linkage(small_spec, SerialLinkageRunner(), tmp_path / "store")
    return pairs


def dots_message(outcome, msg_type):
    (message,) = outcome.reports["dots_ompe"].transcript.of_type(msg_type)
    return message.payload


class TestSerialReuse:
    def test_points_repeat_per_right_model_and_differ_between_them(
        self, small_spec, recorded_pairs
    ):
        points = defaultdict(list)
        for right_key, outcome in recorded_pairs:
            points[right_key].append(dots_message(outcome, "ompe/points"))
        assert sorted(points) == list(small_spec.right_keys)
        for messages in points.values():
            assert len(messages) == len(small_spec.left_keys)
            assert all(message == messages[0] for message in messages)
        firsts = [messages[0] for messages in points.values()]
        assert len({repr(message) for message in firsts}) == len(firsts)

    def test_ot_choices_are_fresh_per_pair(self, small_spec, recorded_pairs):
        choices = [
            repr(dots_message(outcome, "ompe/ot-choices"))
            for _, outcome in recorded_pairs
        ]
        assert len(choices) == small_spec.total_pairs
        assert len(set(choices)) == len(choices)

    def test_one_dots_draw_per_right_key_per_job(self, small_spec, monkeypatch, tmp_path):
        draws = []
        draw = precompute.draw_receiver_bundle

        def spy(rng, config, arity, degree):
            draws.append(arity)
            return draw(rng, config, arity, degree)

        monkeypatch.setattr(precompute, "draw_receiver_bundle", spy)
        run_linkage(small_spec, SerialLinkageRunner(), tmp_path / "store")
        dots_arity = len(
            similarity_profile(
                small_spec.right[small_spec.right_keys[0]], small_spec.params
            ).dots_input
        )
        assert draws.count(dots_arity) == len(small_spec.right_keys)
        # OMPE #3's input depends on the pair: one draw each.
        assert len(draws) - draws.count(dots_arity) == small_spec.total_pairs

    def test_hide_spans_account_for_each_draw(self, small_spec, tmp_path):
        with obs.observed() as (tracer, _):
            run_linkage(small_spec, SerialLinkageRunner(), tmp_path / "store")
        hides = find(tracer, "linkage.hide")
        assert sorted(span.attributes["right"] for span in hides) == list(
            small_spec.right_keys
        )
        config = small_spec.config
        arity = 4  # m_B‖w_B of a 2-dimensional linear model
        expected = arity * (config.pair_count(1) - config.cover_count(1) + 1)
        assert {span.attributes["hiders"] for span in hides} == {expected}
        prepared = [
            span
            for span in find(tracer, "ompe.points")
            if span.attributes.get("prepared")
        ]
        assert len(prepared) == small_spec.total_pairs
        assert all(span.attributes["hiders"] == 0 for span in prepared)

    def test_t_squared_does_not_depend_on_the_hiding(self, small_spec):
        left = small_spec.left[small_spec.left_keys[0]]
        right_key = small_spec.right_keys[0]
        right = similarity_profile(small_spec.right[right_key], small_spec.params)
        seed = small_spec.pair_seed(small_spec.left_keys[0], right_key)
        online = evaluate_similarity_private(
            left, right, config=small_spec.config, seed=seed
        )
        hidden = hide_dots_input(
            right, small_spec.config, small_spec.hide_seed(right_key)
        )
        reused = evaluate_similarity_private(
            left, right, config=small_spec.config, seed=seed, dots_hidden=hidden
        )
        assert reused.t_squared == online.t_squared
        assert dots_message(reused, "ompe/points") == hidden.points


class _RecordingPool:
    """A TrainerClientPool stand-in that scores nothing and records what
    each batch carried."""

    def __init__(self):
        self.batches = []

    def evaluate_similarity_many(
        self, models, seeds=None, policy=None, server_models=None,
        return_errors=False, dots_hidden=None,
    ):
        self.batches.append((list(models), list(dots_hidden)))
        return [SimpleNamespace(t=0.5, t_squared=Fraction(1, 4)) for _ in models]


class TestServiceRunnerReuse:
    def test_each_right_key_sends_one_hidden_input_per_job(self, small_spec):
        pool = _RecordingPool()
        runner = ServiceLinkageRunner(pool)
        for chunk in small_spec.chunks():
            runner.run_chunk(small_spec, chunk)
        by_key = defaultdict(set)
        for chunk, (profiles, hidden) in zip(small_spec.chunks(), pool.batches):
            for key, profile, item in zip(chunk.right_keys, profiles, hidden):
                assert item.input_vector == profile.dots_input
                by_key[key].add(id(item))
        assert sorted(by_key) == list(small_spec.right_keys)
        assert all(len(ids) == 1 for ids in by_key.values())
        runner.close()


ALPHA = (Fraction(1, 3), Fraction(1, 4))


@pytest.fixture
def function():
    return OMPEFunction.from_polynomial(
        MultivariatePolynomial.affine([Fraction(2), Fraction(-3)], Fraction(1, 2))
    )


class TestReceiverRefusals:
    def test_refuses_another_input(self, fast_config):
        hidden = hide_input(ReproRandom(1), fast_config, (Fraction(1), Fraction(2)), 1)
        with pytest.raises(OMPEError, match="another input"):
            OMPEReceiver("bob", ALPHA, fast_config, hidden=hidden)

    def test_refuses_another_config(self, fast_config, function):
        other = OMPEConfig(
            security_degree=fast_config.security_degree + 1,
            cover_expansion=fast_config.cover_expansion,
            group=fast_config.group,
        )
        hidden = hide_input(ReproRandom(2), other, ALPHA, 1)
        with pytest.raises(OMPEError, match="another OMPE config"):
            OMPEReceiver("bob", ALPHA, fast_config, hidden=hidden)
        with pytest.raises(OMPEError, match="another OMPE config"):
            execute_ompe(
                function, ALPHA, config=fast_config, seed=3, receiver_hidden=hidden
            )

    def test_refuses_points_of_another_shape(self, fast_config):
        # Hidden for a degree-2 run: more covers and points than a
        # degree-1 sender announces.
        hidden = hide_input(ReproRandom(4), fast_config, ALPHA, 2)
        receiver = OMPEReceiver("bob", ALPHA, fast_config, hidden=hidden)
        channel = Channel("alice", "bob")
        receiver.connect(channel)
        channel.send(
            "alice",
            "ompe/params",
            (1, fast_config.cover_count(1), fast_config.pair_count(1)),
        )
        with pytest.raises(ProtocolAbort, match="covers among"):
            receiver.handle_params()

    def test_reused_input_evaluates_exactly(self, fast_config, function):
        hidden = hide_input(ReproRandom(5), fast_config, ALPHA, 1)
        expected = function(ALPHA)
        for seed in (6, 7):
            outcome = execute_ompe(
                function, ALPHA, config=fast_config, seed=seed, receiver_hidden=hidden
            )
            assert outcome.value == expected * outcome.amplifier
