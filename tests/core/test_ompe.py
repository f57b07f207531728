"""Tests for the OMPE protocol — the paper's central building block."""

import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ompe import (
    OMPEConfig,
    OMPEFunction,
    OMPEReceiver,
    OMPESender,
    as_exact_vector,
    execute_ompe,
)
from repro.core.classification import classify_linear
from repro.core.ompe.config import draw_amplifier
from repro.exceptions import OMPEError, ProtocolAbort, ValidationError
from repro.math.groups import fast_group
from repro.math.multivariate import MultivariatePolynomial
from repro.ml.svm.model import make_linear_model
from repro.net.party import connect_parties
from repro.utils.rng import ReproRandom
from repro.utils.serialization import decode_payload, encode_payload


def affine(weights, bias):
    return MultivariatePolynomial.affine(
        [Fraction(w) for w in weights], Fraction(bias)
    )


#: ``encode_payload(OMPEConfig())`` when the config still had its sixth
#: field, ``exact: bool``, between ``cover_expansion`` and
#: ``coefficient_bound``.
OLD_LAYOUT_DEFAULT = bytes.fromhex(
    "430000000b6f6d70652f636f6e666967"
    "4900000002000249000000020003420149000000020008490000000200044e"
)

CONFIG_DEFAULTS = {
    "security_degree": 2,
    "cover_expansion": 3,
    "coefficient_bound": 8,
    "node_bound": 4,
    "group": None,
}

MISTYPED_FIELDS = {
    "fractional security_degree": {"security_degree": 2.5},
    "float cover_expansion": {"cover_expansion": 2.0},
    "int group": {"group": 7},
    "bool security_degree": {"security_degree": True},
    "float node_bound": {"node_bound": 4.5},
    "str coefficient_bound": {"coefficient_bound": "8"},
}

#: Receiver input coordinates that are not finite real numbers.
NOT_FINITE_REALS = [
    float("nan"),
    float("inf"),
    float("-inf"),
    np.float64("nan"),
    None,
    "1",
    True,
]


def forged_config(**overrides) -> bytes:
    """An ``ompe/config`` encoding carrying any field values, in layout order."""
    name = b"ompe/config"
    fields = {**CONFIG_DEFAULTS, **overrides}
    return (
        b"C"
        + struct.pack(">I", len(name))
        + name
        + b"".join(encode_payload(fields[key]) for key in CONFIG_DEFAULTS)
    )


class TestConfig:
    def test_cover_counts(self):
        config = OMPEConfig(security_degree=3, cover_expansion=4)
        assert config.cover_count(1) == 4          # q + 1
        assert config.cover_count(3) == 10         # pq + 1 (paper IV-B)
        assert config.pair_count(3) == 40          # M = m k

    def test_validation(self):
        with pytest.raises(ValidationError):
            OMPEConfig(security_degree=0)
        with pytest.raises(ValidationError):
            OMPEConfig(cover_expansion=1)
        with pytest.raises(ValidationError):
            OMPEConfig(coefficient_bound=0)
        with pytest.raises(ValidationError):
            OMPEConfig().cover_count(0)

    @pytest.mark.parametrize("case", sorted(MISTYPED_FIELDS))
    def test_mistyped_field_refused(self, case):
        with pytest.raises(ValidationError, match="must be"):
            OMPEConfig(**MISTYPED_FIELDS[case])

    @pytest.mark.parametrize("case", sorted(MISTYPED_FIELDS))
    def test_mistyped_field_refused_on_decode(self, case):
        with pytest.raises(ValidationError, match="must be"):
            decode_payload(forged_config(**MISTYPED_FIELDS[case]))

    def test_forged_encoding_matches_the_codec(self):
        assert forged_config() == encode_payload(OMPEConfig())
        assert decode_payload(forged_config()) == OMPEConfig()

    @pytest.mark.parametrize(
        "config",
        [OMPEConfig(), OMPEConfig(security_degree=1, cover_expansion=2, group=fast_group())],
    )
    def test_wire_round_trip(self, config):
        assert decode_payload(encode_payload(config)) == config

    def test_old_layout_refused(self):
        assert len(OMPEConfig.__dataclass_fields__) == 5
        with pytest.raises(ValidationError):
            decode_payload(OLD_LAYOUT_DEFAULT)

    def test_default_group_resolution(self):
        assert OMPEConfig().resolved_group().p.bit_length() == 256

    def test_amplifier_positive_and_wide(self, rng):
        values = [draw_amplifier(rng.fork(i)) for i in range(200)]
        assert all(v > 0 for v in values)
        assert min(values) < Fraction(1, 2)
        assert max(values) > 50


class TestFunction:
    def test_from_polynomial(self):
        f = OMPEFunction.from_polynomial(affine([1, 2], 3))
        assert f.arity == 2
        assert f.total_degree == 1
        assert f((1, 1)) == 6

    def test_from_callable(self):
        f = OMPEFunction.from_callable(2, 2, lambda p: p[0] * p[1])
        assert f((3, 4)) == 12

    def test_validation(self):
        with pytest.raises(ValidationError):
            OMPEFunction.from_callable(0, 1, lambda p: 0)
        with pytest.raises(ValidationError):
            OMPEFunction.from_callable(1, 0, lambda p: 0)

    def test_as_exact_vector(self):
        vector = as_exact_vector([0.5, 2, Fraction(1, 3)])
        assert all(isinstance(v, Fraction) for v in vector)
        assert vector[0] == Fraction(1, 2)

    def test_as_exact_vector_numpy_scalars(self):
        vector = as_exact_vector([np.float64(0.1), np.int64(-3), np.float32(0.5)])
        assert vector == (Fraction(0.1), Fraction(-3), Fraction(1, 2))
        assert all(type(v) is Fraction and type(v.numerator) is int for v in vector)

    @pytest.mark.parametrize("bad", NOT_FINITE_REALS, ids=repr)
    def test_as_exact_vector_refuses(self, bad):
        with pytest.raises(ValidationError):
            as_exact_vector([0.5, bad])


class TestInputRefusal:
    """Every receiver entry point meets a typed error on a bad coordinate."""

    @pytest.mark.parametrize("bad", NOT_FINITE_REALS, ids=repr)
    def test_execute_ompe(self, fast_config, bad):
        function = OMPEFunction.from_polynomial(affine([2, -3], Fraction(1, 2)))
        with pytest.raises(ValidationError):
            execute_ompe(function, (0.25, bad), config=fast_config, seed=1)

    @pytest.mark.parametrize("bad", NOT_FINITE_REALS, ids=repr)
    def test_execute_ompe_batch(self, fast_config, bad):
        """A run of two functions refuses a bad coordinate in either slice."""
        function = OMPEFunction.from_polynomial(affine([2, -3], Fraction(1, 2)))
        with pytest.raises(ValidationError):
            execute_ompe(
                (function, function), (0.25, 0.5, bad, 0.5), config=fast_config, seed=1
            )

    @pytest.mark.parametrize("bad", NOT_FINITE_REALS, ids=repr)
    def test_classify_linear(self, fast_config, bad):
        model = make_linear_model([1.0, -0.5], 0.25)
        with pytest.raises(ValidationError):
            classify_linear(model, [bad, 0.5], config=fast_config, seed=1)

class TestCorrectness:
    def test_linear_exact(self, fast_config):
        polynomial = affine([2, -3], Fraction(1, 2))
        alpha = (Fraction(1, 3), Fraction(1, 4))
        outcome = execute_ompe(
            OMPEFunction.from_polynomial(polynomial), alpha,
            config=fast_config, seed=11,
        )
        assert outcome.value == polynomial(alpha) * outcome.amplifier

    def test_sign_preserved(self, fast_config):
        """The classification guarantee: sign(r_a d(t)) = sign(d(t))."""
        polynomial = affine([1, 1], 0)
        for seed, point in enumerate([(1, 1), (-1, -1), (Fraction(1, 100), 0)]):
            outcome = execute_ompe(
                OMPEFunction.from_polynomial(polynomial),
                as_exact_vector(point),
                config=fast_config, seed=seed,
            )
            expected = polynomial(as_exact_vector(point))
            assert (outcome.value > 0) == (expected > 0)
            assert (outcome.value == 0) == (expected == 0)

    def test_degree_three(self, fast_config):
        polynomial = MultivariatePolynomial(
            2, {(3, 0): Fraction(1), (1, 2): Fraction(-2), (0, 0): Fraction(1)}
        )
        alpha = (Fraction(-2, 5), Fraction(3, 7))
        outcome = execute_ompe(
            OMPEFunction.from_polynomial(polynomial), alpha,
            config=fast_config, seed=5,
        )
        assert outcome.value == polynomial(alpha) * outcome.amplifier

    def test_offset_mode(self, fast_config):
        polynomial = affine([1, 0], 0)
        alpha = (Fraction(0), Fraction(5))  # P(alpha) = 0: offset hides it
        outcome = execute_ompe(
            OMPEFunction.from_polynomial(polynomial), alpha,
            config=fast_config, seed=6, offset=True,
        )
        assert outcome.offset != 0
        assert outcome.value == outcome.offset  # r_a * 0 + r_b

    def test_no_amplify(self, fast_config):
        polynomial = affine([2, 1], 1)
        alpha = (Fraction(1), Fraction(2))
        outcome = execute_ompe(
            OMPEFunction.from_polynomial(polynomial), alpha,
            config=fast_config, seed=7, amplify=False,
        )
        assert outcome.amplifier == 1
        assert outcome.value == polynomial(alpha)

    def test_callable_function(self, fast_config):
        f = OMPEFunction.from_callable(
            2, 2, lambda p: p[0] * p[1] + Fraction(1, 2)
        )
        alpha = (Fraction(3, 4), Fraction(-1, 2))
        outcome = execute_ompe(f, alpha, config=fast_config, seed=8)
        assert outcome.value == (alpha[0] * alpha[1] + Fraction(1, 2)) * outcome.amplifier

    def test_understated_degree_corrupts(self, fast_config):
        """Declaring too low a degree silently corrupts the result —
        the contract documented on from_callable."""
        f = OMPEFunction.from_callable(1, 1, lambda p: p[0] ** 3)
        alpha = (Fraction(1, 2),)
        outcome = execute_ompe(f, alpha, config=fast_config, seed=9, amplify=False)
        assert outcome.value != alpha[0] ** 3

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_polynomials(self, fast_config, seed):
        rng = ReproRandom(seed)
        arity = rng.randint(1, 3)
        degree = rng.randint(1, 3)
        terms = {}
        for _ in range(4):
            exponents = [0] * arity
            remaining = degree
            for position in range(arity):
                exponents[position] = rng.randint(0, remaining)
                remaining -= exponents[position]
            terms[tuple(exponents)] = rng.fraction(-3, 3)
        polynomial = MultivariatePolynomial(arity, terms)
        if polynomial.is_zero():
            polynomial = MultivariatePolynomial.constant(arity, Fraction(1)) + \
                MultivariatePolynomial.affine([Fraction(1)] * arity, 0)
        alpha = tuple(rng.fraction(-1, 1) for _ in range(arity))
        outcome = execute_ompe(
            OMPEFunction.from_polynomial(polynomial), alpha,
            config=fast_config, seed=seed,
        )
        assert outcome.value == polynomial(alpha) * outcome.amplifier


class TestProtocolStructure:
    def test_message_sequence(self, fast_config):
        outcome = execute_ompe(
            OMPEFunction.from_polynomial(affine([1, 2], 0)),
            (Fraction(1), Fraction(1)),
            config=fast_config, seed=1,
        )
        types = [m.msg_type for m in outcome.report.transcript]
        assert types == [
            "ompe/request",
            "ompe/params",
            "ompe/points",
            "ompe/ot-setups",
            "ompe/ot-choices",
            "ompe/ot-transfers",
        ]
        assert outcome.report.rounds == 6

    def test_pair_count_on_wire(self, fast_config):
        outcome = execute_ompe(
            OMPEFunction.from_polynomial(affine([1], 0)), (Fraction(2),),
            config=fast_config, seed=2,
        )
        points = outcome.report.transcript.of_type("ompe/points")[0].payload
        assert len(points) == fast_config.pair_count(1)

    def test_cost_grows_with_security_degree(self, group):
        small = OMPEConfig(security_degree=1, cover_expansion=2, group=group)
        large = OMPEConfig(security_degree=4, cover_expansion=2, group=group)
        f = OMPEFunction.from_polynomial(affine([1, 1], 0))
        alpha = (Fraction(1), Fraction(1))
        bytes_small = execute_ompe(f, alpha, config=small, seed=3).report.total_bytes
        bytes_large = execute_ompe(f, alpha, config=large, seed=3).report.total_bytes
        assert bytes_large > bytes_small

    def test_deterministic_given_seed(self, fast_config):
        f = OMPEFunction.from_polynomial(affine([1, -1], 2))
        alpha = (Fraction(1, 2), Fraction(1, 3))
        a = execute_ompe(f, alpha, config=fast_config, seed=42)
        b = execute_ompe(f, alpha, config=fast_config, seed=42)
        assert a.value == b.value
        assert a.amplifier == b.amplifier

    def test_different_seeds_different_amplifiers(self, fast_config):
        f = OMPEFunction.from_polynomial(affine([1], 1))
        alpha = (Fraction(1),)
        a = execute_ompe(f, alpha, config=fast_config, seed=1)
        b = execute_ompe(f, alpha, config=fast_config, seed=2)
        assert a.amplifier != b.amplifier


class TestAborts:
    def test_arity_mismatch_aborts(self, fast_config, rng):
        sender = OMPESender(
            "alice", OMPEFunction.from_polynomial(affine([1, 2], 0)),
            fast_config, rng=rng.fork("s"),
        )
        receiver = OMPEReceiver(
            "bob", (Fraction(1),), fast_config, rng=rng.fork("r")
        )
        connect_parties(sender, receiver)
        receiver.send_request()
        with pytest.raises(ProtocolAbort):
            sender.handle_request()

    def test_empty_input_rejected(self, fast_config):
        with pytest.raises(OMPEError):
            OMPEReceiver("bob", (), fast_config)

    def test_receiver_finish_before_ot(self, fast_config, rng):
        receiver = OMPEReceiver("bob", (Fraction(1),), fast_config, rng=rng)
        sender = OMPESender(
            "alice", OMPEFunction.from_polynomial(affine([1], 0)),
            fast_config, rng=rng.fork("s"),
        )
        connect_parties(sender, receiver)
        receiver.send_request()
        sender.handle_request()
        receiver.handle_params()
        sender.handle_points()
        # Skipping handle_ot_setups: finish must fail cleanly.
        receiver.receive("ompe/ot-setups")
        with pytest.raises(OMPEError):
            receiver.finish()
