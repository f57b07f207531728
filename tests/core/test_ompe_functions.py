"""One OMPE run of ``k`` functions against the naive oracle.

The sender evaluates ``k ≥ 1`` functions over one hidden input
``α₁‖…‖α_k``, each on its own slice, and seals the ``k`` values of a
pair in one slot.  The oracle here replays the sender's draws with
``draw_sender_bundle`` on the streams the sender documents (the sender's
own stream for the first function, its fork ``("function", j)`` for
function ``j ≥ 1``) and evaluates each function by plain ``Fraction``
term sums (:mod:`tests.reference`): every value must equal
``r_j·f_j(α_j) + o_j`` exactly.  A ``k = 1`` run through a one-element
sequence is byte-identical to the one-function call.

The last class runs the similarity protocol over an in-memory
connection with one side still running OMPE #1 and #2 as two runs: the
other side refuses it with a typed error.
"""

from __future__ import annotations

import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.ompe import OMPEConfig, OMPEFunction, execute_ompe
from repro.core.ompe.precompute import draw_sender_bundle
from repro.core.ompe.protocol import run_ompe_receiver, run_ompe_sender
from repro.core.similarity import MetricParams
from repro.core.similarity.profile import similarity_profile
from repro.exceptions import ReproError
from repro.math.groups import fast_group
from repro.math.multivariate import MultivariatePolynomial
from repro.ml.svm.model import make_linear_model
from repro.net import service, wire
from repro.net.service import TrainerClient, TrainerServer
from repro.obs import Tracer
from repro.utils.rng import ReproRandom
from tests import reference

CONFIG = OMPEConfig(security_degree=1, cover_expansion=2, group=fast_group())


def random_polynomial(rng: ReproRandom, arity: int, degree: int) -> MultivariatePolynomial:
    """An affine form, plus for ``degree > 1`` a term of that degree."""
    polynomial = MultivariatePolynomial.affine(
        [rng.fraction(-2, 2) for _ in range(arity)], rng.fraction(-1, 1)
    )
    if degree > 1:
        exponents = [0] * arity
        exponents[rng.randint(0, arity - 1)] = degree
        polynomial = polynomial + MultivariatePolynomial(
            arity, {tuple(exponents): rng.nonzero_fraction(-1, 1)}
        )
    return polynomial


def oracle_values(polynomials, alpha, flags, seed):
    """``r_j·f_j(α_j) + o_j`` from replayed draws and plain term sums."""
    degree = max(polynomial.total_degree for polynomial in polynomials)
    sender = ReproRandom(seed).fork("sender")
    values, start = [], 0
    for index, (polynomial, (amplify, offset)) in enumerate(zip(polynomials, flags)):
        draw = sender if index == 0 else sender.fork("function", index)
        bundle = draw_sender_bundle(draw, CONFIG, degree, amplify, offset)
        end = start + polynomial.arity
        plain = reference.term_sum(polynomial.terms, alpha[start:end])
        values.append(bundle.amplifier * plain + bundle.offset)
        start = end
    return tuple(values)


def run_case(arities, degrees, flags, seed):
    rng = ReproRandom(seed)
    polynomials = [
        random_polynomial(rng.fork("f", index), arity, degree)
        for index, (arity, degree) in enumerate(zip(arities, degrees))
    ]
    alpha = tuple(rng.fraction(-1, 1) for _ in range(sum(arities)))
    outcome = execute_ompe(
        [OMPEFunction.from_polynomial(polynomial) for polynomial in polynomials],
        alpha,
        config=CONFIG,
        seed=seed,
        amplify=tuple(amplify for amplify, _ in flags),
        offset=tuple(offset for _, offset in flags),
    )
    expected = oracle_values(polynomials, alpha, flags, seed)
    assert outcome.values == expected
    assert [type(value) for value in outcome.values] == [type(v) for v in expected]
    return outcome


#: ``(slice arities, degrees)``: k = 1, 2, 3 over slice arities 1–56.
CASES = [
    ((1,), (1,)),
    ((56,), (1,)),
    ((3,), (2,)),
    ((1, 56), (1, 1)),
    ((28, 28), (1, 1)),
    ((2, 5), (2, 1)),
    ((1, 2, 56), (1, 1, 1)),
    ((7, 14, 21), (1, 2, 1)),
    ((1, 1, 1), (3, 1, 2)),
]


class TestAgainstOracle:
    @pytest.mark.parametrize("arities,degrees", CASES)
    @pytest.mark.parametrize("seed", [1, 2016])
    def test_fixed_cases(self, arities, degrees, seed):
        flags = [(index % 2 == 0, index >= 1) for index in range(len(arities))]
        run_case(arities, degrees, flags, seed)

    @given(
        shape=st.lists(
            st.tuples(
                st.integers(1, 56), st.integers(1, 2), st.booleans(), st.booleans()
            ),
            min_size=1,
            max_size=3,
        ),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_random_shapes(self, shape, seed):
        arities = [arity for arity, _, _, _ in shape]
        degrees = [degree for _, degree, _, _ in shape]
        flags = [(amplify, offset) for _, _, amplify, offset in shape]
        run_case(arities, degrees, flags, seed)

    def test_one_element_sequence_is_the_one_function_run(self):
        rng = ReproRandom(5)
        function = OMPEFunction.from_polynomial(random_polynomial(rng, 4, 2))
        alpha = tuple(rng.fraction(-1, 1) for _ in range(4))
        single = execute_ompe(function, alpha, config=CONFIG, seed=9, offset=True)
        listed = execute_ompe([function], alpha, config=CONFIG, seed=9, offset=[True])
        assert listed.values == single.values == (single.value,)
        assert [m.payload for m in listed.report.transcript.messages] == [
            m.payload for m in single.report.transcript.messages
        ]
        assert listed.report.total_bytes == single.report.total_bytes

    def test_first_function_draws_the_one_function_stream(self):
        rng = ReproRandom(6)
        first = OMPEFunction.from_polynomial(random_polynomial(rng, 3, 1))
        second = OMPEFunction.from_polynomial(random_polynomial(rng, 2, 1))
        alpha = tuple(rng.fraction(-1, 1) for _ in range(5))
        alone = execute_ompe(first, alpha[:3], config=CONFIG, seed=4)
        both = execute_ompe((first, second), alpha, config=CONFIG, seed=4)
        assert both.amplifiers[0] == alone.amplifier
        assert both.amplifiers[1] != alone.amplifier

    def test_one_transfer_of_k_value_slots(self):
        rng = ReproRandom(7)
        functions = [
            OMPEFunction.from_polynomial(random_polynomial(rng.fork(i), 2, 1))
            for i in range(3)
        ]
        outcome = execute_ompe(functions, (Fraction(1, 3),) * 6, config=CONFIG, seed=1)
        types = [m.msg_type for m in outcome.report.transcript.messages]
        assert types == [
            "ompe/request",
            "ompe/params",
            "ompe/points",
            "ompe/ot-setups",
            "ompe/ot-choices",
            "ompe/ot-transfers",
        ]
        with pytest.raises(ReproError, match="3 functions"):
            outcome.value


# -- an old-shape peer over a real connection ---------------------------------

PARAMS = MetricParams(resolution=16)
MODELS = (make_linear_model([1.0, 0.7], -0.2), make_linear_model([0.8, -0.5], 0.3))


def old_bob(
    model, channel_factory, params=None, config=None, seed=None, policy=None,
    dots_hidden=None,
):
    """Bob before OMPE #1 and #2 shared a run: OMPE #1 over ``m_B`` alone."""
    bob = similarity_profile(model, params, party="bob")
    channel_factory().send("bob", bob.norms_tag, (bob.centroid_norm, bob.normal_norm))
    run_ompe_receiver(
        bob.centroid_input, channel_factory(), config=config,
        seed=ReproRandom(seed).fork("run1").seed, name="bob",
    )
    raise AssertionError("the server ran OMPE #1 alone")


def old_alice(profile, channel_factory, params=None, config=None, seed=None):
    """Alice before OMPE #1 and #2 shared a run: OMPE #1 of ``m_A · y``."""
    channel_factory().receive("alice", profile.norms_tag)
    run_ompe_sender(
        profile.centroid_function(), channel_factory(), config=config,
        seed=ReproRandom(seed).fork("run1").seed, name="alice",
    )
    raise AssertionError("the client ran OMPE #1 alone")


class TestOldShapePeer:
    def _refusal(self, monkeypatch, side, replacement):
        monkeypatch.setattr(service, side, replacement)
        server = TrainerServer(MODELS[0], config=CONFIG, params=PARAMS)
        end_a, end_b = wire.memory_pair(timeout=30.0)
        peer = threading.Thread(target=server.serve_connection, args=(end_a,))
        previous = obs.get_tracer()
        obs.set_tracer(Tracer())
        try:
            peer.start()
            with TrainerClient(connection=end_b, config=CONFIG, params=PARAMS) as client:
                with pytest.raises(ReproError) as raised:
                    client.evaluate_similarity(MODELS[1], seed=4)
            peer.join(30)
            assert not peer.is_alive()
        finally:
            obs.set_tracer(previous)
            server.close()
        (entry,) = server._trace_log
        return raised.value, entry["error"]

    def test_old_shape_client_refused(self, monkeypatch):
        error, logged = self._refusal(monkeypatch, "run_similarity_bob", old_bob)
        assert "session/error" in str(error)
        assert logged == "ProtocolAbort: receiver announced arity 2, function has 4"

    def test_old_shape_server_refused(self, monkeypatch):
        error, logged = self._refusal(monkeypatch, "run_similarity_alice", old_alice)
        assert "session/error" in str(error)
        assert logged == "ProtocolAbort: receiver announced arity 4, function has 2"
