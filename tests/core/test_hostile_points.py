"""A hostile receiver's ``ompe/points`` values meet a typed abort.

The codec accepts any encodable value, so a peer can send a points
message of the right shape whose nodes are text, bytes, ``None``,
nested tuples, booleans or floats, whose vectors are anything but an
``ompe/vector`` (:class:`~repro.math.scaled.ScaledVector`, whose own
constructor refuses every non-integer field), or whose nodes are 0 or
repeat.  The sender of a one- or two-function run checks the message
first (``check_points``) and raises
:class:`~repro.exceptions.ProtocolAbort`, never an untyped error from
the evaluator.

A repeated node is an attack, not only a malformed message: every slot
at one node carries the same mask value ``h(v)``, so the differences
of the retrieved slots are ``r·(P(z₁) − P(z₂))``.  With covers ``z``,
``z + e₁`` and ``z + e₂`` the receiver reads ``w₁/w₂`` of an affine
``P`` exactly, once per run; :class:`TestRepeatedNodeAttack` shows the
leak with the check taken out and the abort with it in.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.ompe import OMPEConfig, OMPEFunction, OMPEReceiver, OMPESender
from repro.core.ompe import sender as sender_module
from repro.core.ompe.precompute import HiddenInput
from repro.exceptions import ProtocolAbort
from repro.math.groups import fast_group
from repro.math.multivariate import MultivariatePolynomial
from repro.math.scaled import ScaledVector
from repro.net.party import connect_parties
from repro.utils.rng import ReproRandom
from repro.utils.serialization import decode_payload

FUNCTION = OMPEFunction.from_polynomial(
    MultivariatePolynomial.affine([Fraction(1), Fraction(-2)], Fraction(3))
)
INPUT = (Fraction(1, 2), Fraction(-1, 3))


def _replace_node(value):
    def mutate(pairs):
        (_, vector), *rest = pairs
        return ((value, vector), *rest)

    return mutate


def _replace_coordinate(value):
    def mutate(pairs):
        (node, vector), *rest = pairs
        return ((node, (value,) + tuple(vector[1:])), *rest)

    return mutate


HOSTILE = {
    "str node": _replace_node("1/2"),
    "None node": _replace_node(None),
    "bytes node": _replace_node(b"\x01"),
    "nested node": _replace_node((Fraction(1), Fraction(2))),
    "bool node": _replace_node(True),
    "float node": _replace_node(0.5),
    "str coordinate": _replace_coordinate("x"),
    "None coordinate": _replace_coordinate(None),
    "bytes coordinate": _replace_coordinate(b""),
    "nested coordinate": _replace_coordinate((Fraction(1),)),
    "bool coordinate": _replace_coordinate(False),
    "float coordinate": _replace_coordinate(0.25),
    "one-tuple entry": lambda pairs: ((pairs[0][0],),) + tuple(pairs[1:]),
    "three-tuple entry": lambda pairs: (pairs[0] + (1,),) + tuple(pairs[1:]),
    "scalar entry": lambda pairs: (Fraction(1),) + tuple(pairs[1:]),
    "short vector": lambda pairs: ((pairs[0][0], pairs[0][1][:1]),) + tuple(pairs[1:]),
    "text vector": lambda pairs: ((pairs[0][0], "ab"),) + tuple(pairs[1:]),
    "not a sequence": lambda pairs: None,
    "zero node": _replace_node(0),
    "zero fraction node": _replace_node(Fraction(0)),
    "repeated node": lambda pairs: ((pairs[1][0], pairs[0][1]),) + tuple(pairs[1:]),
    "list vector": lambda pairs: ((pairs[0][0], list(pairs[0][1])),) + tuple(pairs[1:]),
    # The vector form of peers that predate ``ompe/vector``.
    "old fraction-tuple vectors": lambda pairs: tuple(
        (node, tuple(vector)) for node, vector in pairs
    ),
}


@pytest.fixture
def config():
    return OMPEConfig(security_degree=1, cover_expansion=2, group=fast_group())


def _online_sender_after(mutate, config, count=1):
    """A sender of ``count`` copies of ``FUNCTION`` that has received
    ``mutate`` of the honest points message."""
    rng = ReproRandom(4)
    sender = OMPESender("alice", (FUNCTION,) * count, config, rng=rng.fork("s"))
    receiver = OMPEReceiver(
        "bob", INPUT * count, config, rng=rng.fork("r"), function_count=count
    )
    connect_parties(sender, receiver)
    receiver.send_request()
    sender.handle_request()
    receiver.handle_params()
    honest = sender.receive("ompe/points")
    receiver.send("ompe/points", mutate(honest))
    return sender


def _batch_sender_after(mutate, config):
    """The sender of a two-function run, after ``mutate``d points."""
    return _online_sender_after(mutate, config, count=2)


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_online_sender_aborts(case, config):
    sender = _online_sender_after(HOSTILE[case], config)
    with pytest.raises(ProtocolAbort):
        sender.handle_points()


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_batched_sender_aborts(case, config):
    sender = _batch_sender_after(HOSTILE[case], config)
    with pytest.raises(ProtocolAbort):
        sender.handle_points()


def test_batch_container_checked(config):
    """A two-function sender refuses points that carry one function's
    slice only, as a one-function peer would send."""
    sender = _batch_sender_after(
        lambda pairs: tuple((node, vector[: len(INPUT)]) for node, vector in pairs),
        config,
    )
    with pytest.raises(ProtocolAbort, match="vector is not 4 coordinates"):
        sender.handle_points()


def test_honest_messages_pass(config):
    _online_sender_after(lambda pairs: pairs, config).handle_points()
    _batch_sender_after(lambda pairs: pairs, config).handle_points()



#: ``P(z) = 3·z₁ − 5·z₂ + 7``: the attack should read ``w₁/w₂ = −3/5``.
ATTACKED = OMPEFunction.from_polynomial(
    MultivariatePolynomial.affine([Fraction(3), Fraction(-5)], Fraction(7))
)


def _repeated_node_ratio(seed: int) -> Fraction:
    """Run ``ATTACKED`` against a receiver whose ``M`` points share one
    node, with covers ``z``, ``z + e₁``, ``z + e₂``; return the ratio of
    the retrieved slots' differences."""
    config = OMPEConfig(security_degree=2, cover_expansion=3, group=fast_group())
    z = (Fraction(1, 3), Fraction(-2, 7))
    covers = [z, (z[0] + 1, z[1]), (z[0], z[1] + 1)]
    pair_count = config.pair_count(1)
    node = Fraction(1, 2)
    hidden = HiddenInput(
        input_vector=z,
        config=config,
        nodes=(node,) * pair_count,
        cover_positions=(0, 1, 2),
        points=tuple(
            (node, ScaledVector.of(vector))
            for vector in covers + [z] * (pair_count - len(covers))
        ),
    )
    rng = ReproRandom(seed)
    sender = OMPESender("alice", ATTACKED, config, rng=rng.fork("s"))
    receiver = OMPEReceiver("bob", z, config, rng=rng.fork("r"), hidden=hidden)
    connect_parties(sender, receiver)
    receiver.send_request()
    sender.handle_request()
    receiver.handle_params()
    sender.handle_points()
    receiver.handle_ot_setups()
    sender.handle_choices()
    payloads = receiver._ot_receiver.retrieve(receiver.receive("ompe/ot-transfers"))
    base, first, second = (decode_payload(payload) for payload in payloads)
    return (first - base) / (second - base)


class TestRepeatedNodeAttack:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_leaks_the_weight_ratio_without_the_check(self, seed, monkeypatch):
        monkeypatch.setattr(sender_module, "check_points", lambda pairs, arity: None)
        assert _repeated_node_ratio(seed) == Fraction(-3, 5)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sender_refuses_the_repeated_node(self, seed):
        with pytest.raises(ProtocolAbort, match="node 1/2 repeats"):
            _repeated_node_ratio(seed)
