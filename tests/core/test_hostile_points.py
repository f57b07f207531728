"""A hostile receiver's ``ompe/points`` values meet a typed abort.

The codec accepts any encodable value, so a peer can send a points
message of the right shape whose nodes or coordinates are text, bytes,
``None``, nested tuples, booleans or floats.  The sender of a one- or
two-function run checks the message first (``check_points``) and
raises :class:`~repro.exceptions.ProtocolAbort`, never an untyped error
from the evaluator.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.ompe import OMPEConfig, OMPEFunction, OMPEReceiver, OMPESender
from repro.exceptions import ProtocolAbort
from repro.math.multivariate import MultivariatePolynomial
from repro.net.party import connect_parties
from repro.utils.rng import ReproRandom

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
}


@pytest.fixture
def config():
    from repro.math.groups import fast_group

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

