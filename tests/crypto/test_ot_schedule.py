"""The single-ephemeral Naor–Pinkas key schedule, against an oracle.

The sender of a 1-of-n transfer draws one ``r`` and derives every slot
key from ``K = V^r`` and ``S = w^{-r}`` by multiplication.  These tests
pin that schedule two ways:

* a test-local oracle replays the sender's seeded draws and computes
  each key directly as ``pow(V · w^{-i}, r, p)``; its transfers must be
  byte-identical to the protocol's;
* counting wrappers around ``SchnorrGroup.exp`` / ``exp_g`` pin the
  public-key work: three sender exponentiations per transfer whatever
  the slot count, and 105 for one linear similarity pair.
"""

from collections import Counter

import pytest

from repro.core.ompe import OMPEConfig
from repro.core.similarity import evaluate_similarity_private
from repro.crypto.hashing import wrap_message
from repro.crypto.ot import OneOfNReceiver, OneOfNSender, OneOfTwoReceiver, OneOfTwoSender
from repro.crypto.ot.base import OTTransfer
from repro.math.groups import SchnorrGroup
from repro.ml.svm.model import make_linear_model
from repro.utils.rng import ReproRandom


def oracle_transfer(group, seed, blinded, messages):
    """Replay the sender's draws from ``ReproRandom(seed)``: session id,
    setup exponent of ``w``, then the transfer's one ``r``."""
    p, q, g = group.p, group.q, group.g
    draw = ReproRandom(seed)
    session = draw.bytes(16)
    w = pow(g, draw.randint(1, q - 1), p)
    r = draw.randint(1, q - 1)
    wrapped = tuple(
        wrap_message(
            pow(blinded * pow(w, -i, p) % p, r, p).to_bytes(group.element_bytes, "big"),
            message,
            session + b"|slot:" + str(i).encode("ascii"),
        )
        for i, message in enumerate(messages)
    )
    return OTTransfer(session=session, ephemeral_point=pow(g, r, p), wrapped=wrapped)


class TestOracle:
    @pytest.mark.parametrize("slots", [1, 2, 9, 27, 81])
    def test_one_of_n_matches_direct_keys(self, group, slots):
        messages = [f"slot-{i}".encode() for i in range(slots)]
        sender = OneOfNSender(group, ReproRandom(2016))
        receiver = OneOfNReceiver(group, ReproRandom(7))
        choice = receiver.choose(sender.setup(), slots - 1, slots)
        transfer = sender.transfer(messages, choice)
        assert transfer == oracle_transfer(
            group, 2016, choice.blinded_keys[0], messages
        )
        assert receiver.retrieve(transfer) == messages[-1]

    @pytest.mark.parametrize("bit", [0, 1])
    def test_one_of_two_matches_direct_keys(self, group, bit):
        sender = OneOfTwoSender(group, ReproRandom(2016))
        receiver = OneOfTwoReceiver(group, ReproRandom(7))
        setup = sender.setup()
        choice = receiver.choose(setup, bit)
        transfer = sender.transfer([b"zero", b"one"], choice)
        p = group.p
        (c,) = setup.blinding_points
        pk0 = choice.blinded_keys[0]
        draw = ReproRandom(2016)
        draw.bytes(16)
        draw.randint(1, group.q - 1)
        r = draw.randint(1, group.q - 1)
        keys = [pow(pk, r, p) for pk in (pk0, c * pow(pk0, -1, p) % p)]
        assert transfer.ephemeral_point == pow(group.g, r, p)
        assert transfer.wrapped == tuple(
            wrap_message(
                key.to_bytes(group.element_bytes, "big"),
                message,
                setup.session + b"|bit:" + str(slot).encode("ascii"),
            )
            for slot, (key, message) in enumerate(zip(keys, [b"zero", b"one"]))
        )
        assert receiver.retrieve(transfer) == (b"zero", b"one")[bit]


@pytest.fixture
def exp_calls(monkeypatch):
    """Count every ``SchnorrGroup.exp`` / ``exp_g`` call by name."""
    counts = Counter()
    for name in ("exp", "exp_g"):
        original = getattr(SchnorrGroup, name)

        def counted(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(SchnorrGroup, name, counted)
    return counts


class TestOperationCounts:
    @pytest.mark.parametrize("slots", [9, 27, 81])
    def test_three_sender_exponentiations_per_transfer(self, group, exp_calls, slots):
        sender = OneOfNSender(group, ReproRandom(1))
        receiver = OneOfNReceiver(group, ReproRandom(2))
        choice = receiver.choose(sender.setup(), slots // 2, slots)
        exp_calls.clear()
        transfer = sender.transfer([b"m"] * slots, choice)
        assert exp_calls == {"exp": 2, "exp_g": 1}
        exp_calls.clear()
        receiver.retrieve(transfer)
        assert exp_calls == {"exp": 1}

    def test_linear_similarity_pair(self, group, exp_calls):
        # Two dot-product OMPEs (m=3 covers of M=9 pairs) and one area
        # OMPE (m=9, M=27): each OT session costs 1 (setup) + 2 (choose)
        # + 3 (transfer) + 1 (retrieve) = 7, and 7 * (3 + 3 + 9) = 105.
        config = OMPEConfig(security_degree=2, cover_expansion=3, group=group)
        evaluate_similarity_private(
            make_linear_model([0.75, -0.5, 0.25], 0.125),
            make_linear_model([0.5, 0.625, -0.25], -0.0625),
            config=config,
            seed=2016,
        )
        assert sum(exp_calls.values()) == 105
