"""The single-ephemeral Naor–Pinkas key schedule, against an oracle.

The sender of a 1-of-n transfer draws one ``r`` and derives every slot
key from ``K = V^r`` and ``S = w^{-r} = g^{-rc}`` by multiplication.
These tests pin that schedule two ways:

* a test-local oracle replays the sender's seeded draws and computes
  each key directly as ``pow(V · w^{-i}, r, p)``; its transfers must be
  byte-identical to the protocol's, for the 1-of-n pads and for the
  k-of-n transfer that seals every payload once and pads its keys;
* counting wrappers around ``SchnorrGroup.exp`` / ``exp_g`` pin the
  public-key work: one variable-base and two fixed-base sender
  exponentiations per transfer whatever the slot count, and 105 for one
  linear similarity pair.
"""

from collections import Counter

import pytest

from repro import obs
from repro.core.ompe import OMPEConfig
from repro.core.similarity import evaluate_similarity_private
from repro.crypto.hashing import kdf, wrap_message
from repro.crypto.ot import KOfNReceiver, KOfNSender, OneOfNReceiver, OneOfNSender
from repro.crypto.ot.base import KOfNTransfer, OTTransfer
from repro.math.groups import SchnorrGroup
from repro.ml.svm.model import make_linear_model
from repro.utils.rng import ReproRandom


def oracle_transfer(group, seed, blinded, keys):
    """Replay the sender's draws from ``ReproRandom(seed)``: session id,
    setup exponent of ``w``, then the transfer's one ``r``.  Slot ``i``
    carries ``keys[i] ⊕ H(key_i, session, i)[:16]``."""
    p, q, g = group.p, group.q, group.g
    draw = ReproRandom(seed)
    session = draw.bytes(16)
    w = pow(g, draw.randint(1, q - 1), p)
    r = draw.randint(1, q - 1)
    pads = []
    for i, key in enumerate(keys):
        key_i = pow(blinded * pow(w, -i, p) % p, r, p)
        pad = kdf(
            key_i.to_bytes(group.element_bytes, "big"),
            16,
            session + b"|slot:" + str(i).encode("ascii"),
        )
        pads.append(bytes(a ^ b for a, b in zip(key, pad)))
    return OTTransfer(session=session, ephemeral_point=pow(g, r, p), pads=tuple(pads))


def oracle_k_of_n(group, seed, choices, messages):
    """Replay a k-of-n sender seeded with ``seed``: the sealing keys
    from its ``"sealing"`` fork, then session ``j``'s draws from its
    ``("session", j)`` fork."""
    root = ReproRandom(seed)
    sealing = root.fork("sealing")
    keys = [sealing.bytes(16) for _ in messages]
    sealed = tuple(
        wrap_message(key, message, b"|sealed:" + str(i).encode("ascii"))
        for i, (key, message) in enumerate(zip(keys, messages))
    )
    sessions = tuple(
        oracle_transfer(group, root.fork("session", j).seed, choice.blinded_keys[0], keys)
        for j, choice in enumerate(choices)
    )
    return KOfNTransfer(sealed=sealed, sessions=sessions)


def slot_keys(slots):
    return [f"key-{i}".encode().ljust(16, b".") for i in range(slots)]


class TestOracle:
    @pytest.mark.parametrize("slots", [1, 2, 9, 27, 81])
    def test_one_of_n_matches_direct_keys(self, group, slots):
        messages = slot_keys(slots)
        sender = OneOfNSender(group, ReproRandom(2016))
        receiver = OneOfNReceiver(group, ReproRandom(7))
        choice = receiver.choose(sender.setup(), slots - 1, slots)
        transfer = sender.transfer(messages, choice)
        assert transfer == oracle_transfer(
            group, 2016, choice.blinded_keys[0], messages
        )
        assert receiver.retrieve(transfer) == messages[-1]

    @pytest.mark.parametrize("slots", [1, 2, 9, 27, 81])
    def test_k_of_n_matches_direct_keys(self, group, slots):
        messages = [f"evaluation-{i}".encode() * (1 + i % 3) for i in range(slots)]
        indices = sorted({0, slots // 2, slots - 1})
        sender = KOfNSender(group, ReproRandom(2016))
        receiver = KOfNReceiver(group, ReproRandom(7))
        choices = receiver.choose(sender.setup(len(indices)), indices, slots)
        transfer = sender.transfer(messages, choices)
        assert transfer == oracle_k_of_n(group, 2016, choices, messages)
        assert receiver.retrieve(transfer) == [messages[i] for i in indices]

    @pytest.mark.parametrize("bit", [0, 1])
    def test_one_of_two_matches_direct_keys(self, group, bit):
        """1-of-2 is the ``n = 2`` instance: both choices match the oracle."""
        messages = slot_keys(2)
        sender = OneOfNSender(group, ReproRandom(2016))
        receiver = OneOfNReceiver(group, ReproRandom(7))
        choice = receiver.choose(sender.setup(), bit, 2)
        transfer = sender.transfer(messages, choice)
        assert transfer == oracle_transfer(
            group, 2016, choice.blinded_keys[0], messages
        )
        assert receiver.retrieve(transfer) == messages[bit]

    def test_known_log_step_matches_variable_base(self, group):
        """``S = g^{-rc}`` from the generator table is ``w^{-r}``."""
        draw = ReproRandom(11)
        for _ in range(8):
            c = group.random_exponent(draw)
            r = group.random_exponent(draw)
            w = group.exp_g(c)
            assert group.exp_g(-r * c) == group.exp(w, -r) == pow(w, -r, group.p)


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
        transfer = sender.transfer(slot_keys(slots), choice)
        assert exp_calls == {"exp": 1, "exp_g": 2}
        exp_calls.clear()
        receiver.retrieve(transfer)
        assert exp_calls == {"exp": 1}

    def test_linear_similarity_pair(self, group, exp_calls):
        # Two dot-product OMPEs (m=3 covers of M=9 pairs) and one area
        # OMPE (m=9, M=27): each OT session costs 1 (setup) + 2 (choose)
        # + 3 (transfer) + 1 (retrieve) = 7, and 7 * (3 + 3 + 9) = 105:
        # 3 * 15 = 45 variable-base and 4 * 15 = 60 fixed-base.  Each
        # evaluation is sealed once (9 + 9 + 27 = 45) and its key padded
        # once per session (3*9 + 3*9 + 9*27 = 297).
        config = OMPEConfig(security_degree=2, cover_expansion=3, group=group)
        with obs.observed() as (tracer, _):
            evaluate_similarity_private(
                make_linear_model([0.75, -0.5, 0.25], 0.125),
                make_linear_model([0.5, 0.625, -0.25], -0.0625),
                config=config,
                seed=2016,
            )
        assert sum(exp_calls.values()) == 105
        assert exp_calls == {"exp": 45, "exp_g": 60}
        transfers = tracer.find("ot.transfer")
        assert sum(span.attributes["sealed"] for span in transfers) == 45
        assert sum(span.attributes["padded"] for span in transfers) == 297
