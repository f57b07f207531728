"""The batched Naor–Pinkas key schedule, against an oracle.

A k-of-n transfer is one exchange: one ``w = g^c``, one ``r``, and for
row ``j`` and slot ``i`` the pad ``κ_i ⊕ H((V_j · w^{-i})^r, session ‖
j ‖ i)``.  The sender derives every key from ``K_j = V_j^r`` and
``S = w^{-r} = g^{-rc}`` by multiplication.  These tests pin that
schedule two ways:

* a test-local oracle replays the sender's seeded draws and computes
  each key directly as ``pow(V_j · w^{-i} mod p, r, p)``; its transfers
  must be byte-identical to the protocol's, from 1-of-1 to 9-of-81 and
  in the shape of ``batch`` queries of ``k`` choices each over
  ``batch · M`` slots;
* a counting wrapper around ``SchnorrGroup.exp``, the one
  exponentiation entry point, pins the public-key work: ``k + 3``
  sender and ``3k`` receiver exponentiations per transfer whatever the
  slot count (the cost model's ``predict_public_key_ops``), 30 for one
  linear similarity pair and 30 for one kernel pair: OMPE #1 and #2
  share one run and OMPE #3 is the other, each over a monomial map at
  degree 1, a (3, 9) transfer.
"""

import random
from collections import Counter

import pytest

from repro import obs
from repro.core.ompe import OMPEConfig
from repro.core.similarity import MetricParams, evaluate_similarity_private
from repro.crypto import hashing
from repro.crypto.hashing import kdf, wrap_message
from repro.crypto.ot import KOfNReceiver, KOfNSender
from repro.crypto.ot.base import KOfNTransfer
from repro.evaluation.costmodel import predict_public_key_ops
from repro.math.groups import SchnorrGroup
from repro.ml.kernels import polynomial_kernel
from repro.ml.svm.model import SVMModel, make_linear_model
from repro.utils.rng import ReproRandom
from tests.spans import find


def oracle_k_of_n(group, seed, choice, messages):
    """Replay a k-of-n sender seeded with ``seed``: the sealing keys
    from its ``"sealing"`` fork, then from the root stream the session
    id, the exponent of ``w`` and the transfer's one ``r``."""
    p, q, g = group.p, group.q, group.g
    root = ReproRandom(seed)
    sealing = root.fork("sealing")
    keys = [sealing.bytes(16) for _ in messages]
    sealed = tuple(
        wrap_message(key, message, b"|sealed:" + str(i).encode("ascii"))
        for i, (key, message) in enumerate(zip(keys, messages))
    )
    session = root.bytes(16)
    w = pow(g, root.randint(1, q - 1), p)
    r = root.randint(1, q - 1)
    rows = []
    for j, blinded in enumerate(choice.blinded_keys):
        row = []
        for i, key in enumerate(keys):
            key_ji = pow(blinded * pow(w, -i, p) % p, r, p)
            pad = kdf(
                key_ji.to_bytes(group.element_bytes, "big"),
                16,
                session + b"|row:" + str(j).encode("ascii")
                + b"|slot:" + str(i).encode("ascii"),
            )
            row.append(bytes(a ^ b for a, b in zip(key, pad)))
        rows.append(tuple(row))
    return KOfNTransfer(sealed=sealed, ephemeral_point=pow(g, r, p), pads=tuple(rows))


def slot_keys(slots):
    return [f"key-{i}".encode().ljust(16, b".") for i in range(slots)]


def exchange(group, indices, messages):
    """One seeded exchange: ``(choice, transfer, retrieved)``."""
    sender = KOfNSender(group, ReproRandom(2016))
    receiver = KOfNReceiver(group, ReproRandom(7))
    choice = receiver.choose(sender.setup(len(indices)), indices, len(messages))
    transfer = sender.transfer(messages, choice)
    return choice, transfer, receiver.retrieve(transfer)


#: ``(k, M)`` with ``k ≤ M`` over k ∈ {1, 3, 9} and M ∈ {1, 2, 9, 27, 81}.
SHAPES = [(k, M) for k in (1, 3, 9) for M in (1, 2, 9, 27, 81) if k <= M]


class TestOracle:
    @pytest.mark.parametrize("slots", [1, 2, 9, 27, 81])
    def test_one_of_n_matches_direct_keys(self, group, slots):
        messages = slot_keys(slots)
        choice, transfer, received = exchange(group, [slots - 1], messages)
        assert transfer == oracle_k_of_n(group, 2016, choice, messages)
        assert received == [messages[-1]]

    @pytest.mark.parametrize("slots", [1, 2, 9, 27, 81])
    def test_k_of_n_matches_direct_keys(self, group, slots):
        messages = [f"evaluation-{i}".encode() * (1 + i % 3) for i in range(slots)]
        indices = sorted({0, slots // 2, slots - 1})
        choice, transfer, received = exchange(group, indices, messages)
        assert transfer == oracle_k_of_n(group, 2016, choice, messages)
        assert received == [messages[i] for i in indices]

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("k, slots", SHAPES)
    def test_every_shape_matches_direct_keys(self, group, k, slots, batch):
        """``batch`` queries, each choosing ``k`` of its own ``M`` slots
        (global index ``query · M + position``): the batched OMPE's one
        exchange of ``k · batch`` rows over ``M · batch`` slots."""
        draw = ReproRandom(1000 * k + slots)
        indices = [
            query * slots + position
            for query in range(batch)
            for position in draw.sample_indices(slots, k)
        ]
        messages = [f"y-{i}".encode() for i in range(slots * batch)]
        choice, transfer, received = exchange(group, indices, messages)
        assert transfer == oracle_k_of_n(group, 2016, choice, messages)
        assert received == [messages[i] for i in indices]
        assert len(transfer.pads) == k * batch

    @pytest.mark.parametrize("bit", [0, 1])
    def test_one_of_two_matches_direct_keys(self, group, bit):
        """1-of-2 is the ``k = 1, n = 2`` instance: both choices match."""
        messages = slot_keys(2)
        choice, transfer, received = exchange(group, [bit], messages)
        assert transfer == oracle_k_of_n(group, 2016, choice, messages)
        assert received == [messages[bit]]

    def test_known_log_step_matches_variable_base(self, group):
        """``S = g^{-rc}`` as a power of ``g`` is ``w^{-r}``."""
        draw = ReproRandom(11)
        for _ in range(8):
            c = group.random_exponent(draw)
            r = group.random_exponent(draw)
            w = group.exp(group.g, c)
            assert group.exp(group.g, -r * c) == group.exp(w, -r) == pow(w, -r, group.p)


@pytest.fixture
def exp_calls(monkeypatch):
    """Count every ``SchnorrGroup.exp`` call."""
    counts = Counter()
    original = SchnorrGroup.exp

    def counted(self, *args):
        counts["exp"] += 1
        return original(self, *args)

    monkeypatch.setattr(SchnorrGroup, "exp", counted)
    return counts


@pytest.fixture
def kdf_calls(monkeypatch):
    """Count the ``kdf`` calls of the sealing wrap and unwrap."""
    calls = []
    original = hashing.kdf

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(hashing, "kdf", counted)
    return calls


def _kernel_model(seed):
    """A homogeneous degree-3 polynomial-kernel model crossing the box."""
    rng = random.Random(seed)
    while True:
        model = SVMModel(
            support_vectors=[[rng.uniform(-1, 1) for _ in range(3)] for _ in range(4)],
            dual_coefficients=[rng.uniform(-1, 1) for _ in range(4)],
            bias=rng.uniform(-0.05, 0.05),
            kernel=polynomial_kernel(degree=3, a0=1 / 3, b0=0.0),
            kernel_spec=("poly", {"degree": 3, "a0": 1 / 3, "b0": 0.0}),
        )
        corners = [[(-1) ** (i >> b & 1) for b in range(3)] for i in range(8)]
        values = [model.decision_value(corner) for corner in corners]
        if min(values) < 0 < max(values):
            return model


def _similarity_pair_ops(config):
    """The cost model's public-key operations for one similarity pair:
    two degree-1 OMPE runs, one transfer of ``q + 1`` covers each."""
    return 2 * sum(predict_public_key_ops(config.cover_count(1)))


class TestOperationCounts:
    @pytest.mark.parametrize("slots", [9, 27, 81])
    def test_three_sender_exponentiations_per_transfer(self, group, exp_calls, slots):
        sender = KOfNSender(group, ReproRandom(1))
        receiver = KOfNReceiver(group, ReproRandom(2))
        choice = receiver.choose(sender.setup(1), [slots // 2], slots)
        exp_calls.clear()
        transfer = sender.transfer(slot_keys(slots), choice)
        assert exp_calls == {"exp": 3}
        exp_calls.clear()
        receiver.retrieve(transfer)
        assert exp_calls == {"exp": 1}

    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_k_plus_three_sender_and_3k_receiver(self, group, exp_calls, k):
        sender = KOfNSender(group, ReproRandom(1))
        receiver = KOfNReceiver(group, ReproRandom(2))
        setup = sender.setup(k)
        setup_exps = exp_calls.pop("exp")
        choice = receiver.choose(setup, list(range(0, 2 * k, 2)), 27)
        choose_exps = exp_calls.pop("exp")
        transfer = sender.transfer(slot_keys(27), choice)
        transfer_exps = exp_calls.pop("exp")
        receiver.retrieve(transfer)
        retrieve_exps = exp_calls.pop("exp")
        assert (setup_exps, choose_exps, transfer_exps, retrieve_exps) == (1, 2 * k, k + 2, k)
        assert (setup_exps + transfer_exps, choose_exps + retrieve_exps) == (
            predict_public_key_ops(k)
        )

    def test_linear_similarity_pair(self, group, exp_calls, kdf_calls):
        # Two OMPE runs of m=3 covers among M=9 pairs: the two dot
        # products in one run, and the area run over Eq. (7)'s monomial
        # map.  Each transfer costs the sender m + 3 and the receiver
        # 3m, so 2 * (6 + 9) = 30 in all.  Each slot is sealed once
        # (2 * 9 = 18) and its key padded once per row (2 * 3 * 9 = 54);
        # the pads hash inline, so ``kdf`` runs only for the 18 wraps
        # and 6 unwraps, twice each.
        config = OMPEConfig(security_degree=2, cover_expansion=3, group=group)
        with obs.observed() as (tracer, _):
            evaluate_similarity_private(
                make_linear_model([0.75, -0.5, 0.25], 0.125),
                make_linear_model([0.5, 0.625, -0.25], -0.0625),
                config=config,
                seed=2016,
            )
        assert exp_calls == {"exp": _similarity_pair_ops(config)} == {"exp": 30}
        assert len(kdf_calls) == 48
        transfers = find(tracer, "ot.transfer")
        assert sum(span.attributes["sessions"] for span in transfers) == 6
        assert sum(span.attributes["sealed"] for span in transfers) == 18
        assert sum(span.attributes["padded"] for span in transfers) == 54

    def test_kernel_similarity_pair(self, group, exp_calls, monkeypatch):
        # Degree-3 kernels run OMPE #1 and #2 over the kernel's monomial
        # map in one run, and OMPE #3 runs over Eq. (7)'s, all at
        # degree 1: the linear pair's two (3, 9) transfers, 30
        # exponentiations.  Each transfer checks the sender's m points
        # V_j and the receiver's w and R: 2 * (3 + 2) = 10 membership
        # checks.
        checks = []
        contains = SchnorrGroup.contains

        def counted(self, element):
            checks.append(element)
            return contains(self, element)

        monkeypatch.setattr(SchnorrGroup, "contains", counted)
        config = OMPEConfig(security_degree=2, cover_expansion=3, group=group)
        evaluate_similarity_private(
            _kernel_model(1), _kernel_model(2), MetricParams(), config=config, seed=3
        )
        assert exp_calls == {"exp": _similarity_pair_ops(config)} == {"exp": 30}
        assert len(checks) == 10
