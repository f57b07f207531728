"""Receiver points messages: lattice hiding polynomials ≡ the ``Polynomial`` oracle.

The OMPE receiver hides each input coordinate in a random degree-``q``
polynomial and evaluates it at the ``M`` nodes of its points message
(:mod:`repro.core.ompe.hiding`).  The coefficients are integer
numerators over the ``1/10**6`` lattice, drawn from one keyed BLAKE2b
stream per hider set, and :class:`~repro.core.ompe.hiding.Hiders`
evaluates them without building :class:`~fractions.Fraction`
coefficients or :class:`~repro.math.polynomials.Polynomial` objects.
The oracle here (:func:`hiding_polynomials` and :func:`oracle_pairs`)
builds ``Polynomial`` objects from the same numerators and evaluates
them by plain ``Fraction`` Horner.  These tests hold the two to the
same *bytes* (``encode_payload``) and the same value types, for the
online, batch and pooled receivers, pin the stream layout with
known-answer digests, and check the sampler's range and uniformity.
Known-answer digests also pin the online, pooled and batched senders'
mask/amplifier/offset draws.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from repro import obs
from repro.core.ompe import OMPEConfig, hiding
from repro.core.ompe.batch import _BatchReceiver, _BatchSender
from repro.core.ompe.function import OMPEFunction
from repro.core.ompe.precompute import ReceiverPool, SenderPool
from repro.core.ompe.receiver import OMPEReceiver
from repro.core.ompe.sender import OMPESender
from repro.core.similarity import (
    evaluate_similarity_private,
)
from repro.math.groups import fast_group
from repro.math.polynomials import Polynomial
from repro.ml.kernels import polynomial_kernel
from repro.ml.svm.model import SVMModel, make_linear_model
from repro.net.channel import Channel
from repro.utils.rng import ReproRandom
from repro.utils.serialization import encode_payload
from repro.utils.timer import TimingRecorder
from tests import reference

KINDS = ("int", "fraction", "bigden")
#: (q, arity, input kind): every security degree 1–4 against arities
#: 1, 2, 17 and 84 (the packed degree-3 kernel model of dimension 6).
SHAPES = [
    (q, arity, kind) for q in (1, 2, 3, 4) for arity in (1, 2, 17, 84) for kind in KINDS
]


def inputs_for(kind: str, arity: int) -> tuple:
    if kind == "int":
        return tuple(Fraction(i % 7 - 3) for i in range(arity))
    if kind == "fraction":
        return tuple(Fraction(2 * i - 5, 7 + i) for i in range(arity))
    return tuple(
        Fraction((-1) ** i * (10**18 + 37 * i), 10**20 + 7 + i) for i in range(arity)
    )


def shape_config(q: int, arity: int) -> OMPEConfig:
    return OMPEConfig(security_degree=q, cover_expansion=2 + (q + arity) % 2)


def shape_degree(q: int, arity: int) -> int:
    return 1 + (q + arity) % 3


def online_points(vector, config, degree, seed, pool=None):
    """The points message an :class:`OMPEReceiver` sends for one query."""
    receiver = OMPEReceiver("bob", vector, config, rng=ReproRandom(seed), pool=pool)
    channel = Channel("alice", "bob")
    receiver.connect(channel)
    channel.send(
        "alice",
        "ompe/params",
        (degree, config.cover_count(degree), config.pair_count(degree)),
    )
    receiver.handle_params()
    return channel.receive("alice", "ompe/points")


def batch_points(vectors, config, degree, seed):
    """The points message a batched receiver sends for ``vectors``."""
    receiver = _BatchReceiver(
        "bob", list(vectors), config, ReproRandom(seed), TimingRecorder()
    )
    channel = Channel("alice", "bob")
    receiver.connect(channel)
    channel.send(
        "alice",
        "ompe-batch/params",
        (degree, config.cover_count(degree), config.pair_count(degree)),
    )
    receiver.handle_params()
    return channel.receive("alice", "ompe-batch/points")


def pooled_points(vector, config, degree, seed):
    """The points message of a receiver drawing from a one-bundle pool."""
    pool = ReceiverPool(config, len(vector), degree, 1, ReproRandom(seed + 1))
    return online_points(vector, config, degree, seed, pool=pool)


def value_types(payload):
    """The nested value types of a message (``int`` ↔ ``Fraction`` flips
    would change them even where ``==`` holds)."""
    if isinstance(payload, (tuple, list)):
        return tuple(value_types(item) for item in payload)
    return type(payload).__name__


def online_messages():
    for index, (q, arity, kind) in enumerate(SHAPES):
        yield online_points(
            inputs_for(kind, arity),
            shape_config(q, arity),
            shape_degree(q, arity),
            seed=1000 + index,
        )


def batch_messages():
    for index, (q, arity) in enumerate([(1, 1), (2, 2), (3, 17), (4, 5), (2, 84)]):
        vectors = [inputs_for(kind, arity) for kind in KINDS]
        yield batch_points(
            vectors, shape_config(q, arity), shape_degree(q, arity), seed=2000 + index
        )


def pooled_messages():
    for index, (q, arity, kind) in enumerate(
        [(1, 1, "int"), (2, 2, "fraction"), (3, 17, "bigden"), (4, 84, "fraction")]
    ):
        yield pooled_points(
            inputs_for(kind, arity),
            shape_config(q, arity),
            shape_degree(q, arity),
            seed=3000 + index,
        )


def degree_function(degree: int) -> OMPEFunction:
    return OMPEFunction.from_callable(2, degree, lambda vector: vector[0])


SENDER_FLAGS = [(amplify, offset) for amplify in (False, True) for offset in (False, True)]


def online_sender_draws():
    """``(mask coefficients, amplifier, offset)`` of online senders."""
    for index, ((amplify, offset), degree) in enumerate(
        (flags, degree) for flags in SENDER_FLAGS for degree in (1, 2, 3)
    ):
        sender = OMPESender(
            "alice",
            degree_function(degree),
            OMPEConfig(security_degree=1 + index % 3),
            rng=ReproRandom(5000 + index),
            amplify=amplify,
            offset=offset,
        )
        channel = Channel("alice", "bob")
        sender.connect(channel)
        channel.send("bob", "ompe/request", 2)
        sender.handle_request()
        yield (sender._mask.coefficients, sender.amplifier, sender.offset_value)


def pooled_sender_draws():
    """The bundles of sender pools, in pop order."""
    for index, ((amplify, offset), degree) in enumerate(
        (flags, degree) for flags in SENDER_FLAGS for degree in (1, 3)
    ):
        pool = SenderPool(
            OMPEConfig(security_degree=1 + index % 2),
            degree,
            3,
            ReproRandom(6000 + index),
            amplify=amplify,
            offset=offset,
        )
        while len(pool):
            bundle = pool.pop()
            yield (bundle.mask.coefficients, bundle.amplifier, bundle.offset)


def batch_sender_draws():
    """The per-query masks and amplifiers of batched senders."""
    for index, (q, degree, batch_size) in enumerate([(1, 1, 1), (2, 2, 3), (3, 1, 4)]):
        sender = _BatchSender(
            "alice",
            degree_function(degree),
            OMPEConfig(security_degree=q),
            ReproRandom(7000 + index),
            TimingRecorder(),
        )
        channel = Channel("alice", "bob")
        sender.connect(channel)
        channel.send("bob", "ompe-batch/request", (2, batch_size))
        sender.handle_request()
        for mask, amplifier in zip(sender._masks, sender.amplifiers):
            yield (mask.coefficients, amplifier, 0)


def digest(messages) -> str:
    sha = hashlib.sha256()
    for message in messages:
        sha.update(encode_payload(message))
    return sha.hexdigest()


#: SHA-256 over the encoded points messages of the grids above.  The
#: ``online``, ``batch`` and ``pooled`` digests were recorded from the
#: keyed BLAKE2b hider stream (``hiding.lattice_numerators``); they pin
#: its key, message layout and draw order together with the fork labels
#: of nodes, positions and disguise constants.
#: The ``sender-*`` digests pin the sender's mask/amplifier/offset draws
#: the same way; labels and T² are exact whatever the masks, so no
#: other test would notice a change of fork label or draw order.
KNOWN_ANSWERS = {
    "online": "52befec8296ca4b52d2a55b891553cee19ee543c284d7d29081f3ea03a36b0f2",
    "batch": "60b32d13c6825691c7f9def9f19b0deafe419905e7aa5974e190491c023c59bf",
    "pooled": "8449723fc2fd59b151c3b3de283ce45734f9e543dd87b30b41a8ce88e7990d64",
    "sender-online": "34ff1ec77385b03fb9558e03f6cd9b993a3eb2ae8a56971986c7ccd99f6da927",
    "sender-pooled": "d5b0c9410b034b92b059af9028e7e9bea825278c88e03e026af8fd4973cc7d4e",
    "sender-batch": "685b1c4e9267c77001229196aaf32733cc25ec4b618da59bf57741e783a34e19",
}

GRIDS = {
    "online": online_messages,
    "batch": batch_messages,
    "pooled": pooled_messages,
    "sender-online": online_sender_draws,
    "sender-pooled": pooled_sender_draws,
    "sender-batch": batch_sender_draws,
}


class TestKnownAnswers:
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_points_messages_match_recorded_digest(self, grid):
        assert digest(GRIDS[grid]()) == KNOWN_ANSWERS[grid]


def hiding_polynomials(parent, prefix, constants, config):
    """``g_i`` with ``g_i(0) = constants[i]`` as ``Polynomial`` objects,
    from the numerators the lattice form evaluates."""
    numerators = hiding.draw_numerators(parent, prefix, len(constants), config)
    return [
        Polynomial(
            [
                constant,
                *(Fraction(n, hiding.LATTICE) for n in middle),
                Fraction(lead, hiding.LATTICE),
            ]
        )
        for constant, (lead, *middle) in zip(constants, numerators)
    ]


def evaluate(polynomials, node) -> tuple:
    return tuple(reference.horner(p.coefficients, node) for p in polynomials)


def oracle_disguise(draw, parent, prefix, arity, node, config) -> tuple:
    """:func:`hiding.disguise_vector` by way of ``Polynomial`` objects:
    constants ``draw.fraction(-1, 1)``, hiders for ``prefix`` of ``parent``."""
    constants = [draw.fraction(-1, 1) for _ in range(arity)]
    return evaluate(hiding_polynomials(parent, prefix, constants, config), node)


def oracle_pairs(vector, config, draw, cover_parent, disguise_parent, degree):
    """One query's points message, rebuilt from ``draw``'s label tree:
    covers from ``cover_parent``, the disguise at position ``i`` from
    ``disguise_parent(disguise_draw, i)``."""
    pair_count = config.pair_count(degree)
    covers = hiding_polynomials(cover_parent, ("g",), vector, config)
    nodes = hiding.draw_nodes(draw.fork("nodes"), pair_count, config)
    positions = set(
        draw.fork("positions").sample_indices(pair_count, config.cover_count(degree))
    )
    disguise_draw = draw.fork("disguises")
    pairs = []
    for index, node in enumerate(nodes):
        if index in positions:
            vector_at = evaluate(covers, node)
        else:
            parent, prefix = disguise_parent(disguise_draw, index)
            vector_at = oracle_disguise(
                disguise_draw, parent, prefix, len(vector), node, config
            )
        pairs.append((node, vector_at))
    return tuple(pairs)


def oracle_online(vector, config, degree, seed):
    draw = ReproRandom(seed).fork("hide")
    return oracle_pairs(
        vector, config, draw, draw.fork("covers"),
        lambda parent, index: (parent.fork("poly", index), ("g",)), degree,
    )


def _poly_prefix(parent, index):
    return parent, ("poly", index)


def oracle_batch(vectors, config, degree, seed):
    queries = [ReproRandom(seed).fork("query", index) for index in range(len(vectors))]
    return tuple(
        oracle_pairs(vector, config, draw, draw, _poly_prefix, degree)
        for vector, draw in zip(vectors, queries)
    )


def oracle_pooled(vector, config, degree, seed):
    draw = ReproRandom(seed + 1).fork("bundle", 0)
    return oracle_pairs(vector, config, draw, draw, _poly_prefix, degree)


def assert_identical(fast, naive):
    assert encode_payload(fast) == encode_payload(naive)
    assert value_types(fast) == value_types(naive)


class TestFastMatchesNaive:
    """Each receiver's message against its ``Polynomial`` rebuild."""

    @pytest.mark.parametrize("q,arity,kind", SHAPES)
    def test_online(self, q, arity, kind):
        args = (inputs_for(kind, arity), shape_config(q, arity), shape_degree(q, arity))
        fast = online_points(*args, seed=q * 100 + arity)
        naive = oracle_online(*args, seed=q * 100 + arity)
        assert_identical(fast, naive)
        assert {type(v) for _, vector in fast for v in vector} == {Fraction}

    @pytest.mark.parametrize("q,arity", [(1, 1), (2, 2), (3, 17), (4, 84)])
    def test_batch(self, q, arity):
        args = (
            [inputs_for(kind, arity) for kind in KINDS],
            shape_config(q, arity),
            shape_degree(q, arity),
        )
        assert_identical(batch_points(*args, seed=7 + q), oracle_batch(*args, seed=7 + q))

    @pytest.mark.parametrize(
        "q,arity,kind", [(1, 2, "int"), (2, 17, "bigden"), (4, 84, "fraction")]
    )
    def test_pooled(self, q, arity, kind):
        args = (inputs_for(kind, arity), shape_config(q, arity), shape_degree(q, arity))
        assert_identical(pooled_points(*args, seed=q), oracle_pooled(*args, seed=q))

    def test_integer_constants_and_nodes(self):
        """Plain ``int`` constant terms and an ``int`` node take the lattice
        path too, with the oracle's ``Fraction`` results."""
        config = shape_config(2, 3)
        constants = (3, -1, 0)
        nodes = (Fraction(-5, 3), 2, Fraction(7, 1))
        hiders = hiding.draw_hiders(ReproRandom(5), ("g",), constants, config)
        polynomials = hiding_polynomials(ReproRandom(5), ("g",), constants, config)
        assert_identical(
            tuple(hiders.at(node) for node in nodes),
            tuple(evaluate(polynomials, node) for node in nodes),
        )
        for node in nodes:
            assert_identical(
                hiding.disguise_vector(
                    ReproRandom(6), ReproRandom(7), ("poly", 1), 3, node, config
                ),
                oracle_disguise(
                    ReproRandom(6), ReproRandom(7), ("poly", 1), 3, node, config
                ),
            )

    def test_hot_path_builds_no_polynomials(self, monkeypatch):
        """A points message never calls ``Polynomial.random``."""

        def refuse(*args, **kwargs):
            raise AssertionError("Polynomial.random on the lattice path")

        expected = online_points(inputs_for("fraction", 5), shape_config(2, 5), 2, seed=3)
        monkeypatch.setattr(Polynomial, "random", refuse)
        assert online_points(
            inputs_for("fraction", 5), shape_config(2, 5), 2, seed=3
        ) == expected


def chi_square(values, support) -> float:
    """Pearson's statistic of ``values`` against uniform on ``support``."""
    expected = len(values) / len(support)
    counts = {value: 0 for value in support}
    for value in values:
        counts[value] += 1
    return sum((count - expected) ** 2 / expected for count in counts.values())


class TestLatticeSampler:
    """``hiding.lattice_numerators``: range, uniformity, determinism and
    the stream's key and message layout."""

    def test_tiny_span_reaches_both_endpoints_uniformly(self):
        rows = hiding.lattice_numerators(11, ("chi",), 3000, 3, 2)
        leads = [row[0] for row in rows]
        middles = [value for row in rows for value in row[1:]]
        assert min(middles) == -2 and max(middles) == 2
        assert min(leads) == -2 and max(leads) == 2
        # 0.1% critical values of chi-square with 4 and 3 degrees of freedom.
        assert chi_square(middles, range(-2, 3)) < 18.47
        assert chi_square(leads, (-2, -1, 1, 2)) < 16.27

    def test_lead_is_never_zero(self):
        rows = hiding.lattice_numerators(3, ("g",), 2000, 2, 1)
        assert all(row[0] != 0 for row in rows)
        # A third of the middle draws are 0, so zeros are drawn and redrawn.
        assert sum(row[1] == 0 for row in rows) > 500

    def test_deterministic_per_seed_prefix_and_index(self):
        high = 8 * hiding.LATTICE
        rows = hiding.lattice_numerators(5, ("poly", 4), 12, 3, high)
        assert rows == hiding.lattice_numerators(5, ("poly", 4), 12, 3, high)
        for index in range(12):
            prefix_rows = hiding.lattice_numerators(5, ("poly", 4), index + 1, 3, high)
            assert prefix_rows[index] == rows[index]
        assert rows != hiding.lattice_numerators(6, ("poly", 4), 12, 3, high)
        assert rows != hiding.lattice_numerators(5, ("poly", 5), 12, 3, high)
        assert len({tuple(row) for row in rows}) == 12

    def test_label_path_and_index_encode_unambiguously(self):
        high = 8 * hiding.LATTICE
        joined = hiding.lattice_numerators(9, ("poly", 1), 24, 4, high)[23]
        split = hiding.lattice_numerators(9, ("poly", 12), 4, 4, high)[3]
        assert joined != split

    def test_span_wider_than_32_bits_stays_in_range(self):
        config = OMPEConfig(coefficient_bound=5000, security_degree=3)
        high = 5000 * hiding.LATTICE
        assert 2 * high + 1 > 2**32
        rows = hiding.draw_numerators(ReproRandom(1), ("g",), 400, config)
        values = [abs(value) for row in rows for value in row]
        assert max(values) <= high
        assert max(values) > 2**32

    @pytest.mark.parametrize("seed", [-5, 2**100 + 3])
    def test_negative_and_wide_parent_seeds(self, seed):
        config = shape_config(2, 4)
        high = config.coefficient_bound * hiding.LATTICE
        parent = ReproRandom(seed)
        rows = hiding.draw_numerators(parent, ("g",), 4, config)
        assert rows == hiding.draw_numerators(ReproRandom(seed), ("g",), 4, config)
        assert rows != hiding.draw_numerators(ReproRandom(abs(seed) + 1), ("g",), 4, config)
        assert all(row[0] != 0 and all(abs(n) <= high for n in row) for row in rows)
        if seed < 0:
            assert rows != hiding.draw_numerators(ReproRandom(-seed), ("g",), 4, config)

        constants = inputs_for("fraction", 4)
        hiders = hiding.draw_hiders(parent, ("g",), constants, config)
        polynomials = hiding_polynomials(parent, ("g",), constants, config)
        assert_identical(
            hiders.at(Fraction(-7, 3)), evaluate(polynomials, Fraction(-7, 3))
        )


def kernel_model(rng: random.Random, svs: int = 12, dimension: int = 6, degree: int = 3):
    """A homogeneous polynomial-kernel model whose boundary crosses the box
    (the shape of one ``linkage-kernel`` benchmark model)."""
    a0 = 1.0 / dimension
    corners = np.array(
        [[1.0 if (index >> bit) & 1 else -1.0 for bit in range(dimension)]
         for index in range(1 << dimension)]
    )
    while True:
        model = SVMModel(
            support_vectors=[[rng.uniform(-1.0, 1.0) for _ in range(dimension)]
                             for _ in range(svs)],
            dual_coefficients=[rng.uniform(-1.0, 1.0) for _ in range(svs)],
            bias=rng.uniform(-0.05, 0.05),
            kernel=polynomial_kernel(degree=degree, a0=a0, b0=0.0),
            kernel_spec=("poly", {"degree": degree, "a0": a0, "b0": 0.0}),
        )
        values = model.decision_values(corners)
        if values.min() < 0 < values.max():
            return model


def points_spans(run):
    with obs.observed() as (tracer, _):
        run()
    return [span for span, _ in tracer.spans() if span.name == "ompe.points"]


def reseeds(monkeypatch, run) -> int:
    """``random.Random.seed`` calls made by ``run()``."""
    calls = []
    seed = random.Random.seed

    def counting(self, *args, **kwargs):
        calls.append(None)
        return seed(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(random.Random, "seed", counting)
        run()
    return len(calls)


class TestHiderCounts:
    """``ompe.points`` carries ``hiders = arity·(M - m + 1)``: the cover
    cost of a trace as a deterministic count.  The same pairs pin their
    ``random.Random`` reseeds: hiders draw from a keyed hash stream, and
    a ``ReproRandom`` seeds its Mersenne Twister only on its first draw,
    so only the streams that draw (nodes, positions, constants, OT
    exponents and sealing keys, masks) reseed."""

    CONFIG = OMPEConfig(security_degree=2, cover_expansion=3, group=fast_group())

    def test_linkage_kernel_pair(self):
        rng = random.Random(2016)
        left, right = kernel_model(rng), kernel_model(rng)
        spans = points_spans(
            lambda: evaluate_similarity_private(
                left, right, config=self.CONFIG, seed=1
            )
        )
        # Arity 56 (the degree-3 monomials in 6 variables) over
        # M - m + 1 = 7 hider sets for OMPE #1 and #2, then 2 · 19.
        assert [span.attributes["hiders"] for span in spans] == [392, 392, 38]

    def test_linear_pair(self):
        left = make_linear_model([0.5, -0.25, 0.75], -0.2)
        right = make_linear_model([-0.3, 0.9, 0.1], 0.1)
        spans = points_spans(
            lambda: evaluate_similarity_private(left, right, config=self.CONFIG, seed=1)
        )
        assert sum(span.attributes["hiders"] for span in spans) == 80

    def test_linkage_kernel_pair_reseeds(self, monkeypatch):
        rng = random.Random(2016)
        left, right = kernel_model(rng), kernel_model(rng)
        assert reseeds(
            monkeypatch,
            lambda: evaluate_similarity_private(
                left, right, config=self.CONFIG, seed=1
            ),
        ) == 24

    def test_linear_pair_reseeds(self, monkeypatch):
        left = make_linear_model([0.5, -0.25, 0.75], -0.2)
        right = make_linear_model([-0.3, 0.9, 0.1], 0.1)
        assert reseeds(
            monkeypatch,
            lambda: evaluate_similarity_private(left, right, config=self.CONFIG, seed=1),
        ) == 24

    def test_hiding_never_reseeds_a_mersenne_twister(self):
        assert not hasattr(hiding, "random")
        assert not hasattr(hiding, "derive_seed")

    def test_batch_and_pool(self):
        config = shape_config(2, 3)
        vectors = [inputs_for(kind, 3) for kind in KINDS]
        (batch,) = points_spans(lambda: batch_points(vectors, config, 1, seed=1))
        m, big_m = config.cover_count(1), config.pair_count(1)
        assert batch.attributes["hiders"] == 3 * 3 * (big_m - m + 1)
        (pooled,) = points_spans(lambda: pooled_points(vectors[0], config, 1, seed=1))
        assert pooled.attributes["hiders"] == 0
