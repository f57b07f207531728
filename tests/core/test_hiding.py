"""Receiver points messages: lattice hiding polynomials ≡ the naive oracle.

The OMPE receiver hides each input coordinate in a random degree-``q``
polynomial and evaluates it at the ``M`` nodes of its points message
(:mod:`repro.core.ompe.hiding`).  In exact mode the hot path draws the
coefficients as integer numerators over the ``1/10**6`` lattice and
evaluates without building :class:`~fractions.Fraction` coefficients or
:class:`~repro.math.polynomials.Polynomial` objects; under
:func:`repro.math.fastpath.naive_arithmetic` the same draws go through
``Polynomial.random`` + ``evaluate_all``.  These tests hold the two to
the same *bytes* (``encode_payload``) and the same value types, for the
online, batch and pooled receivers, and pin the per-coordinate seed
layout with known-answer digests.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from repro import obs
from repro.core.ompe import OMPEConfig, hiding
from repro.core.ompe.batch import _BatchReceiver
from repro.core.ompe.precompute import ReceiverPool
from repro.core.ompe.receiver import OMPEReceiver
from repro.core.similarity import (
    evaluate_similarity_private,
    evaluate_similarity_private_nonlinear,
)
from repro.math import fastpath
from repro.math.groups import fast_group
from repro.ml.kernels import polynomial_kernel
from repro.ml.svm.model import SVMModel, make_linear_model
from repro.net.channel import Channel
from repro.utils.rng import ReproRandom
from repro.utils.serialization import encode_payload
from repro.utils.timer import TimingRecorder

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


def shape_config(q: int, arity: int, exact: bool = True) -> OMPEConfig:
    return OMPEConfig(security_degree=q, cover_expansion=2 + (q + arity) % 2, exact=exact)


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


def float_messages():
    for index, (q, arity) in enumerate([(1, 2), (2, 17), (3, 3)]):
        yield online_points(
            inputs_for("fraction", arity),
            shape_config(q, arity, exact=False),
            shape_degree(q, arity),
            seed=4000 + index,
        )


def digest(messages) -> str:
    sha = hashlib.sha256()
    for message in messages:
        sha.update(encode_payload(message))
    return sha.hexdigest()


#: SHA-256 over the encoded points messages of the grids above, recorded
#: from the ``Polynomial.random`` receiver before the lattice hot path
#: existed.  They pin the per-coordinate fork labels and draw order.
KNOWN_ANSWERS = {
    "online": "f901401936816823d10d4ba0d6479aa3fc6be4b763d023eab448803ce54a39fb",
    "batch": "236f9a4bc13bc2c62932e851f94a03b9907ec701019247cf2aeb833b61876844",
    "pooled": "ba9133229d37bc3cc3f4812b5d96a36abe0e69dead50b4d65eaf689836aaef0e",
    "float": "816e85815d572f1911c20539b3afa0b19f97a345465dfd9d5599b46ab8a9f2dc",
}

GRIDS = {
    "online": online_messages,
    "batch": batch_messages,
    "pooled": pooled_messages,
    "float": float_messages,
}


class TestKnownAnswers:
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_points_messages_match_recorded_digest(self, grid):
        assert digest(GRIDS[grid]()) == KNOWN_ANSWERS[grid]


def fast_and_naive(build):
    fast = build()
    with fastpath.naive_arithmetic():
        naive = build()
    return fast, naive


def assert_identical(fast, naive):
    assert encode_payload(fast) == encode_payload(naive)
    assert value_types(fast) == value_types(naive)


class TestFastMatchesNaive:
    @pytest.mark.parametrize("q,arity,kind", SHAPES)
    def test_online(self, q, arity, kind):
        fast, naive = fast_and_naive(
            lambda: online_points(
                inputs_for(kind, arity),
                shape_config(q, arity),
                shape_degree(q, arity),
                seed=q * 100 + arity,
            )
        )
        assert_identical(fast, naive)
        assert {type(v) for _, vector in fast for v in vector} == {Fraction}

    @pytest.mark.parametrize("q,arity", [(1, 1), (2, 2), (3, 17), (4, 84)])
    def test_batch(self, q, arity):
        vectors = [inputs_for(kind, arity) for kind in KINDS]
        fast, naive = fast_and_naive(
            lambda: batch_points(
                vectors, shape_config(q, arity), shape_degree(q, arity), seed=7 + q
            )
        )
        assert_identical(fast, naive)

    @pytest.mark.parametrize(
        "q,arity,kind", [(1, 2, "int"), (2, 17, "bigden"), (4, 84, "fraction")]
    )
    def test_pooled(self, q, arity, kind):
        fast, naive = fast_and_naive(
            lambda: pooled_points(
                inputs_for(kind, arity), shape_config(q, arity), shape_degree(q, arity), seed=q
            )
        )
        assert_identical(fast, naive)

    def test_integer_constants_and_nodes(self):
        """Plain ``int`` constant terms and an ``int`` node take the lattice
        path too, with the oracle's ``Fraction`` results."""
        config = shape_config(2, 3)
        constants = (3, -1, 0)
        nodes = (Fraction(-5, 3), 2, Fraction(7, 1))

        def build():
            hiders = hiding.draw_hiders(ReproRandom(5), ("g",), constants, config)
            covers = tuple(hiders.at(node) for node in nodes)
            disguises = tuple(
                hiding.disguise_vector(
                    ReproRandom(6), ReproRandom(7), ("poly", 1), 3, node, config
                )
                for node in nodes
            )
            return covers, disguises

        fast, naive = fast_and_naive(build)
        assert_identical(fast, naive)

    def test_hot_path_builds_no_polynomials(self, monkeypatch):
        """Exact mode with the hot path on never calls ``Polynomial.random``."""

        def refuse(*args, **kwargs):
            raise AssertionError("Polynomial.random on the lattice path")

        expected = online_points(inputs_for("fraction", 5), shape_config(2, 5), 2, seed=3)
        monkeypatch.setattr(hiding.Polynomial, "random", refuse)
        assert online_points(
            inputs_for("fraction", 5), shape_config(2, 5), 2, seed=3
        ) == expected


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


class TestHiderCounts:
    """``ompe.points`` carries ``hiders = arity·(M - m + 1)``: the cover
    cost of a trace as a deterministic count."""

    CONFIG = OMPEConfig(security_degree=2, cover_expansion=3, group=fast_group())

    def test_linkage_kernel_pair(self):
        rng = random.Random(2016)
        left, right = kernel_model(rng), kernel_model(rng)
        spans = points_spans(
            lambda: evaluate_similarity_private_nonlinear(
                left, right, config=self.CONFIG, seed=1
            )
        )
        assert [span.attributes["hiders"] for span in spans] == [90, 1596, 38]

    def test_linear_pair(self):
        left = make_linear_model([0.5, -0.25, 0.75], -0.2)
        right = make_linear_model([-0.3, 0.9, 0.1], 0.1)
        spans = points_spans(
            lambda: evaluate_similarity_private(left, right, config=self.CONFIG, seed=1)
        )
        assert sum(span.attributes["hiders"] for span in spans) == 80

    def test_batch_and_pool(self):
        config = shape_config(2, 3)
        vectors = [inputs_for(kind, 3) for kind in KINDS]
        (batch,) = points_spans(lambda: batch_points(vectors, config, 1, seed=1))
        m, big_m = config.cover_count(1), config.pair_count(1)
        assert batch.attributes["hiders"] == 3 * 3 * (big_m - m + 1)
        (pooled,) = points_spans(lambda: pooled_points(vectors[0], config, 1, seed=1))
        assert pooled.attributes["hiders"] == 0
