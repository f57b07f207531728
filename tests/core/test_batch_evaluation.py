"""One evaluation per points message, held to the per-point oracle.

The OMPE senders evaluate their function once per points message
(:meth:`repro.core.ompe.OMPEFunction.evaluate_all`).  An SVM's exact
decision value runs it as one ``dtype=object`` integer matmul with a
single ``Fraction`` per point; Alice's kernel normal function, a dot
product over the kernel's monomial map, costs one integer dot product
and one ``Fraction`` per point.  These tests compare both with plain
``Fraction`` loops (:mod:`tests.reference` and :func:`_plain_dot_form`), with exact equality
and exact result types, on points whose numerators overflow any fixed
width, and pin digests of small kernel classifications and a kernel
similarity job.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from repro.core.classification.nonlinear import classify_nonlinear
from repro.core.ompe import OMPEConfig, OMPEFunction, execute_ompe
from repro.core.ompe.batch import execute_ompe_batch
from repro.core.similarity import (
    MetricParams,
    evaluate_similarity_private,
    exact_normal_inner,
    similarity_profile,
)
from repro.exceptions import ValidationError
from repro.math.groups import fast_group
from repro.ml.kernels import polynomial_kernel, rbf_kernel
from repro.ml.svm.model import SVMModel, make_linear_model
from tests import reference


def _kernel_model(seed: int, svs: int, dimension: int, degree: int, b0: float) -> SVMModel:
    rng = random.Random(seed)
    a0 = 1.0 / dimension
    return SVMModel(
        support_vectors=[
            [rng.uniform(-1.0, 1.0) for _ in range(dimension)] for _ in range(svs)
        ],
        dual_coefficients=[rng.uniform(-1.0, 1.0) for _ in range(svs)],
        bias=rng.uniform(-0.5, 0.5),
        kernel=polynomial_kernel(degree=degree, a0=a0, b0=b0),
        kernel_spec=("poly", {"degree": degree, "a0": a0, "b0": b0}),
    )


def _crossing_model(seed: int, svs: int, dimension: int, degree: int, b0: float) -> SVMModel:
    """A kernel model whose decision surface crosses the ``[-1, 1]`` box,
    so its similarity profile has boundary points."""
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=dimension)))
    for attempt in itertools.count():
        model = _kernel_model(seed * 1000 + attempt, svs, dimension, degree, b0)
        values = model.decision_values(corners)
        if values.min() < 0 < values.max():
            return model


def _fraction_points(seed: int, count: int, dimension: int, bits: int = 40) -> list:
    """Points with mixed, unrelated denominators (as hidden vectors have)."""
    rng = random.Random(seed)
    return [
        tuple(
            Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))
            for _ in range(dimension)
        )
        for _ in range(count)
    ]


def _reference_values(model, points) -> list:
    return [reference.decision_value(model, point) for point in points]


def _plain_dot_form(form, point):
    """``constant + Σ weight·y`` by ``Fraction`` multiply-add, skipping zero
    weights, from the form's numerators over its denominator."""
    total = Fraction(form.constant_numerator, form.denominator)
    for numerator, value in zip(form.numerators, point):
        if numerator:
            total = total + Fraction(numerator, form.denominator) * value
    return total


def _normal_values(profile, points) -> list:
    return [_plain_dot_form(profile.normal_form, point) for point in points]


def _assert_identical(values, expected) -> None:
    assert values == expected
    assert [type(value) for value in values] == [type(value) for value in expected]


# -- SVM decision values -------------------------------------------------------


class TestDecisionValues:
    @pytest.mark.parametrize("b0", [0.0, 0.5])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_matches_naive(self, degree, b0):
        for dimension, svs in ((2, 3), (5, 17), (12, 40)):
            model = _kernel_model(degree * 100 + dimension, svs, dimension, degree, b0)
            points = _fraction_points(degree + dimension, 21, dimension)
            values = model.exact_decision_values(points)
            assert all(type(value) is Fraction for value in values)
            _assert_identical(values, _reference_values(model, points))

    def test_int_only_points(self):
        model = _kernel_model(5, 9, 4, 3, 0.5)
        rng = random.Random(5)
        points = [tuple(rng.randint(-50, 50) for _ in range(4)) for _ in range(9)]
        values = model.exact_decision_values(points)
        assert all(type(value) is Fraction for value in values)
        _assert_identical(values, _reference_values(model, points))

    @pytest.mark.parametrize("bits", [64, 300])
    def test_numerators_past_fixed_width(self, bits):
        """Scaled numerators of 2^64 and 2^300 wrap an int64 array and
        lose digits in a float one; object arrays keep them exact."""
        model = _kernel_model(6, 12, 6, 3, 0.5)
        points = _fraction_points(bits, 7, 6, bits=bits)
        points.append(tuple(2**bits + index for index in range(6)))
        values = model.exact_decision_values(points)
        _assert_identical(values, _reference_values(model, points))

    def test_float_coordinates(self):
        """Float mode: coordinates convert to exact fractions first."""
        model = _kernel_model(7, 8, 3, 2, 0.0)
        rng = random.Random(7)
        points = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(5)]
        values = model.exact_decision_values(points)
        assert all(type(value) is Fraction for value in values)
        _assert_identical(values, _reference_values(model, points))

    def test_linear_model(self):
        model = make_linear_model([0.25, -1.5, 3.0], 0.125)
        points = _fraction_points(8, 6, 3) + [(1, 2, 3)]
        _assert_identical(
            model.exact_decision_values(points),
            _reference_values(model, points),
        )

    def test_one_point_and_empty_message(self):
        model = _kernel_model(9, 5, 3, 3, 0.5)
        point = _fraction_points(9, 1, 3)[0]
        assert model.exact_decision_value(point) == model.exact_decision_values([point])[0]
        assert model.exact_decision_values([]) == []

    def test_refusals_unchanged(self):
        model = _kernel_model(10, 4, 3, 2, 0.5)
        with pytest.raises(ValidationError, match="3 coordinates"):
            model.exact_decision_values([(Fraction(1), Fraction(2))])
        rbf = SVMModel(
            support_vectors=[[0.0, 1.0]],
            dual_coefficients=[1.0],
            bias=0.0,
            kernel=rbf_kernel(gamma=1.0),
            kernel_spec=("rbf", {"gamma": 1.0}),
        )
        with pytest.raises(ValidationError, match="unsupported"):
            rbf.exact_decision_values([(Fraction(0), Fraction(0))])


# -- Alice's kernel normal function -------------------------------------------


def _models(degree: int, b0: float, dimension: int, alice_svs: int, bob_svs: int):
    return (
        _crossing_model(degree * 7 + 1, alice_svs, dimension, degree, b0),
        _crossing_model(degree * 7 + 2, bob_svs, dimension, degree, b0),
    )


def _profiles(degree: int, b0: float, dimension: int, alice_svs: int, bob_svs: int):
    params = MetricParams()
    return tuple(
        similarity_profile(model, params)
        for model in _models(degree, b0, dimension, alice_svs, bob_svs)
    )


def _tau_points(bob, count: int, seed: int, bits: int = 40) -> list:
    """Bob's τ-form normal first, then vectors of random fractions."""
    points = [tuple(bob.normal_input)]
    points.extend(_fraction_points(seed, count - 1, len(bob.normal_input), bits=bits))
    return points


class TestKernelNormalBatch:
    """Alice's OMPE #2 function over the kernel's monomial map: one
    rescale, one integer dot product and one ``Fraction`` per point."""

    @pytest.mark.parametrize("b0", [0.0, 0.5])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_matches_naive(self, degree, b0):
        for dimension, alice_svs, bob_svs in ((2, 3, 2), (6, 12, 12)):
            model_a, model_b = _models(degree, b0, dimension, alice_svs, bob_svs)
            alice, bob = (similarity_profile(m, MetricParams()) for m in (model_a, model_b))
            function = alice.normal_function()
            assert function.total_degree == 1
            points = _tau_points(bob, 9, degree * 10 + dimension)
            values = function.evaluate_all(points)
            assert all(type(value) is Fraction for value in values)
            _assert_identical(values, _normal_values(alice, points))
            assert values[0] == exact_normal_inner(model_a, model_b)

    @pytest.mark.parametrize("bits", [64, 300])
    def test_numerators_past_fixed_width(self, bits):
        alice, bob = _profiles(3, 0.5, 3, 5, 4)
        function = alice.normal_function()
        points = _tau_points(bob, 4, bits, bits=bits)
        arity = len(bob.normal_input)
        points.append((Fraction(2**bits + 1, 3),) + tuple(range(2**bits, 2**bits + arity - 1)))
        _assert_identical(function.evaluate_all(points), _normal_values(alice, points))

    def test_float_point_is_refused(self):
        """Int and ``Fraction`` points give a ``Fraction``; a float point
        never reaches the form in a protocol run (``check_points`` refuses
        it), and the form refuses it too."""
        alice, bob = _profiles(2, 0.5, 3, 4, 3)
        function = alice.normal_function()
        exact = tuple(bob.normal_input)
        ints = tuple(range(len(exact)))
        values = function.evaluate_all([exact, ints])
        _assert_identical(values, _normal_values(alice, [exact, ints]))
        assert [type(value) for value in values] == [Fraction, Fraction]
        with pytest.raises(ValidationError, match="int or Fraction"):
            function(tuple(float(value) for value in exact))

    @pytest.mark.parametrize("b0", [0.0, 0.5])
    def test_centroid_form_matches_oracle(self, b0):
        """OMPE #1's form carries the constant monomial's weight when
        ``b0 ≠ 0``; the oracle adds it as a ``Fraction``."""
        alice, bob = _profiles(3, b0, 3, 5, 4)
        assert (alice.centroid_form.constant_numerator != 0) == (b0 != 0)
        points = [tuple(bob.centroid_input)] + _fraction_points(
            5, 4, len(bob.centroid_input)
        )
        expected = [_plain_dot_form(alice.centroid_form, point) for point in points]
        _assert_identical(alice.centroid_function().evaluate_all(points), expected)

    def test_point_evaluator_is_the_one_point_batch(self):
        alice, bob = _profiles(3, 0.0, 4, 6, 5)
        function = alice.normal_function()
        point = tuple(bob.normal_input)
        assert function(point) == function.evaluate_all([point])[0]
        assert function.evaluate_all([]) == []
        with pytest.raises(ValidationError, match="coordinates"):
            function(point[1:])


# -- the senders call the batch once per message -------------------------------


def _counting_function(model: SVMModel, calls: list) -> OMPEFunction:
    def evaluate_batch(points):
        calls.append(len(points))
        return model.exact_decision_values(points)

    return OMPEFunction.from_callable(
        arity=model.dimension,
        total_degree=3,
        evaluate=model.exact_decision_value,
        evaluate_batch=evaluate_batch,
    )


class TestSenders:
    def test_online_sender_evaluates_once_per_message(self, fast_config):
        model = _kernel_model(11, 5, 3, 3, 0.5)
        calls: list = []
        sample = (Fraction(1, 3), Fraction(-1, 2), Fraction(2, 5))
        outcome = execute_ompe(_counting_function(model, calls), sample, config=fast_config, seed=4)
        assert calls == [fast_config.pair_count(3)]
        assert outcome.value == outcome.amplifier * model.exact_decision_value(sample)

    def test_batch_sender_evaluates_once_per_query(self, fast_config):
        model = _kernel_model(12, 5, 3, 3, 0.5)
        calls: list = []
        inputs = [
            (Fraction(1, 3), Fraction(-1, 2), Fraction(2, 5)),
            (Fraction(0), Fraction(1, 7), Fraction(-3, 4)),
        ]
        outcome = execute_ompe_batch(
            _counting_function(model, calls), inputs, config=fast_config, seed=5
        )
        assert calls == [fast_config.pair_count(3)] * len(inputs)
        for value, amplifier, point in zip(outcome.values, outcome.amplifiers, inputs):
            assert value == amplifier * model.exact_decision_value(point)


# -- digests pinned from the per-point implementation --------------------------

#: Transcript phases of the oblivious transfer.  Their bytes moved when
#: a k-of-n transfer became one exchange; every other phase, the
#: randomized values and T² are pinned from the per-point implementation.
OT_PHASES = ("ot-setups", "ot-choices", "ot-transfers")


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _split_phases(by_phase):
    """``(protocol phases, OT phases)``, each sorted by phase name."""
    items = sorted(by_phase.items())
    return (
        [item for item in items if item[0] not in OT_PHASES],
        [item for item in items if item[0] in OT_PHASES],
    )


def _split_bytes(outcome):
    """A similarity outcome's ``(non-OT bytes, OT bytes)``."""
    protocol = ot = 0
    for report in outcome.reports.values():
        for phase, size in report.transcript.bytes_by_phase().items():
            if phase in OT_PHASES:
                ot += size
            else:
                protocol += size
    return protocol, ot


def test_kernel_classification_digest():
    """SHA-256 of ``(non-OT bytes_by_phase, randomized_value)`` over five
    in-process kernel classifications, pinned from the implementation
    that evaluated one point per call, and of their OT phase bytes,
    pinned from the one-exchange transfer."""
    config = OMPEConfig(security_degree=1, cover_expansion=2, group=fast_group())
    model = _kernel_model(2016, 10, 5, 3, 0.5)
    rng = np.random.default_rng(7)
    rows, ot_rows = [], []
    for index in range(5):
        sample = rng.uniform(-1.0, 1.0, size=5)
        outcome = classify_nonlinear(model, sample, config=config, seed=index)
        protocol, ot = _split_phases(outcome.report.transcript.bytes_by_phase())
        rows.append((protocol, str(outcome.randomized_value)))
        ot_rows.append(ot)
    assert _digest(rows) == (
        "c3fab7b299f529814ecdf07c37c92bd7a0dd919e580fce28bddcd30f4b8d3425"
    )
    assert _digest(ot_rows) == (
        "249a819e644d46ab2e1dd846e42de6db69076ecc9daed7fdf519288982abfc5e"
    )


def test_kernel_similarity_digest():
    """SHA-256 of the T² values of a 2×2 kernel job (degree 2, dimension
    4, ``b0 = 0``), pinned from the per-point packed-model
    implementation, and of its ``(non-OT, OT)`` bytes, pinned from OMPE
    #1 and #2 over the kernel's monomial map."""
    config = OMPEConfig(security_degree=1, cover_expansion=3, group=fast_group())
    params = MetricParams()
    lefts = [_crossing_model(300 + i, 5, 4, 2, 0.0) for i in range(2)]
    rights = [_crossing_model(400 + j, 6, 4, 2, 0.0) for j in range(2)]
    rows, byte_rows = [], []
    for i, left in enumerate(lefts):
        for j, right in enumerate(rights):
            outcome = evaluate_similarity_private(
                left, right, params, config=config, seed=10 * i + j
            )
            rows.append(str(outcome.t_squared))
            byte_rows.append(_split_bytes(outcome))
    assert _digest(rows) == (
        "e4fef3b41170fd6a35a43e0c1ac9703d201eae2c94f7c03a39d945248d15579d"
    )
    assert _digest(byte_rows) == (
        "ab57195d8a5f378ac024c2ad4ccfc53f2feada8c8aa126075a8eca990808bfe9"
    )
