"""Points vectors as scaled integers: :class:`~repro.math.scaled.ScaledVector`.

Each vector of an OMPE points message crosses the wire as one
``ompe/vector``: integer numerators over one denominator, in the one
canonical form ``gcd(denominator, *numerators) == 1``.  These tests
hold the form to the reduced ``Fraction`` vector it stands for (a
bijection), :meth:`~repro.core.ompe.hiding.Hiders.at` to the
per-coordinate ``Fraction`` formula it replaced
(:func:`tests.reference.hider_values`), the decoder to the canonical
rule, and Alice's evaluators to reading the integers.  The sender's
refusal of the old ``Fraction``-tuple vectors is one of the hostile
messages of ``test_hostile_points.py``.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classification.linear import classify_linear
from repro.core.classification.nonlinear import classify_nonlinear
from repro.core.ompe import OMPEConfig, hiding
from repro.core.similarity import evaluate_similarity_private
from repro.exceptions import ValidationError
from repro.math.groups import fast_group
from repro.math.multivariate import MultivariatePolynomial
from repro.math.scaled import ScaledVector
from repro.ml.kernels import polynomial_kernel
from repro.ml.svm.model import SVMModel, make_linear_model
from repro.utils.rng import ReproRandom
from repro.utils.serialization import decode_payload, encode_payload
from tests import reference

rationals = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.fractions(),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**200), max_value=2**200),
        st.integers(min_value=1, max_value=2**200),
    ),
)


class TestCanonicalForm:
    @given(st.lists(rationals, max_size=12), st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_round_trip_with_reduced_fractions(self, values, data):
        vector = ScaledVector.of(values)
        exact = tuple(Fraction(value) for value in values)
        assert tuple(vector) == exact
        assert all(type(value) is Fraction for value in vector)
        assert len(vector) == len(values)
        assert vector.denominator == lcm(*(value.denominator for value in exact))
        assert ScaledVector.of(tuple(vector)) == vector
        assert decode_payload(encode_payload(vector)) == vector
        start = data.draw(st.integers(min_value=0, max_value=len(values)))
        stop = data.draw(st.integers(min_value=start, max_value=len(values)))
        assert vector[start:stop] == ScaledVector.of(values[start:stop])
        if values:
            index = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
            assert vector[index] == exact[index]

    def test_full_slice_is_the_vector(self):
        vector = ScaledVector.of((Fraction(1, 2), Fraction(-1, 3)))
        assert vector[0:2] is vector
        assert vector[:] is vector
        assert vector[::-1] == ScaledVector.of((Fraction(-1, 3), Fraction(1, 2)))

    def test_slice_reduces_with_the_shared_denominator(self):
        vector = ScaledVector(6, (3, 2, 1))
        assert vector[:1] == ScaledVector(2, (1,))
        assert vector[1:] == ScaledVector(6, (2, 1))
        assert vector[1:2] == ScaledVector(3, (1,))

    def test_non_numbers_refused(self):
        for values in ((0.5,), (True,), ("1",), (None,)):
            with pytest.raises(ValidationError, match="int or Fraction"):
                ScaledVector.of(values)


def _hostile(denominator, numerators) -> bytes:
    """The encoding of a vector the constructor would refuse."""
    vector = object.__new__(ScaledVector)
    object.__setattr__(vector, "denominator", denominator)
    object.__setattr__(vector, "numerators", numerators)
    return encode_payload(vector)


HOSTILE = {
    "zero denominator": (0, (1, 2)),
    "negative denominator": (-3, (1, 2)),
    "bool denominator": (True, (1, 2)),
    "fraction denominator": (Fraction(3), (1, 2)),
    "common factor": (4, (2, 6)),
    "common factor, one coordinate": (9, (3,)),
    "bool numerator": (7, (True, 2)),
    "fraction numerator": (7, (Fraction(1, 2), 2)),
    "float numerator": (7, (0.5, 2)),
    "text numerator": (7, ("1", 2)),
    "list of numerators": (7, [1, 2]),
    "text numerators": (7, "12"),
}


class TestHostileDecodes:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_refused_by_decoder_and_constructor(self, case):
        denominator, numerators = HOSTILE[case]
        with pytest.raises(ValidationError):
            decode_payload(_hostile(denominator, numerators))
        with pytest.raises(ValidationError):
            ScaledVector(denominator, numerators)

    def test_canonical_vectors_decode(self):
        for vector in (ScaledVector(1, ()), ScaledVector(1, (0,)), ScaledVector(9, (2, -3))):
            assert decode_payload(encode_payload(vector)) == vector


SHAPES = [(q, arity) for q in (1, 2, 3, 4) for arity in (1, 2, 17)]


def _constants(kind: str, arity: int):
    """``(pairs, constants, denominator)``: the constant terms as the
    ``(a, b)`` pairs the per-coordinate formula took, and as the
    numerators over one denominator that ``Hiders`` takes."""
    if kind == "int":
        values = [i % 7 - 3 for i in range(arity)]
        return [(value, 1) for value in values], values, 1
    if kind == "fraction":
        values = [Fraction(2 * i - 5, 7 + i) for i in range(arity)]
        scaled = ScaledVector.of(values)
        pairs = [(value.numerator, value.denominator) for value in values]
        return pairs, scaled.numerators, scaled.denominator
    # Disguise constants: numerators over the lattice, not reduced.
    rng = random.Random(arity)
    values = [rng.randint(-hiding.LATTICE, hiding.LATTICE) for _ in range(arity)]
    return [(value, hiding.LATTICE) for value in values], values, hiding.LATTICE


class TestHidersMatchTheFractionFormula:
    @pytest.mark.parametrize("kind", ["int", "fraction", "lattice"])
    @pytest.mark.parametrize("q,arity", SHAPES)
    def test_coordinate_by_coordinate(self, q, arity, kind):
        config = OMPEConfig(security_degree=q)
        pairs, constants, denominator = _constants(kind, arity)
        numerators = hiding.draw_numerators(ReproRandom(q), ("g",), arity, config)
        hiders = hiding.Hiders(q, constants, denominator, numerators)
        for node in (Fraction(-7, 3), Fraction(1, 2), 3, Fraction(5, 1)):
            expected = reference.hider_values(q, pairs, numerators, node)
            vector = hiders.at(node)
            assert tuple(vector) == expected
            assert vector == ScaledVector.of(expected)


CONFIG = OMPEConfig(security_degree=1, cover_expansion=2, group=fast_group())


def _kernel_model() -> SVMModel:
    rng = random.Random(3)
    return SVMModel(
        support_vectors=[[rng.uniform(-1, 1) for _ in range(4)] for _ in range(6)],
        dual_coefficients=[rng.uniform(-1, 1) for _ in range(6)],
        bias=0.25,
        kernel=polynomial_kernel(degree=2, a0=0.5, b0=0.5),
        kernel_spec=("poly", {"degree": 2, "a0": 0.5, "b0": 0.5}),
    )


class TestEvaluatorsReadIntegers:
    """Alice's dot forms and kernel evaluator read ``numerators`` and
    ``denominator``: no points vector is read as ``Fraction``s."""

    @pytest.fixture
    def slices(self, monkeypatch):
        """Refuse iteration and indexing; record and allow slices."""
        taken = []
        getitem = ScaledVector.__getitem__

        def slices_only(self, index):
            assert isinstance(index, slice), "a coordinate was read as a Fraction"
            taken.append(index)
            return getitem(self, index)

        monkeypatch.setattr(ScaledVector, "__iter__", None)
        monkeypatch.setattr(ScaledVector, "__getitem__", slices_only)
        return taken

    def test_kernel_classification(self, slices):
        model = _kernel_model()
        outcome = classify_nonlinear(model, [0.25, -0.5, 0.75, 0.1], config=CONFIG, seed=1)
        assert outcome.randomized_value is not None
        assert len(slices) == CONFIG.pair_count(2)

    def test_linear_classification(self, slices):
        model = make_linear_model([0.5, -0.25, 0.75], -0.2)
        outcome = classify_linear(model, [0.25, -0.5, 0.75], config=CONFIG, seed=1)
        assert outcome.label == model.predict([[0.25, -0.5, 0.75]])[0]
        assert len(slices) == CONFIG.pair_count(1)

    def test_linear_similarity(self, slices):
        left = make_linear_model([0.5, -0.25, 0.75], -0.2)
        right = make_linear_model([-0.3, 0.9, 0.1], 0.1)
        outcome = evaluate_similarity_private(left, right, config=CONFIG, seed=1)
        assert outcome.t_squared > 0
        # OMPE #1/#2 slices each of its M points for each of its two
        # functions; OMPE #3 takes each of its M points whole.
        assert len(slices) == 3 * CONFIG.pair_count(1)


POLYNOMIALS = {
    "affine": MultivariatePolynomial.affine([Fraction(1, 3), 2, Fraction(-5, 7)], 4),
    "integer affine": MultivariatePolynomial.affine([2, -3, 5], 1),
    "mixed degree": MultivariatePolynomial(
        3, {(2, 0, 1): Fraction(3, 4), (0, 1, 0): -2, (1, 1, 1): 5, (0, 0, 0): 7}
    ),
    "integer constant": MultivariatePolynomial(3, {(0, 0, 0): 7}),
    "fraction constant": MultivariatePolynomial(3, {(0, 0, 0): Fraction(7, 2)}),
}


class TestMultivariateReadsIntegers:
    """``MultivariatePolynomial`` at a ``ScaledVector``: the term sum's
    value and type, without a ``Fraction`` per coordinate."""

    @pytest.mark.parametrize("name", sorted(POLYNOMIALS))
    @given(st.lists(rationals, min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_term_sum(self, name, values):
        polynomial = POLYNOMIALS[name]
        vector = ScaledVector.of(values)
        expected = reference.term_sum(polynomial.terms, tuple(vector))
        value = polynomial(vector)
        assert value == expected
        assert type(value) is type(expected)

    def test_wrong_arity_refused(self):
        with pytest.raises(ValidationError, match="2 coordinates, expected 3"):
            POLYNOMIALS["affine"](ScaledVector(1, (1, 2)))


def test_scaled_vector_is_a_registered_record():
    assert [field.name for field in dataclasses.fields(ScaledVector)] == [
        "denominator",
        "numerators",
    ]
    assert encode_payload(ScaledVector(1, (0,))).startswith(b"C\x00\x00\x00\x0bompe/vector")
