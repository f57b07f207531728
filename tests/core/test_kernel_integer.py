"""Exact integer paths of the kernel similarity profile.

:func:`~repro.core.similarity.exact_normal_inner` runs
:func:`~repro.core.similarity.exact.kernel_double_sum`: an integer
double loop over common denominators with one ``Fraction`` at the end.
A kernel profile runs OMPE #1 and #2 over the kernel's monomial map
instead: Alice's functions are dot products against Alice's weighted
``τ`` vectors, Bob's inputs are Bob's ``τ`` vectors.  These tests hold both to the
plain ``Fraction`` sums ``K(m_A, m_B)`` and ``Σ_s Σ_t c_s c_t K(x_s,
y_t)`` written out here, with exact equality, refuse a monomial map
past the cap before any message, and pin a small kernel job's ``T²``
and transcript sizes.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from repro.core.ompe import OMPEConfig
from repro.core.classification.transform import MAX_MONOMIALS
from repro.core.similarity import (
    MetricParams,
    evaluate_similarity_private,
    exact_normal_inner,
    similarity_profile,
)
from repro.core.similarity.boundary import centroid, kernel_boundary_points
from repro.core.similarity.linear import run_similarity_alice, run_similarity_bob
from repro.exceptions import ValidationError
from repro.math.groups import fast_group
from repro.ml.kernels import polynomial_kernel
from repro.ml.svm.model import SVMModel

_GRID = 1 << 40


def _snap(value) -> Fraction:
    return Fraction(round(float(value) * _GRID), _GRID)


def _reference_inner(model_a: SVMModel, model_b: SVMModel) -> Fraction:
    """``Σ_s Σ_t c_s c_t (a0 x_s·y_t + b0)^p`` in ``Fraction`` arithmetic."""
    _, spec = model_a.kernel_spec
    a0, b0, degree = _snap(spec["a0"]), _snap(spec["b0"]), int(spec["degree"])
    total = Fraction(0)
    for c_s, x_s in zip(model_a.dual_coefficients, model_a.support_vectors):
        for c_t, y_t in zip(model_b.dual_coefficients, model_b.support_vectors):
            dot = sum(
                (_snap(u) * _snap(v) for u, v in zip(x_s, y_t)), Fraction(0)
            )
            total += _snap(c_s) * _snap(c_t) * (a0 * dot + b0) ** degree
    return total


def _model(seed: int, svs: int, dimension: int = 3, degree: int = 3, b0: float = 0.5):
    rng = random.Random(seed)
    a0 = 1.0 / dimension
    return SVMModel(
        support_vectors=[
            [rng.uniform(-1.0, 1.0) for _ in range(dimension)] for _ in range(svs)
        ],
        dual_coefficients=[rng.uniform(-1.0, 1.0) for _ in range(svs)],
        bias=rng.uniform(-0.05, 0.05),
        kernel=polynomial_kernel(degree=degree, a0=a0, b0=b0),
        kernel_spec=("poly", {"degree": degree, "a0": a0, "b0": b0}),
    )


def _crossing_model_of(seed: int, svs: int, degree: int, b0: float) -> SVMModel:
    """A dimension-3 model whose decision surface crosses the box."""
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    for attempt in itertools.count():
        model = _model(seed * 1000 + attempt, svs, degree=degree, b0=b0)
        values = model.decision_values(corners)
        if values.min() < 0 < values.max():
            return model


def _crossing_model(seed: int, svs: int) -> SVMModel:
    return _crossing_model_of(seed, svs, degree=3, b0=0.5)


class TestIntegerNormalInner:
    @pytest.mark.parametrize("b0", [0.0, 0.5, 1.25])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_asymmetric_pairs(self, degree, b0):
        model_a = _model(degree * 10 + 1, svs=5, degree=degree, b0=b0)
        model_b = _model(degree * 10 + 2, svs=3, degree=degree, b0=b0)
        for left, right in ((model_a, model_b), (model_b, model_a)):
            value = exact_normal_inner(left, right)
            assert type(value) is Fraction
            assert value == _reference_inner(left, right)

    @pytest.mark.parametrize("b0", [0.0, 0.5])
    def test_self_inner(self, b0):
        model = _model(7, svs=12, dimension=6, b0=b0)
        assert exact_normal_inner(model, model) == _reference_inner(model, model)

    def test_kernel_normal_function_runs_the_same_sum(self):
        params = MetricParams()
        model_a = _model(21, svs=4, b0=0.5)
        model_b = _model(22, svs=6, b0=0.5)
        alice = similarity_profile(model_a, params)
        bob = similarity_profile(model_b, params)
        function = alice.normal_function()
        assert function(list(bob.normal_input)) == _reference_inner(model_a, model_b)
        assert bob.normal_norm == _reference_inner(model_b, model_b)

    def test_degree_below_one_refused(self):
        model = _model(3, svs=2)
        model.kernel_spec = ("poly", {"degree": 0, "a0": 1.0, "b0": 0.0})
        with pytest.raises(ValidationError):
            exact_normal_inner(model, model)


def _reference_kernel(model: SVMModel, x, y) -> Fraction:
    """``(a0 x·y + b0)^p`` in ``Fraction`` arithmetic."""
    _, spec = model.kernel_spec
    a0, b0, degree = _snap(spec["a0"]), _snap(spec["b0"]), int(spec["degree"])
    return (a0 * sum((u * v for u, v in zip(x, y)), Fraction(0)) + b0) ** degree


def _snapped_centroid(model: SVMModel, params: MetricParams):
    points = kernel_boundary_points(
        model, params.lower, params.upper, params.resolution
    )
    return [_snap(value) for value in centroid(points)]


class TestMonomialMapForm:
    @pytest.mark.parametrize("b0", [0.0, 0.5, 1.25])
    @pytest.mark.parametrize("degree", [2, 3])
    def test_functions_at_bobs_inputs(self, degree, b0):
        """OMPE #1 and #2 at Bob's τ inputs are ``K(m_A, m_B)`` and
        ``⟨n_A, n_B⟩``, and the self norms are ``K(m, m)`` and ``⟨n, n⟩``."""
        params = MetricParams()
        model_a = _crossing_model_of(degree * 10 + 5, 5, degree, b0)
        model_b = _crossing_model_of(degree * 10 + 6, 3, degree, b0)
        alice = similarity_profile(model_a, params)
        bob = similarity_profile(model_b, params)
        m_a, m_b = (_snapped_centroid(m, params) for m in (model_a, model_b))
        arity = len(alice.normal_input)
        assert len(alice.centroid_input) == arity - (1 if b0 else 0)
        assert alice.centroid_function().total_degree == 1
        assert alice.normal_function().total_degree == 1
        assert alice.centroid_function()(bob.centroid_input) == _reference_kernel(
            model_a, m_a, m_b
        )
        assert alice.normal_function()(bob.normal_input) == _reference_inner(
            model_a, model_b
        )
        assert bob.centroid_norm == _reference_kernel(model_b, m_b, m_b)
        assert bob.normal_norm == _reference_inner(model_b, model_b)

    def test_model_past_the_cap_refused_before_any_message(self):
        """``C(63, 4)`` degree-4 monomials in 60 variables: every driver
        refuses the model before it opens a channel."""
        model = SVMModel(
            support_vectors=[[0.5] * 60],
            dual_coefficients=[1.0],
            bias=0.0,
            kernel=polynomial_kernel(degree=4, a0=1 / 60, b0=0.0),
            kernel_spec=("poly", {"degree": 4, "a0": 1 / 60, "b0": 0.0}),
        )
        opened = []

        def factory():
            opened.append(1)
            raise AssertionError("a channel was opened")

        with pytest.raises(ValidationError, match=f"cap {MAX_MONOMIALS}"):
            similarity_profile(model, MetricParams())
        with pytest.raises(ValidationError, match="cap"):
            evaluate_similarity_private(model, model)
        with pytest.raises(ValidationError, match="cap"):
            run_similarity_alice(model, factory)
        with pytest.raises(ValidationError, match="cap"):
            run_similarity_bob(model, factory)
        assert opened == []


def test_small_kernel_job_digest():
    """SHA-256 of the T² values of a 2×2 kernel job, and of its
    ``(non-OT, OT)`` bytes.

    The T² digest is pinned from the implementation before the array
    scan and the integer ``⟨n, n⟩``: boundary points, centroids and
    norms feed every protocol value, so any drift moves it.  The bytes
    are pinned from OMPE #1 and #2 as one two-function run over the
    kernel's monomial map and OMPE #3 over Eq. (7)'s 8 monomials, with
    points vectors as scaled integers (``ompe/vector``).
    """
    config = OMPEConfig(security_degree=1, cover_expansion=2, group=fast_group())
    params = MetricParams()
    lefts = [_crossing_model(100 + i, svs=4) for i in range(2)]
    rights = [_crossing_model(200 + j, svs=5) for j in range(2)]
    rows, byte_rows = [], []
    for i, left in enumerate(lefts):
        for j, right in enumerate(rights):
            outcome = evaluate_similarity_private(
                left, right, params, config=config, seed=10 * i + j
            )
            ot = sum(
                size
                for report in outcome.reports.values()
                for phase, size in report.transcript.bytes_by_phase().items()
                if phase.startswith("ot-")
            )
            rows.append(str(outcome.t_squared))
            byte_rows.append((outcome.total_bytes - ot, ot))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "cbaf0cac1d619368364fed659b1d5d8b8606e9eeea50f56f36f64b95f8717d34"
    )
    assert hashlib.sha256(repr(byte_rows).encode()).hexdigest() == (
        "de9965d88a7f2153d0587012ad619ecbaed8b3d2ee6f2a8222af42fee7af6b63"
    )
