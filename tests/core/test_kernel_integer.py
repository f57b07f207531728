"""Exact integer paths of the kernel similarity profile.

``⟨n, n⟩`` in a kernel profile and Alice's kernel normal function both
run :func:`~repro.core.similarity.exact.kernel_double_sum`: an integer
double loop over common denominators with one ``Fraction`` at the end.
These tests hold it to a plain ``Fraction`` double sum written out here,
with exact equality, and pin a small kernel job's ``T²`` and transcript
sizes.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from repro.core.ompe import OMPEConfig
from repro.core.similarity import (
    MetricParams,
    evaluate_similarity_private,
    exact_normal_inner,
    similarity_profile,
)
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


def _crossing_model(seed: int, svs: int) -> SVMModel:
    """A dimension-3 model whose decision surface crosses the box."""
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    for attempt in itertools.count():
        model = _model(seed * 1000 + attempt, svs)
        values = model.decision_values(corners)
        if values.min() < 0 < values.max():
            return model


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
        function = alice.normal_function(bob.n_support)
        assert function(list(bob.packed)) == _reference_inner(model_a, model_b)
        assert bob.normal_norm == _reference_inner(model_b, model_b)

    def test_degree_below_one_refused(self):
        model = _model(3, svs=2)
        model.kernel_spec = ("poly", {"degree": 0, "a0": 1.0, "b0": 0.0})
        with pytest.raises(ValidationError):
            exact_normal_inner(model, model)


def test_small_kernel_job_digest():
    """SHA-256 of ``(T², non-OT bytes)`` over a 2×2 kernel job.

    Pinned from the implementation before the array scan and the
    integer ``⟨n, n⟩``: boundary points, centroids and norms feed every
    protocol value, so any drift moves this digest.  The OT phases'
    bytes, pinned from the one-exchange transfer, have their own digest.
    """
    config = OMPEConfig(security_degree=1, cover_expansion=2, group=fast_group())
    params = MetricParams()
    lefts = [_crossing_model(100 + i, svs=4) for i in range(2)]
    rights = [_crossing_model(200 + j, svs=5) for j in range(2)]
    rows, ot_rows = [], []
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
            rows.append((str(outcome.t_squared), outcome.total_bytes - ot))
            ot_rows.append(ot)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "e7a641fe7c09b7abe7cb19fb5dc01ff97d4021f46064e4d3773b757385f35cad"
    )
    assert hashlib.sha256(repr(ot_rows).encode()).hexdigest() == (
        "d5aab67612c36453c08d48a54366ae414f0c0c3c7c0aa4e3c7189db299482fa5"
    )
