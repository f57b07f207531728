"""Tests for kernel functions."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.ml.kernels import (
    linear_kernel,
    make_kernel,
    polynomial_kernel,
    rbf_kernel,
    sigmoid_kernel,
)


class TestLinear:
    def test_dot_product(self):
        k = linear_kernel()
        assert k([1, 2, 3], [4, 5, 6]) == 32.0

    def test_gram(self):
        k = linear_kernel()
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(k.gram(a, a), np.eye(2))

    def test_rejects_matrix_input(self):
        with pytest.raises(ValidationError):
            linear_kernel()(np.eye(2), np.eye(2))


class TestPolynomial:
    def test_homogeneous_cubic(self):
        k = polynomial_kernel(degree=3, a0=1.0, b0=0.0)
        assert k([1, 1], [2, 0]) == 8.0

    def test_paper_default_scaling(self):
        n = 4
        k = polynomial_kernel(degree=3, a0=1.0 / n, b0=0.0)
        x = [1.0] * n
        assert k(x, x) == pytest.approx(1.0)

    def test_inhomogeneous(self):
        k = polynomial_kernel(degree=2, a0=1.0, b0=1.0)
        assert k([1], [1]) == 4.0

    def test_gram_matches_pointwise(self):
        k = polynomial_kernel(degree=3, a0=0.5, b0=0.2)
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        gram = k.gram(a, b)
        for i in range(3):
            for j in range(5):
                assert gram[i, j] == pytest.approx(k(a[i], b[j]))

    def test_bad_degree(self):
        with pytest.raises(ValidationError):
            polynomial_kernel(degree=0)


class TestRBF:
    def test_self_similarity_is_one(self):
        k = rbf_kernel(gamma=2.0)
        assert k([1, 2], [1, 2]) == pytest.approx(1.0)

    def test_decreases_with_distance(self):
        k = rbf_kernel(gamma=1.0)
        near = k([0, 0], [0.1, 0])
        far = k([0, 0], [1.0, 0])
        assert near > far

    def test_known_value(self):
        k = rbf_kernel(gamma=1.0)
        assert k([0], [1]) == pytest.approx(math.exp(-1.0))

    def test_gram_symmetric_psd_diagonal(self):
        k = rbf_kernel(gamma=0.7)
        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 3))
        gram = k.gram(a, a)
        assert np.allclose(gram, gram.T)
        assert np.allclose(np.diag(gram), 1.0)
        assert np.all(np.linalg.eigvalsh(gram) > -1e-10)

    def test_bad_gamma(self):
        with pytest.raises(ValidationError):
            rbf_kernel(gamma=0.0)


class TestSigmoid:
    def test_known_value(self):
        k = sigmoid_kernel(a0=1.0, c0=0.0)
        assert k([1], [1]) == pytest.approx(math.tanh(1.0))

    def test_offset(self):
        k = sigmoid_kernel(a0=1.0, c0=0.5)
        assert k([0], [0]) == pytest.approx(math.tanh(0.5))

    def test_gram_matches_pointwise(self):
        k = sigmoid_kernel(a0=0.3, c0=-0.1)
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 2))
        gram = k.gram(a, a)
        for i in range(4):
            for j in range(4):
                assert gram[i, j] == pytest.approx(k(a[i], a[j]))


class TestFactory:
    @pytest.mark.parametrize("name", ["linear", "poly", "polynomial", "rbf", "sigmoid"])
    def test_known_names(self, name):
        assert make_kernel(name) is not None

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            make_kernel("quantum")

    def test_parameters_forwarded(self):
        k = make_kernel("poly", degree=5)
        assert k([1], [2]) == 32.0


_SRC = str(Path(__file__).resolve().parents[2] / "src")

_GRAM_DIGEST = """
import hashlib, os, sys
import numpy as np
from repro.ml.kernels import polynomial_inner
rng = np.random.default_rng(3)
grid = rng.uniform(-1.0, 1.0, size=(12288, 6))
svs = rng.uniform(-1.0, 1.0, size=(12, 6))
gram = polynomial_inner(grid, svs, 1.0 / 6.0, 0.5)
print(os.environ.get("OPENBLAS_NUM_THREADS"), hashlib.sha256(gram.tobytes()).hexdigest())
"""


def _run(code: str, **env_overrides) -> str:
    env = {
        key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"
    }
    env["PYTHONPATH"] = _SRC
    env.update(env_overrides)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return result.stdout.strip()


class TestBlasThreads:
    def test_gram_identical_with_one_or_default_blas_threads(self):
        """The CLI pins OpenBLAS to one thread for speed; the polynomial
        gram must not depend on it, byte for byte."""
        unset = _run(_GRAM_DIGEST).split()
        one = _run(_GRAM_DIGEST, OPENBLAS_NUM_THREADS="1").split()
        assert unset[0] == "None" and one[0] == "1"
        assert unset[1] == one[1]

    def test_cli_sets_one_thread_unless_told_otherwise(self):
        probe = "import os, repro.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert _run(probe) == "1"
        assert _run(probe, OPENBLAS_NUM_THREADS="2") == "2"

