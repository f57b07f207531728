"""Kernel functions and their polynomialized forms.

The paper (Section III-A.2 and IV-B) uses three kernels:

* polynomial: ``K(x, y) = (a0 * x·y + b0)^p``
* radial basis function: ``K(x, y) = exp(-gamma * ||x - y||^2)``
* sigmoid: ``K(x, y) = tanh(a0 * x·y + c0)``

For the privacy-preserving protocols each kernel must be expressible as
a polynomial in the client's input; the polynomial kernel is natively
so, and the other two are truncated with
:mod:`repro.math.taylor` ("use a large number p to approximate the
infinity").  Note the paper's RBF formula drops the conventional
negative sign; we keep the standard ``exp(-gamma ||x-y||²)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ValidationError

Vector = Union[Sequence[float], np.ndarray]


def _as_array(vector: Vector) -> np.ndarray:
    array = np.asarray(vector, dtype=float)
    if array.ndim != 1:
        raise ValidationError(f"expected a 1-D vector, got shape {array.shape}")
    return array


@dataclass(frozen=True)
class Kernel:
    """A named kernel with parameters and a vectorized gram computation.

    ``polynomial`` holds ``(a0, b0, degree)`` for a polynomial kernel,
    whose gram is ``polynomial_inner(a, b, a0, b0) ** degree``, and is
    ``None`` for every other kernel.
    """

    name: str
    function: Callable[[np.ndarray, np.ndarray], float]
    gram_function: Callable[[np.ndarray, np.ndarray], np.ndarray]
    polynomial: Optional[Tuple[float, float, int]] = None

    def __call__(self, x: Vector, y: Vector) -> float:
        return float(self.function(_as_array(x), _as_array(y)))

    def gram(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Gram matrix ``K[i, j] = K(a_i, b_j)`` for row-major data."""
        return self.gram_function(np.asarray(a, float), np.asarray(b, float))


def linear_kernel() -> Kernel:
    """The plain dot product (no mapping)."""
    return Kernel(
        name="linear",
        function=lambda x, y: float(np.dot(x, y)),
        gram_function=lambda a, b: a @ b.T,
    )


def polynomial_inner(a: np.ndarray, b: np.ndarray, a0: float, b0: float) -> np.ndarray:
    """``a0 · (a @ bᵀ) + b0``: a polynomial kernel's gram before the power."""
    return a0 * (a @ b.T) + b0


def polynomial_kernel(degree: int = 3, a0: float = 1.0, b0: float = 0.0) -> Kernel:
    """``(a0 x·y + b0)^degree`` — paper default a0 = 1/n, b0 = 0, p = 3."""
    if degree < 1:
        raise ValidationError(f"degree must be at least 1, got {degree}")
    return Kernel(
        name=f"poly(p={degree},a0={a0},b0={b0})",
        function=lambda x, y: (a0 * float(np.dot(x, y)) + b0) ** degree,
        gram_function=lambda a, b: polynomial_inner(a, b, a0, b0) ** degree,
        polynomial=(a0, b0, degree),
    )


def rbf_kernel(gamma: float = 1.0) -> Kernel:
    """``exp(-gamma ||x - y||^2)``."""
    if gamma <= 0:
        raise ValidationError(f"gamma must be positive, got {gamma}")

    def gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq_a = np.sum(a * a, axis=1)[:, None]
        sq_b = np.sum(b * b, axis=1)[None, :]
        distances = np.maximum(sq_a + sq_b - 2.0 * (a @ b.T), 0.0)
        return np.exp(-gamma * distances)

    return Kernel(
        name=f"rbf(gamma={gamma})",
        function=lambda x, y: math.exp(-gamma * float(np.sum((x - y) ** 2))),
        gram_function=gram,
    )


def sigmoid_kernel(a0: float = 1.0, c0: float = 0.0) -> Kernel:
    """``tanh(a0 x·y + c0)``."""
    return Kernel(
        name=f"sigmoid(a0={a0},c0={c0})",
        function=lambda x, y: math.tanh(a0 * float(np.dot(x, y)) + c0),
        gram_function=lambda a, b: np.tanh(a0 * (a @ b.T) + c0),
    )


_FACTORIES = {
    "linear": linear_kernel,
    "poly": polynomial_kernel,
    "polynomial": polynomial_kernel,
    "rbf": rbf_kernel,
    "sigmoid": sigmoid_kernel,
}


def make_kernel(name: str, **parameters) -> Kernel:
    """Build a kernel by name (``linear``/``poly``/``rbf``/``sigmoid``)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown kernel {name!r}; choose from {sorted(set(_FACTORIES))}"
        ) from None
    return factory(**parameters)
