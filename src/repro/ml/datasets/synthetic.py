"""Synthetic binary-classification dataset generators.

The paper evaluates on 17 LIBSVM datasets; with no network access this
reproduction generates seeded synthetic analogs whose *geometry* is
chosen so the linear-vs-polynomial accuracy relationships of Table I
hold (see DESIGN.md §4).  Three boundary families cover the table:

* :func:`linear_boundary` — a true linear separator with label noise:
  both kernels do well (a1a–a9a, ionosphere, breast-cancer).
* :func:`interaction_boundary` — labels from a cubic interaction
  surface: the linear kernel underfits, the polynomial kernel recovers
  it (splice, madelon, diabetes, german.numer, australian).
* :func:`scaled_signal_boundary` — low-amplitude signal among
  full-range nuisance features: the paper's *homogeneous* polynomial
  kernel (b0 = 0) collapses (cod-rna's 94.6% → 54.3% drop).

All generators return features in ``[-1, 1]`` (the paper scales all
data to that box) and labels in ``{-1, +1}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DatasetError, ValidationError


@dataclass(frozen=True)
class Dataset:
    """A labelled dataset with train/test views.

    Attributes
    ----------
    name:
        Human-readable identifier.
    X_train, y_train, X_test, y_test:
        Feature rows in ``[-1, 1]`` and labels in ``{-1, +1}``.
    """

    name: str
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray

    def __post_init__(self) -> None:
        for split, X, y in (
            ("train", self.X_train, self.y_train),
            ("test", self.X_test, self.y_test),
        ):
            if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
                raise DatasetError(f"{self.name}: malformed {split} split")
            if X.shape[0] == 0:
                raise DatasetError(f"{self.name}: empty {split} split")
        if self.X_train.shape[1] != self.X_test.shape[1]:
            raise DatasetError(f"{self.name}: train/test dimensionality differs")

    @property
    def dimension(self) -> int:
        """Feature dimensionality."""
        return int(self.X_train.shape[1])

    @property
    def train_size(self) -> int:
        return int(self.X_train.shape[0])

    @property
    def test_size(self) -> int:
        return int(self.X_test.shape[0])


def _validate_counts(train_size: int, test_size: int, dimension: int) -> None:
    if train_size < 4:
        raise ValidationError(f"train_size must be at least 4, got {train_size}")
    if test_size < 1:
        raise ValidationError(f"test_size must be at least 1, got {test_size}")
    if dimension < 1:
        raise ValidationError(f"dimension must be at least 1, got {dimension}")


def _flip_labels(y: np.ndarray, noise: float, rng: np.random.Generator) -> np.ndarray:
    if not 0.0 <= noise < 0.5:
        raise ValidationError(f"noise must lie in [0, 0.5), got {noise}")
    flips = rng.random(y.shape[0]) < noise
    return np.where(flips, -y, y)


def _balanced_signs(values: np.ndarray) -> np.ndarray:
    """Labels from the sign of ``values``, splitting at the median.

    Subtracting the median guarantees roughly balanced classes no
    matter how skewed the generating surface is.
    """
    centered = values - np.median(values)
    labels = np.where(centered >= 0.0, 1.0, -1.0)
    return labels


def linear_boundary(
    name: str,
    dimension: int,
    train_size: int,
    test_size: int,
    noise: float = 0.05,
    margin: float = 0.0,
    seed: int = 0,
) -> Dataset:
    """Uniform points labelled by a random linear separator plus noise.

    ``margin`` removes points within that distance of the separator
    (larger margin → easier problem).
    """
    _validate_counts(train_size, test_size, dimension)
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=dimension)
    direction /= np.linalg.norm(direction)
    total = train_size + test_size
    rows = []
    while sum(r.shape[0] for r in rows) < total:
        batch = rng.uniform(-1.0, 1.0, size=(max(total, 256), dimension))
        if margin > 0.0:
            distances = np.abs(batch @ direction)
            batch = batch[distances >= margin]
        rows.append(batch)
    X = np.vstack(rows)[:total]
    y = _balanced_signs(X @ direction)
    y = _flip_labels(y, noise, rng)
    return Dataset(
        name=name,
        X_train=X[:train_size],
        y_train=y[:train_size],
        X_test=X[train_size:],
        y_test=y[train_size:],
    )


def interaction_boundary(
    name: str,
    dimension: int,
    train_size: int,
    test_size: int,
    linear_mix: float = 0.0,
    noise: float = 0.0,
    margin: float = 0.0,
    seed: int = 0,
) -> Dataset:
    """Labels from ``x0·x1·x2 + linear_mix·x3`` — a pure cubic interaction.

    The triple product is orthogonal to every linear function on the
    uniform box, so the linear kernel scores near chance while a
    degree-3 polynomial kernel can represent the surface exactly;
    ``linear_mix`` blends in a linear term to raise the linear kernel's
    floor (the german.numer / diabetes rows of Table I).  ``margin``
    drops points with ``|surface|`` below it (cleaner boundary → higher
    polynomial ceiling, the madelon row's 100%).
    """
    _validate_counts(train_size, test_size, dimension)
    minimum_dims = 4 if linear_mix else 3
    if dimension < minimum_dims:
        raise ValidationError(
            f"interaction_boundary needs at least {minimum_dims} dimensions"
        )
    rng = np.random.default_rng(seed)
    total = train_size + test_size
    rows = []
    collected = 0
    while collected < total:
        batch = rng.uniform(-1.0, 1.0, size=(max(total, 512), dimension))
        surface = batch[:, 0] * batch[:, 1] * batch[:, 2]
        if linear_mix:
            surface = surface + linear_mix * batch[:, 3]
        if margin > 0.0:
            keep = np.abs(surface) >= margin
            batch = batch[keep]
        rows.append(batch)
        collected += batch.shape[0]
    X = np.vstack(rows)[:total]
    surface = X[:, 0] * X[:, 1] * X[:, 2]
    if linear_mix:
        surface = surface + linear_mix * X[:, 3]
    y = np.where(surface >= 0.0, 1.0, -1.0)
    y = _flip_labels(y, noise, rng)
    return Dataset(
        name=name,
        X_train=X[:train_size],
        y_train=y[:train_size],
        X_test=X[train_size:],
        y_test=y[train_size:],
    )


def scaled_signal_boundary(
    name: str,
    dimension: int,
    train_size: int,
    test_size: int,
    signal_dimensions: int = 2,
    signal_scale: float = 0.12,
    noise: float = 0.02,
    seed: int = 0,
) -> Dataset:
    """Low-amplitude signal features among full-range nuisance features.

    The label depends only on the first ``signal_dimensions`` features,
    which are squeezed to ``[-signal_scale, signal_scale]``.  A linear
    SVM simply upweights them; the paper's *homogeneous* polynomial
    kernel ``(x·y / n)^3`` is dominated by the high-variance nuisance
    coordinates and collapses toward majority voting — reproducing the
    cod-rna row of Table I (94.6% linear vs 54.3% polynomial).
    """
    _validate_counts(train_size, test_size, dimension)
    if not 1 <= signal_dimensions < dimension:
        raise ValidationError(
            f"signal_dimensions must lie in [1, {dimension}), got {signal_dimensions}"
        )
    if not 0.0 < signal_scale <= 1.0:
        raise ValidationError(f"signal_scale must lie in (0, 1], got {signal_scale}")
    rng = np.random.default_rng(seed)
    total = train_size + test_size
    X = rng.uniform(-1.0, 1.0, size=(total, dimension))
    X[:, :signal_dimensions] *= signal_scale
    weights = np.linspace(1.0, 0.75, signal_dimensions)
    surface = X[:, :signal_dimensions] @ weights
    y = _balanced_signs(surface)
    y = _flip_labels(y, noise, rng)
    return Dataset(
        name=name,
        X_train=X[:train_size],
        y_train=y[:train_size],
        X_test=X[train_size:],
        y_test=y[train_size:],
    )


def concentric_circles(
    name: str,
    train_size: int,
    test_size: int,
    inner_radius: float = 0.4,
    outer_radius: float = 0.8,
    noise: float = 0.02,
    seed: int = 0,
) -> Dataset:
    """The classic 2-D nonlinear toy of the paper's Fig. 1 (kernel method)."""
    _validate_counts(train_size, test_size, 2)
    if not 0.0 < inner_radius < outer_radius <= 1.0:
        raise ValidationError("radii must satisfy 0 < inner < outer <= 1")
    rng = np.random.default_rng(seed)
    total = train_size + test_size
    half = total // 2 + 1
    angles = rng.uniform(0.0, 2.0 * np.pi, size=2 * half)
    radii = np.concatenate(
        [
            rng.normal(inner_radius, 0.05, size=half),
            rng.normal(outer_radius, 0.05, size=half),
        ]
    )
    X = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    X = np.clip(X, -1.0, 1.0)
    y = np.concatenate([np.ones(half), -np.ones(half)])
    order = rng.permutation(2 * half)[:total]
    X, y = X[order], y[order]
    y = _flip_labels(y, noise, rng)
    return Dataset(
        name=name,
        X_train=X[:train_size],
        y_train=y[:train_size],
        X_test=X[train_size:],
        y_test=y[train_size:],
    )


def two_gaussians(
    name: str,
    dimension: int,
    train_size: int,
    test_size: int,
    separation: float = 1.0,
    spread: float = 0.35,
    seed: int = 0,
) -> Dataset:
    """Two Gaussian blobs — the workhorse for examples and Fig. 5."""
    _validate_counts(train_size, test_size, dimension)
    rng = np.random.default_rng(seed)
    total = train_size + test_size
    direction = rng.normal(size=dimension)
    direction /= np.linalg.norm(direction)
    center = direction * separation / 2.0
    half = total // 2 + 1
    positive = rng.normal(size=(half, dimension)) * spread + center
    negative = rng.normal(size=(half, dimension)) * spread - center
    X = np.vstack([positive, negative])
    y = np.concatenate([np.ones(half), -np.ones(half)])
    order = rng.permutation(X.shape[0])[:total]
    X, y = np.clip(X[order], -1.0, 1.0), y[order]
    return Dataset(
        name=name,
        X_train=X[:train_size],
        y_train=y[:train_size],
        X_test=X[train_size:],
        y_test=y[train_size:],
    )
