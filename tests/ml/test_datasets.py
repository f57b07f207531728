"""Tests for synthetic datasets, the registry, and LIBSVM I/O."""

import numpy as np
import pytest

from repro.exceptions import DatasetError, ValidationError
from repro.ml.datasets import (
    Dataset,
    a_family_names,
    available_datasets,
    concentric_circles,
    format_libsvm,
    get_spec,
    interaction_boundary,
    linear_boundary,
    load_dataset,
    parse_libsvm,
    read_libsvm,
    scaled_signal_boundary,
    table1_dataset_names,
    two_gaussians,
    write_libsvm,
)


class TestGenerators:
    @pytest.mark.parametrize(
        "factory,kwargs",
        [
            (linear_boundary, {"dimension": 4}),
            (interaction_boundary, {"dimension": 5}),
            (scaled_signal_boundary, {"dimension": 5}),
            (two_gaussians, {"dimension": 3}),
        ],
    )
    def test_shapes_and_ranges(self, factory, kwargs):
        data = factory("t", train_size=50, test_size=30, seed=1, **kwargs)
        assert data.X_train.shape == (50, kwargs["dimension"])
        assert data.X_test.shape == (30, kwargs["dimension"])
        assert np.all(data.X_train >= -1.0) and np.all(data.X_train <= 1.0)
        assert set(np.unique(data.y_train)) <= {-1.0, 1.0}

    def test_circles_shape(self):
        data = concentric_circles("c", train_size=40, test_size=20, seed=2)
        assert data.dimension == 2
        assert data.train_size == 40

    def test_determinism(self):
        a = linear_boundary("d", 3, 20, 10, seed=7)
        b = linear_boundary("d", 3, 20, 10, seed=7)
        assert np.allclose(a.X_train, b.X_train)
        assert np.allclose(a.y_train, b.y_train)

    def test_seed_changes_data(self):
        a = linear_boundary("d", 3, 20, 10, seed=7)
        b = linear_boundary("d", 3, 20, 10, seed=8)
        assert not np.allclose(a.X_train, b.X_train)

    def test_rough_class_balance(self):
        data = linear_boundary("b", 4, 200, 100, seed=3)
        fraction = np.mean(data.y_train == 1.0)
        assert 0.3 <= fraction <= 0.7

    def test_noise_validation(self):
        with pytest.raises(ValidationError):
            linear_boundary("n", 3, 20, 10, noise=0.6)

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            linear_boundary("n", 3, 2, 10)
        with pytest.raises(ValidationError):
            linear_boundary("n", 0, 20, 10)

    def test_interaction_needs_dimensions(self):
        with pytest.raises(ValidationError):
            interaction_boundary("n", 2, 20, 10)
        with pytest.raises(ValidationError):
            interaction_boundary("n", 3, 20, 10, linear_mix=0.5)

    def test_interaction_margin_respected(self):
        data = interaction_boundary("m", 3, 100, 50, margin=0.1, seed=4)
        surface = data.X_train[:, 0] * data.X_train[:, 1] * data.X_train[:, 2]
        assert np.all(np.abs(surface) >= 0.1)

    def test_scaled_signal_structure(self):
        data = scaled_signal_boundary(
            "s", 6, 100, 50, signal_dimensions=2, signal_scale=0.1, seed=5
        )
        assert np.all(np.abs(data.X_train[:, :2]) <= 0.1)
        assert np.abs(data.X_train[:, 2:]).max() > 0.5

    def test_scaled_signal_validation(self):
        with pytest.raises(ValidationError):
            scaled_signal_boundary("s", 3, 20, 10, signal_dimensions=3)
        with pytest.raises(ValidationError):
            scaled_signal_boundary("s", 3, 20, 10, signal_scale=0.0)

    def test_dataset_validation(self):
        with pytest.raises(DatasetError):
            Dataset(
                name="bad",
                X_train=np.zeros((2, 2)),
                y_train=np.zeros(3),
                X_test=np.zeros((1, 2)),
                y_test=np.zeros(1),
            )


class TestRegistry:
    def test_seventeen_datasets(self):
        assert len(available_datasets()) == 17

    def test_table1_names_registered(self):
        for name in table1_dataset_names():
            assert get_spec(name) is not None

    def test_a_family(self):
        names = a_family_names()
        assert len(names) == 9
        sizes = [get_spec(n).paper_test_size for n in names]
        assert sizes == sorted(sizes)
        assert sizes[0] == 1605 and sizes[-1] == 32561

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            get_spec("mnist")
        with pytest.raises(DatasetError):
            load_dataset("mnist")

    def test_load_dataset_caps_test_size(self):
        data = load_dataset("cod-rna", test_cap=100)
        assert data.test_size == 100

    def test_paper_metadata_recorded(self):
        spec = get_spec("breast-cancer")
        assert spec.paper_linear_accuracy == 0.9721
        assert spec.paper_polynomial_accuracy == 0.9868
        assert spec.dimension == 10
        assert spec.paper_test_size == 683

    def test_size_scale(self):
        small = load_dataset("a1a", size_scale=0.5)
        full = load_dataset("a1a", size_scale=1.0)
        assert small.train_size < full.train_size

    def test_generation_deterministic(self):
        a = load_dataset("splice", seed=1)
        b = load_dataset("splice", seed=1)
        assert np.allclose(a.X_train, b.X_train)


class TestLibsvmIO:
    def test_parse_basic(self):
        X, y = parse_libsvm("+1 1:0.5 3:-0.25\n-1 2:1.0\n")
        assert X.shape == (2, 3)
        assert X[0, 0] == 0.5 and X[0, 2] == -0.25 and X[0, 1] == 0.0
        assert y.tolist() == [1.0, -1.0]

    def test_parse_with_comments_and_blanks(self):
        X, y = parse_libsvm("# header\n\n+1 1:2.0  # trailing\n")
        assert X.shape == (1, 1)

    def test_parse_explicit_dimension(self):
        X, _ = parse_libsvm("+1 1:1.0\n", dimension=5)
        assert X.shape == (1, 5)

    def test_parse_dimension_too_small(self):
        with pytest.raises(DatasetError):
            parse_libsvm("+1 3:1.0\n", dimension=2)

    def test_parse_bad_label(self):
        with pytest.raises(DatasetError):
            parse_libsvm("abc 1:1.0\n")

    def test_parse_bad_feature(self):
        with pytest.raises(DatasetError):
            parse_libsvm("+1 1:x\n")
        with pytest.raises(DatasetError):
            parse_libsvm("+1 0:1.0\n")

    def test_parse_empty(self):
        with pytest.raises(DatasetError):
            parse_libsvm("\n\n")

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        X = np.round(rng.uniform(-1, 1, size=(10, 4)), 6)
        X[0, 1] = 0.0  # exercise sparsity
        y = np.where(rng.random(10) > 0.5, 1.0, -1.0)
        path = tmp_path / "data.libsvm"
        write_libsvm(path, X, y)
        X2, y2 = read_libsvm(path, dimension=4)
        assert np.allclose(X, X2)
        assert np.allclose(y, y2)

    def test_format_shape_check(self):
        with pytest.raises(DatasetError):
            format_libsvm(np.zeros((2, 2)), np.zeros(3))


def _two_moons(total: int, seed: int):
    """Two interleaved half circles in 2-D, labels ±1."""
    rng = np.random.default_rng(seed)
    half = total // 2
    angles = rng.uniform(0.0, np.pi, size=half)
    upper = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    lower = np.stack([1.0 - np.cos(angles), 0.35 - np.sin(angles)], axis=1)
    X = np.vstack([upper, lower]) * 0.7 - [0.25, 0.0]
    X = np.clip(X + rng.normal(0.0, 0.05, size=X.shape), -1.0, 1.0)
    y = np.concatenate([np.ones(half), -np.ones(half)])
    order = rng.permutation(2 * half)
    return X[order], y[order]


def _xor_blocks(total: int, seed: int):
    """2-D XOR with a margin around the axes: label = sign(x0 · x1)."""
    X = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(total, 2))
    X = np.clip(np.where(np.abs(X) < 0.08, np.sign(X) * 0.08 + X, X), -1.0, 1.0)
    return X, np.where(X[:, 0] * X[:, 1] >= 0.0, 1.0, -1.0)


class TestExtraGenerators:
    """SVM kernels on the two classic 2-D nonlinear toys."""

    def test_two_moons_nonlinear(self):
        from repro.ml.svm import accuracy, train_svm

        X, y = _two_moons(210, seed=2)
        rbf = train_svm(X[:150], y[:150], kernel="rbf", C=10.0, gamma=3.0)
        assert accuracy(rbf.predict(X[150:]), y[150:]) >= 0.95

    def test_xor_separates_kernels(self):
        from repro.ml.svm import accuracy, train_svm

        X, y = _xor_blocks(210, seed=4)
        linear = train_svm(X[:150], y[:150], kernel="linear", C=10.0)
        poly = train_svm(
            X[:150], y[:150], kernel="poly", C=50.0,
            degree=2, a0=1.0, b0=0.0,
        )
        assert accuracy(linear.predict(X[150:]), y[150:]) <= 0.7
        assert accuracy(poly.predict(X[150:]), y[150:]) >= 0.95
