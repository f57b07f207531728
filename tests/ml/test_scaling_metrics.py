"""Tests for feature scaling and classification metrics."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.ml.svm.metrics import accuracy
from repro.ml.svm.scaling import MinMaxScaler


class TestMinMaxScaler:
    def test_scales_into_range(self):
        X = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        scaled = MinMaxScaler().fit(X).transform(X)
        assert scaled.min() >= -1.0
        assert scaled.max() <= 1.0
        assert scaled[0, 0] == -1.0
        assert scaled[2, 0] == 1.0
        assert scaled[1, 0] == 0.0

    def test_constant_feature_maps_to_midpoint(self):
        X = np.array([[5.0], [5.0], [5.0]])
        scaled = MinMaxScaler().fit(X).transform(X)
        assert np.allclose(scaled, 0.0)

    def test_test_data_clipped(self):
        scaler = MinMaxScaler().fit(np.array([[0.0], [10.0]]))
        assert scaler.transform(np.array([[20.0]]))[0, 0] == 1.0
        assert scaler.transform(np.array([[-5.0]]))[0, 0] == -1.0

    def test_custom_range(self):
        X = np.array([[0.0], [1.0]])
        scaled = MinMaxScaler(lower=0.0, upper=1.0).fit(X).transform(X)
        assert scaled[0, 0] == 0.0 and scaled[1, 0] == 1.0

    def test_transform_before_fit(self):
        with pytest.raises(ValidationError):
            MinMaxScaler().transform(np.zeros((1, 1)))

    def test_bad_bounds(self):
        with pytest.raises(ValidationError):
            MinMaxScaler(lower=1.0, upper=-1.0)

    def test_fit_empty(self):
        with pytest.raises(ValidationError):
            MinMaxScaler().fit(np.zeros((0, 2)))


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, -1, 1], [1, -1, 1]) == 1.0

    def test_half(self):
        assert accuracy([1, 1], [1, -1]) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            accuracy([1], [1, -1])

    def test_empty(self):
        with pytest.raises(ValidationError):
            accuracy([], [])
