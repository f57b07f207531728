"""Identity of the array boundary scan with the per-cell reference scan.

:func:`~repro.core.similarity.boundary.kernel_boundary_points` evaluates
its scan grid by certified repeated multiplication for a polynomial
kernel and classifies, brackets and deduplicates cells as whole arrays.
The oracle here is the earlier batched scan, kept verbatim: exact
``decision_values`` on the grid, a per-cell slot loop and a pairwise
keep-first dedupe.  Every boundary point must come out equal as a float,
not merely close, because the centroid snapped from them feeds the
protocol's exact values.
"""

from __future__ import annotations

import itertools
import random
from typing import List

import numpy as np
import pytest

from repro.core.similarity import boundary
from repro.exceptions import SimilarityError
from repro.ml.kernels import polynomial_kernel, rbf_kernel
from repro.ml.svm.model import SVMModel

_EPS = 1e-9


def _reference_dedupe(points: List[tuple]) -> List[tuple]:
    unique: List[tuple] = []
    for point in points:
        if not any(
            max(abs(a - b) for a, b in zip(point, seen)) < _EPS for seen in unique
        ):
            unique.append(point)
    return unique


def _reference_scan(model, lower=-1.0, upper=1.0, resolution=64):
    """The scan as it was before the array passes: exact grid values,
    per-cell slot loop, lockstep bisection, list dedupe."""
    n = model.dimension
    xs = np.linspace(lower, upper, resolution)
    edges = []
    for axis in range(n):
        others = [i for i in range(n) if i != axis]
        for corner in itertools.product((lower, upper), repeat=n - 1):
            template = np.zeros(n)
            for position, index in enumerate(others):
                template[index] = corner[position]
            edges.append((axis, template))
    grid = np.empty((len(edges) * resolution, n))
    for row, (axis, template) in enumerate(edges):
        block = grid[row * resolution : (row + 1) * resolution]
        block[:] = template
        block[:, axis] = xs
    values = model.decision_values(grid).reshape(len(edges), resolution)

    slots = [[] for _ in edges]
    brackets = []
    bracket_left, bracket_right, bracket_f_left = [], [], []
    for e, f in enumerate(values):
        index = 0
        while index < resolution - 1:
            if abs(f[index]) < _EPS:
                slots[e].append(float(xs[index]))
                index += 1
                continue
            if f[index] * f[index + 1] < 0.0:
                brackets.append((e, len(slots[e])))
                slots[e].append(None)
                bracket_left.append(float(xs[index]))
                bracket_right.append(float(xs[index + 1]))
                bracket_f_left.append(float(f[index]))
            index += 1
        if abs(f[-1]) < _EPS:
            slots[e].append(float(xs[-1]))

    if brackets:
        left = np.asarray(bracket_left)
        right = np.asarray(bracket_right)
        f_left = np.asarray(bracket_f_left)
        roots = np.full(len(brackets), np.nan)
        active = np.ones(len(brackets), dtype=bool)
        probe = np.empty((len(brackets), n))
        for b, (e, _) in enumerate(brackets):
            probe[b] = edges[e][1]
        axes = np.asarray([edges[e][0] for e, _ in brackets])
        for _ in range(80):
            if not active.any():
                break
            middle = 0.5 * (left + right)
            probe[np.arange(len(brackets)), axes] = middle
            f_middle = model.decision_values(probe[active])
            indices = np.flatnonzero(active)
            converged = (np.abs(f_middle) < _EPS) | (
                (right[indices] - left[indices]) < 1e-14
            )
            done = indices[converged]
            roots[done] = middle[done]
            active[done] = False
            live = indices[~converged]
            f_live = f_middle[~converged]
            descend = f_left[live] * f_live < 0.0
            right[live[descend]] = middle[live[descend]]
            left[live[~descend]] = middle[live[~descend]]
            f_left[live[~descend]] = f_live[~descend]
        still = np.flatnonzero(active)
        roots[still] = 0.5 * (left[still] + right[still])
        for b, (e, slot) in enumerate(brackets):
            slots[e][slot] = float(roots[b])

    points = []
    for e, (axis, template) in enumerate(edges):
        for root in slots[e]:
            point = template.copy()
            point[axis] = root
            points.append(tuple(float(v) for v in point))
    points = _reference_dedupe(points)
    if not points:
        raise SimilarityError(
            "the decision surface does not intersect the bounded data space"
        )
    return points


def _poly_model(rng, svs, dimension, degree, b0, bias_range=0.05):
    a0 = 1.0 / dimension
    return SVMModel(
        support_vectors=[
            [rng.uniform(-1.0, 1.0) for _ in range(dimension)] for _ in range(svs)
        ],
        dual_coefficients=[rng.uniform(-1.0, 1.0) for _ in range(svs)],
        bias=rng.uniform(-bias_range, bias_range),
        kernel=polynomial_kernel(degree=degree, a0=a0, b0=b0),
        kernel_spec=("poly", {"degree": degree, "a0": a0, "b0": b0}),
    )


def _seeded_models():
    rng = random.Random(2016)
    models = []
    for dimension, degree, b0 in itertools.product(
        range(2, 7), range(1, 5), (0.0, 0.5, 1.0)
    ):
        if dimension == 6 and degree > 2:
            continue  # the benchmark shape below covers 6 × 3
        models.append(_poly_model(rng, rng.randint(1, 10), dimension, degree, b0))
    # The linkage benchmark's shape: 12 support vectors, dimension 6, degree 3.
    models += [_poly_model(rng, 12, 6, 3, 0.0) for _ in range(4)]
    return models


def _grid_hit_model(j: int) -> SVMModel:
    """``d(t) = t_0 − xs[j]``: zero exactly on grid cell ``j`` of axis-0 edges."""
    return SVMModel(
        support_vectors=[[1.0, 0.0]],
        dual_coefficients=[1.0],
        bias=-float(np.linspace(-1.0, 1.0, 64)[j]),
        kernel=polynomial_kernel(degree=1, a0=1.0, b0=0.0),
        kernel_spec=("poly", {"degree": 1, "a0": 1.0, "b0": 0.0}),
    )


@pytest.fixture
def grid_paths(monkeypatch):
    """Counts scans whose grid was certified and scans that fell back."""
    counts = {"certified": 0, "exact": 0}
    original = boundary._certified_grid_values

    def counted(model, grid):
        values = original(model, grid)
        counts["exact" if values is None else "certified"] += 1
        return values

    monkeypatch.setattr(boundary, "_certified_grid_values", counted)
    return counts


def _scan_or_error(scan, model):
    try:
        return scan(model)
    except SimilarityError as error:
        return ("error", str(error))


class TestScanIdentity:
    def test_seeded_models_match_reference(self, grid_paths):
        models = _seeded_models()
        assert len(models) >= 50
        found = 0
        for model in models:
            expected = _scan_or_error(_reference_scan, model)
            assert _scan_or_error(boundary.kernel_boundary_points, model) == expected
            found += expected[0] != "error"
        assert found >= 40
        # Random models never sit within the certificate's slack of a
        # grid hit, so every one of them took the cheap grid.
        assert grid_paths == {"certified": len(models), "exact": 0}

    def test_other_resolutions_and_boxes(self):
        rng = random.Random(7)
        for resolution, (lower, upper) in ((2, (-1.0, 1.0)), (17, (-2.0, 0.5))):
            model = _poly_model(rng, 6, 3, 3, 0.5, bias_range=0.5)
            expected = _scan_or_error(
                lambda m: _reference_scan(m, lower, upper, resolution), model
            )
            actual = _scan_or_error(
                lambda m: boundary.kernel_boundary_points(m, lower, upper, resolution),
                model,
            )
            assert actual == expected

    @pytest.mark.parametrize("cell", [0, 3, 17, 31, 40, 63])
    def test_grid_hit_takes_exact_path(self, grid_paths, cell):
        model = _grid_hit_model(cell)
        points = boundary.kernel_boundary_points(model)
        assert points == _reference_scan(model)
        assert grid_paths == {"certified": 0, "exact": 1}
        assert (float(np.linspace(-1.0, 1.0, 64)[cell]), 1.0) in points

    def test_rbf_model_uses_decision_values(self, grid_paths):
        rng = random.Random(11)
        model = SVMModel(
            support_vectors=[[rng.uniform(-1, 1) for _ in range(3)] for _ in range(5)],
            dual_coefficients=[1.0, -1.0, 0.8, -0.6, 0.4],
            bias=-0.05,
            kernel=rbf_kernel(gamma=1.5),
            kernel_spec=("rbf", {"gamma": 1.5}),
        )
        points = boundary.kernel_boundary_points(model)
        assert points == _reference_scan(model)
        assert grid_paths == {"certified": 0, "exact": 1}

    def test_box_missing_model_raises_the_same_error(self):
        model = _poly_model(random.Random(3), 4, 3, 2, 1.0)
        model.bias = 50.0  # d(t) > 0 on the whole box
        with pytest.raises(SimilarityError) as expected:
            _reference_scan(model)
        with pytest.raises(SimilarityError) as actual:
            boundary.kernel_boundary_points(model)
        assert str(actual.value) == str(expected.value)

    def test_spec_and_kernel_disagree_scans_the_kernel(self):
        # The certificate reads (a0, b0, degree) from the Kernel object
        # that decision_values uses, never from kernel_spec.
        rng = random.Random(5)
        model = _poly_model(rng, 5, 3, 2, 0.5)
        model.kernel_spec = ("poly", {"degree": 4, "a0": 2.0, "b0": 0.0})
        assert boundary.kernel_boundary_points(model) == _reference_scan(model)


class TestDedupe:
    def _points(self, rng, count, dimension):
        points = []
        for _ in range(count):
            if points and rng.random() < 0.4:
                base = rng.choice(points)
                nudge = rng.choice([0.0, 0.3 * _EPS, 0.999 * _EPS, 1.5 * _EPS, 1e-3])
                points.append(tuple(v + rng.choice([-nudge, nudge]) for v in base))
            else:
                points.append(tuple(rng.uniform(-1, 1) for _ in range(dimension)))
        return points

    def test_matches_keep_first_reference(self):
        rng = random.Random(1)
        for count, dimension in ((1, 2), (7, 3), (60, 4), (200, 6)):
            points = self._points(rng, count, dimension)
            assert boundary._dedupe(points) == _reference_dedupe(points)

    def test_blocks_match_one_pass(self, monkeypatch):
        rng = random.Random(2)
        points = self._points(rng, 150, 3)
        expected = _reference_dedupe(points)
        monkeypatch.setattr(boundary, "_DEDUPE_BLOCK", 64)
        assert boundary._dedupe(points) == expected

    def test_chain_keeps_first_of_each_run(self):
        # b is close to a, c close to b but not to a: greedy keep-first
        # drops b and keeps c.
        step = 0.6 * _EPS
        points = [(0.0, 0.0), (step, 0.0), (2 * step, 0.0)]
        assert boundary._dedupe(points) == [(0.0, 0.0), (2 * step, 0.0)]
        assert boundary._dedupe([]) == []
