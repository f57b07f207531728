"""Boundary points of bounded decision surfaces (paper Eq. 5).

The similarity metric treats a trained model as a *bounded* hyperplane
inside the data box ``[α, β]^n``.  Its boundary points are the
intersections of the decision surface with the box edges: treat one
coordinate as a variable ``u`` and fix every other coordinate at ``α``
or ``β`` — ``n · 2^(n-1)`` one-dimensional problems.

* Linear models: each problem is one linear equation (Eq. 5).
* Kernel models: each problem is a univariate root search of
  ``d(t(u)) = 0`` along the edge, solved by sign-change scanning plus
  bisection (the paper's "equations with nonlinear form").
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SimilarityError, ValidationError
from repro.ml.kernels import polynomial_inner
from repro.ml.svm.model import SVMModel

Point = Tuple[float, ...]

#: Tolerance for deduplicating boundary points and accepting solutions.
_EPS = 1e-9
#: Relative slack of the certified scan grid: far above the rounding gap
#: between ``pow`` and repeated multiplication below ``_CERTIFIED_LIMIT``
#: support vectors and degree (DESIGN.md §9).
_CERTIFICATE_SLACK = 2.0**-36
_CERTIFIED_LIMIT = 1 << 15
#: Row pairs per closeness block in :func:`_dedupe`.
_DEDUPE_BLOCK = 1 << 18


def _corner_assignments(count: int, lower: float, upper: float):
    return itertools.product((lower, upper), repeat=count)


def _dedupe(points) -> List[Point]:
    """Drop each point within ``_EPS`` in every coordinate of an earlier kept one.

    Greedy keep-first over the rows of ``points`` (a sequence of
    points or a 2-D array), in order.  The pairwise closeness test runs
    on blocks of at most ``_DEDUPE_BLOCK`` row pairs; only a row close
    to some earlier row is decided one at a time.
    """
    count = len(points)
    if count == 0:
        return []
    rows = np.asarray(points, dtype=float)
    keep = np.ones(count, dtype=bool)
    step = max(1, _DEDUPE_BLOCK // count)
    for start in range(0, count, step):
        stop = min(count, start + step)
        near = np.ones((stop - start, stop), dtype=bool)
        for column in rows.T:
            near &= np.abs(column[start:stop, None] - column[None, :stop]) < _EPS
        # Only earlier rows count: row start + r against j < start + r.
        near = np.tril(near, start - 1)
        for r in np.flatnonzero(near.any(axis=1)):
            keep[start + r] = not (near[r] & keep[:stop]).any()
    return [tuple(row) for row in rows[keep].tolist()]


def linear_boundary_points(
    weights: Sequence[float],
    bias: float,
    lower: float = -1.0,
    upper: float = 1.0,
) -> List[Point]:
    """All box-edge intersections of the hyperplane ``w·t + b = 0``.

    Solves Eq. (5) for every axis/corner combination; infeasible
    equations (``w_j = 0`` or solution outside ``[lower, upper]``) are
    skipped.  Raises :class:`SimilarityError` when the plane misses the
    box entirely.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValidationError("weights must be a non-empty 1-D vector")
    if lower >= upper:
        raise ValidationError(f"lower ({lower}) must be below upper ({upper})")
    n = weights.size
    points: List[Point] = []
    for axis in range(n):
        w_axis = weights[axis]
        if abs(w_axis) < _EPS:
            continue
        others = [i for i in range(n) if i != axis]
        for corner in _corner_assignments(n - 1, lower, upper):
            residual = bias + float(
                np.dot(weights[others], np.asarray(corner, dtype=float))
            )
            u = -residual / w_axis
            if lower - _EPS <= u <= upper + _EPS:
                point = [0.0] * n
                point[axis] = min(max(u, lower), upper)
                for position, index in enumerate(others):
                    point[index] = corner[position]
                points.append(tuple(point))
    points = _dedupe(points)
    if not points:
        raise SimilarityError(
            "the hyperplane does not intersect the bounded data space"
        )
    return points


def _roots_on_segment(
    scalar_function: Callable[[float], float],
    lower: float,
    upper: float,
    resolution: int,
) -> List[float]:
    """All roots of a continuous function on [lower, upper] via scanning.

    Scalar reference for the batched scan in
    :func:`kernel_boundary_points`; the differential tests pin the two
    against each other.
    """
    if resolution < 2:
        raise ValidationError(f"resolution must be at least 2, got {resolution}")
    xs = np.linspace(lower, upper, resolution)
    values = [scalar_function(float(x)) for x in xs]
    roots: List[float] = []
    for left, right, f_left, f_right in zip(xs, xs[1:], values, values[1:]):
        if abs(f_left) < _EPS:
            roots.append(float(left))
            continue
        if f_left * f_right < 0.0:
            roots.append(_bisect(scalar_function, float(left), float(right)))
    if abs(values[-1]) < _EPS:
        roots.append(float(xs[-1]))
    return roots


def _bisect(
    scalar_function: Callable[[float], float],
    left: float,
    right: float,
    iterations: int = 80,
) -> float:
    f_left = scalar_function(left)
    if f_left == 0.0:
        return left
    for _ in range(iterations):
        middle = 0.5 * (left + right)
        f_middle = scalar_function(middle)
        if abs(f_middle) < _EPS or (right - left) < 1e-14:
            return middle
        if f_left * f_middle < 0.0:
            right = middle
        else:
            left, f_left = middle, f_middle
    return 0.5 * (left + right)


def _edge_templates(n: int, lower: float, upper: float) -> Tuple[np.ndarray, np.ndarray]:
    """Every box edge as ``(axis, template)`` rows, axis-major.

    ``templates[e]`` fixes the non-axis coordinates of edge ``e`` at one
    corner of ``itertools.product((lower, upper), repeat=n - 1)`` and
    holds 0 on its axis ``axes[e]``.
    """
    corners = np.array(
        list(_corner_assignments(max(n - 1, 0), lower, upper)), dtype=float
    )
    templates = np.zeros((n * len(corners), n))
    for axis in range(n):
        block = templates[axis * len(corners) : (axis + 1) * len(corners)]
        block[:, [i for i in range(n) if i != axis]] = corners
    axes = np.repeat(np.arange(n), len(corners))
    return axes, templates


def _certified_grid_values(model: SVMModel, grid: np.ndarray) -> Optional[np.ndarray]:
    """Polynomial-kernel decision values on ``grid``, certified or ``None``.

    ``decision_values`` takes ``inner ** p`` through libm ``pow``; this
    computes the same ``inner`` and takes the power by repeated
    multiplication, then bounds the gap to the exact values by
    ``δ = 2⁻³⁶·(|power| @ |duals| + |bias|)`` per cell.  The values are
    returned only when every cell is finite with ``|f̃| > _EPS + δ``:
    such a cell has the same hit, sign and bracket class as the exact
    value (see DESIGN.md §9).  ``None`` sends the caller to
    ``decision_values``.
    """
    if model.kernel.polynomial is None:
        return None
    a0, b0, degree = model.kernel.polynomial
    if not isinstance(degree, int) or not (
        model.n_support < _CERTIFIED_LIMIT and degree < _CERTIFIED_LIMIT
    ):
        return None
    inner = polynomial_inner(grid, model.support_vectors, a0, b0)
    power = inner.copy()
    for _ in range(degree - 1):
        power *= inner
    values = power @ model.dual_coefficients + model.bias
    slack = np.abs(power, out=inner) @ np.abs(model.dual_coefficients)
    slack += abs(model.bias)
    slack *= _CERTIFICATE_SLACK
    slack += _EPS
    if np.all(np.isfinite(values)) and np.all(np.abs(values) > slack):
        return values
    return None


def kernel_boundary_points(
    model: SVMModel,
    lower: float = -1.0,
    upper: float = 1.0,
    resolution: int = 64,
) -> List[Point]:
    """Box-edge intersections of a kernel decision surface ``d(t) = 0``.

    Scans every edge of the hypercube for sign changes of the decision
    function and refines each crossing by bisection — the nonlinear
    generalization of Eq. (5).

    The whole scan grid (all ``n·2^(n-1)`` edges at once) is evaluated
    in one array pass — certified repeated multiplication for a
    polynomial kernel, else one
    :meth:`~repro.ml.svm.model.SVMModel.decision_values` call — and all
    bracketed crossings are refined by lockstep bisection on the exact
    decision values, one batched evaluation per bisection level.
    """
    if lower >= upper:
        raise ValidationError(f"lower ({lower}) must be below upper ({upper})")
    if resolution < 2:
        raise ValidationError(f"resolution must be at least 2, got {resolution}")
    n = model.dimension
    xs = np.linspace(lower, upper, resolution)
    axes, templates = _edge_templates(n, lower, upper)
    grid = np.repeat(templates, resolution, axis=0)
    grid[np.arange(len(grid)), np.repeat(axes, resolution)] = np.tile(xs, len(axes))
    values = _certified_grid_values(model, grid)
    if values is None:
        values = model.decision_values(grid)
    values = values.reshape(len(axes), resolution)

    # Per-edge ordered root slots: exact grid hits resolve immediately,
    # sign changes (from a cell that is no hit) become brackets refined
    # below.  Row-major order over (edge, cell) is the scan order.
    hits = np.abs(values) < _EPS
    crossings = np.zeros_like(hits)
    crossings[:, :-1] = ~hits[:, :-1] & (values[:, :-1] * values[:, 1:] < 0.0)
    slot_edges, slot_cells = np.nonzero(hits | crossings)
    roots = xs[slot_cells]
    brackets = np.flatnonzero(crossings[slot_edges, slot_cells])

    if len(brackets):
        left = roots[brackets]
        right = xs[slot_cells[brackets] + 1]
        f_left = values[slot_edges[brackets], slot_cells[brackets]]
        refined = np.full(len(brackets), np.nan)
        active = np.ones(len(brackets), dtype=bool)
        probe = templates[slot_edges[brackets]]
        rows = np.arange(len(brackets))
        bracket_axes = axes[slot_edges[brackets]]
        for _ in range(80):
            if not active.any():
                break
            middle = 0.5 * (left + right)
            probe[rows, bracket_axes] = middle
            f_middle = model.decision_values(probe[active])
            indices = np.flatnonzero(active)
            converged = (np.abs(f_middle) < _EPS) | (
                (right[indices] - left[indices]) < 1e-14
            )
            done = indices[converged]
            refined[done] = middle[done]
            active[done] = False
            live = indices[~converged]
            f_live = f_middle[~converged]
            descend = f_left[live] * f_live < 0.0
            right[live[descend]] = middle[live[descend]]
            left[live[~descend]] = middle[live[~descend]]
            f_left[live[~descend]] = f_live[~descend]
        still = np.flatnonzero(active)
        refined[still] = 0.5 * (left[still] + right[still])
        roots[brackets] = refined

    points = templates[slot_edges]
    points[np.arange(len(points)), axes[slot_edges]] = roots
    points = _dedupe(points)
    if not points:
        raise SimilarityError(
            "the decision surface does not intersect the bounded data space"
        )
    return points


def centroid(points: Sequence[Point]) -> Tuple[float, ...]:
    """Arithmetic mean of the boundary points (the paper's ``m``)."""
    if not points:
        raise SimilarityError("centroid of an empty point set")
    array = np.asarray(points, dtype=float)
    return tuple(float(v) for v in array.mean(axis=0))


def model_boundary_points(
    model: SVMModel,
    lower: float = -1.0,
    upper: float = 1.0,
    resolution: int = 64,
) -> List[Point]:
    """Boundary points for any model (exact for linear, scanned otherwise)."""
    if model.is_linear():
        return linear_boundary_points(model.weight_vector(), model.bias, lower, upper)
    return kernel_boundary_points(model, lower, upper, resolution)
