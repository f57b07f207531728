"""Attacks on the protocols' privacy (paper Section VI-A and beyond).

Two collusion attacks on classification justify the amplifier ``r_a``:

* :class:`DistanceRetrievalAttack` (Fig. 6) — if the protocol returned
  the *true* decision value ``d(t̃)``, colluding clients holding
  ``n + 1`` pairs ``(t̃_i, d(t̃_i))`` recover ``(w, b)`` exactly by
  solving the linear system ``w·t̃_i + b = d_i`` (geometrically: common
  tangents of the paper's distance circles).
* :class:`ModelEstimationAttack` (Fig. 5) — with a fresh positive
  ``r_a`` per query, each client only holds ``r_a^{(i)} d(t̃_i)``.
  Fitting the same linear system to these inconsistently-scaled values
  produces estimates that "keep rambling": the direction error does not
  decrease as colluders pool more samples.  The attack class reproduces
  the paper's experiment (2/4/10/20/50 pooled samples against a 2-D
  classifier trained on 1000 points).

:func:`cover_consistency_attack` is the sender's attack on an OMPE
points message whose ``m`` covers outnumber ``q + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.classification.linear import classify_linear
from repro.core.ompe import OMPEConfig
from repro.core.ompe.config import AMPLIFIER_DECADES
from repro.exceptions import ValidationError
from repro.math.interpolation import lagrange_interpolate
from repro.ml.svm.model import SVMModel
from repro.utils.rng import ReproRandom


@dataclass(frozen=True)
class EstimatedModel:
    """An adversary's estimate of Alice's linear classifier."""

    weights: Tuple[float, ...]
    bias: float
    sample_count: int

    def direction_error_degrees(self, true_weights: Sequence[float]) -> float:
        """Angle between the estimated and true directions, in degrees.

        Sign-invariant (a hyperplane has two normals): returns the
        angle to whichever orientation is closer, in [0, 90].
        """
        estimate = np.asarray(self.weights, dtype=float)
        truth = np.asarray(true_weights, dtype=float)
        denominator = np.linalg.norm(estimate) * np.linalg.norm(truth)
        if denominator == 0.0:
            return 90.0
        cosine = abs(float(np.dot(estimate, truth)) / denominator)
        return float(np.degrees(np.arccos(min(1.0, cosine))))


def _solve_linear_system(
    samples: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Least-squares fit of ``w·t + b = value``."""
    design = np.hstack([samples, np.ones((samples.shape[0], 1))])
    solution, *_ = np.linalg.lstsq(design, values, rcond=None)
    return solution[:-1], float(solution[-1])


def _float_amplifier(rng: ReproRandom) -> float:
    """The protocol's ``r_a`` distribution in floats, for the simulated view:
    a uniform decimal exponent, then a mantissa uniform on [1, 10)."""
    exponent = rng.randint(-AMPLIFIER_DECADES, AMPLIFIER_DECADES)
    return rng.uniform(1.0, 10.0) * 10.0**exponent


def _dense_rows(
    queries: np.ndarray, values: Sequence[Optional[float]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Drop sparse entries (``None``/NaN values) from a score table.

    Threshold-filtered output (``OutputPolicy`` ``threshold``/``top-k``
    modes) hands colluders a table with holes; fitting must run on the
    surviving dense rows rather than feeding NaN into ``lstsq`` (which
    either raises or silently poisons the whole solution).
    """
    if len(values) != queries.shape[0]:
        raise ValidationError(
            f"{queries.shape[0]} queries but {len(values)} values"
        )
    kept_queries = []
    kept_values = []
    for query, value in zip(queries, values):
        if value is None:
            continue
        value = float(value)
        if not np.isfinite(value):
            continue
        kept_queries.append(query)
        kept_values.append(value)
    if not kept_queries:
        return np.empty((0, queries.shape[1])), np.empty(0)
    return np.asarray(kept_queries, dtype=float), np.asarray(kept_values)


class DistanceRetrievalAttack:
    """Fig. 6: exact model recovery when ``r_a`` is disabled.

    Uses the protocol itself with ``amplify=False`` (a deliberately
    weakened configuration) and shows that ``n + 1`` queries suffice.
    """

    def __init__(self, model: SVMModel, config: Optional[OMPEConfig] = None) -> None:
        if not model.is_linear():
            raise ValidationError("the retrieval attack targets linear models")
        self.model = model
        self.config = config or OMPEConfig()

    def run(
        self,
        queries: np.ndarray,
        seed: int = 0,
        through_protocol: bool = True,
        exact: bool = False,
    ) -> EstimatedModel:
        """Recover ``(w, b)`` from ``len(queries)`` unamplified results.

        ``through_protocol=False`` skips the OMPE machinery and queries
        the decision function directly (fast path for large sweeps);
        both paths return identical values because the protocol is
        exact.  ``exact=True`` keeps the protocol's rational values and
        solves the linear system over Fractions — *bit-exact* recovery
        from exactly ``n + 1`` queries (requires ``through_protocol``).
        """
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2:
            raise ValidationError("queries must be a 2-D array")
        if queries.shape[0] < self.model.dimension + 1:
            raise ValidationError(
                f"need at least n+1 = {self.model.dimension + 1} queries"
            )
        if exact:
            if not through_protocol:
                raise ValidationError(
                    "exact recovery reads the protocol's rational values; "
                    "set through_protocol=True"
                )
            from fractions import Fraction

            from repro.math.linalg import fit_affine_exact

            count = self.model.dimension + 1
            exact_values = []
            exact_points = []
            for index, query in enumerate(queries[:count]):
                outcome = classify_linear(
                    self.model, query, config=self.config,
                    seed=seed + index, amplify=False,
                )
                exact_values.append(outcome.randomized_value)
                exact_points.append([Fraction(v) for v in query])
            weights, bias = fit_affine_exact(exact_points, exact_values)
            return EstimatedModel(
                weights=tuple(float(w) for w in weights),
                bias=float(bias),
                sample_count=count,
            )
        values = []
        for index, query in enumerate(queries):
            if through_protocol:
                outcome = classify_linear(
                    self.model,
                    query,
                    config=self.config,
                    seed=seed + index,
                    amplify=False,
                )
                values.append(float(outcome.randomized_value))
            else:
                values.append(self.model.decision_value(query))
        weights, bias = _solve_linear_system(queries, np.asarray(values))
        return EstimatedModel(
            weights=tuple(float(w) for w in weights),
            bias=bias,
            sample_count=queries.shape[0],
        )

    def estimate_from_table(
        self,
        queries: np.ndarray,
        values: Sequence[Optional[float]],
    ) -> EstimatedModel:
        """Fit on a possibly sparse colluder table.

        ``values`` may carry ``None``/NaN holes (threshold-filtered or
        top-k-filtered output); the fit uses only the dense rows and
        reports how many survived via ``sample_count``.  With the holes
        the system can drop below ``n + 1`` usable equations, in which
        case recovery is impossible and this raises instead of
        returning a silently meaningless solution.
        """
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2:
            raise ValidationError("queries must be a 2-D array")
        dense_queries, dense_values = _dense_rows(queries, values)
        needed = self.model.dimension + 1
        if dense_queries.shape[0] < needed:
            raise ValidationError(
                f"only {dense_queries.shape[0]} dense rows survive the "
                f"filtered table; recovery needs at least n+1 = {needed}"
            )
        weights, bias = _solve_linear_system(dense_queries, dense_values)
        return EstimatedModel(
            weights=tuple(float(w) for w in weights),
            bias=bias,
            sample_count=int(dense_queries.shape[0]),
        )


class ModelEstimationAttack:
    """Fig. 5: estimation from amplified results keeps rambling.

    Each query runs the *real* protocol (fresh ``r_a``); the colluders
    then fit a single linear model to the inconsistently scaled values.
    """

    def __init__(self, model: SVMModel, config: Optional[OMPEConfig] = None) -> None:
        if not model.is_linear():
            raise ValidationError("the estimation attack targets linear models")
        self.model = model
        self.config = config or OMPEConfig()

    def collect(
        self, count: int, rng: ReproRandom, seed: int = 0, through_protocol: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pool ``count`` amplified classification results.

        ``through_protocol=False`` simulates the amplified view without
        the OT machinery (identical distribution, much faster), used by
        the figure sweep.
        """
        if count < 2:
            raise ValidationError("pooling fewer than 2 samples is meaningless")
        dimension = self.model.dimension
        queries = np.asarray(
            [
                [rng.uniform(-1.0, 1.0) for _ in range(dimension)]
                for _ in range(count)
            ]
        )
        values = []
        for index, query in enumerate(queries):
            if through_protocol:
                outcome = classify_linear(
                    self.model, query, config=self.config, seed=seed + index
                )
                values.append(float(outcome.randomized_value))
            else:
                amplifier = _float_amplifier(rng.fork("ra", index))
                values.append(amplifier * self.model.decision_value(query))
        return queries, np.asarray(values)

    def estimate(
        self, count: int, seed: int = 0, through_protocol: bool = False
    ) -> EstimatedModel:
        """Run the attack once with ``count`` pooled samples."""
        rng = ReproRandom(seed).fork("estimation", count)
        queries, values = self.collect(
            count, rng, seed=seed, through_protocol=through_protocol
        )
        return self.estimate_from_table(queries, values)

    def estimate_from_table(
        self,
        queries: np.ndarray,
        values: Sequence[Optional[float]],
    ) -> EstimatedModel:
        """Fit the colluders' linear system on a possibly sparse table.

        Mirrors :meth:`DistanceRetrievalAttack.estimate_from_table`:
        ``None``/NaN holes (mitigated output) are dropped before the
        fit.  Unlike exact recovery, pooled estimation is deliberately
        allowed to run underdetermined (the paper's Fig. 5 sweep starts
        at 2 pooled samples), so the floor is 2 dense rows, not
        ``n + 1``.
        """
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2:
            raise ValidationError("queries must be a 2-D array")
        dense_queries, dense_values = _dense_rows(queries, values)
        if dense_queries.shape[0] < 2:
            raise ValidationError(
                f"only {dense_queries.shape[0]} dense rows survive the "
                "filtered table; pooling fewer than 2 samples is meaningless"
            )
        weights, bias = _solve_linear_system(dense_queries, dense_values)
        return EstimatedModel(
            weights=tuple(float(w) for w in weights),
            bias=bias,
            sample_count=int(dense_queries.shape[0]),
        )

    def sweep(
        self,
        counts: Sequence[int] = (2, 4, 10, 20, 50),
        seed: int = 0,
        through_protocol: bool = False,
    ) -> List[EstimatedModel]:
        """The paper's Fig. 5 sweep over pooled-sample counts."""
        return [
            self.estimate(count, seed=seed + index, through_protocol=through_protocol)
            for index, count in enumerate(counts)
        ]


def cover_consistency_attack(points, q: int) -> Tuple[int, ...]:
    """The largest set of points of a points message on one curve per coordinate.

    ``points`` is the sender's view of an OMPE points message, pairs
    ``(x_i, v_i)``.  The receiver's ``m`` covers lie on the receiver's
    hider curves of degree ``q``, one per coordinate, whose values at 0
    are the receiver's input; a disguise lies on none of them.  For each ``(q + 1)``-subset
    of the nodes this interpolates each coordinate's curve and keeps
    every other point on all of them.  Returns the largest set found,
    as sorted positions in the message: when ``m > q + 1`` it is the
    covers, and interpolating them at 0 recovers the input; when
    ``m = q + 1`` no set exceeds ``q + 1`` points.
    """
    nodes = [node for node, _ in points]
    vectors = [tuple(vector) for _, vector in points]
    best: Tuple[int, ...] = ()
    for subset in combinations(range(len(points)), q + 1):
        if set(subset) <= set(best):
            continue
        xs = [nodes[i] for i in subset]
        curves = {}

        def on_curves(target: int) -> bool:
            for axis, value in enumerate(vectors[target]):
                if axis not in curves:
                    curves[axis] = lagrange_interpolate(
                        xs, [vectors[i][axis] for i in subset]
                    )
                if curves[axis](nodes[target]) != value:
                    return False
            return True

        found = tuple(
            i for i in range(len(points)) if i in subset or on_curves(i)
        )
        if len(found) > len(best):
            best = found
    return best
