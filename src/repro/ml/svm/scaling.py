"""Feature scaling to ``[-1, 1]``.

The paper's experiments note "all the data have been scaled to
[-1, 1]"; the similarity metric also assumes the bounded data space
``[α, β] = [-1, 1]`` (Section V-B.1).  :class:`MinMaxScaler` learns the
per-feature affine map on training data and applies it to test data,
exactly like ``svm-scale`` in the LIBSVM toolchain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.exceptions import ValidationError


@dataclass
class MinMaxScaler:
    """Affine per-feature scaler onto ``[lower, upper]``.

    Constant features (max == min) map to the interval midpoint.
    """

    lower: float = -1.0
    upper: float = 1.0
    minimums: Optional[np.ndarray] = field(default=None, repr=False)
    maximums: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.lower >= self.upper:
            raise ValidationError(
                f"lower ({self.lower}) must be below upper ({self.upper})"
            )

    def fit(self, X: np.ndarray) -> "MinMaxScaler":
        """Learn per-feature ranges from ``X`` (rows are samples)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValidationError("X must be a non-empty 2-D array")
        self.minimums = X.min(axis=0)
        self.maximums = X.max(axis=0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Apply the learned map; out-of-range values are clipped."""
        if self.minimums is None or self.maximums is None:
            raise ValidationError("transform called before fit")
        X = np.asarray(X, dtype=float)
        spans = self.maximums - self.minimums
        safe_spans = np.where(spans == 0.0, 1.0, spans)
        unit = (X - self.minimums) / safe_spans
        unit = np.where(spans == 0.0, 0.5, unit)
        scaled = self.lower + (self.upper - self.lower) * unit
        return np.clip(scaled, self.lower, self.upper)
