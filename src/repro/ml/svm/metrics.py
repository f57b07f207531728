"""Classification metrics for the evaluation harness."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError


def accuracy(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Fraction of matching labels (paper Table I / Figs. 7–8 metric)."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape:
        raise ValidationError("predicted and actual must have the same shape")
    if predicted.size == 0:
        raise ValidationError("cannot compute accuracy of empty arrays")
    return float(np.mean(predicted == actual))
