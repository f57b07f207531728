"""Statistical tests used by the evaluation harness.

Implements the two-sample Kolmogorov–Smirnov test (the comparator in
the paper's Table II), plus the rank statistics used to assert that our
similarity metric orders dataset pairs the same way the K-S averages
do.  Written from scratch; :mod:`scipy.stats` is used only in the test
suite as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.exceptions import ValidationError


@dataclass(frozen=True)
class KSResult:
    """Result of a two-sample Kolmogorov–Smirnov test.

    Attributes
    ----------
    statistic:
        The supremum distance ``D`` between the empirical CDFs.
    scaled_statistic:
        ``sqrt(n*m/(n+m)) * D`` — the normalized test statistic whose
        asymptotic distribution is Kolmogorov's.  (Table II of the paper
        reports averages on this larger scale.)
    pvalue:
        Asymptotic two-sided p-value (Kolmogorov distribution tail).
    """

    statistic: float
    scaled_statistic: float
    pvalue: float


def _kolmogorov_sf(x: float, terms: int = 100) -> float:
    """Survival function of the Kolmogorov distribution.

    ``Q(x) = 2 Σ_{k>=1} (-1)^{k-1} exp(-2 k^2 x^2)``.
    """
    if x <= 0:
        return 1.0
    total = 0.0
    for k in range(1, terms + 1):
        term = (-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x)
        total += term
        if abs(term) < 1e-16:
            break
    return max(0.0, min(1.0, 2.0 * total))


def ks_2samp(first: Sequence[float], second: Sequence[float]) -> KSResult:
    """Two-sample Kolmogorov–Smirnov test.

    Computes the exact supremum distance between the two empirical CDFs
    by a linear merge of the sorted samples.
    """
    xs = sorted(float(v) for v in first)
    ys = sorted(float(v) for v in second)
    if not xs or not ys:
        raise ValidationError("both samples must be non-empty")
    n, m = len(xs), len(ys)
    i = j = 0
    cdf_x = cdf_y = 0.0
    distance = 0.0
    while i < n and j < m:
        value = min(xs[i], ys[j])
        while i < n and xs[i] <= value:
            i += 1
        while j < m and ys[j] <= value:
            j += 1
        cdf_x = i / n
        cdf_y = j / m
        distance = max(distance, abs(cdf_x - cdf_y))
    scale = math.sqrt(n * m / (n + m))
    scaled = scale * distance
    return KSResult(statistic=distance, scaled_statistic=scaled, pvalue=_kolmogorov_sf(scaled))


def ks_average_over_dimensions(
    first_rows: Sequence[Sequence[float]], second_rows: Sequence[Sequence[float]]
) -> float:
    """Average scaled K-S statistic across feature dimensions.

    Reproduces the paper's Table II methodology: "we test it on each
    data feature dimension for the split subsets [and] get the average
    value over the dimensions' K-S test results".
    """
    first_rows = [list(row) for row in first_rows]
    second_rows = [list(row) for row in second_rows]
    if not first_rows or not second_rows:
        raise ValidationError("both datasets must be non-empty")
    dims = len(first_rows[0])
    if any(len(row) != dims for row in first_rows + second_rows):
        raise ValidationError("rows must all have the same dimensionality")
    total = 0.0
    for dim in range(dims):
        column_a = [row[dim] for row in first_rows]
        column_b = [row[dim] for row in second_rows]
        total += ks_2samp(column_a, column_b).scaled_statistic
    return total / dims


def rankdata(values: Sequence[float]) -> List[float]:
    """Average ranks (1-based) with tie handling."""
    if not values:
        raise ValidationError("values must be non-empty")
    indexed = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    position = 0
    while position < len(indexed):
        tail = position
        while (
            tail + 1 < len(indexed)
            and values[indexed[tail + 1]] == values[indexed[position]]
        ):
            tail += 1
        average_rank = (position + tail) / 2 + 1
        for k in range(position, tail + 1):
            ranks[indexed[k]] = average_rank
        position = tail + 1
    return ranks


def spearman_correlation(first: Sequence[float], second: Sequence[float]) -> float:
    """Spearman rank correlation of two paired samples."""
    if len(first) != len(second):
        raise ValidationError("samples must be paired (equal length)")
    if len(first) < 2:
        raise ValidationError("need at least two pairs")
    ranks_a = rankdata(first)
    ranks_b = rankdata(second)
    return pearson_correlation(ranks_a, ranks_b)


def pearson_correlation(first: Sequence[float], second: Sequence[float]) -> float:
    """Pearson correlation coefficient."""
    if len(first) != len(second):
        raise ValidationError("samples must be paired (equal length)")
    n = len(first)
    if n < 2:
        raise ValidationError("need at least two pairs")
    mean_a = sum(first) / n
    mean_b = sum(second) / n
    cov = sum((a - mean_a) * (b - mean_b) for a, b in zip(first, second))
    var_a = sum((a - mean_a) ** 2 for a in first)
    var_b = sum((b - mean_b) ** 2 for b in second)
    if var_a == 0 or var_b == 0:
        raise ValidationError("correlation undefined for constant samples")
    return cov / math.sqrt(var_a * var_b)
