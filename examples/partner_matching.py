#!/usr/bin/env python
"""Multi-party partner matching with nonlinear models (paper Section V).

Four organizations each train a polynomial-kernel SVM on their own
(private) data.  Every pair runs the privacy-preserving similarity
protocol; the resulting T-matrix (smaller = closer models) lets each
organization pick its best-matched partner — the paper's Table II
workflow, generalized from 2 to N parties.  A two-sample
Kolmogorov–Smirnov check on the raw datasets validates the ranking
against ground truth nobody in the protocol actually gets to see.

Run:  python examples/partner_matching.py
"""

from itertools import combinations

import numpy as np

from repro.core.ompe import OMPEConfig
from repro.core.similarity import MetricParams, evaluate_similarity_private
from repro.math.statistics import ks_average_over_dimensions, spearman_correlation
from repro.ml.svm import train_svm


def make_org_dataset(seed: int, drift: float, samples: int = 150, dim: int = 3):
    """Each organization's data drifts from a common base distribution."""
    rng = np.random.default_rng(seed)
    X = np.clip(rng.uniform(-1, 1, (samples, dim)) + drift * 0.35, -1, 1)
    surface = X[:, 0] * X[:, 1] * X[:, 2] + drift * X[:, 0]
    y = np.where(surface - np.median(surface) >= 0, 1.0, -1.0)
    return X, y


def main() -> None:
    config = OMPEConfig(security_degree=1)
    params = MetricParams(resolution=32)
    kernel = dict(kernel="poly", C=50.0, degree=3, a0=1.0 / 3, b0=0.0)

    drifts = {"Org-1": 0.0, "Org-2": 0.2, "Org-3": 0.7, "Org-4": 1.1}
    datasets, models = {}, {}
    for index, (name, drift) in enumerate(drifts.items()):
        X, y = make_org_dataset(seed=10 + index, drift=drift)
        datasets[name] = X
        models[name] = train_svm(X, y, **kernel)
        print(f"{name}: trained nonlinear model "
              f"({models[name].n_support} support vectors, drift {drift})")

    print("\n--- Pairwise private similarity (T, smaller = closer) ---")
    t_values, ks_values, pair_names = [], [], []
    t_matrix = {}
    for (name_a, name_b) in combinations(drifts, 2):
        outcome = evaluate_similarity_private(
            models[name_a], models[name_b], params, config=config,
            seed=hash((name_a, name_b)) % 2**31,
        )
        ks = ks_average_over_dimensions(datasets[name_a], datasets[name_b])
        t_matrix[(name_a, name_b)] = outcome.t
        t_values.append(outcome.t)
        ks_values.append(ks)
        pair_names.append(f"{name_a} vs {name_b}")
        print(f"{name_a} vs {name_b}:  T = {outcome.t:.5f}   "
              f"(K-S ground truth {ks:.3f}, {outcome.total_bytes} B)")

    rho = spearman_correlation(ks_values, t_values)
    print(f"\nRank agreement between private T and K-S ground truth: "
          f"Spearman rho = {rho:.2f}")

    print("\n--- Best partner per organization ---")
    for name in drifts:
        best = min(
            (pair for pair in t_matrix if name in pair),
            key=lambda pair: t_matrix[pair],
        )
        partner = best[0] if best[1] == name else best[1]
        print(f"{name} -> {partner}  (T = {t_matrix[best]:.5f})")


if __name__ == "__main__":
    main()
