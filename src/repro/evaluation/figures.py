"""Regeneration of the paper's Figs. 5–10 (data series).

Each runner returns an :class:`~repro.evaluation.harness.ExperimentResult`
whose rows are the plotted points/bars of the corresponding figure:

* Fig. 5 — model-estimation attack under collusion (2/4/10/20/50
  pooled samples): direction errors stay large and non-decreasing.
* Fig. 6 — decision-function retrieval with ``r_a`` disabled: exact
  recovery from n+1 queries.
* Fig. 7 — linear classification accuracy, original vs privacy-
  preserving (bars must match).
* Fig. 8 — nonlinear (polynomial kernel) accuracy, same comparison.
* Fig. 9 — classification time vs data size, 4 series.
* Fig. 10 — similarity-evaluation time vs hyperplane dimension.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.core.baselines import classify_plain, similarity_plain
from repro.core.classification import (
    classify_linear_batch,
    classify_nonlinear_batch,
    predicted_labels,
)
from repro.core.ompe import OMPEConfig
from repro.core.privacy import DistanceRetrievalAttack, ModelEstimationAttack
from repro.core.similarity import MetricParams, evaluate_similarity_private
from repro.evaluation.harness import ExperimentResult, register
from repro.evaluation.tables import train_table1_models
from repro.ml.datasets import a_family_names, two_gaussians
from repro.ml.datasets.registry import get_spec
from repro.ml.svm import accuracy, train_svm
from repro.ml.svm.model import make_linear_model
from repro.utils.rng import ReproRandom

#: Datasets whose bars appear in Figs. 7 and 8 (the paper's selections).
FIG7_DATASETS = (
    "splice",
    "madelon",
    "diabetes",
    "german.numer",
    "australian",
    "cod-rna",
    "ionosphere",
    "breast-cancer",
)
FIG8_DATASETS = (
    "cod-rna",
    "splice",
    "diabetes",
    "australian",
    "ionosphere",
    "german.numer",
    "breast-cancer",
    "madelon",
)


def run_fig5(
    seed: int = 2016,
    counts: Sequence[int] = (2, 4, 10, 20, 50),
    train_size: int = 1000,
    through_protocol: bool = False,
) -> ExperimentResult:
    """Fig. 5: estimation from amplified results keeps rambling."""
    data = two_gaussians(
        "fig5", dimension=2, train_size=train_size, test_size=10, seed=seed
    )
    model = train_svm(data.X_train, data.y_train, kernel="linear", C=10.0)
    true_weights = model.weight_vector()
    attack = ModelEstimationAttack(model)
    rows: List[dict] = []
    for index, estimate in enumerate(
        attack.sweep(counts, seed=seed, through_protocol=through_protocol)
    ):
        rows.append(
            {
                "samples": estimate.sample_count,
                "estimated_w1": estimate.weights[0],
                "estimated_w2": estimate.weights[1],
                "estimated_bias": estimate.bias,
                "direction_error_deg": estimate.direction_error_degrees(true_weights),
            }
        )
    return ExperimentResult(
        experiment_id="fig5",
        title="Model Estimation under collusion (paper Fig. 5)",
        columns=[
            "samples",
            "estimated_w1",
            "estimated_w2",
            "estimated_bias",
            "direction_error_deg",
        ],
        rows=rows,
        notes=(
            "Estimates stay 'rambling': errors do not shrink as colluders "
            "pool more amplified results."
        ),
    )


def run_fig6(seed: int = 2016, through_protocol: bool = True) -> ExperimentResult:
    """Fig. 6: exact retrieval when the amplifier is (wrongly) disabled."""
    data = two_gaussians("fig6", dimension=2, train_size=200, test_size=10, seed=seed)
    model = train_svm(data.X_train, data.y_train, kernel="linear", C=10.0)
    true_weights = model.weight_vector()
    attack = DistanceRetrievalAttack(model)
    rng = ReproRandom(seed)
    rows: List[dict] = []
    for query_count in (3, 4, 6):
        queries = np.asarray(
            [
                [rng.uniform(-1.0, 1.0) for _ in range(2)]
                for _ in range(query_count)
            ]
        )
        estimate = attack.run(queries, seed=seed, through_protocol=through_protocol)
        rows.append(
            {
                "queries": query_count,
                "recovered_w1": estimate.weights[0],
                "recovered_w2": estimate.weights[1],
                "recovered_bias": estimate.bias,
                "direction_error_deg": estimate.direction_error_degrees(true_weights),
            }
        )
    return ExperimentResult(
        experiment_id="fig6",
        title="Decision Function Retrieval without r_a (paper Fig. 6)",
        columns=[
            "queries",
            "recovered_w1",
            "recovered_w2",
            "recovered_bias",
            "direction_error_deg",
        ],
        rows=rows,
        notes=(
            "n+1 = 3 unamplified results suffice for exact recovery — the "
            "attack the amplifier r_a exists to block."
        ),
    )


def _accuracy_figure(
    experiment_id: str,
    title: str,
    datasets: Sequence[str],
    nonlinear: bool,
    seed: int,
    query_limit: int,
    config: Optional[OMPEConfig],
) -> ExperimentResult:
    config = config or OMPEConfig()
    rows: List[dict] = []
    for name in datasets:
        data, linear_model, polynomial_model = train_table1_models(name, seed)
        model = polynomial_model if nonlinear else linear_model
        limit = min(query_limit, data.test_size)
        X = data.X_test[:limit]
        y = data.y_test[:limit]
        original = accuracy(model.predict(X), y)
        if nonlinear:
            outcomes = classify_nonlinear_batch(
                model, X, config=config, seed=seed, method="direct"
            )
        else:
            outcomes = classify_linear_batch(model, X, config=config, seed=seed)
        private = accuracy(predicted_labels(outcomes), y)
        rows.append(
            {
                "dataset": name,
                "original_accuracy": original,
                "private_accuracy": private,
                "queries": limit,
            }
        )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        columns=["dataset", "original_accuracy", "private_accuracy", "queries"],
        rows=rows,
        notes=(
            "The protocol is exact (Fraction arithmetic): private bars equal "
            "original bars, the paper's headline functionality claim."
        ),
    )


def run_fig7(
    seed: int = 2016,
    datasets: Sequence[str] = FIG7_DATASETS,
    query_limit: int = 40,
    config: Optional[OMPEConfig] = None,
) -> ExperimentResult:
    """Fig. 7: linear accuracy, original vs privacy-preserving."""
    return _accuracy_figure(
        "fig7",
        "Accuracy of Linear Data Classification (paper Fig. 7)",
        datasets,
        nonlinear=False,
        seed=seed,
        query_limit=query_limit,
        config=config,
    )


def run_fig8(
    seed: int = 2016,
    datasets: Sequence[str] = FIG8_DATASETS,
    query_limit: int = 25,
    config: Optional[OMPEConfig] = None,
) -> ExperimentResult:
    """Fig. 8: nonlinear accuracy, original vs privacy-preserving."""
    return _accuracy_figure(
        "fig8",
        "Accuracy of Nonlinear Data Classification (paper Fig. 8)",
        datasets,
        nonlinear=True,
        seed=seed,
        query_limit=query_limit,
        config=config,
    )


def _mean_bytes(outcomes) -> float:
    return sum(outcome.total_bytes for outcome in outcomes) / len(outcomes)


def run_fig9(
    seed: int = 2016,
    datasets: Optional[Sequence[str]] = None,
    queries_per_100_rows: float = 0.25,
    max_queries: int = 100,
    config: Optional[OMPEConfig] = None,
) -> ExperimentResult:
    """Fig. 9: classification time vs data size (a1a–a9a sweep).

    Query counts scale with the paper's test sizes (1605..32561 rows),
    so the x-axis grows like the paper's; the four series are
    linear/nonlinear × original/privacy-preserving.
    """
    config = config or OMPEConfig()
    names = list(datasets) if datasets is not None else a_family_names()
    rows: List[dict] = []
    for name in names:
        spec = get_spec(name)
        data, linear_model, polynomial_model = train_table1_models(name, seed)
        queries = int(
            min(max_queries, max(4, spec.paper_test_size / 100 * queries_per_100_rows))
        )
        # Tile the analog test set up to the query count.
        repeats = int(np.ceil(queries / data.test_size))
        X = np.tile(data.X_test, (repeats, 1))[:queries]
        data_size_kb = queries * data.dimension * 8 / 1024.0

        start = time.perf_counter()
        classify_plain(linear_model, X)
        linear_original_s = time.perf_counter() - start

        start = time.perf_counter()
        classify_plain(polynomial_model, X)
        nonlinear_original_s = time.perf_counter() - start

        start = time.perf_counter()
        linear_outcomes = classify_linear_batch(
            linear_model, X, config=config, seed=seed
        )
        linear_private_s = time.perf_counter() - start

        start = time.perf_counter()
        nonlinear_outcomes = classify_nonlinear_batch(
            polynomial_model, X, config=config, seed=seed, method="direct"
        )
        nonlinear_private_s = time.perf_counter() - start

        rows.append(
            {
                "dataset": name,
                "queries": queries,
                "data_size_kb": data_size_kb,
                "linear_original_ms": 1e3 * linear_original_s,
                "nonlinear_original_ms": 1e3 * nonlinear_original_s,
                "linear_private_ms": 1e3 * linear_private_s,
                "nonlinear_private_ms": 1e3 * nonlinear_private_s,
                "linear_private_bytes": _mean_bytes(linear_outcomes),
                "nonlinear_private_bytes": _mean_bytes(nonlinear_outcomes),
            }
        )
    return ExperimentResult(
        experiment_id="fig9",
        title="Computational Cost Comparison of Classification (paper Fig. 9)",
        columns=[
            "dataset",
            "queries",
            "data_size_kb",
            "linear_original_ms",
            "nonlinear_original_ms",
            "linear_private_ms",
            "nonlinear_private_ms",
            "linear_private_bytes",
            "nonlinear_private_bytes",
        ],
        rows=rows,
        notes=(
            "Shape claims: all series grow ~linearly in data size; the "
            "privacy-preserving schemes cost a constant factor more (the "
            "paper reports about 4x on its C++ testbed).  The *_bytes "
            "columns are mean transcript bytes per private query."
        ),
    )


def run_fig10(
    seed: int = 2016,
    dimensions: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
    config: Optional[OMPEConfig] = None,
    params: Optional[MetricParams] = None,
) -> ExperimentResult:
    """Fig. 10: similarity-evaluation time vs hyperplane dimension."""
    config = config or OMPEConfig()
    params = params or MetricParams()
    rng = ReproRandom(seed)
    rows: List[dict] = []
    for dimension in dimensions:
        draw = rng.fork("dim", dimension)
        weights_a = [draw.uniform(0.2, 1.0) for _ in range(dimension)]
        weights_b = [draw.uniform(0.2, 1.0) for _ in range(dimension)]
        model_a = make_linear_model(weights_a, draw.uniform(-0.2, 0.2))
        model_b = make_linear_model(weights_b, draw.uniform(-0.2, 0.2))

        start = time.perf_counter()
        plain_outcome = similarity_plain(model_a, model_b, params)
        ordinary_ms = 1e3 * (time.perf_counter() - start)

        start = time.perf_counter()
        private_outcome = evaluate_similarity_private(
            model_a, model_b, params=params, config=config, seed=seed + dimension
        )
        private_ms = 1e3 * (time.perf_counter() - start)

        rows.append(
            {
                "dimension": dimension,
                "ordinary_ms": ordinary_ms,
                "private_ms": private_ms,
                "t_plain": plain_outcome.result.t,
                "t_private": private_outcome.t,
                "private_bytes": private_outcome.total_bytes,
            }
        )
    return ExperimentResult(
        experiment_id="fig10",
        title="Computational Cost Comparison of Similarity Evaluation (paper Fig. 10)",
        columns=[
            "dimension",
            "ordinary_ms",
            "private_ms",
            "t_plain",
            "t_private",
            "private_bytes",
        ],
        rows=rows,
        notes=(
            "Shape claims: the privacy-preserving evaluation costs more at "
            "every dimension and its gap grows with dimension (each extra "
            "dimension adds hiding polynomials, not just one multiplication)."
        ),
    )


register("fig5", run_fig5)
register("fig6", run_fig6)
register("fig7", run_fig7)
register("fig8", run_fig8)
register("fig9", run_fig9)
register("fig10", run_fig10)
