"""The paper's contribution: OMPE-based private classification and
similarity evaluation, privacy analysis, and baselines."""

from repro.core.classification import (
    ClassificationOutcome,
    classify_linear,
    classify_nonlinear,
    private_classify,
)
from repro.core.ompe import OMPEConfig, OMPEFunction, execute_ompe
from repro.core.similarity import (
    MetricParams,
    evaluate_similarity_plain,
    evaluate_similarity_private,
)

__all__ = [
    "ClassificationOutcome",
    "classify_linear",
    "classify_nonlinear",
    "private_classify",
    "OMPEConfig",
    "OMPEFunction",
    "execute_ompe",
    "MetricParams",
    "evaluate_similarity_plain",
    "evaluate_similarity_private",
]
