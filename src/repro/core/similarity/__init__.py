"""Privacy-preserving similarity evaluation (paper Section V)."""

from repro.core.similarity.boundary import (
    centroid,
    kernel_boundary_points,
    linear_boundary_points,
    model_boundary_points,
)
from repro.core.similarity.linear import (
    PrivateSimilarityOutcome,
    evaluate_similarity_private,
)
from repro.core.similarity.matching import MatchingResult, run_matching
from repro.core.similarity.metric import (
    MetricParams,
    SimilarityResult,
    cosine_similarity,
    evaluate_similarity_plain,
    normal_inner_product,
    triangle_t_squared,
)
from repro.core.similarity.policy import (
    MitigatedScores,
    MitigatedSimilarityOutcome,
    OutputPolicy,
    apply_output_policy,
    mitigate_similarity_outcome,
    parse_output_policy,
)
from repro.core.similarity.profile import (
    SimilarityProfile,
    exact_normal_inner,
    similarity_profile,
)

__all__ = [
    "centroid",
    "kernel_boundary_points",
    "linear_boundary_points",
    "model_boundary_points",
    "PrivateSimilarityOutcome",
    "evaluate_similarity_private",
    "MatchingResult",
    "run_matching",
    "MetricParams",
    "SimilarityResult",
    "cosine_similarity",
    "evaluate_similarity_plain",
    "normal_inner_product",
    "triangle_t_squared",
    "exact_normal_inner",
    "SimilarityProfile",
    "similarity_profile",
    "MitigatedScores",
    "MitigatedSimilarityOutcome",
    "OutputPolicy",
    "apply_output_policy",
    "mitigate_similarity_outcome",
    "parse_output_policy",
]
