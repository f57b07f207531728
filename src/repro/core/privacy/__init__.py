"""Privacy analysis: Level-1/2 checks and collusion attacks."""

from repro.core.privacy.analysis import (
    client_view_is_randomized,
    cover_disguise_samples,
    extract_view,
    indistinguishability_test,
    scan_view_for_values,
)
from repro.core.privacy.attacks import (
    DistanceRetrievalAttack,
    EstimatedModel,
    ModelEstimationAttack,
    cover_consistency_attack,
)
from repro.core.privacy.leakage import (
    FingerprintResult,
    LeakageScore,
    ReleasedTable,
    ScoreTable,
    SimilarityFingerprintAttack,
    collect_score_table,
    leakage_score,
    perturb_table,
    record_leakage,
    release_table,
    score_table_from_models,
    synthetic_population,
)
from repro.core.privacy.security import (
    SecurityEstimate,
    estimate_security,
    minimum_security_degree,
)
from repro.core.privacy.simulator import (
    sender_view_indistinguishable,
    simulate_sender_view,
)

__all__ = [
    "client_view_is_randomized",
    "cover_disguise_samples",
    "extract_view",
    "indistinguishability_test",
    "scan_view_for_values",
    "DistanceRetrievalAttack",
    "EstimatedModel",
    "ModelEstimationAttack",
    "cover_consistency_attack",
    "FingerprintResult",
    "LeakageScore",
    "ReleasedTable",
    "ScoreTable",
    "SimilarityFingerprintAttack",
    "collect_score_table",
    "leakage_score",
    "perturb_table",
    "record_leakage",
    "release_table",
    "score_table_from_models",
    "synthetic_population",
    "SecurityEstimate",
    "estimate_security",
    "minimum_security_degree",
    "sender_view_indistinguishable",
    "simulate_sender_view",
]
