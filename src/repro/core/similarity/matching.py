"""N-party private partner matching (paper Sections I and V, generalized).

The paper motivates similarity evaluation with partner search: "when a
company wants to find a business partner, it can firstly compare its
sale trending model with others'".  With N trainers that becomes a
pairwise tournament: every pair runs the two-party private similarity
protocol, each party sees only its own row of T values, and picks the
argmin.  This module orchestrates the tournament, aggregates the
communication cost across all pairwise runs, and reports the stable
best-match structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.ompe import OMPEConfig
from repro.core.similarity.linear import evaluate_similarity_private
from repro.core.similarity.metric import MetricParams
from repro.core.similarity.profile import similarity_profile
from repro.exceptions import SimilarityError, ValidationError
from repro.ml.svm.model import SVMModel
from repro.utils.rng import ReproRandom

Pair = Tuple[str, str]


@dataclass(frozen=True)
class MatchingResult:
    """Outcome of an N-party matching tournament.

    Attributes
    ----------
    t_values:
        Similarity value per unordered pair (keys are sorted tuples).
    best_match:
        Each party's argmin-T partner.
    mutual_matches:
        Pairs that choose each other — the stable matches a deployment
        would act on.
    total_bytes:
        Aggregate protocol bytes across all pairwise runs.
    """

    t_values: Dict[Pair, float]
    best_match: Dict[str, str]
    mutual_matches: List[Pair]
    total_bytes: int

def _normalized_pair(first: str, second: str) -> Pair:
    return (first, second) if first <= second else (second, first)


def run_matching(
    models: Mapping[str, SVMModel],
    params: Optional[MetricParams] = None,
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
) -> MatchingResult:
    """Run the full pairwise private-similarity tournament.

    All models must be of the same kind (all linear, or all sharing one
    polynomial kernel); mixed tournaments are rejected up front, before
    any protocol bytes flow.
    """
    names = list(models)
    if len(names) < 2:
        raise ValidationError("matching requires at least two parties")
    if len(set(names)) != len(names):
        raise ValidationError("party names must be distinct")
    params = params or MetricParams()
    config = config or OMPEConfig()
    profiles = {name: similarity_profile(models[name], params) for name in names}
    kernels = {profile.kernel for profile in profiles.values()}
    if len(kernels) != 1:
        raise SimilarityError(
            "all parties must use one model family (all linear, or all one "
            f"polynomial kernel); got {len(kernels)}"
        )
    root = ReproRandom(seed)

    t_values: Dict[Pair, float] = {}
    total_bytes = 0
    for first, second in combinations(names, 2):
        pair_seed = root.fork("pair", first, second).seed
        outcome = evaluate_similarity_private(
            profiles[first], profiles[second], params, config=config, seed=pair_seed
        )
        t_values[_normalized_pair(first, second)] = outcome.t
        total_bytes += outcome.total_bytes

    best_match: Dict[str, str] = {}
    for name in names:
        candidates = [
            (other, t_values[_normalized_pair(name, other)])
            for other in names
            if other != name
        ]
        best_match[name] = min(candidates, key=lambda item: item[1])[0]

    mutual_matches = sorted(
        {
            _normalized_pair(name, partner)
            for name, partner in best_match.items()
            if best_match.get(partner) == name
        }
    )
    return MatchingResult(
        t_values=t_values,
        best_match=best_match,
        mutual_matches=mutual_matches,
        total_bytes=total_bytes,
    )
