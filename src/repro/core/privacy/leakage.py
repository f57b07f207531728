"""Similarity-table fingerprinting attack and auditable leakage scoring.

The anonlink security documentation (SNIPPETS.md §2) describes the
Culnane et al. attack on released similarity-score tables: an adversary
holding an *approximate* reference table — built from public or partial
auxiliary data about the pseudonymous population — matches each
released score vector against its reference rows and re-identifies
records.  The attack needs only the output of the protocol, so it
applies equally to local runs, linkage jobs, and TCP similarity
sessions: anything that yields an ordered T² score table.

This module turns that attack into a measurement instrument:

* :class:`ScoreTable` / builders — assemble score tables from any
  evaluation path (plain metric, private protocol, TCP client)
  through one ``evaluate(row_model, column_model)`` callable;
* :func:`release_table` — apply an
  :class:`~repro.core.similarity.policy.OutputPolicy` to each row, the
  same enforcement the service applies per run;
* :class:`SimilarityFingerprintAttack` — re-identify released rows
  against a noisy reference table, reporting precision/recall against
  ground truth.  The attack-as-test suite pins a success floor on
  ``raw`` and degradation ceilings on every mitigated mode;
* :func:`leakage_score` — an LPS-style decomposable leakage score
  (SNIPPETS.md §1): a weighted sum of normalized sub-scores, each
  auditable on its own, exported per policy through the metrics
  registry as ``repro_privacy_leakage_score``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.similarity.metric import MetricParams, evaluate_similarity_plain
from repro.core.similarity.policy import (
    RAW,
    THRESHOLD,
    TOP_K,
    OutputPolicy,
    apply_output_policy,
)
from repro.exceptions import ValidationError
from repro.obs import get_metrics
from repro.utils.rng import ReproRandom, derive_seed

#: Resolution sub-score for a comparison bit: one bit out of the 53
#: mantissa bits a raw double-precision score carries.
_BIT_RESOLUTION = 1.0 / 53.0

#: LPS-style weights over the four leakage dimensions.  Magnitude
#: dominates (raw values enable every downstream inference), then order
#: (ranking alone fingerprints), linkage (which pair a value belongs
#: to), and resolution (bits per revealed value).
LEAKAGE_WEIGHTS: Dict[str, float] = {
    "magnitude": 0.40,
    "order": 0.25,
    "linkage": 0.20,
    "resolution": 0.15,
}


# ---------------------------------------------------------------------------
# Score tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreTable:
    """A dense T² (or T) score table: ``scores[i][j]`` compares
    ``row_ids[i]`` against ``column_ids[j]``."""

    row_ids: Tuple[str, ...]
    column_ids: Tuple[str, ...]
    scores: Tuple[Tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not self.row_ids or not self.column_ids:
            raise ValidationError("score table needs rows and columns")
        if len(set(self.row_ids)) != len(self.row_ids):
            raise ValidationError("row ids must be distinct")
        if len(set(self.column_ids)) != len(self.column_ids):
            raise ValidationError("column ids must be distinct")
        if len(self.scores) != len(self.row_ids):
            raise ValidationError(
                f"{len(self.row_ids)} rows but {len(self.scores)} score rows"
            )
        for row in self.scores:
            if len(row) != len(self.column_ids):
                raise ValidationError("ragged score table")
            for value in row:
                if not math.isfinite(value):
                    raise ValidationError(
                        f"scores must be finite, got {value!r}"
                    )

    def row(self, row_id: str) -> Tuple[float, ...]:
        return self.scores[self.row_ids.index(row_id)]


def collect_score_table(
    row_ids: Sequence[str],
    column_ids: Sequence[str],
    evaluate: Callable[[str, str], float],
) -> ScoreTable:
    """Build a table by calling ``evaluate(row_id, column_id)`` per cell.

    The callable abstracts the evaluation path: a plain metric, the
    private protocol, or a
    :class:`~repro.net.service.TrainerClient` session all fit — the
    attack downstream is oblivious to how the scores were produced.
    """
    return ScoreTable(
        row_ids=tuple(row_ids),
        column_ids=tuple(column_ids),
        scores=tuple(
            tuple(float(evaluate(row_id, column_id)) for column_id in column_ids)
            for row_id in row_ids
        ),
    )


def score_table_from_models(
    subjects: Dict[str, object],
    probes: Dict[str, object],
    params: Optional[MetricParams] = None,
) -> ScoreTable:
    """Table of plain T values: each subject row against each probe."""
    metric_params = params or MetricParams()
    return collect_score_table(
        tuple(subjects),
        tuple(probes),
        lambda row_id, column_id: evaluate_similarity_plain(
            subjects[row_id], probes[column_id], metric_params
        ).t,
    )


def perturb_table(table: ScoreTable, sigma: float, seed: int) -> ScoreTable:
    """The attacker's noisy reference: auxiliary knowledge is only
    approximate, so each cell gets independent Gaussian noise (clamped
    to stay non-negative — T is a distance)."""
    if sigma < 0:
        raise ValidationError(f"sigma must be non-negative, got {sigma!r}")
    rows = []
    for row_id, row in zip(table.row_ids, table.scores):
        rng = ReproRandom(derive_seed(seed, "perturb", row_id))
        rows.append(
            tuple(max(0.0, value + rng.gauss(0.0, sigma)) for value in row)
        )
    return ScoreTable(
        row_ids=table.row_ids,
        column_ids=table.column_ids,
        scores=tuple(rows),
    )


def synthetic_population(
    count: int, dimension: int, seed: int
) -> Dict[str, object]:
    """``count`` random linear models, keyed ``record-0`` ... — the
    pseudonymous population used by tests and the security bench."""
    from repro.ml.svm.model import make_linear_model

    if count < 1 or dimension < 1:
        raise ValidationError("population needs count >= 1 and dimension >= 1")
    population = {}
    for index in range(count):
        rng = ReproRandom(derive_seed(seed, "record", index))
        weights = [rng.uniform(-1.0, 1.0) for _ in range(dimension)]
        if all(abs(w) < 1e-6 for w in weights):
            weights[0] = 0.5
        population[f"record-{index}"] = make_linear_model(
            weights, rng.uniform(-0.5, 0.5)
        )
    return population


# ---------------------------------------------------------------------------
# Policy-released tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReleasedTable:
    """A score table after per-row output-policy enforcement.

    ``rows[i]`` is the :class:`MitigatedScores` released for
    ``row_ids[i]`` — exactly what a consumer of the similarity service
    would hold after a batch of runs under ``policy``.
    """

    policy: OutputPolicy
    row_ids: Tuple[str, ...]
    column_ids: Tuple[str, ...]
    rows: Tuple


def release_table(
    table: ScoreTable,
    policy: OutputPolicy,
    seed: Optional[int] = None,
) -> ReleasedTable:
    """Apply ``policy`` to every row of ``table``.

    Row seeds fork from ``seed`` by row id, mirroring how independent
    protocol runs derive independent mitigation seeds.
    """
    rows = tuple(
        apply_output_policy(
            row,
            policy,
            seed=None if seed is None else derive_seed(seed, "row", row_id),
            ids=table.column_ids,
        )
        for row_id, row in zip(table.row_ids, table.scores)
    )
    return ReleasedTable(
        policy=policy,
        row_ids=table.row_ids,
        column_ids=table.column_ids,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# The fingerprinting attack
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FingerprintResult:
    """One attack run's outcome against ground truth.

    ``assignments`` maps released row id → claimed reference row id
    (rows the attacker abstained on are absent).  Precision is
    correct/claimed; recall is correct/total.  ``claimed == 0`` scores
    precision 0.0 — an attacker with nothing to say has not succeeded.
    """

    assignments: Dict[str, str]
    precision: float
    recall: float
    claimed: int
    correct: int


class SimilarityFingerprintAttack:
    """Culnane-style re-identification from released similarity tables.

    ``reference`` is the attacker's (noisy) score table over the same
    probe columns, with *known* row identities.  ``run`` matches each
    released row against the reference rows using whatever view the
    output policy left behind:

    * ``raw`` — nearest reference row by L2 over the full score vector;
    * ``top-k`` — L2 restricted to the revealed (probe, score) pairs;
    * ``threshold`` — Hamming distance between bit vectors, the
      attacker thresholding its own reference at the public threshold;
    * ``permuted`` — best effort: compare sorted released magnitudes
      against sorted reference scores.  Masking destroys magnitudes and
      linkage, so this lands at chance level — which is the point.

    Exact distance ties make the attacker abstain on that row.
    """

    def __init__(self, reference: ScoreTable) -> None:
        self.reference = reference

    # -- per-mode row distances --------------------------------------------

    def _raw_distance(
        self, released: Tuple[float, ...], candidate: Tuple[float, ...]
    ) -> float:
        return math.sqrt(
            sum((a - b) ** 2 for a, b in zip(released, candidate))
        )

    def _top_k_distance(
        self,
        entries: Tuple[Tuple[str, float], ...],
        candidate_by_probe: Dict[str, float],
    ) -> float:
        return math.sqrt(
            sum(
                (score - candidate_by_probe[probe]) ** 2
                for probe, score in entries
            )
        )

    def _threshold_distance(
        self,
        bits: Dict[str, bool],
        candidate_by_probe: Dict[str, float],
        threshold: float,
    ) -> float:
        return float(
            sum(
                bits[probe] != (candidate_by_probe[probe] <= threshold)
                for probe in bits
            )
        )

    def _permuted_distance(
        self, masked: Tuple[float, ...], candidate: Tuple[float, ...]
    ) -> float:
        reference = sorted(candidate)
        return math.sqrt(
            sum((a - b) ** 2 for a, b in zip(sorted(masked), reference))
        )

    def _match_row(self, released_row) -> Optional[str]:
        """The attacker's claim for one released row (None = abstain)."""
        policy = released_row.policy
        best_id: Optional[str] = None
        best_distance = math.inf
        tied = False
        for candidate_id, candidate in zip(
            self.reference.row_ids, self.reference.scores
        ):
            by_probe = dict(zip(self.reference.column_ids, candidate))
            if policy.mode == RAW:
                distance = self._raw_distance(
                    tuple(score for _, score in released_row.entries), candidate
                )
            elif policy.mode == TOP_K:
                distance = self._top_k_distance(released_row.entries, by_probe)
            elif policy.mode == THRESHOLD:
                distance = self._threshold_distance(
                    released_row.match_bits, by_probe, policy.threshold
                )
            else:  # PERMUTED
                distance = self._permuted_distance(
                    released_row.entries, candidate
                )
            if distance < best_distance:
                best_distance = distance
                best_id = candidate_id
                tied = False
            elif distance == best_distance:
                tied = True
        return None if tied else best_id

    def run(
        self, released: ReleasedTable, truth: Dict[str, str]
    ) -> FingerprintResult:
        """Re-identify every released row; score against ``truth``
        (released row id → true reference row id)."""
        if set(released.column_ids) != set(self.reference.column_ids):
            raise ValidationError(
                "released and reference tables must share probe columns"
            )
        missing = [row_id for row_id in released.row_ids if row_id not in truth]
        if missing:
            raise ValidationError(
                f"ground truth missing released rows: {missing!r}"
            )
        assignments: Dict[str, str] = {}
        for row_id, released_row in zip(released.row_ids, released.rows):
            claim = self._match_row(released_row)
            if claim is not None:
                assignments[row_id] = claim
        correct = sum(
            1 for row_id, claim in assignments.items() if truth[row_id] == claim
        )
        claimed = len(assignments)
        total = len(released.row_ids)
        return FingerprintResult(
            assignments=assignments,
            precision=correct / claimed if claimed else 0.0,
            recall=correct / total if total else 0.0,
            claimed=claimed,
            correct=correct,
        )


# ---------------------------------------------------------------------------
# LPS-style decomposable leakage score
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeakageScore:
    """Decomposable leakage score of one released similarity run.

    Four sub-scores in [0, 1], each auditable on its own:

    * ``magnitude`` — fraction of pairs whose raw score value leaves
      the run;
    * ``order`` — fraction of the pairwise ranking relation revealed;
    * ``linkage`` — can a revealed value be tied back to its pair?
    * ``resolution`` — bits revealed per disclosed value, relative to a
      full double.

    ``total`` is the weighted sum under :data:`LEAKAGE_WEIGHTS` — the
    LPS composition rule (SNIPPETS.md §1): normalized components, fixed
    public weights, so two policies' scores are comparable and each
    component can be challenged independently.
    """

    magnitude: float
    order: float
    linkage: float
    resolution: float

    def __post_init__(self) -> None:
        for name, value in self.subscores().items():
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"leakage sub-score {name} must be in [0, 1], got {value!r}"
                )

    def subscores(self) -> Dict[str, float]:
        return {
            "magnitude": self.magnitude,
            "order": self.order,
            "linkage": self.linkage,
            "resolution": self.resolution,
        }

    @property
    def total(self) -> float:
        return sum(
            LEAKAGE_WEIGHTS[name] * value
            for name, value in self.subscores().items()
        )


def leakage_score(policy: OutputPolicy, count: int) -> LeakageScore:
    """Score what ``policy`` discloses about ``count`` compared pairs.

    A pure function of (policy, count) — deliberately: both endpoints
    of a wire session and both transports compute the identical score,
    so the exported gauge is itself conformance-testable.
    """
    if count < 1:
        raise ValidationError(f"count must be positive, got {count!r}")
    if policy.mode == RAW:
        return LeakageScore(
            magnitude=1.0, order=1.0, linkage=1.0, resolution=1.0
        )
    if policy.mode == TOP_K:
        revealed = min(policy.k, count)
        # Revealed pairs are fully ordered among themselves and known
        # to rank above every withheld pair: of the count-1 ranking
        # relations a row's full order contains, the released view
        # decides those involving at least one revealed pair.
        order = 1.0 if count == 1 else min(1.0, revealed / (count - 1))
        return LeakageScore(
            magnitude=revealed / count,
            order=order,
            linkage=1.0,
            resolution=1.0,
        )
    if policy.mode == THRESHOLD:
        # One comparison bit per pair: no magnitudes, no ordering among
        # pairs on the same side of the threshold, full linkage (the
        # bit is attributed to its pair), 1-of-53 bits of resolution.
        return LeakageScore(
            magnitude=0.0,
            order=0.0 if count == 1 else 1.0 / (count - 1),
            linkage=1.0,
            resolution=_BIT_RESOLUTION,
        )
    # PERMUTED: masked magnitudes, canonical order, no linkage — only
    # the cardinality (carried by `count`, outside the score) leaks.
    return LeakageScore(magnitude=0.0, order=0.0, linkage=0.0, resolution=0.0)


def record_leakage(policy: OutputPolicy, count: int) -> LeakageScore:
    """Compute and export the leakage score for one released run.

    Writes ``repro_privacy_leakage_score{policy=..., component=...}``
    (total plus each sub-score) so `repro observe`/`repro top` surface
    the leakage budget next to the traffic it describes.
    """
    score = leakage_score(policy, count)
    gauge = get_metrics().gauge(
        "repro_privacy_leakage_score",
        "Decomposable output-leakage score of released similarity runs",
    )
    gauge.set(score.total, policy=policy.label, component="total")
    for component, value in score.subscores().items():
        gauge.set(value, policy=policy.label, component=component)
    return score
