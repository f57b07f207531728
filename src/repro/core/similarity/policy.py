"""Mitigated output modes for similarity results (output privacy).

The similarity protocol hands Bob the raw triangle metric ``T``.  A
table of such raw, ordered scores is exactly the artifact the Culnane
et al. fingerprinting attack consumes (anonlink's security notes,
SNIPPETS.md §2): an adversary who can approximate the score table from
public information re-identifies pseudonymous rows by matching score
vectors.  PINFER (Joye & Petitcolas) names the standard remedy for
outsourced-inference score leakage: release a *function of* the score
(sign, threshold bit, top ranks) rather than the score itself.

This module is that output layer:

* :class:`OutputPolicy` — the negotiated release mode (``raw``,
  ``threshold``, ``top-k``, ``permuted``), a registered wire payload
  (``similarity/output-policy``) so clients and servers agree on the
  mode before any score exists;
* :func:`apply_output_policy` — pure, seed-deterministic mapping from
  a list of scores to the released view (:class:`MitigatedScores`);
* :func:`mitigate_similarity_outcome` — wraps one protocol run's
  outcome so non-``raw`` modes never expose ``t``/``t_squared``.

Threat model honesty (see DESIGN.md "Output privacy"): the raw score
still materializes inside the receiving party's process — enforcement
here is at the *output/API* layer, the deployment shape anonlink uses
for its output types (a trusted result-holder filters what untrusted
consumers see).  Upgrading ``threshold`` to a cryptographic comparison
(PINFER's sign-only protocol) is future protocol work; the policy
vocabulary and the leakage accounting here are deliberately identical
so that upgrade changes no caller.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.exceptions import SimilarityError, ValidationError
from repro.net.runner import ProtocolReport
from repro.utils.rng import ReproRandom, derive_seed
from repro.utils.serialization import register_payload_type

#: Policy mode identifiers (part of the wire vocabulary — stable).
RAW = "raw"
THRESHOLD = "threshold"
TOP_K = "top-k"
PERMUTED = "permuted"
MODES: Tuple[str, ...] = (RAW, THRESHOLD, TOP_K, PERMUTED)

#: Hostile-input bound on ``top-k``: a decoded policy asking for more
#: revealed scores than any legitimate batch is rejected, not honored.
MAX_TOP_K = 4096

#: Per-entry multiplicative masks for ``permuted`` mode are drawn from
#: this positive range — wide enough that a masked score carries no
#: usable magnitude, bounded so the release stays finite.
_MASK_LOW, _MASK_HIGH = 0.25, 4.0


@register_payload_type("similarity/output-policy")
@dataclass(frozen=True)
class OutputPolicy:
    """How much of a similarity score table a run is allowed to release.

    * ``raw`` — full ordered scores (the paper's unmitigated output);
    * ``threshold`` — one comparison bit per pair: ``T <= threshold``
      (smaller ``T`` = more similar), no magnitudes;
    * ``top-k`` — the ``k`` best (smallest-``T``) pairs with their
      scores, nothing about the rest;
    * ``permuted`` — per-entry masked magnitudes with the pair linkage
      destroyed (sorted canonical order), revealing only cardinality.

    Decoded instances re-run this validation, so a hostile peer cannot
    smuggle an unknown mode or an out-of-range ``k`` through the wire.
    """

    mode: str = RAW
    threshold: Optional[float] = None
    k: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(
                f"unknown output-policy mode {self.mode!r}; "
                f"supported: {', '.join(MODES)}"
            )
        if self.mode == THRESHOLD:
            value = self.threshold
            # A float and nothing else: an int would re-encode to other
            # bytes than the float it stands for.
            if not isinstance(value, float) or not math.isfinite(value) or value <= 0.0:
                raise ValidationError(
                    "threshold mode needs a finite positive float threshold, "
                    f"got {value!r}"
                )
        elif self.threshold is not None:
            raise ValidationError(
                f"{self.mode!r} mode takes no threshold, got {self.threshold!r}"
            )
        if self.mode == TOP_K:
            if (
                isinstance(self.k, bool)
                or not isinstance(self.k, int)
                or not 1 <= self.k <= MAX_TOP_K
            ):
                raise ValidationError(
                    f"top-k mode needs an integer k in [1, {MAX_TOP_K}], "
                    f"got {self.k!r}"
                )
        elif self.k is not None:
            raise ValidationError(
                f"{self.mode!r} mode takes no k, got {self.k!r}"
            )

    @property
    def label(self) -> str:
        """Canonical metrics/CLI label: ``raw``, ``threshold:0.5``, ...."""
        if self.mode == THRESHOLD:
            return f"{THRESHOLD}:{self.threshold:g}"
        if self.mode == TOP_K:
            return f"{TOP_K}:{self.k}"
        return self.mode


def parse_output_policy(text: str) -> OutputPolicy:
    """Parse a CLI/label spelling (``raw``, ``threshold:0.5``,
    ``top-k:5``, ``permuted``) into an :class:`OutputPolicy`."""
    mode, separator, argument = text.partition(":")
    mode = mode.strip()
    if mode in (RAW, PERMUTED):
        if separator:
            raise ValidationError(f"{mode!r} takes no argument, got {text!r}")
        return OutputPolicy(mode=mode)
    if mode == THRESHOLD:
        try:
            return OutputPolicy(mode=THRESHOLD, threshold=float(argument))
        except ValueError:
            raise ValidationError(
                f"threshold policy needs a number, got {text!r}"
            ) from None
    if mode == TOP_K:
        try:
            return OutputPolicy(mode=TOP_K, k=int(argument))
        except ValueError:
            raise ValidationError(
                f"top-k policy needs an integer, got {text!r}"
            ) from None
    raise ValidationError(
        f"unknown output policy {text!r}; expected one of: "
        f"raw, threshold:<t>, top-k:<k>, permuted"
    )


@dataclass(frozen=True)
class MitigatedScores:
    """The released view of one row of similarity scores.

    ``entries`` is mode-dependent:

    * ``raw`` — ``((id, score), ...)`` in input order;
    * ``threshold`` — ``((id, bit), ...)`` in input order, where the
      bit is ``score <= threshold`` (a pure function of the comparison);
    * ``top-k`` — the ``min(k, count)`` best ``(id, score)`` pairs in
      ascending ``(score, id)`` order;
    * ``permuted`` — ``(masked, ...)`` sorted ascending: per-id masked
      magnitudes with no id attached, so the view is independent of the
      input pair order.

    ``count`` (how many pairs went in) is always released — every mode
    leaks cardinality, and the leakage score accounts for the rest.
    """

    policy: OutputPolicy
    count: int
    entries: Tuple = ()

    @property
    def revealed_scores(self) -> Tuple[float, ...]:
        """The raw score magnitudes this view actually discloses.

        Empty for ``threshold`` (bits only) and ``permuted`` (masked
        values are not scores); at most ``k`` entries for ``top-k``.
        """
        if self.policy.mode in (RAW, TOP_K):
            return tuple(score for _, score in self.entries)
        return ()

    @property
    def match_bits(self) -> Dict[object, bool]:
        """``threshold`` mode's comparison bits, keyed by pair id."""
        if self.policy.mode != THRESHOLD:
            raise SimilarityError(
                f"match bits exist only under threshold mode, "
                f"not {self.policy.label!r}"
            )
        return {pair_id: bit for pair_id, bit in self.entries}


def _mask_for(seed: Optional[int], pair_id: object) -> float:
    """The secret positive mask for one pair, keyed by pair id (not by
    input position) so the released view is order-independent."""
    rng = (
        ReproRandom(None)
        if seed is None
        else ReproRandom(derive_seed(seed, "output-mask", pair_id))
    )
    return rng.uniform(_MASK_LOW, _MASK_HIGH)


def apply_output_policy(
    scores: Sequence[float],
    policy: OutputPolicy,
    seed: Optional[int] = None,
    ids: Optional[Sequence[object]] = None,
) -> MitigatedScores:
    """Apply ``policy`` to one row of scores; pure given ``seed``.

    ``ids`` names the pairs (defaults to positions); ``seed`` drives
    the ``permuted`` masks — the same ``(scores, ids, policy, seed)``
    always releases the identical view, which is what makes mitigated
    outcomes bit-identical across transports.
    """
    values = [float(score) for score in scores]
    for value in values:
        if not math.isfinite(value):
            raise ValidationError(f"scores must be finite, got {value!r}")
    pair_ids = tuple(range(len(values))) if ids is None else tuple(ids)
    if len(pair_ids) != len(values):
        raise ValidationError(
            f"got {len(values)} scores but {len(pair_ids)} ids"
        )
    if len(set(pair_ids)) != len(pair_ids):
        raise ValidationError("pair ids must be distinct")
    pairs = list(zip(pair_ids, values))
    if policy.mode == RAW:
        entries: Tuple = tuple(pairs)
    elif policy.mode == THRESHOLD:
        entries = tuple(
            (pair_id, value <= policy.threshold) for pair_id, value in pairs
        )
    elif policy.mode == TOP_K:
        ranked = sorted(pairs, key=lambda pair: (pair[1], repr(pair[0])))
        entries = tuple(ranked[: policy.k])
    else:  # PERMUTED
        # A subnormal score times a mask near 1 rounds back to itself,
        # which would release the raw score: it is masked as 0.0.
        floored = [
            (pair_id, value if abs(value) >= sys.float_info.min else 0.0)
            for pair_id, value in pairs
        ]
        entries = tuple(
            sorted(_mask_for(seed, pair_id) * value for pair_id, value in floored)
        )
    return MitigatedScores(policy=policy, count=len(values), entries=entries)


@dataclass(frozen=True)
class MitigatedSimilarityOutcome:
    """A similarity run's outcome after output-policy enforcement.

    Unlike :class:`~repro.core.similarity.linear.PrivateSimilarityOutcome`,
    this type carries no ``t``/``t_squared`` fields: what the policy
    withholds is simply absent, so no caller — CLI, service, test — can
    read a raw score out of a non-``raw`` run by accident.
    """

    released: MitigatedScores
    reports: Dict[str, ProtocolReport] = field(default_factory=dict)

    @property
    def policy(self) -> OutputPolicy:
        return self.released.policy

    @property
    def t(self) -> float:
        """The raw metric — available under the ``raw`` policy only."""
        if self.policy.mode != RAW:
            raise SimilarityError(
                f"output policy {self.policy.label!r} withholds the raw "
                f"similarity score"
            )
        (_, score), = self.released.entries
        return score

    @property
    def total_bytes(self) -> int:
        return sum(report.total_bytes for report in self.reports.values())

    @property
    def total_rounds(self) -> int:
        return sum(report.rounds for report in self.reports.values())


def policy_seed(seed: Optional[int]) -> Optional[int]:
    """Derive the mitigation seed from a protocol seed.

    Both endpoints of a role-split run derive the same value, so the
    permuted-mode masks — the only seeded part of mitigation — agree
    across transports.  ``None`` stays ``None`` (fresh masks).
    """
    return None if seed is None else derive_seed(seed, "output-policy")


def mitigate_similarity_outcome(
    outcome,
    policy: OutputPolicy,
    seed: Optional[int] = None,
) -> MitigatedSimilarityOutcome:
    """Enforce ``policy`` on one protocol run's outcome.

    Also records the run's decomposable leakage score in the metrics
    registry (``repro_privacy_leakage_score{policy=...}``) so every
    release carries an auditable leakage budget.
    """
    released = apply_output_policy([outcome.t], policy, seed=seed)
    # Local import: the leakage scorer lives in core.privacy, which
    # imports this module for the policy vocabulary.
    from repro.core.privacy.leakage import record_leakage

    record_leakage(policy, released.count)
    return MitigatedSimilarityOutcome(
        released=released, reports=dict(outcome.reports)
    )
