"""Deterministic chunking for bulk N×M similarity (record linkage).

A :class:`LinkageJobSpec` names two keyed model collections — ``left``
(the trainer/Alice side, e.g. a hosted population) and ``right`` (the
querying/Bob side) — and fixes every parameter the N×M similarity
matrix depends on.  From the spec alone, independent of process,
backend, or restart, the following are all pure functions of the keyed
inputs:

* the **chunk plan** (:meth:`LinkageJobSpec.chunks`): left and right
  keys in sorted order, one chunk per ``(left key, contiguous right
  block)`` of at most ``chunk_pairs`` pairs, with a chunk id hashed
  from the member keys — stable ids are what let a resumed run skip
  completed chunks;
* the **per-pair protocol seed** (:meth:`LinkageJobSpec.pair_seed`):
  ``derive_seed(spec seed, "linkage", left key, right key)``, a pure
  function of record keys (never of scheduling or transport), so the
  serial backend, the TCP backend, and a resumed run all produce
  bit-identical outcomes for every pair;
* the **hide seed** of each right record
  (:meth:`LinkageJobSpec.hide_seed`): the serial and TCP backends hide
  a right model's OMPE #1/#2 input once per job from it, and every pair
  of that model reuses the hidden input;
* the **spec fingerprint** (:meth:`LinkageJobSpec.fingerprint`): a
  digest over the model documents and every scoring parameter, written
  into the result store's manifest so a resume against a store built
  by a *different* job is refused loudly.

Filtering semantics follow the T² metric's orientation: ``t`` is a
distance (smaller = more similar — :mod:`repro.core.similarity.matching`
takes the argmin), so ``threshold`` keeps pairs with ``t <= threshold``
and ``top_k`` keeps the ``k`` *smallest*-``t`` pairs per left record.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.core.ompe import OMPEConfig
from repro.core.similarity.metric import MetricParams
from repro.exceptions import ValidationError
from repro.ml.svm.model import SVMModel
from repro.ml.svm.persistence import model_to_dict
from repro.utils.rng import derive_seed


@dataclass(frozen=True)
class LinkageChunk:
    """One schedulable unit: one left record × a block of right records."""

    chunk_id: str
    left_key: str
    right_keys: Tuple[str, ...]

    @property
    def pairs(self) -> int:
        return len(self.right_keys)


def _chunk_id(left_key: str, right_keys: Tuple[str, ...]) -> str:
    """A stable, filesystem-safe id hashed from the member keys."""
    material = "\x1f".join((left_key,) + right_keys)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _validate_collection(name: str, collection: Mapping[str, SVMModel]) -> Dict[str, SVMModel]:
    if not collection:
        raise ValidationError(f"the {name} collection must not be empty")
    validated: Dict[str, SVMModel] = {}
    for key, model in collection.items():
        if not isinstance(key, str) or not key:
            raise ValidationError(
                f"{name} keys must be non-empty strings, got {key!r}"
            )
        if not isinstance(model, SVMModel):
            raise ValidationError(
                f"{name}[{key!r}] must be an SVMModel, got {model!r}"
            )
        validated[key] = model
    return validated


class LinkageJobSpec:
    """An N×M bulk similarity job over two keyed model collections."""

    def __init__(
        self,
        left: Mapping[str, SVMModel],
        right: Mapping[str, SVMModel],
        chunk_pairs: int = 128,
        threshold: Optional[float] = None,
        top_k: Optional[int] = None,
        seed: int = 0,
        params: Optional[MetricParams] = None,
        config: Optional[OMPEConfig] = None,
    ) -> None:
        if not _is_int(chunk_pairs) or chunk_pairs < 1:
            raise ValidationError(
                f"chunk_pairs must be an integer of at least 1, "
                f"got {chunk_pairs!r}"
            )
        # ``not threshold >= 0`` also refuses NaN, which compares false
        # either way and would otherwise keep no pair at all.
        if threshold is not None and (
            isinstance(threshold, bool)
            or not isinstance(threshold, numbers.Real)
            or not threshold >= 0
        ):
            raise ValidationError(
                f"threshold must be a non-negative number, got {threshold!r}"
            )
        if top_k is not None and (not _is_int(top_k) or top_k < 1):
            raise ValidationError(
                f"top_k must be an integer of at least 1, got {top_k!r}"
            )
        self.left = _validate_collection("left", left)
        self.right = _validate_collection("right", right)
        linear = {m.is_linear() for m in self.left.values()}
        linear |= {m.is_linear() for m in self.right.values()}
        if len(linear) != 1:
            raise ValidationError(
                "all linked models must be of one family (all linear or "
                "all kernel): the similarity protocol compares like with like"
            )
        self.chunk_pairs = chunk_pairs
        self.threshold = threshold
        self.top_k = top_k
        self.seed = seed
        self.params = params or MetricParams()
        self.config = config or OMPEConfig()
        self.left_keys: Tuple[str, ...] = tuple(sorted(self.left))
        self.right_keys: Tuple[str, ...] = tuple(sorted(self.right))

    # -- plan ---------------------------------------------------------------

    @property
    def total_pairs(self) -> int:
        return len(self.left) * len(self.right)

    def chunks(self) -> Tuple[LinkageChunk, ...]:
        """The deterministic chunk plan, in execution order."""
        plan = []
        for left_key in self.left_keys:
            for start in range(0, len(self.right_keys), self.chunk_pairs):
                block = self.right_keys[start : start + self.chunk_pairs]
                plan.append(
                    LinkageChunk(
                        chunk_id=_chunk_id(left_key, block),
                        left_key=left_key,
                        right_keys=block,
                    )
                )
        return tuple(plan)

    def pair_seed(self, left_key: str, right_key: str) -> int:
        """The protocol seed for one pair — a pure function of keys."""
        return derive_seed(self.seed, "linkage", left_key, right_key)

    def hide_seed(self, right_key: str) -> int:
        """The seed of the draw that hides one right model's OMPE #1/#2
        input for every pair of the job.  Bob's alone: it never crosses
        the wire, and T² does not depend on it."""
        return derive_seed(self.seed, "linkage-hide", right_key)

    # -- identity -----------------------------------------------------------

    def fingerprint(self) -> str:
        """A digest of everything the scored matrix depends on.

        Two specs share a fingerprint iff they produce byte-identical
        result stores, so the store manifest records it and a resume
        under any other spec is refused.
        """
        group = self.config.resolved_group()
        document = {
            "version": 1,
            "left": {k: model_to_dict(m) for k, m in self.left.items()},
            "right": {k: model_to_dict(m) for k, m in self.right.items()},
            "chunk_pairs": self.chunk_pairs,
            "threshold": self.threshold,
            "top_k": self.top_k,
            "seed": self.seed,
            "params": {
                "l0": self.params.l0,
                "sin_theta0": self.params.sin_theta0,
                "lower": self.params.lower,
                "upper": self.params.upper,
                "resolution": self.params.resolution,
            },
            "config": {
                "security_degree": self.config.security_degree,
                "cover_expansion": self.config.cover_expansion,
                # Every run is exact; the key stays so that stores
                # written when the config had an ``exact`` flag resume.
                "exact": True,
                "coefficient_bound": self.config.coefficient_bound,
                "node_bound": self.config.node_bound,
                "group": [group.p, group.q, group.g],
            },
        }
        canonical = json.dumps(
            document, sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
