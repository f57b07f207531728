"""Job and result types for the multi-core protocol engine.

A *job* is one unit of protocol work — a private classification of one
sample or a private similarity evaluation against another model — plus
the seed that makes its protocol randomness independent of scheduling.
Jobs cross the process boundary, so everything here is a plain frozen
dataclass of picklable scalars (models travel as the persistence-layer
JSON documents of :mod:`repro.ml.svm.persistence`).

Seeding discipline: each job carries ``seed = derive_seed(root, "job",
job_id)`` and draws all of its protocol randomness (masks, hiding
polynomials, OT keys) online from it, exactly as
:func:`~repro.core.classification.linear.classify_linear` does with
the same seed.  A job's whole outcome (label or similarity metric,
masked value, bytes) is therefore a pure function of the job id —
never of which worker runs it or in which order; the differential
suite pins this (see ``tests/engine/test_engine.py``).

The failure-injection fields exist for the retry/timeout tests: they
let a test deterministically make the first ``inject_failures``
attempts of a job raise, or stretch a job past the engine's per-job
timeout, exercising the same drop-then-resend semantics as
:class:`repro.net.faults.RetryingChannel` without real crashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.exceptions import ValidationError
from repro.math.polynomials import Number
from repro.obs.distributed import TraceContext

#: Job kinds understood by the workers.
CLASSIFICATION = "classification"
SIMILARITY = "similarity"


@dataclass(frozen=True)
class ClassificationJob:
    """Privately classify one sample against the engine's model."""

    job_id: int
    sample: Tuple[float, ...]
    seed: int
    inject_failures: int = 0
    inject_delay_s: float = 0.0
    trace: Optional[TraceContext] = None
    #: Caller-supplied label carried through to the result (and into
    #: the exhausted-retry error text), e.g. a linkage chunk/pair id.
    tag: Optional[str] = None

    kind = CLASSIFICATION

    def __post_init__(self) -> None:
        if not self.sample:
            raise ValidationError("classification job needs a non-empty sample")
        if self.inject_failures < 0:
            raise ValidationError("inject_failures must be non-negative")


@dataclass(frozen=True)
class SimilarityJob:
    """Privately evaluate similarity between the engine's model and
    another party's model (shipped as a persistence document)."""

    job_id: int
    model_document: dict
    seed: int
    inject_failures: int = 0
    inject_delay_s: float = 0.0
    trace: Optional[TraceContext] = None
    #: Caller-supplied label carried through to the result (and into
    #: the exhausted-retry error text), e.g. a linkage chunk/pair id.
    tag: Optional[str] = None
    #: Selects which of the engine's models is the left/Alice side;
    #: ``None`` uses the engine's default model.  Keys come from
    #: ``EngineSpec.model_documents`` (the multi-model collection).
    left_key: Optional[str] = None

    kind = SIMILARITY

    def __post_init__(self) -> None:
        if not isinstance(self.model_document, dict):
            raise ValidationError("similarity job needs a model document dict")
        if self.inject_failures < 0:
            raise ValidationError("inject_failures must be non-negative")


Job = Union[ClassificationJob, SimilarityJob]


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job, as reported back to the parent process.

    ``value`` is the receiver-side output: the masked decision value
    ``r_a·d(t̃)`` for classification (its sign is the label) or the
    similarity metric ``T`` for similarity jobs.  ``label`` is set for
    classification, ``t`` for similarity.  A failed job (after the
    engine's retry budget) has ``ok=False`` and carries the error text.
    """

    job_id: int
    kind: str
    ok: bool
    worker_id: int
    attempts: int
    value: Optional[Number] = None
    label: Optional[float] = None
    t: Optional[float] = None
    #: Exact squared metric ``T²`` for similarity jobs (a Fraction);
    #: what the linkage result store persists for bit-identical
    #: cross-backend comparison.
    t_squared: Optional[Number] = None
    total_bytes: int = 0
    duration_s: float = 0.0
    error: Optional[str] = None
    #: Echo of the job's ``tag``.
    tag: Optional[str] = None
