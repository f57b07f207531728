"""Worker-side execution for the multi-core protocol engine.

Each worker process owns the mutable, non-picklable protocol state:
the reconstructed model and decision function, its *own*
:class:`~repro.core.ompe.precompute.SenderPool` /
:class:`~repro.core.ompe.precompute.ReceiverPool` bundles (refilled
transparently when drained, mirroring
:class:`~repro.core.classification.session.PrivateClassificationSession`),
a seeded :class:`~repro.utils.rng.ReproRandom` stream forked per
``(engine seed, worker id)``, and an in-process
:class:`~repro.obs.MetricsRegistry` (plus an optional tracer) whose
snapshot travels back to the parent on drain.

The same :func:`execute_job` body also backs :func:`run_jobs_serial`,
the single-process reference path the differential tests compare the
engine against: identical job seeds flow through identical code, so
labels, similarity values, and masked-value signs cannot depend on
worker count or scheduling.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.classification.linear import _label_from_value
from repro.crypto.precompute import get_precompute_service
from repro.math import groups
from repro.core.ompe import OMPEConfig, OMPEFunction, execute_ompe
from repro.core.ompe.precompute import ReceiverPool, SenderPool, draw_pools
from repro.core.similarity import (
    MetricParams,
    SimilarityProfile,
    evaluate_similarity_private,
    evaluate_similarity_private_nonlinear,
    similarity_profile,
)
from repro.engine.jobs import (
    CLASSIFICATION,
    SIMILARITY,
    ClassificationJob,
    Job,
    JobResult,
    SimilarityJob,
)
from repro.exceptions import EngineError, EngineTimeout, ReproError, ValidationError
from repro.ml.svm.model import SVMModel
from repro.obs.distributed import adopt_context
from repro.ml.svm.persistence import model_from_dict, model_to_dict
from repro.utils.rng import ReproRandom


@dataclass(frozen=True)
class EngineSpec:
    """Everything a worker needs, in picklable form.

    ``model_document`` is the persistence-layer JSON dict (bit-exact
    float round-trip), so workers reconstruct the model identically
    under both ``fork`` and ``spawn`` start methods.
    """

    model_document: dict
    config: OMPEConfig
    seed: int
    pool_size: int = 16
    timeout_s: Optional[float] = None
    trace: bool = False
    #: Optional keyed collection of additional left-side models for
    #: similarity jobs (``SimilarityJob.left_key`` selects one); the
    #: linkage pipeline ships a whole collection this way so one worker
    #: fleet serves every left record.  Workers reconstruct lazily and
    #: cache per key.
    model_documents: Optional[dict] = None
    #: Similarity metric parameters shared by every similarity job
    #: (``None`` means library defaults).
    metric_params: Optional[MetricParams] = None
    #: Serialized warm precompute material (see
    #: :meth:`repro.crypto.precompute.PrecomputeService.export_state`).
    #: Under ``fork`` the worker inherits the warm caches anyway and
    #: installing is a no-op; under ``spawn`` this is what prevents a
    #: silent per-worker generator-table rebuild.
    warm_state: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValidationError(
                f"pool_size must be at least 1, got {self.pool_size}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValidationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )


def make_spec(
    model: SVMModel,
    config: Optional[OMPEConfig] = None,
    seed: int = 0,
    pool_size: int = 16,
    timeout_s: Optional[float] = None,
    trace: bool = False,
    models: Optional[dict] = None,
    params: Optional[MetricParams] = None,
) -> EngineSpec:
    """Build an :class:`EngineSpec` from an in-memory model.

    ``models`` optionally maps string keys to additional
    :class:`SVMModel` instances served as alternative left sides for
    similarity jobs.
    """
    documents = None
    if models is not None:
        for key in models:
            if not isinstance(key, str) or not key:
                raise ValidationError(
                    f"model keys must be non-empty strings, got {key!r}"
                )
        documents = {key: model_to_dict(m) for key, m in models.items()}
    return EngineSpec(
        model_document=model_to_dict(model),
        config=config or OMPEConfig(),
        seed=seed,
        pool_size=pool_size,
        timeout_s=timeout_s,
        trace=trace,
        model_documents=documents,
        metric_params=params,
    )


def _decision_function(model: SVMModel) -> OMPEFunction:
    """The model's decision function as an OMPE sender function
    (same shapes as ``PrivateClassificationSession``)."""
    if model.is_linear():
        return OMPEFunction.from_polynomial(model.linear_decision_polynomial())
    name, params = model.kernel_spec
    if name not in ("poly", "polynomial"):
        raise ValidationError(
            "the engine serves linear and polynomial-kernel models; "
            "polynomialize RBF/sigmoid models first"
        )
    return OMPEFunction.from_callable(
        arity=model.dimension,
        total_degree=int(params.get("degree", 3)),
        evaluate=model.exact_decision_value,
    )


@dataclass
class WorkerState:
    """Per-worker protocol state (model, pools, seeded streams)."""

    worker_id: int
    spec: EngineSpec
    model: SVMModel
    function: OMPEFunction
    root: ReproRandom
    sender_pool: Optional[SenderPool] = None
    receiver_pool: Optional[ReceiverPool] = None
    refills: int = 0
    jobs_done: int = 0
    #: Lazily reconstructed keyed left models (``spec.model_documents``).
    extra_models: Dict[str, SVMModel] = field(default_factory=dict)
    #: Similarity profiles of the left models, keyed like
    #: :meth:`model_for`; each is derived on its model's first job.
    profiles: Dict[Optional[str], SimilarityProfile] = field(default_factory=dict)

    @classmethod
    def from_spec(cls, spec: EngineSpec, worker_id: int) -> "WorkerState":
        model = model_from_dict(spec.model_document)
        return cls(
            worker_id=worker_id,
            spec=spec,
            model=model,
            function=_decision_function(model),
            root=ReproRandom(spec.seed).fork("worker", worker_id),
        )

    def model_for(self, left_key: Optional[str]) -> SVMModel:
        """The left-side model a similarity job asked for."""
        if left_key is None:
            return self.model
        cached = self.extra_models.get(left_key)
        if cached is not None:
            return cached
        documents = self.spec.model_documents or {}
        if left_key not in documents:
            raise EngineError(
                f"unknown left model key {left_key!r}; the engine spec "
                f"carries {sorted(documents)!r}"
            )
        model = model_from_dict(documents[left_key])
        self.extra_models[left_key] = model
        return model

    def profile_for(self, left_key: Optional[str]) -> SimilarityProfile:
        """The similarity profile of the left-side model a job asked for."""
        profile = self.profiles.get(left_key)
        if profile is None:
            profile = similarity_profile(
                self.model_for(left_key),
                self.spec.metric_params or MetricParams(),
                party="alice",
            )
            self.profiles[left_key] = profile
        return profile

    # -- precompute pools --------------------------------------------------

    def _refill_pools(self) -> None:
        """Regenerate both pools from the worker's seeded stream.

        Raw pools raise :class:`~repro.exceptions.OMPEError` when
        popped empty (pinned in ``tests/core/test_precompute.py``); the
        worker — like ``PrivateClassificationSession`` — refills
        transparently instead, so a long drain never trips exhaustion.
        """
        self.refills += 1
        self.sender_pool, self.receiver_pool = draw_pools(
            self.spec.config,
            self.function,
            self.spec.pool_size,
            self.root.fork("pools", self.refills),
        )
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_engine_refills_total",
                "Precompute pool refills across engine workers",
            ).inc()

    def _pools(self) -> Tuple[SenderPool, ReceiverPool]:
        if (
            self.sender_pool is None
            or self.receiver_pool is None
            or min(len(self.sender_pool), len(self.receiver_pool)) == 0
        ):
            self._refill_pools()
        return self.sender_pool, self.receiver_pool


@contextmanager
def _deadline(timeout_s: Optional[float]):
    """Raise :class:`EngineTimeout` when the body outlives ``timeout_s``.

    Implemented with ``SIGALRM``/``setitimer`` — each worker runs jobs
    on its main thread, so the alarm interrupts exactly the job body.
    On platforms without ``SIGALRM`` the deadline is not enforced.
    """
    if timeout_s is None or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_alarm(signum, frame):
        raise EngineTimeout(f"job exceeded its {timeout_s:g}s budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_job(state: WorkerState, job: Job, attempt: int) -> JobResult:
    """Run one job to completion (or typed failure) inside this process.

    When the job carries a :class:`~repro.obs.distributed.TraceContext`
    (attached by the engine at submission), the per-job span adopts it,
    so worker-side protocol spans stitch under the submitting span even
    across the process boundary.  Every attempt gets its own span —
    resubmissions appear as error-annotated siblings, not orphans.
    """
    start = time.perf_counter()
    span = obs.get_tracer().span(
        "engine.job",
        party="engine",
        phase="engine",
        job=job.job_id,
        kind=getattr(job, "kind", "unknown"),
        worker=state.worker_id,
        attempt=attempt,
    )
    adopt_context(span, getattr(job, "trace", None))
    with span:
        try:
            with _deadline(state.spec.timeout_s):
                if attempt <= getattr(job, "inject_failures", 0):
                    raise EngineError(
                        f"injected failure on attempt {attempt} of job {job.job_id}"
                    )
                if getattr(job, "inject_delay_s", 0.0) > 0.0:
                    time.sleep(job.inject_delay_s)
                if isinstance(job, ClassificationJob):
                    result = _run_classification(state, job, attempt)
                elif isinstance(job, SimilarityJob):
                    result = _run_similarity(state, job, attempt)
                else:
                    raise EngineError(f"unknown job type {type(job).__name__}")
        except ReproError as error:
            error_text = f"{type(error).__name__}: {error}"
            if span.enabled:
                span.set(error=error_text)
            return JobResult(
                job_id=job.job_id,
                kind=getattr(job, "kind", "unknown"),
                ok=False,
                worker_id=state.worker_id,
                attempts=attempt,
                duration_s=time.perf_counter() - start,
                error=error_text,
                tag=getattr(job, "tag", None),
            )
        state.jobs_done += 1
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_engine_jobs_total", "Jobs completed by engine workers"
            ).inc(kind=result.kind)
        return result


def _run_classification(
    state: WorkerState, job: ClassificationJob, attempt: int
) -> JobResult:
    start = time.perf_counter()
    sender_pool, receiver_pool = state._pools()
    outcome = execute_ompe(
        state.function,
        tuple(job.sample),
        config=state.spec.config,
        seed=job.seed,
        amplify=True,
        offset=False,
        sender_pool=sender_pool,
        receiver_pool=receiver_pool,
    )
    return JobResult(
        job_id=job.job_id,
        kind=CLASSIFICATION,
        ok=True,
        worker_id=state.worker_id,
        attempts=attempt,
        value=outcome.value,
        label=_label_from_value(outcome.value),
        total_bytes=outcome.report.total_bytes,
        duration_s=time.perf_counter() - start,
        tag=job.tag,
    )


def _run_similarity(
    state: WorkerState, job: SimilarityJob, attempt: int
) -> JobResult:
    start = time.perf_counter()
    left = state.profile_for(job.left_key)
    other = model_from_dict(job.model_document)
    params = state.spec.metric_params or MetricParams()
    if left.is_linear() and other.is_linear():
        outcome = evaluate_similarity_private(
            left,
            other,
            params,
            config=state.spec.config,
            seed=job.seed,
        )
    else:
        outcome = evaluate_similarity_private_nonlinear(
            left,
            other,
            params,
            config=state.spec.config,
            seed=job.seed,
        )
    return JobResult(
        job_id=job.job_id,
        kind=SIMILARITY,
        ok=True,
        worker_id=state.worker_id,
        attempts=attempt,
        value=outcome.t,
        t=float(outcome.t),
        t_squared=outcome.t_squared,
        total_bytes=outcome.total_bytes,
        duration_s=time.perf_counter() - start,
        tag=job.tag,
    )


# -- process entry point ---------------------------------------------------

#: Queue sentinel asking a worker to snapshot its observability state
#: and exit.
DRAIN = None


def worker_main(worker_id: int, spec: EngineSpec, job_queue, result_queue) -> None:
    """Worker process loop: pop ``(job, attempt)``, push results.

    Runs with a private metrics registry (and tracer when
    ``spec.trace``); on the drain sentinel it pushes a final
    ``("drain", worker_id, jobs_done, metrics_snapshot, trace_jsonl)``
    record and exits, letting the parent merge per-worker observability
    into its registry.
    """
    registry = obs.MetricsRegistry()
    obs.set_metrics(registry)
    tracer = None
    if spec.trace:
        tracer = obs.Tracer()
        obs.set_tracer(tracer)
    # Builds charged to this worker must be the worker's own: a fork
    # inherits the parent's (warm) table cache *and* its counters, so
    # zero the counters before installing/serving.  After a warm start
    # the regression suite asserts the per-worker miss count stays 0.
    groups.reset_fixed_base_table_stats()
    if spec.warm_state is not None:
        get_precompute_service().install_state(spec.warm_state)
    try:
        state = WorkerState.from_spec(spec, worker_id)
    except ReproError as error:
        result_queue.put(("fatal", worker_id, f"{type(error).__name__}: {error}"))
        return
    while True:
        item = job_queue.get()
        if item is DRAIN:
            break
        job, attempt = item
        result = execute_job(state, job, attempt)
        result_queue.put(("result", result, job))
    registry.gauge(
        "repro_engine_pool_remaining",
        "Unused precompute bundles per worker at drain",
    ).set(
        min(len(state.sender_pool), len(state.receiver_pool))
        if state.sender_pool is not None and state.receiver_pool is not None
        else 0,
        worker=str(worker_id),
    )
    get_precompute_service().export_metrics(scope=f"worker-{worker_id}")
    result_queue.put(
        (
            "drain",
            worker_id,
            state.jobs_done,
            registry.snapshot(),
            tracer.to_jsonl() if tracer is not None else None,
        )
    )


def run_jobs_serial(
    spec: EngineSpec, jobs: Sequence[Job]
) -> Tuple[List[JobResult], dict]:
    """Reference path: execute ``jobs`` in order in this process.

    Uses the identical :func:`execute_job` body and per-job seeds as
    the worker pool, with one worker state (``worker_id=0``).  Returns
    the results (in submission order) and the metrics snapshot, for
    differential comparison against a parallel drain.
    """
    registry = obs.MetricsRegistry()
    previous = obs.get_metrics()
    obs.set_metrics(registry)
    try:
        state = WorkerState.from_spec(spec, worker_id=0)
        results = [execute_job(state, job, attempt=1) for job in jobs]
    finally:
        obs.set_metrics(previous)
    return results, registry.snapshot()
