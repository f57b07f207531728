"""Multi-process protocol engine.

:class:`ProtocolEngine` shards a stream of classification/similarity
jobs across a pool of worker processes.  Design points, each pinned by
``tests/engine/``:

* **Backpressure** — the submission queue is bounded
  (``queue_capacity``); :meth:`submit` blocks once the in-flight window
  is full, so an unbounded producer cannot balloon memory.
* **Sharding with per-job seeds** — a job draws all of its protocol
  randomness online from ``derive_seed(seed, "job", job_id)``, so its
  whole outcome (label or similarity value, masked value, bytes) is
  the same at any worker count and in any schedule.
* **Timeout/retry policy** — mirrors :mod:`repro.net.faults` semantics:
  a failed or timed-out attempt is resubmitted up to ``max_retries``
  times (the :class:`~repro.net.faults.RetryingChannel` resend path,
  counted in ``repro_engine_retries_total``), then surfaces as a loud
  ``ok=False`` result (the library's fail-loud contract) rather than a
  silent drop.
* **Observability merge** — on :meth:`drain` every worker ships its
  metrics snapshot (and optional trace JSONL) back; the parent merges
  them with :meth:`~repro.obs.MetricsRegistry.merge_snapshot` so e.g.
  ``repro_ompe_runs_total`` equals the serial run's count exactly.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.engine.jobs import ClassificationJob, Job, JobResult, SimilarityJob
from repro.engine.worker import DRAIN, make_spec, worker_main
from repro.exceptions import EngineError, ValidationError
from repro.ml.svm.model import SVMModel
from repro.ml.svm.persistence import model_to_dict
from repro.obs.distributed import current_trace_context
from repro.obs.metrics import MetricsRegistry
from repro.utils.rng import derive_seed


@dataclass(frozen=True)
class EnginePolicy:
    """Per-job failure policy (timeout + retry budget).

    ``max_retries`` counts *resends after the first attempt*, matching
    :class:`repro.net.faults.RetryingChannel`; ``timeout_s`` is
    enforced inside the worker via an interval timer.
    """

    timeout_s: Optional[float] = None
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValidationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )


@dataclass
class EngineReport:
    """Everything a drain returns.

    ``results`` is sorted by job id (scheduling-independent order);
    ``metrics`` is the parent registry holding the merged per-worker
    snapshots plus the engine's own counters.
    """

    results: Tuple[JobResult, ...]
    metrics: MetricsRegistry
    elapsed_s: float
    jobs_per_second: float
    worker_jobs: Dict[int, int] = field(default_factory=dict)
    worker_traces: Dict[int, str] = field(default_factory=dict)

    @property
    def failed(self) -> Tuple[JobResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    def summary(self) -> Dict[str, object]:
        return {
            "jobs": len(self.results),
            "failed": len(self.failed),
            "elapsed_s": self.elapsed_s,
            "jobs_per_second": self.jobs_per_second,
            "worker_jobs": dict(self.worker_jobs),
        }


class ProtocolEngine:
    """A multi-core job engine over one trainer model.

    Usage::

        with ProtocolEngine(model, config, workers=4, seed=7) as engine:
            for sample in samples:
                engine.submit_classification(sample)   # blocks when full
            report = engine.drain()

    The engine is a context manager; exiting terminates the workers
    even on error paths.
    """

    #: How long (seconds) the parent waits on the result queue before
    #: declaring the worker fleet dead.  Generous: covers one worst-case
    #: job plus scheduling noise.
    _DRAIN_PATIENCE_S = 120.0

    def __init__(
        self,
        model: Optional[SVMModel] = None,
        config=None,
        workers: int = 2,
        queue_capacity: int = 64,
        policy: Optional[EnginePolicy] = None,
        seed: int = 0,
        trace: bool = False,
        models: Optional[Mapping[str, SVMModel]] = None,
        params=None,
    ) -> None:
        if workers < 1:
            raise ValidationError(f"workers must be at least 1, got {workers}")
        if queue_capacity < 1:
            raise ValidationError(
                f"queue_capacity must be at least 1, got {queue_capacity}"
            )
        if model is None:
            if not models:
                raise ValidationError(
                    "ProtocolEngine needs a model (or a keyed models "
                    "collection)"
                )
            # Deterministic default: the first key in sorted order.
            model = models[sorted(models)[0]]
        self.policy = policy or EnginePolicy()
        self.workers = workers
        self.queue_capacity = queue_capacity
        self.seed = seed
        self.spec = make_spec(
            model,
            config=config,
            timeout_s=self.policy.timeout_s,
            trace=trace,
            models=dict(models) if models is not None else None,
            params=params,
        )
        self._started = False
        self._closed = False
        self._processes: List = []
        self._next_job_id = 0
        self._in_flight = 0
        self._retries = 0
        self._completed: List[JobResult] = []
        #: Pristine parent-side copies of in-flight jobs, keyed by id.
        #: Retries resubmit from here — never from the copy a worker
        #: echoed back — so a retried job reruns with exactly its
        #: original seed and payload (pinned by the resubmission-
        #: determinism regression tests).
        self._pending: Dict[int, Job] = {}
        self._started_at: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ProtocolEngine":
        """Spawn the worker fleet (idempotent)."""
        if self._started:
            return self
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context("spawn")
        self._job_queue = ctx.Queue(maxsize=self.queue_capacity)
        self._result_queue = ctx.Queue()
        self._processes = [
            ctx.Process(
                target=worker_main,
                args=(worker_id, self.spec, self._job_queue, self._result_queue),
                daemon=True,
            )
            for worker_id in range(self.workers)
        ]
        for process in self._processes:
            process.start()
        self._started = True
        self._started_at = time.perf_counter()
        return self

    def __enter__(self) -> "ProtocolEngine":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Terminate workers unconditionally (safe after drain)."""
        if self._closed:
            return
        self._closed = True
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=5.0)

    # -- submission --------------------------------------------------------

    def _require_started(self) -> None:
        if not self._started or self._closed:
            raise EngineError("engine is not running (start() it first)")

    def submit(self, job: Job) -> int:
        """Enqueue one job; blocks while the bounded queue is full."""
        self._require_started()
        self._pending[job.job_id] = job
        self._job_queue.put((job, 1))
        self._in_flight += 1
        return job.job_id

    def submit_classification(self, sample: Sequence[float], **inject) -> int:
        """Build and enqueue a classification job with a derived seed.

        When tracing is enabled and a span is open, the job envelope
        carries a trace context, so the worker-side ``engine.job`` span
        stitches under the submitting span across the process boundary.
        """
        job_id = self._next_job_id
        self._next_job_id += 1
        inject.setdefault("trace", current_trace_context())
        inject.setdefault("seed", derive_seed(self.seed, "job", job_id))
        return self.submit(
            ClassificationJob(
                job_id=job_id,
                sample=tuple(float(v) for v in sample),
                **inject,
            )
        )

    def submit_similarity(self, other_model: SVMModel, **inject) -> int:
        """Build and enqueue a similarity job.

        The seed defaults to ``derive_seed(engine seed, "job", job_id)``
        but callers may pin ``seed=`` explicitly — the linkage pipeline
        does, deriving per-pair seeds from stable record keys so a
        resumed run (whose job ids differ from the clean run's)
        reproduces bit-identical outcomes.  ``left_key=`` selects one of
        the engine's keyed models as the left side; ``tag=`` labels the
        job in results and retry-exhausted errors.
        """
        job_id = self._next_job_id
        self._next_job_id += 1
        inject.setdefault("trace", current_trace_context())
        inject.setdefault("seed", derive_seed(self.seed, "job", job_id))
        return self.submit(
            SimilarityJob(
                job_id=job_id,
                model_document=model_to_dict(other_model),
                **inject,
            )
        )

    # -- drain -------------------------------------------------------------

    def _collect(self, patience_s: float):
        """One record from the result queue, with liveness checks."""
        deadline = time.monotonic() + patience_s
        while True:
            timeout = max(0.1, deadline - time.monotonic())
            try:
                return self._result_queue.get(timeout=timeout)
            except queue_module.Empty:
                if time.monotonic() >= deadline:
                    raise EngineError(
                        f"no worker produced a result within {patience_s:g}s"
                    ) from None
                if not any(p.is_alive() for p in self._processes):
                    raise EngineError(
                        "all engine workers exited with work in flight"
                    ) from None

    def _patience(self) -> float:
        patience = self._DRAIN_PATIENCE_S
        if self.policy.timeout_s:
            patience = max(patience, 10.0 * self.policy.timeout_s)
        return patience

    def _settle(self) -> None:
        """Process results until nothing is in flight (retrying failures).

        A failed attempt inside the retry budget is resubmitted from the
        parent's *pristine* copy of the job (``self._pending``), not the
        copy the worker echoed back — the seed and payload of a retried
        job are therefore exactly the submitted ones.  A job that
        exhausts its budget surfaces with an error message prefixed by
        its job id (and tag, when set) so batch callers can attribute
        the failure to a chunk/pair.
        """
        patience = self._patience()
        while self._in_flight:
            record = self._collect(patience)
            kind = record[0]
            if kind == "fatal":
                _, worker_id, message = record
                raise EngineError(f"worker {worker_id} failed to start: {message}")
            if kind != "result":  # pragma: no cover - defensive
                raise EngineError(f"unexpected worker record {kind!r}")
            _, result, _echoed = record
            if not result.ok and result.attempts <= self.policy.max_retries:
                self._retries += 1
                pristine = self._pending[result.job_id]
                self._job_queue.put((pristine, result.attempts + 1))
                continue
            job = self._pending.pop(result.job_id, None)
            if not result.ok:
                tag = result.tag or getattr(job, "tag", None)
                label = f"job {result.job_id}" + (f" [{tag}]" if tag else "")
                result = replace(
                    result,
                    error=(
                        f"{label} failed after {result.attempts} "
                        f"attempts: {result.error}"
                    ),
                    tag=tag,
                )
            self._in_flight -= 1
            self._completed.append(result)

    def sync(self) -> Tuple[JobResult, ...]:
        """Wait for every in-flight job; keep the fleet running.

        Returns the results completed since the previous ``sync()`` (or
        engine start), sorted by job id, and clears the internal
        completion buffer.  Unlike :meth:`drain` the workers stay alive,
        so a caller can interleave submission waves — the linkage
        pipeline settles one chunk at a time this way.  Worker metrics
        are merged only by the final :meth:`drain`.
        """
        self._require_started()
        self._settle()
        results = tuple(sorted(self._completed, key=lambda r: r.job_id))
        self._completed = []
        return results

    def drain(self) -> EngineReport:
        """Wait for every submitted job, merge observability, report.

        Retries failed attempts (``EnginePolicy.max_retries``), then
        sends the drain sentinel to each worker and folds the
        per-worker metrics/trace snapshots into the parent registry.
        ``results`` covers jobs completed since the last :meth:`sync`.
        """
        self._require_started()
        patience = self._patience()
        self._settle()

        for _ in self._processes:
            self._job_queue.put(DRAIN)

        merged = MetricsRegistry()
        worker_jobs: Dict[int, int] = {}
        worker_traces: Dict[int, str] = {}
        drained = 0
        while drained < len(self._processes):
            record = self._collect(patience)
            if record[0] == "fatal":
                _, worker_id, message = record
                raise EngineError(f"worker {worker_id} died: {message}")
            if record[0] != "drain":  # pragma: no cover - defensive
                raise EngineError(f"unexpected worker record {record[0]!r}")
            _, worker_id, jobs_done, snapshot, trace_jsonl = record
            worker_jobs[worker_id] = jobs_done
            merged.merge_snapshot(snapshot)
            if trace_jsonl:
                worker_traces[worker_id] = trace_jsonl
            drained += 1
        for process in self._processes:
            process.join(timeout=5.0)

        elapsed = time.perf_counter() - (self._started_at or time.perf_counter())
        results = tuple(sorted(self._completed, key=lambda r: r.job_id))
        if self._retries:
            merged.counter(
                "repro_engine_retries_total",
                "Job resends after failed attempts (RetryingChannel semantics)",
            ).inc(self._retries)
        failures = sum(1 for r in results if not r.ok)
        if failures:
            merged.counter(
                "repro_engine_failures_total",
                "Jobs failed after the retry budget",
            ).inc(failures)
        merged.gauge(
            "repro_engine_workers", "Worker processes in the engine fleet"
        ).set(len(self._processes))

        active = obs.get_metrics()
        if active.enabled and active is not merged:
            active.merge_snapshot(merged.snapshot())

        self._closed = True
        jobs_per_second = len(results) / elapsed if elapsed > 0 else 0.0
        return EngineReport(
            results=results,
            metrics=merged,
            elapsed_s=elapsed,
            jobs_per_second=jobs_per_second,
            worker_jobs=worker_jobs,
            worker_traces=worker_traces,
        )


def run_engine(
    model: SVMModel,
    samples: Sequence[Sequence[float]],
    config=None,
    workers: int = 2,
    queue_capacity: int = 64,
    policy: Optional[EnginePolicy] = None,
    seed: int = 0,
    trace: bool = False,
) -> EngineReport:
    """One-shot convenience: classify ``samples`` through an engine."""
    with ProtocolEngine(
        model,
        config=config,
        workers=workers,
        queue_capacity=queue_capacity,
        policy=policy,
        seed=seed,
        trace=trace,
    ) as engine:
        for sample in samples:
            engine.submit_classification(sample)
        return engine.drain()
