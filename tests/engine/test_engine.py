"""Tests for the multi-core protocol engine (:mod:`repro.engine`).

The differential backbone: every parallel drain is compared against
:func:`repro.engine.run_jobs_serial`, which runs the *same*
``execute_job`` body with the same per-job seeds in one process.
Labels, similarity metrics, and merged protocol counters must be
identical regardless of worker count or scheduling; only the masked
values (which depend on worker-local precompute bundles) may differ.
"""

from __future__ import annotations

import queue
import time

import pytest

from repro import obs
from repro.core.similarity import MetricParams, evaluate_similarity_private
from repro.engine import (
    EnginePolicy,
    EngineSpec,
    ProtocolEngine,
    make_spec,
    run_engine,
    run_jobs_serial,
)
from repro.engine.jobs import ClassificationJob, SimilarityJob
from repro.engine.worker import DRAIN, WorkerState, execute_job, worker_main
from repro.exceptions import EngineError, ValidationError
from repro.ml.svm.model import make_linear_model
from repro.ml.svm.persistence import model_to_dict
from repro.utils.rng import derive_seed

SEED = 20160627


@pytest.fixture(scope="module")
def model():
    return make_linear_model([1.5, -2.0, 0.5], bias=0.25)


@pytest.fixture(scope="module")
def other_model():
    return make_linear_model([1.4, -1.8, 0.6], bias=0.2)


@pytest.fixture(scope="module")
def samples():
    return [
        [0.3 * i - 1.0, 0.1 * i, 0.05 * i * i - 0.4] for i in range(8)
    ]


@pytest.fixture(scope="module")
def spec(model, fast_config):
    return make_spec(model, config=fast_config, seed=SEED, pool_size=4)


def counter_total(snapshot, name):
    return sum(
        entry["value"] for entry in snapshot.get(name, {}).get("series", [])
    )


def classification_jobs(samples):
    return [
        ClassificationJob(
            job_id=index,
            sample=tuple(float(value) for value in sample),
            seed=derive_seed(SEED, "job", index),
        )
        for index, sample in enumerate(samples)
    ]


class TestJobs:
    def test_classification_job_validation(self):
        with pytest.raises(ValidationError):
            ClassificationJob(job_id=0, sample=(), seed=1)
        with pytest.raises(ValidationError):
            ClassificationJob(job_id=0, sample=(1.0,), seed=1, inject_failures=-1)

    def test_similarity_job_validation(self):
        with pytest.raises(ValidationError):
            SimilarityJob(job_id=0, model_document="not-a-dict", seed=1)

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            EnginePolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            EnginePolicy(timeout_s=0.0)

    def test_spec_validation(self, model, fast_config):
        with pytest.raises(ValidationError):
            EngineSpec(
                model_document=model_to_dict(model),
                config=fast_config,
                seed=0,
                pool_size=0,
            )

    def test_engine_validation(self, model, fast_config):
        with pytest.raises(ValidationError):
            ProtocolEngine(model, config=fast_config, workers=0)
        with pytest.raises(ValidationError):
            ProtocolEngine(model, config=fast_config, queue_capacity=0)


class TestSerialReference:
    def test_labels_match_plain_decision(self, model, spec, samples):
        results, _ = run_jobs_serial(spec, classification_jobs(samples))
        for result, sample in zip(results, samples):
            decision = model.exact_decision_value([float(v) for v in sample])
            expected = 1.0 if decision >= 0 else -1.0
            assert result.ok
            assert result.label == expected

    def test_snapshot_counts_runs(self, spec, samples):
        _, snapshot = run_jobs_serial(spec, classification_jobs(samples))
        assert counter_total(snapshot, "repro_ompe_runs_total") == len(samples)


class TestEngineDifferential:
    """Engine results are order-independent: sorted-by-job-id equality
    with the serial path at every worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_labels_match_serial(
        self, model, fast_config, spec, samples, workers
    ):
        serial, serial_snapshot = run_jobs_serial(
            spec, classification_jobs(samples)
        )
        report = run_engine(
            model,
            samples,
            config=fast_config,
            workers=workers,
            pool_size=4,
            seed=SEED,
        )
        assert not report.failed
        assert [r.job_id for r in report.results] == list(range(len(samples)))
        assert [r.label for r in report.results] == [r.label for r in serial]
        # Merged per-worker metrics are lossless: the OMPE session count
        # equals the serial run's exactly (the ISSUE acceptance check).
        merged = counter_total(
            report.metrics.snapshot(), "repro_ompe_runs_total"
        )
        serial_total = counter_total(serial_snapshot, "repro_ompe_runs_total")
        assert merged == serial_total == len(samples)
        assert sum(report.worker_jobs.values()) == len(samples)

    def test_similarity_matches_direct_call(
        self, model, other_model, fast_config
    ):
        with ProtocolEngine(
            model, config=fast_config, workers=2, seed=SEED, pool_size=2
        ) as engine:
            job_id = engine.submit_similarity(other_model)
            report = engine.drain()
        (result,) = report.results
        assert result.ok and result.kind == "similarity"
        direct = evaluate_similarity_private(
            model,
            other_model,
            MetricParams(),
            config=fast_config,
            seed=derive_seed(SEED, "job", job_id),
        )
        # Same derived seed -> identical similarity metric.
        assert result.t == float(direct.t)

    def test_mixed_jobs_sorted_by_id(self, model, other_model, fast_config):
        with ProtocolEngine(
            model, config=fast_config, workers=2, seed=SEED, pool_size=4
        ) as engine:
            engine.submit_classification([0.4, -0.3, 0.1])
            engine.submit_similarity(other_model)
            engine.submit_classification([-0.2, 0.8, -0.5])
            report = engine.drain()
        assert [r.job_id for r in report.results] == [0, 1, 2]
        assert [r.kind for r in report.results] == [
            "classification",
            "similarity",
            "classification",
        ]
        assert all(r.ok for r in report.results)


class TestPrecomputeWarmth:
    """Workers inherit warm generator tables from the parent — the PR 3
    regression where every fork silently rebuilt the window-8 table is
    pinned here as *zero worker-side builds after warmup*."""

    def test_workers_never_rebuild_tables_after_warmup(
        self, model, fast_config, samples
    ):
        report = run_engine(
            model,
            samples,
            config=fast_config,
            workers=2,
            pool_size=4,
            seed=SEED,
        )
        assert not report.failed
        snapshot = report.metrics.snapshot()
        # report.metrics holds only worker-side snapshots (the parent's
        # own warmup build lives in the global registry), and workers
        # zero the table counters right after fork — so any miss
        # counted here is a rebuild inside a worker.  There must be none.
        assert counter_total(snapshot, "repro_precompute_misses_total") == 0
        builds = snapshot.get("repro_precompute_table_builds", {}).get(
            "series", []
        )
        worker_builds = [
            entry
            for entry in builds
            if entry["labels"].get("scope", "").startswith("worker-")
        ]
        assert worker_builds, "workers must export precompute gauges at drain"
        assert all(entry["value"] == 0 for entry in worker_builds)
        # ...and the inherited tables were actually exercised.
        hits = snapshot.get("repro_precompute_table_hits", {}).get("series", [])
        assert (
            sum(
                entry["value"]
                for entry in hits
                if entry["labels"].get("scope", "").startswith("worker-")
            )
            > 0
        )


class TestRetryAndTimeout:
    def test_injected_failures_retried(self, model, fast_config):
        with ProtocolEngine(
            model,
            config=fast_config,
            workers=1,
            seed=SEED,
            pool_size=2,
            policy=EnginePolicy(max_retries=3),
        ) as engine:
            engine.submit_classification([0.1, 0.2, 0.3], inject_failures=2)
            report = engine.drain()
        (result,) = report.results
        assert result.ok
        assert result.attempts == 3
        snapshot = report.metrics.snapshot()
        assert counter_total(snapshot, "repro_engine_retries_total") == 2

    def test_retry_budget_exhausted_fails_loud(self, model, fast_config):
        with ProtocolEngine(
            model,
            config=fast_config,
            workers=1,
            seed=SEED,
            pool_size=2,
            policy=EnginePolicy(max_retries=1),
        ) as engine:
            engine.submit_classification([0.1, 0.2, 0.3], inject_failures=5)
            engine.submit_classification([0.5, -0.2, 0.3])
            report = engine.drain()
        failed, succeeded = report.results
        assert not failed.ok and failed.attempts == 2
        assert "injected failure" in failed.error
        assert succeeded.ok
        snapshot = report.metrics.snapshot()
        assert counter_total(snapshot, "repro_engine_failures_total") == 1
        assert report.summary()["failed"] == 1

    def test_timeout_enforced(self, model, fast_config):
        with ProtocolEngine(
            model,
            config=fast_config,
            workers=1,
            seed=SEED,
            pool_size=2,
            policy=EnginePolicy(timeout_s=0.2, max_retries=0),
        ) as engine:
            engine.submit_classification([0.1, 0.2, 0.3], inject_delay_s=5.0)
            report = engine.drain()
        (result,) = report.results
        assert not result.ok
        assert "EngineTimeout" in result.error

    def test_timeout_unit_level(self, spec):
        state = WorkerState.from_spec(spec, worker_id=0)
        slow_spec = EngineSpec(
            model_document=spec.model_document,
            config=spec.config,
            seed=spec.seed,
            pool_size=spec.pool_size,
            timeout_s=0.05,
        )
        state.spec = slow_spec
        job = ClassificationJob(
            job_id=0, sample=(0.1, 0.2, 0.3), seed=1, inject_delay_s=1.0
        )
        result = execute_job(state, job, attempt=1)
        assert not result.ok and "EngineTimeout" in result.error


class TestBackpressure:
    def test_submit_blocks_when_queue_full(self, model, fast_config):
        """The bounded queue really bounds: with one busy worker and
        capacity 1, the third submit must wait for the worker to free a
        slot rather than buffering without limit."""
        with ProtocolEngine(
            model,
            config=fast_config,
            workers=1,
            seed=SEED,
            pool_size=4,
            queue_capacity=1,
        ) as engine:
            engine.submit_classification([0.1, 0.2, 0.3], inject_delay_s=1.0)
            time.sleep(0.3)  # let the worker pick up the slow job
            engine.submit_classification([0.2, 0.3, 0.4])  # fills the queue
            started = time.perf_counter()
            engine.submit_classification([0.3, 0.4, 0.5])  # must block
            blocked_for = time.perf_counter() - started
            report = engine.drain()
        assert blocked_for > 0.2
        assert len(report.results) == 3 and not report.failed


class TestLifecycle:
    def test_submit_before_start_raises(self, model, fast_config):
        engine = ProtocolEngine(model, config=fast_config, workers=1)
        with pytest.raises(EngineError):
            engine.submit_classification([0.1, 0.2, 0.3])

    def test_submit_after_drain_raises(self, model, fast_config):
        with ProtocolEngine(
            model, config=fast_config, workers=1, seed=SEED, pool_size=2
        ) as engine:
            engine.submit_classification([0.1, 0.2, 0.3])
            engine.drain()
            with pytest.raises(EngineError):
                engine.submit_classification([0.4, 0.5, 0.6])

    def test_merges_into_active_registry(self, model, fast_config):
        registry = obs.MetricsRegistry()
        previous = obs.get_metrics()
        obs.set_metrics(registry)
        try:
            run_engine(
                model,
                [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]],
                config=fast_config,
                workers=2,
                pool_size=2,
                seed=SEED,
            )
        finally:
            obs.set_metrics(previous)
        snapshot = registry.snapshot()
        assert counter_total(snapshot, "repro_ompe_runs_total") == 2
        assert counter_total(snapshot, "repro_engine_jobs_total") == 2


class TestWorkerMain:
    """In-process worker loop tests (plain queues, no fork)."""

    def test_drain_record_carries_snapshot(self, spec, samples):
        jobs_in, results_out = queue.Queue(), queue.Queue()
        for job in classification_jobs(samples[:3]):
            jobs_in.put((job, 1))
        jobs_in.put(DRAIN)
        previous = obs.get_metrics()
        try:
            worker_main(7, spec, jobs_in, results_out)
        finally:
            obs.set_metrics(previous)
        records = []
        while not results_out.empty():
            records.append(results_out.get())
        assert [record[0] for record in records] == ["result"] * 3 + ["drain"]
        _, worker_id, jobs_done, snapshot, trace = records[-1]
        assert worker_id == 7 and jobs_done == 3 and trace is None
        assert counter_total(snapshot, "repro_ompe_runs_total") == 3
        assert "repro_engine_pool_remaining" in snapshot

    def test_trace_enabled_ships_jsonl(self, model, fast_config, samples):
        spec = make_spec(
            model, config=fast_config, seed=SEED, pool_size=2, trace=True
        )
        jobs_in, results_out = queue.Queue(), queue.Queue()
        jobs_in.put((classification_jobs(samples)[0], 1))
        jobs_in.put(DRAIN)
        previous_metrics = obs.get_metrics()
        previous_tracer = obs.get_tracer()
        try:
            worker_main(0, spec, jobs_in, results_out)
        finally:
            obs.set_metrics(previous_metrics)
            obs.set_tracer(previous_tracer)
        records = [results_out.get() for _ in range(2)]
        trace_jsonl = records[-1][4]
        assert trace_jsonl and "ompe" in trace_jsonl

    def test_bad_model_document_is_fatal(self, fast_config):
        bad_spec = EngineSpec(
            model_document={"schema": "nonsense"},
            config=fast_config,
            seed=0,
            pool_size=2,
        )
        jobs_in, results_out = queue.Queue(), queue.Queue()
        previous = obs.get_metrics()
        try:
            worker_main(0, bad_spec, jobs_in, results_out)
        finally:
            obs.set_metrics(previous)
        record = results_out.get()
        assert record[0] == "fatal" and record[1] == 0

    def test_pool_refill_transparent(self, spec, samples):
        """More jobs than pool_size: the worker refills instead of
        raising the raw pools' exhaustion OMPEError."""
        state = WorkerState.from_spec(spec, worker_id=0)
        jobs = classification_jobs(samples)  # 8 jobs > pool_size 4
        results = [execute_job(state, job, attempt=1) for job in jobs]
        assert all(result.ok for result in results)
        assert state.refills >= 2
