"""Engine scaling — jobs/sec of the multi-core protocol engine.

Sweeps the :class:`repro.engine.ProtocolEngine` worker fleet over
1/2/4 workers on a fixed classification workload and reports throughput
(jobs per second) per worker count, alongside the serial reference path.

Methodology (see EXPERIMENTS.md "Engine scaling"):

* identical jobs and per-job seeds at every worker count — each job's
  protocol randomness derives from its job id, so the labels (and the
  masked values and bytes) are identical across fleet sizes and against
  the serial path;
* correctness is asserted unconditionally: sorted-by-job-id labels must
  equal the serial run's, and the merged ``repro_ompe_runs_total``
  counter must equal the job count (per-worker metric merge is lossless);
* the >= 1.8x speedup acceptance at 4 workers is asserted only when the
  host actually has >= 4 CPUs (``os.cpu_count()``) — on smaller runners
  the sweep still runs and prints, but a scaling claim would be noise.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import make_spec, run_engine, run_jobs_serial
from repro.engine.jobs import ClassificationJob
from repro.ml.svm.model import make_linear_model
from repro.utils.rng import ReproRandom, derive_seed

#: Matches ``conftest.BENCH_SEED`` (the paper's publication year).
BENCH_SEED = 2016

JOBS = 24
DIMENSION = 3
WORKER_SWEEP = (1, 2, 4)


def _counter_total(snapshot, name):
    return sum(
        entry["value"] for entry in snapshot.get(name, {}).get("series", [])
    )


@pytest.fixture(scope="module")
def workload(light_config):
    rng = ReproRandom(BENCH_SEED)
    model = make_linear_model(
        [rng.uniform(-2.0, 2.0) for _ in range(DIMENSION)],
        rng.uniform(-1.0, 1.0),
    )
    samples = [
        [rng.uniform(-1.0, 1.0) for _ in range(DIMENSION)] for _ in range(JOBS)
    ]
    return model, samples, light_config


@pytest.fixture(scope="module")
def serial_reference(workload):
    model, samples, config = workload
    spec = make_spec(model, config=config)
    jobs = [
        ClassificationJob(
            job_id=index,
            sample=tuple(float(value) for value in sample),
            seed=derive_seed(BENCH_SEED, "job", index),
        )
        for index, sample in enumerate(samples)
    ]
    results, snapshot = run_jobs_serial(spec, jobs)
    return results, snapshot


def test_engine_scaling_sweep(workload, serial_reference):
    model, samples, config = workload
    serial_results, serial_snapshot = serial_reference
    serial_labels = [result.label for result in serial_results]
    serial_ompe = _counter_total(serial_snapshot, "repro_ompe_runs_total")
    assert serial_ompe == JOBS

    throughput = {}
    print()
    print(f"{'workers':>7s} {'jobs/s':>9s} {'elapsed':>9s}")
    for workers in WORKER_SWEEP:
        report = run_engine(
            model,
            samples,
            config=config,
            workers=workers,
            seed=BENCH_SEED,
        )
        assert not report.failed
        # Scheduling-invariance: labels identical to the serial path.
        assert [result.label for result in report.results] == serial_labels
        # Lossless per-worker metrics merge: the merged OMPE-run counter
        # equals both the job count and the serial run's counter.
        merged_ompe = _counter_total(
            report.metrics.snapshot(), "repro_ompe_runs_total"
        )
        assert merged_ompe == JOBS == serial_ompe
        assert sum(report.worker_jobs.values()) == JOBS
        throughput[workers] = report.jobs_per_second
        print(f"{workers:7d} {report.jobs_per_second:9.2f} {report.elapsed_s:8.2f}s")

    cores = os.cpu_count() or 1
    if cores >= 4:
        speedup = throughput[4] / throughput[1]
        print(f"speedup at 4 workers: {speedup:.2f}x (on {cores} cores)")
        assert speedup >= 1.8, (
            f"expected >= 1.8x jobs/sec at 4 workers on a {cores}-core host, "
            f"got {speedup:.2f}x"
        )
    else:
        print(f"host has {cores} core(s); skipping the 4-worker speedup assertion")


def test_benchmark_engine_two_workers(benchmark, workload):
    model, samples, config = workload

    def run():
        report = run_engine(
            model,
            samples,
            config=config,
            workers=2,
            seed=BENCH_SEED,
        )
        assert not report.failed
        return report.jobs_per_second

    benchmark.pedantic(run, rounds=3, warmup_rounds=1, iterations=1)
