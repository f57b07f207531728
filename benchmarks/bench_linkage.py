"""Bulk linkage throughput — chunked jobs vs the pair-at-a-time path.

Benchmarks the :mod:`repro.linkage` pipeline on one fixed N x M
workload and records pair throughput per backend in
``BENCH_linkage.json`` (committed with ``BENCH_COMMIT_ARTIFACTS=1``,
``benchmarks/results/`` otherwise):

* **scaling** — the chunked engine backend at 1/2/4 workers against
  the pair-at-a-time serial reference; the >= 2x acceptance at 4
  workers is asserted only on hosts with >= 4 CPUs (on smaller
  runners a scaling claim would be noise, the sweep still runs);
* **backends** — loopback-TCP workers vs the engine: the surviving
  pair set and the raw store bytes must be identical, whatever the
  transport;
* **resume** — a run SIGKILLed mid-chunk (the store's deterministic
  crash hook) and resumed must reproduce the uninterrupted run's
  filtered pair set byte for byte.

Correctness is asserted unconditionally; only the scaling gate is
CPU-gated.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from artifact import BENCH_DIR, BENCH_SEED, update_artifact
from repro.core.similarity import evaluate_similarity_private
from repro.linkage import (
    EngineLinkageRunner,
    LinkageJobSpec,
    LinkageResultStore,
    ServiceLinkageRunner,
    run_linkage,
)
from repro.linkage.store import CRASH_ENV
from repro.ml.svm import save_model
from repro.ml.svm.model import make_linear_model
from repro.net.service import TrainerClientPool, TrainerServer
from repro.utils.rng import ReproRandom

pytestmark = pytest.mark.socket

LEFT = 6
RIGHT = 16
DIMENSION = 3
CHUNK_PAIRS = 16
THRESHOLD = 0.22  # ~median T for this workload: roughly half survive
WORKER_SWEEP = (1, 2, 4)
REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _artifact_dir():
    """Scratch results/ by default; the committed benchmarks/ directory
    when regenerating ``BENCH_linkage.json`` (BENCH_COMMIT_ARTIFACTS=1)."""
    return BENCH_DIR if os.environ.get("BENCH_COMMIT_ARTIFACTS") else None


def _make_models(prefix, count, rng):
    models = {}
    for index in range(count):
        weights = [rng.uniform(-1.0, 1.0) for _ in range(DIMENSION)]
        norm = sum(w * w for w in weights) ** 0.5
        # Bias keeps every boundary inside the data space at a
        # magnitude-dependent offset (see examples/linkage_pprl.py).
        bias = -(0.25 + 0.5 / (1.0 + norm)) * norm
        models[f"{prefix}{index:02d}"] = make_linear_model(weights, bias)
    return models


@pytest.fixture(scope="module")
def workload(light_config):
    rng = ReproRandom(BENCH_SEED)
    left = _make_models("L", LEFT, rng)
    right = _make_models("R", RIGHT, rng)
    spec = LinkageJobSpec(
        left,
        right,
        chunk_pairs=CHUNK_PAIRS,
        threshold=THRESHOLD,
        seed=BENCH_SEED,
        config=light_config,
    )
    return left, right, spec


@pytest.fixture(scope="module")
def pair_at_a_time(workload):
    """The unchunked reference: one protocol run per pair, no store,
    no workers — what a caller would write without the pipeline."""
    left, right, spec = workload
    outcomes = {}
    start = time.perf_counter()
    for left_key in sorted(left):
        for right_key in sorted(right):
            outcomes[(left_key, right_key)] = evaluate_similarity_private(
                left[left_key],
                right[right_key],
                config=spec.config,
                seed=spec.pair_seed(left_key, right_key),
            )
    elapsed = time.perf_counter() - start
    return outcomes, len(outcomes) / elapsed


@pytest.fixture(scope="module")
def engine_store(workload, tmp_path_factory):
    """One chunked engine run, kept for cross-backend byte comparison."""
    _left, _right, spec = workload
    store = tmp_path_factory.mktemp("engine") / "store"
    report = run_linkage(spec, EngineLinkageRunner(workers=2), store)
    return report, store


def _chunk_bytes(spec, store_root):
    store = LinkageResultStore(store_root, spec.fingerprint())
    return {
        chunk.chunk_id: store.read_chunk_bytes(chunk.chunk_id)
        for chunk in spec.chunks()
    }


def test_engine_scaling_vs_pair_at_a_time(
    workload, pair_at_a_time, tmp_path
):
    left, right, spec = workload
    reference, baseline_pairs_per_s = pair_at_a_time

    throughput = {}
    matches = None
    print()
    print(f"{'backend':>10s} {'pairs/s':>9s} {'elapsed':>9s}")
    print(f"{'serial':>10s} {baseline_pairs_per_s:9.1f} {'':>9s}")
    for workers in WORKER_SWEEP:
        report = run_linkage(
            spec,
            EngineLinkageRunner(workers=workers, seed=BENCH_SEED),
            tmp_path / f"w{workers}",
        )
        assert report.pairs_scored == LEFT * RIGHT
        throughput[workers] = report.pairs_per_second
        print(
            f"{workers:>8d}w {report.pairs_per_second:9.1f} "
            f"{report.elapsed_s:8.2f}s"
        )
        if matches is None:
            matches = report.matches
        else:
            # The surviving pair set is worker-count-invariant.
            assert report.matches == matches

    # Every surviving score equals the pair-at-a-time protocol outcome.
    assert matches
    for score in matches:
        assert score.t_squared == reference[(score.left, score.right)].t_squared

    cores = os.cpu_count() or 1
    speedup = throughput[4] / baseline_pairs_per_s
    if cores >= 4:
        print(f"chunked speedup at 4 workers: {speedup:.2f}x (on {cores} cores)")
        assert speedup >= 2.0, (
            f"expected >= 2x pair throughput from the chunked pipeline at 4 "
            f"workers on a {cores}-core host, got {speedup:.2f}x"
        )
    else:
        print(
            f"host has {cores} core(s); skipping the 4-worker speedup gate "
            f"(measured {speedup:.2f}x)"
        )
    update_artifact(
        "linkage",
        "scaling",
        {
            "pairs": LEFT * RIGHT,
            "chunk_pairs": CHUNK_PAIRS,
            "baseline_pairs_per_s": round(baseline_pairs_per_s, 2),
            "engine_pairs_per_s": {
                str(workers): round(value, 2)
                for workers, value in throughput.items()
            },
            "speedup_4w": round(speedup, 2),
            "cores": cores,
            "gate_enforced": cores >= 4,
        },
        directory=_artifact_dir(),
    )


def test_tcp_backend_matches_engine_bytes(workload, engine_store, tmp_path):
    left, _right, spec = workload
    engine_report, engine_root = engine_store
    server = TrainerServer(models=left, config=spec.config, max_connections=4)
    host, port = server.address
    import threading

    serving = threading.Thread(
        target=lambda: server.serve_forever(accept_timeout=120.0),
        daemon=True,
    )
    serving.start()
    try:
        pool = TrainerClientPool(host, port, size=2, config=spec.config)
        report = run_linkage(
            spec,
            ServiceLinkageRunner(pool, owns_pool=True),
            tmp_path / "tcp",
        )
    finally:
        server.stop()
        serving.join(10.0)
        server.close()

    assert report.matches == engine_report.matches
    assert _chunk_bytes(spec, tmp_path / "tcp") == _chunk_bytes(
        spec, engine_root
    )
    print(
        f"\ntcp {report.pairs_per_second:.1f} pairs/s vs engine "
        f"{engine_report.pairs_per_second:.1f} pairs/s (identical bytes)"
    )
    update_artifact(
        "linkage",
        "backends",
        {
            "engine_pairs_per_s": round(engine_report.pairs_per_second, 2),
            "tcp_pairs_per_s": round(report.pairs_per_second, 2),
            "store_bytes_identical": True,
            "matches_identical": True,
        },
        directory=_artifact_dir(),
    )


def _run_link_cli(left_dir, right_dir, store, matches_out, crash_after=None):
    command = [
        sys.executable, "-m", "repro.cli", "link",
        "--left-dir", str(left_dir),
        "--right-dir", str(right_dir),
        "--store", str(store),
        "--backend", "serial",
        "--chunk-pairs", str(CHUNK_PAIRS),
        "--threshold", str(THRESHOLD),
        "--security-degree", "1",
        "--fast-group",
        "--seed", str(BENCH_SEED),
        "--limit", "0",
    ]
    if matches_out is not None:
        command += ["--matches-out", str(matches_out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    if crash_after is not None:
        env[CRASH_ENV] = str(crash_after)
    else:
        env.pop(CRASH_ENV, None)
    return subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=600
    )


def test_resume_after_kill_is_bit_identical(workload, tmp_path):
    left, right, _spec = workload
    left_dir = tmp_path / "left"
    right_dir = tmp_path / "right"
    left_dir.mkdir()
    right_dir.mkdir()
    for key, model in left.items():
        save_model(model, str(left_dir / f"{key}.json"))
    for key, model in right.items():
        save_model(model, str(right_dir / f"{key}.json"))

    clean_matches = tmp_path / "clean.jsonl"
    result = _run_link_cli(
        left_dir, right_dir, tmp_path / "clean", clean_matches
    )
    assert result.returncode == 0, result.stderr

    # Kill mid-run after two chunks' worth of persisted lines.
    crash_after = 2 * CHUNK_PAIRS + CHUNK_PAIRS // 2
    killed_store = tmp_path / "killed"
    start = time.perf_counter()
    result = _run_link_cli(left_dir, right_dir, killed_store, None,
                           crash_after=crash_after)
    assert result.returncode == -signal.SIGKILL, result.stderr

    resumed_matches = tmp_path / "resumed.jsonl"
    result = _run_link_cli(
        left_dir, right_dir, killed_store, resumed_matches
    )
    resumed_elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    assert "resumed" in result.stdout
    assert resumed_matches.read_bytes() == clean_matches.read_bytes()
    survivors = sum(
        1 for line in clean_matches.read_text().splitlines() if line
    )
    print(
        f"\nkill+resume reproduced {survivors} surviving pairs "
        f"byte-identically in {resumed_elapsed:.1f}s"
    )
    update_artifact(
        "linkage",
        "resume",
        {
            "crash_after_lines": crash_after,
            "surviving_pairs": survivors,
            "matches_bytes_identical": True,
        },
        directory=_artifact_dir(),
    )
