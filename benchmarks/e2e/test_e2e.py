"""Smoke and coverage tests for the end-to-end benchmark harness.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e -q``; the classify workloads open loopback sockets and
are marked ``socket``.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

import pytest

import gauge
import inputs
import layers
import workloads

BENCHMARK = json.loads((workloads.HERE.parents[1] / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(workloads.HERE / "run.py"),
            "--workload", workload, "--seed", "2016",
            "--seconds", "1", "--scale", "0.1", "--trace", str(trace),
        ],
        cwd=workloads.HERE.parents[1],
        capture_output=True,
        text=True,
        timeout=170,
    )


def expected_units(trace: int) -> dict:
    rows = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def test_benchmark_json_matches_the_harness():
    assert expected_units(0) == dict([("setup_s", "s")] + list(workloads.END_TO_END))
    assert expected_units(1) == layers.metric_units()
    assert sorted(row["name"] for row in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)
    bounds = {row["name"]: row["bound"] for row in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload",
    [
        # The classify workloads serve over loopback TCP.
        pytest.param(name, marks=pytest.mark.socket) if name.startswith("classify") else name
        for name in sorted(workloads.WORKLOADS)
    ],
)
def test_workload_prints_every_metric(workload, trace):
    completed = run_bench(workload, trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == expected_units(trace)
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values()), values
    elif workload.startswith("linkage"):
        # Self times of the layers plus the ``other`` row account for
        # the operations' wall time.
        layer_self = sum(
            value for name, value in values.items()
            if name.endswith(".self_s") and not name.startswith("server.")
        )
        assert layer_self == pytest.approx(values["trace.op_s"], rel=0.05)
        assert "trace_overhead_pct" in values


def test_gauge_slowdown_averages_the_window():
    speed = gauge.SpeedGauge()
    nominal = gauge.REFERENCE_S
    speed.times[:] = [1.0, 2.0, 3.0]
    speed.seconds[:] = [nominal, 2 * nominal, 4 * nominal]
    assert speed.slowdown(1.5, 2.5) == pytest.approx(2.0)
    assert speed.slowdown(1.5, 2.5, margin=0.5) == pytest.approx(7 / 3)
    # No sample in the window: every sample counts.
    assert speed.slowdown(5.0, 6.0) == pytest.approx(7 / 3)


def test_gauge_samples_until_stopped():
    speed = gauge.SpeedGauge().start()
    time.sleep(5 * gauge.INTERVAL_S)
    speed.stop()
    assert not speed._thread.is_alive()
    count = len(speed.times)
    assert count >= 1 and len(speed.seconds) == count
    assert speed.slowdown(speed.times[0], speed.times[-1]) > 0
    time.sleep(2 * gauge.INTERVAL_S)
    assert len(speed.times) == count


def test_wrong_oracle_fails_the_run(monkeypatch, capsys):
    real = workloads.plain_t
    monkeypatch.setattr(workloads, "plain_t", lambda a, b: real(a, b) * 1.5)
    code = workloads.main(
        ["--workload", "linkage-linear", "--seed", "2016", "--seconds", "0", "--scale", "0.1"]
    )
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def traced(run):
    """Run ``run`` under a fresh tracer; returns (per-op metrics, tracer)."""
    tracer = layers.Tracer().install()
    try:
        run()
    finally:
        tracer.uninstall()
    return layers.layer_metrics(layers.Summary(tracer.spans), ops=1), tracer


def assert_ompe_counts(metrics, tracer, degrees, config):
    """Counts that hold whatever the OT key schedule, each asserted only
    while the target that produces it exists."""
    covers = [config.cover_count(degree) for degree in degrees]
    slots = sum(m * config.pair_count(degree) for m, degree in zip(covers, degrees))
    if "ot.session" in tracer.live:
        assert metrics["ot.sessions"] == sum(covers)
        assert metrics["ot.slots"] == slots
    if "hashing.unwrap" in tracer.live:
        assert metrics["hashing.unwrap_calls"] == sum(covers)
    if {"interpolation.lagrange", "ompe.run"} <= tracer.live:
        assert metrics["interpolation.calls"] == metrics["ompe.runs"] == len(degrees)


def test_traced_counts_match_the_protocol_parameters():
    from repro.core.classification import private_classify
    from repro.core.similarity import evaluate_similarity_private

    config = inputs.protocol_config()
    draw = random.Random(11)
    model, other = inputs.linear_model(draw), inputs.linear_model(draw)
    sample = (0.25, -0.5, 0.75)

    metrics, tracer = traced(lambda: private_classify(model, sample, config=config, seed=5))
    assert_ompe_counts(metrics, tracer, [1], config)

    def pair():
        evaluate_similarity_private(model, other, config=config, seed=7)

    pair()  # warm process-wide caches so both traced runs start equal
    first, tracer = traced(pair)
    assert_ompe_counts(first, tracer, [1, 1, 4], config)
    second, _ = traced(pair)
    counts = [name for name in first if name.startswith("groups.") and not name.endswith("_s")]
    assert counts and {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_missing_target_is_noted_and_uninstall_restores_bindings():
    from repro.core.classification import private_classify

    bogus = ("repro.math.groups:NoSuchThing", "groups.exp", None)
    tracer = layers.Tracer(layers.TARGETS + (bogus,))
    originals = {target: layers.resolve(target)[2] for target, _name, _size in layers.TARGETS}
    tracer.install()
    try:
        assert all(layers.resolve(t)[2] is not original for t, original in originals.items())
        outcome = private_classify(
            inputs.linear_model(random.Random(3)), (0.1, 0.2, 0.3),
            config=inputs.protocol_config(), seed=1,
        )
        assert outcome.label in (-1.0, 1.0)
    finally:
        tracer.uninstall()
    assert all(layers.resolve(t)[2] is original for t, original in originals.items())
    assert any("repro.math.groups:NoSuchThing" in note for note in tracer.notes)
    metrics = layers.layer_metrics(layers.Summary(tracer.spans), ops=1)
    assert metrics["ompe.runs"] == 1
