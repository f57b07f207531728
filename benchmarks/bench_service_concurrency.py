"""Concurrent trainer-service throughput vs the sequential baseline.

The workload models real distributed clients: each of four clients
holds one connection and runs two sessions with think time in between.
A sequential server (``max_connections=1``) suffers head-of-line
blocking — every client's think time stalls the whole service — while
the concurrent server overlaps it.  On a single core the protocol
compute itself cannot parallelize (GIL), so the measured speedup is
pure latency overlap; the bench self-calibrates the think time from a
measured session so the >= 3x assertion holds across machine speeds.

Both runs must also be **bit-identical** to the in-process protocol:
concurrency is only worth shipping if it never perturbs an outcome.
"""

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from artifact import BENCH_DIR, update_artifact
from repro.core.classification import private_classify
from repro.core.similarity import evaluate_similarity_private
from repro.core.similarity.metric import MetricParams
from repro.ml.svm.model import make_linear_model
from repro.net.service import TrainerClient, TrainerServer

pytestmark = pytest.mark.socket

_CLIENTS = 4
_SESSIONS_PER_CLIENT = 2
_MODEL_WEIGHTS = [0.75, -0.5, 0.25]
_MODEL_BIAS = 0.125
_SAMPLES = [
    (0.5, -0.25, 0.75),
    (-0.375, 0.125, -0.5),
    (0.25, 0.5, -0.125),
    (-0.625, -0.25, 0.375),
]


def _seed(client, session):
    return 1000 + client * 10 + session


def _artifact_dir():
    """Where the service artifact lands: the gitignored ``results/``
    scratch dir normally; the committed ``benchmarks/`` dir when
    regenerating ``BENCH_service.json`` (BENCH_COMMIT_ARTIFACTS=1)."""
    return BENCH_DIR if os.environ.get("BENCH_COMMIT_ARTIFACTS") else None


def _measure_session_cost(host, port, config):
    """One warmed-up session over TCP — the think-time calibration unit."""
    with TrainerClient(host, port, config=config) as client:
        client.classify(_SAMPLES[0], seed=1)  # warm caches
        start = time.perf_counter()
        client.classify(_SAMPLES[0], seed=2)
        return time.perf_counter() - start


def _run_clients(host, port, config, think_s):
    """Four clients, each holding one connection for two think-separated
    sessions.  Returns (wall_seconds, outcomes keyed by (client, session))."""
    outcomes = {}
    errors = []

    def client_run(index):
        try:
            with TrainerClient(
                host, port, config=config, timeout=120.0,
                attempts=40, retry_delay_s=0.05,
            ) as client:
                for session in range(_SESSIONS_PER_CLIENT):
                    if session:
                        time.sleep(think_s)
                    outcomes[(index, session)] = client.classify(
                        _SAMPLES[index], seed=_seed(index, session)
                    )
        except BaseException as error:  # noqa: BLE001 — reported below
            errors.append(error)

    threads = [
        threading.Thread(target=client_run, args=(index,), daemon=True)
        for index in range(_CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return wall, outcomes


def _serve_workload(model, config, max_connections, think_s):
    """Run the whole client workload against a fresh server; returns
    (wall_seconds, outcomes)."""
    server = TrainerServer(
        model, config=config,
        max_connections=max_connections, session_timeout=120.0,
    )
    host, port = server.address
    total = _CLIENTS * _SESSIONS_PER_CLIENT
    serving = threading.Thread(
        target=lambda: server.serve_forever(
            max_sessions=total, accept_timeout=120.0
        ),
        daemon=True,
    )
    serving.start()
    try:
        return _run_clients(host, port, config, think_s)
    finally:
        server.stop()
        serving.join(10.0)
        server.close()


def test_concurrent_serving_is_3x_sequential(bench_config):
    """>= 3x session throughput at 4 concurrent clients, bit-identical."""
    model = make_linear_model(_MODEL_WEIGHTS, _MODEL_BIAS)

    # Calibrate: think time is 60 measured sessions (floor 0.25 s), so
    # sequential wall ~ 8C + 4*think and concurrent ~ 8C + think — a
    # nominal ratio around 3.6 on any machine speed.
    calibration = TrainerServer(model, config=bench_config)
    host, port = calibration.address
    serving = threading.Thread(
        target=lambda: calibration.serve_forever(max_sessions=3),
        daemon=True,
    )
    serving.start()
    session_cost = _measure_session_cost(host, port, bench_config)
    calibration.stop()
    serving.join(10.0)
    calibration.close()
    think_s = max(0.25, 60.0 * session_cost)

    wall_sequential, outcomes_sequential = _serve_workload(
        model, bench_config, max_connections=1, think_s=think_s
    )
    wall_concurrent, outcomes_concurrent = _serve_workload(
        model, bench_config, max_connections=_CLIENTS, think_s=think_s
    )

    speedup = wall_sequential / wall_concurrent
    print(
        f"\nsession cost {session_cost * 1e3:.1f} ms, "
        f"think {think_s * 1e3:.0f} ms: "
        f"sequential {wall_sequential:.2f}s, "
        f"concurrent {wall_concurrent:.2f}s, speedup {speedup:.2f}x"
    )
    update_artifact(
        "service",
        "concurrency",
        {
            "clients": _CLIENTS,
            "sessions_per_client": _SESSIONS_PER_CLIENT,
            "session_cost_ms": round(session_cost * 1e3, 3),
            "think_ms": round(think_s * 1e3, 1),
            "sequential_s": round(wall_sequential, 3),
            "concurrent_s": round(wall_concurrent, 3),
            "speedup": round(speedup, 2),
        },
        directory=_artifact_dir(),
    )

    # Bit-identity first: same labels and masked values as in-process,
    # under either serving mode.
    for client in range(_CLIENTS):
        for session in range(_SESSIONS_PER_CLIENT):
            reference = private_classify(
                model, _SAMPLES[client],
                config=bench_config, seed=_seed(client, session),
            )
            for outcomes in (outcomes_sequential, outcomes_concurrent):
                outcome = outcomes[(client, session)]
                assert outcome.label == reference.label
                assert (
                    outcome.randomized_value == reference.randomized_value
                )

    assert speedup >= 3.0, (
        f"concurrent serving only {speedup:.2f}x over sequential "
        f"(sequential {wall_sequential:.2f}s, concurrent {wall_concurrent:.2f}s)"
    )


def test_concurrent_similarity_t_squared_identical(bench_config):
    """Similarity sessions under concurrency keep T^2 bit-identical."""
    model_a = make_linear_model(_MODEL_WEIGHTS, _MODEL_BIAS)
    model_b = make_linear_model([0.5, 0.625, -0.25], -0.0625)
    params = MetricParams()
    seeds = [11, 12, 13]
    reference = {
        seed: evaluate_similarity_private(
            model_a, model_b, params=params, config=bench_config, seed=seed
        )
        for seed in seeds
    }

    server = TrainerServer(
        model_a, config=bench_config, params=params,
        max_connections=len(seeds),
    )
    host, port = server.address
    serving = threading.Thread(
        target=lambda: server.serve_forever(
            max_sessions=len(seeds), accept_timeout=120.0
        ),
        daemon=True,
    )
    serving.start()
    outcomes = {}
    errors = []

    def run(seed):
        try:
            with TrainerClient(
                host, port, config=bench_config, params=params,
                timeout=120.0,
            ) as client:
                outcomes[seed] = client.evaluate_similarity(
                    model_b, seed=seed
                )
        except BaseException as error:  # noqa: BLE001 — reported below
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(seed,), daemon=True)
        for seed in seeds
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    server.stop()
    serving.join(10.0)
    server.close()
    if errors:
        raise errors[0]

    for seed in seeds:
        assert outcomes[seed].t_squared == reference[seed].t_squared
        assert outcomes[seed].t == reference[seed].t


# -- protocol v2: multiplexed sessions ---------------------------------------

_V2_CLIENTS = 16


def _v2_seed(client, session):
    return 5000 + client * 10 + session


def _run_v1_four_connection_slots(model, config, think_s):
    """16 clients, one connection each, two think-separated sessions,
    against a server with 4 connection slots.  A v1 connection holds
    its slot through the think time, so the other clients wait in the
    backlog: this is the head-of-line cost v2 exists to remove."""
    server = TrainerServer(
        model, config=config, max_connections=4, session_timeout=120.0,
    )
    host, port = server.address
    total = _V2_CLIENTS * _SESSIONS_PER_CLIENT
    serving = threading.Thread(
        target=lambda: server.serve_forever(
            max_sessions=total, accept_timeout=120.0
        ),
        daemon=True,
    )
    serving.start()
    outcomes = {}
    errors = []

    def client_run(index):
        try:
            with TrainerClient(
                host, port, config=config, timeout=120.0,
                attempts=60, retry_delay_s=0.1, protocol="v1",
            ) as client:
                for session in range(_SESSIONS_PER_CLIENT):
                    if session:
                        time.sleep(think_s)
                    outcomes[(index, session)] = client.classify(
                        _SAMPLES[index % len(_SAMPLES)],
                        seed=_v2_seed(index, session),
                    )
        except BaseException as error:  # noqa: BLE001 — reported below
            errors.append(error)

    threads = [
        threading.Thread(target=client_run, args=(index,), daemon=True)
        for index in range(_V2_CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    server.stop()
    serving.join(10.0)
    server.close()
    if errors:
        raise errors[0]
    return wall, outcomes


def _run_v2_multiplexed(model, config, think_s):
    """The same 16-client workload multiplexed over ONE connection,
    against the same thread budget (4 session workers).  Thinking
    clients cost the server nothing: the event loop holds their idle
    sessions while the worker pool serves active ones."""
    server = TrainerServer(
        model, config=config, session_timeout=120.0, session_workers=4,
    )
    host, port = server.address
    total = _V2_CLIENTS * _SESSIONS_PER_CLIENT
    serving = threading.Thread(
        target=lambda: server.serve_forever(
            max_sessions=total, accept_timeout=120.0
        ),
        daemon=True,
    )
    serving.start()
    outcomes = {}
    errors = []

    with TrainerClient(
        host, port, config=config, timeout=120.0, protocol="v2"
    ) as client:

        def client_run(index):
            try:
                for session in range(_SESSIONS_PER_CLIENT):
                    if session:
                        time.sleep(think_s)
                    outcomes[(index, session)] = client.classify(
                        _SAMPLES[index % len(_SAMPLES)],
                        seed=_v2_seed(index, session),
                    )
            except BaseException as error:  # noqa: BLE001 — reported below
                errors.append(error)

        threads = [
            threading.Thread(target=client_run, args=(index,), daemon=True)
            for index in range(_V2_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
    server.stop()
    serving.join(10.0)
    server.close()
    if errors:
        raise errors[0]
    return wall, outcomes


def test_v2_multiplexing_is_2x_v1_at_16_clients(bench_config):
    """Fixed thread budget (4 protocol threads), 16 clients with think
    time: v2 session throughput >= 2x v1 with 4 connection slots, with
    transcripts bit-identical to v1 and to the in-process protocol."""
    model = make_linear_model(_MODEL_WEIGHTS, _MODEL_BIAS)

    calibration = TrainerServer(model, config=bench_config)
    host, port = calibration.address
    serving = threading.Thread(
        target=lambda: calibration.serve_forever(max_sessions=3),
        daemon=True,
    )
    serving.start()
    session_cost = _measure_session_cost(host, port, bench_config)
    calibration.stop()
    serving.join(10.0)
    calibration.close()
    think_s = max(0.25, 30.0 * session_cost)

    wall_v1, outcomes_v1 = _run_v1_four_connection_slots(
        model, bench_config, think_s
    )
    wall_v2, outcomes_v2 = _run_v2_multiplexed(model, bench_config, think_s)

    total = _V2_CLIENTS * _SESSIONS_PER_CLIENT
    speedup = wall_v1 / wall_v2
    print(
        f"\nv1, 4 connection slots {wall_v1:.2f}s "
        f"({total / wall_v1:.1f} sessions/s), "
        f"v2 multiplexed {wall_v2:.2f}s ({total / wall_v2:.1f} sessions/s), "
        f"speedup {speedup:.2f}x "
        f"(think {think_s * 1e3:.0f} ms, 4 protocol threads each)"
    )
    update_artifact(
        "service",
        "protocol_v2",
        {
            "clients": _V2_CLIENTS,
            "sessions_per_client": _SESSIONS_PER_CLIENT,
            "protocol_threads": 4,
            "think_ms": round(think_s * 1e3, 1),
            "v1_wall_s": round(wall_v1, 3),
            "v2_wall_s": round(wall_v2, 3),
            "v1_sessions_per_s": round(total / wall_v1, 2),
            "v2_sessions_per_s": round(total / wall_v2, 2),
            "speedup": round(speedup, 2),
        },
        directory=_artifact_dir(),
    )

    # Bit-identity across all three transports, every session.
    for index in range(_V2_CLIENTS):
        for session in range(_SESSIONS_PER_CLIENT):
            reference = private_classify(
                model, _SAMPLES[index % len(_SAMPLES)],
                config=bench_config, seed=_v2_seed(index, session),
            )
            v1 = outcomes_v1[(index, session)]
            v2 = outcomes_v2[(index, session)]
            for outcome in (v1, v2):
                assert outcome.label == reference.label
                assert (
                    outcome.randomized_value == reference.randomized_value
                )
            assert (
                v1.report.transcript.bytes_by_phase()
                == v2.report.transcript.bytes_by_phase()
                == reference.report.transcript.bytes_by_phase()
            )

    assert speedup >= 2.0, (
        f"v2 multiplexing only {speedup:.2f}x over v1 with 4 connection slots "
        f"(v1 {wall_v1:.2f}s, v2 {wall_v2:.2f}s)"
    )


def test_v2_64_sessions_on_one_connection(bench_config):
    """64 concurrent multiplexed sessions on a single TCP connection,
    every one bit-identical to its in-process run."""
    model = make_linear_model(_MODEL_WEIGHTS, _MODEL_BIAS)
    count = 64
    server = TrainerServer(
        model, config=bench_config, session_timeout=120.0, session_workers=8,
    )
    host, port = server.address
    serving = threading.Thread(
        target=lambda: server.serve_forever(
            max_sessions=count, accept_timeout=120.0
        ),
        daemon=True,
    )
    serving.start()
    with TrainerClient(
        host, port, config=bench_config, timeout=120.0, protocol="v2"
    ) as client, ThreadPoolExecutor(max_workers=count) as threads:
        start = time.perf_counter()
        futures = [
            threads.submit(
                client.classify,
                _SAMPLES[index % len(_SAMPLES)],
                seed=7000 + index,
            )
            for index in range(count)
        ]
        outcomes = [future.result(timeout=120.0) for future in futures]
        wall = time.perf_counter() - start
    server.stop()
    serving.join(10.0)
    server.close()

    print(
        f"\n{count} multiplexed sessions on one connection: "
        f"{wall:.2f}s ({count / wall:.1f} sessions/s, 8 session workers)"
    )
    update_artifact(
        "service",
        "v2_single_connection",
        {
            "sessions": count,
            "connections": 1,
            "session_workers": 8,
            "wall_s": round(wall, 3),
            "sessions_per_s": round(count / wall, 2),
        },
        directory=_artifact_dir(),
    )

    for index, outcome in enumerate(outcomes):
        reference = private_classify(
            model, _SAMPLES[index % len(_SAMPLES)],
            config=bench_config, seed=7000 + index,
        )
        assert outcome.label == reference.label
        assert outcome.randomized_value == reference.randomized_value
        assert (
            outcome.report.transcript.bytes_by_phase()
            == reference.report.transcript.bytes_by_phase()
        )
