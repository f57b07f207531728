"""One end-to-end workload, run in a fresh interpreter.

``run.py`` spawns this script once per set-up and measured run::

    python workloads.py --workload NAME --seed N --seconds S --trace 0|1
                        [--scale X] [--setup-only]

It generates the workload's inputs from the seed, starts what the
workload needs (a ``serve.py`` process for the classify workloads),
runs one untimed warm-up operation, measures for ``--seconds``, checks
every output against a plaintext oracle, and prints as its last stdout
line a JSON object with ``correct``, ``attempted``, ``failed``,
``metrics``, ``setup_end`` (the :func:`time.monotonic` reading when
the warm-up operation ended) and ``setup_slowdown`` (the host's
slowdown during set-up, see :mod:`gauge`).  It exits non-zero when an
output is wrong or an operation failed.

Untraced runs (``--trace 0``) report the end-to-end metrics, every
timing scaled by the host's slowdown around it (:mod:`gauge`).  Traced
runs (``--trace 1``) measure an untraced segment and then a traced
closed-loop segment of the same workload, and report the per-layer
metrics of :mod:`layers` plus the tracing overhead between the two.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import queue
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

import gauge
import inputs
import layers

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
#: Linkage stores and trace files go under the repository's git-ignored
#: ``benchmarks/results/``.
RESULTS = HERE.parent / "results"
TRACE_DIR = RESULTS / "trace"

#: End-to-end metrics this script measures (``run.py`` adds ``setup_s``).
END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("bytes_per_op", "bytes"),
    ("peak_rss_mb", "MB"),
)
#: Relative tolerance between a private T and the plaintext oracle's.
T_TOLERANCE = 1e-9
#: Classify sessions whose full outcome is replayed in process.
REFERENCE_SESSIONS = 20
#: Load threads (and connections) of the classify workloads, so two
#: sessions are in flight: fixed at the 2 cores of the host the
#: workloads were sized on, and never more than it has.
LOAD_THREADS = 2
STOP_TIMEOUT_S = 30.0
#: An operation's latency is scaled by the gauge samples taken during
#: it and this long either side: the host's speed moves within seconds.
LOCAL_WINDOW_S = 0.5


def check_source() -> None:
    """Import the program from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'repro'} is missing; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not from {SRC}")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def pin_to_one_cpu() -> None:
    """Run this process, and the server it spawns, on one CPU.

    The load process and the server are each bound by their interpreter
    lock, so on the 2-vCPU virtual machine the workloads were sized on a
    second CPU added no throughput: ``classify-v1-kernel`` served 28.7
    sessions/s unpinned and 30.1 pinned (medians of eight seeds).  What
    it added is a cross-CPU wake-up per protocol message, whose cost
    swings with the host: over those seeds the spread (interquartile
    range over median) of sessions/s fell from 20% to 4% and that of
    the median latency from 22% to 2.5%.  The linkage workloads run in
    one thread and are pinned too, so every workload has the same
    placement.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def plain_t(model_a, model_b) -> float:
    """The oracle: the similarity metric T computed in the clear."""
    from repro.core.similarity.metric import evaluate_similarity_plain

    return math.sqrt(evaluate_similarity_plain(model_a, model_b).t_squared)


class Workload:
    """Shared bookkeeping: attempted/failed counts, printed notes, and
    the host speed gauge every end-to-end timing is scaled by."""

    def __init__(self, name: str, args: argparse.Namespace, speed: gauge.SpeedGauge) -> None:
        self.name = name
        self.seed = args.seed
        self.scale = args.scale
        self.gauge = speed
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.server_rss_kb = 0
        self.measured: Dict[str, float] = {}
        self._lock = threading.Lock()

    def fail(self, count: int, why: str) -> None:
        with self._lock:
            self.failed += count
            if len(self.notes) < 20:
                self.notes.append(f"failed: {why}")

    def scaled_p50_ms(self, intervals) -> float:
        """Median operation time, each scaled by the host's slowdown in
        the second around it, in milliseconds."""
        slowdown = self.gauge.slowdown
        return percentile(
            [(end - start) / slowdown(start, end, LOCAL_WINDOW_S) for start, end in intervals],
            50,
        ) * 1e3

    def traced_metrics(self, client_spans, server_spans, ops, busy, extras) -> Dict[str, float]:
        """Per-layer metrics per traced operation; ``busy`` is the time
        the benchmark measured around those operations."""
        metrics = layers.layer_metrics(layers.Summary(client_spans), ops)
        metrics.update(layers.layer_metrics(layers.Summary(server_spans), ops, server=True))
        metrics.update(extras, **{"trace.ops": ops, "trace.op_s": busy / max(ops, 1)})
        return metrics

    def summary_lines(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


class LinkageWorkload(Workload):
    """Bulk linkage over the serial backend, job after job until time is up.

    Every job is a fresh seeded N×M model set, linked with
    ``chunk_pairs=16`` and the threshold at the job's median plaintext
    T, into a fresh result store.  The oracle and the inputs are built
    outside the timed region; ``ops_per_s`` is pairs over the time spent
    inside :func:`run_linkage`, each job's time scaled by the host's
    slowdown during it.
    """

    def __init__(self, name: str, kind: str, args, speed) -> None:
        super().__init__(name, args, speed)
        self.kind = kind
        self.workdir: Optional[Path] = None
        self.digest = hashlib.sha256()
        self.matches = 0
        self.probe = layers.Tracer()

    def setup(self) -> None:
        from repro.exceptions import ReproError
        from repro.linkage import LinkageJobSpec, runner

        self._errors = ReproError
        self._spec_class = LinkageJobSpec
        # Called through the module so a traced run sees the patched binding.
        self._runner = runner
        self.config = inputs.protocol_config()
        RESULTS.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"e2e-{self.name}-", dir=RESULTS))
        self.probe.install(only={"similarity.pair"})
        self.run_jobs(0.0, first=-1, scale=0.0)  # the untimed warm-up: a 1x1 job
        self.probe.spans.clear()

    def job(self, index: int, scale: float):
        left, right = inputs.linkage_job(self.kind, self.seed, index, scale)
        plain = {(a, b): plain_t(left[a], right[b]) for a in left for b in right}
        spec = self._spec_class(
            left,
            right,
            chunk_pairs=16,
            threshold=statistics.median(plain.values()),
            seed=self.seed,
            config=self.config,
        )
        return spec, plain

    def run_jobs(self, seconds: float, first: int = 0, tracer=None, scale=None):
        """Link jobs ``first, first+1, ...`` until ``seconds`` pass (at
        least one job); returns pairs, seconds inside run_linkage, and
        those seconds scaled job by job by the host's slowdown."""
        deadline = time.monotonic() + seconds
        pairs = 0
        busy = scaled = 0.0
        for index in itertools.count(first):
            spec, plain = self.job(index, self.scale if scale is None else scale)
            store = self.workdir / f"job-{index}"
            self.attempted += spec.total_pairs
            runner = self._runner.SerialLinkageRunner()
            started = time.monotonic()
            try:
                if tracer is None:
                    report = self._runner.run_linkage(spec, runner, store)
                else:
                    report = tracer.call(layers.ROOT, self._runner.run_linkage, spec, runner, store)
            except self._errors as error:
                self.fail(spec.total_pairs, f"job {index}: {type(error).__name__}: {error}")
            else:
                ended = time.monotonic()
                busy += ended - started
                scaled += (ended - started) / self.gauge.slowdown(started, ended)
                pairs += spec.total_pairs
                self.check(spec, plain, report)
            shutil.rmtree(store, ignore_errors=True)
            if time.monotonic() >= deadline:
                return pairs, busy, scaled

    def check(self, spec, plain, report) -> None:
        threshold = spec.threshold
        near = {pair for pair, t in plain.items() if abs(t - threshold) <= T_TOLERANCE * threshold}
        expected = {pair for pair, t in plain.items() if t <= threshold} - near
        survived = {(score.left, score.right) for score in report.matches}
        bad = (survived - near) ^ expected
        for score in report.matches:
            want = plain[(score.left, score.right)]
            if abs(score.t - want) > T_TOLERANCE * want:
                bad.add((score.left, score.right))
            self.digest.update(f"{score.left},{score.right},{score.t_squared}\n".encode())
        self.matches += len(report.matches)
        if bad:
            self.fail(len(bad), f"{len(bad)} pairs disagree with the plaintext oracle")

    def measure(self, seconds: float) -> None:
        pairs, _busy, scaled = self.run_jobs(seconds)
        pair_spans = self.probe.spans  # the probe records similarity.pair only
        self.probe.uninstall()
        self.measured = {
            "ops_per_s": pairs / scaled if scaled else 0.0,
            "latency_p50_ms": self.scaled_p50_ms([span[1:3] for span in pair_spans]),
            "bytes_per_op": statistics.fmean(span[7] for span in pair_spans) if pair_spans else 0.0,
        }

    def measure_traced(self, seconds: float) -> None:
        self.probe.uninstall()
        pairs, _busy, scaled = self.run_jobs(seconds / 2)
        tracer = layers.Tracer().install()
        try:
            traced_pairs, traced_busy, traced_scaled = self.run_jobs(seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        self.notes.extend(tracer.notes)
        tracer.write_jsonl(
            TRACE_DIR / f"{self.name}.client.jsonl", workload=self.name, side="client"
        )
        overhead = (pairs / scaled) / (traced_pairs / traced_scaled) - 1.0
        self.measured = self.traced_metrics(
            tracer.spans,
            [],
            traced_pairs,
            traced_busy,
            {
                "service.admit_wait_ms_p50": 0.0,
                "service.admit_wait_ms_p99": 0.0,
                "trace_overhead_pct": overhead * 100.0,
            },
        )

    def summary_lines(self) -> List[str]:
        return [f"matches digest {self.digest.hexdigest()} over {self.matches} surviving pairs"]

    def close(self) -> None:
        self.probe.uninstall()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


class _Lines:
    """Reads a child's stdout lines on a thread, so waits can time out."""

    def __init__(self, stream) -> None:
        self._queue: "queue.Queue" = queue.Queue()
        self._thread = threading.Thread(target=self._pump, args=(stream,), daemon=True)
        self._thread.start()

    def _pump(self, stream) -> None:
        for line in stream:
            self._queue.put(line.rstrip("\n"))
        self._queue.put(None)

    def next(self, timeout: float) -> str:
        try:
            line = self._queue.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"no reply from the server within {timeout:.0f} s") from None
        if line is None:
            raise RuntimeError("the server exited early")
        return line


class ClassifyWorkload(Workload):
    """Served private classification: a closed loop of two load threads,
    so two sessions are in flight, over one v2 connection or two v1
    connections."""

    def __init__(self, name, kind, protocol, args, speed) -> None:
        super().__init__(name, args, speed)
        self.kind = kind
        self.protocol = protocol
        self.traced = bool(args.trace)
        self.server = None
        self.clients: List = []
        self.failed_sessions = set()
        self.kept: Dict[int, tuple] = {}
        self.session_bytes: List[int] = []
        self.reference_count = max(1, round(REFERENCE_SESSIONS * args.scale))
        self.server_trace = TRACE_DIR / f"{self.name}.server.jsonl"

    # -- set-up and teardown -------------------------------------------------

    def setup(self) -> None:
        from repro.exceptions import ReproError
        from repro.net.service import TrainerClient

        self._errors = ReproError
        self.config = inputs.protocol_config()
        self.model = inputs.classify_model(self.kind, self.seed)
        self.samples = inputs.classify_samples(
            self.kind, self.seed, self.model, max(64, round(2048 * self.scale))
        )
        self.seed_base = inputs.session_seed_base(self.seed, self.name)
        command = [
            sys.executable, str(HERE / "serve.py"),
            "--workload", self.name, "--seed", str(self.seed),
        ]
        if self.traced:
            command += ["--trace-out", str(self.server_trace)]
        self.server = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env()
        )
        self.replies = _Lines(self.server.stdout)
        port = int(self.replies.next(60.0).split()[1])
        if self.protocol == "v2":
            client = TrainerClient("127.0.0.1", port, config=self.config, protocol="v2")
            self.clients = [client] * LOAD_THREADS
        else:
            self.clients = [
                TrainerClient("127.0.0.1", port, config=self.config, protocol="v1")
                for _ in range(LOAD_THREADS)
            ]
        self.attempted += 1
        self.session(self.clients[0], -1)  # the untimed warm-up

    def close(self) -> None:
        for client in {id(client): client for client in self.clients}.values():
            client.close()
        self.clients = []
        server, self.server = self.server, None
        if server is None:
            return
        try:
            server.stdin.close()
            try:
                self.server_rss_kb = json.loads(self.replies.next(STOP_TIMEOUT_S))["peak_rss_kb"]
            finally:
                server.wait(timeout=STOP_TIMEOUT_S)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        if server.returncode != 0:
            self.fail(1, f"the server exited with code {server.returncode}")

    # -- load ------------------------------------------------------------------

    def session(self, client, index: int, tracer=None) -> Optional[float]:
        """Run session ``index``; returns its end time, or None on failure."""
        sample, label = self.samples[index % len(self.samples)]
        seed = self.seed_base + index
        try:
            if tracer is None:
                outcome = client.classify(sample, seed=seed)
            else:
                outcome = tracer.call(layers.ROOT, client.classify, sample, seed=seed)
        except self._errors as error:
            self.failed_sessions.add(index)
            self.fail(1, f"session {index}: {type(error).__name__}: {error}")
            return None
        ended = time.monotonic()
        self.session_bytes.append(outcome.total_bytes)
        if outcome.label != label:
            self.failed_sessions.add(index)
            self.fail(1, f"session {index}: label {outcome.label}, oracle says {label}")
        if index < self.reference_count:
            self.kept[index] = (sample, seed, outcome)
        return ended

    def _drive(self, worker) -> None:
        threads = [
            threading.Thread(target=worker, args=(client,), name=f"load-{n}")
            for n, client in enumerate(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            if thread.is_alive():
                raise RuntimeError("a load thread did not finish")

    def closed_loop(self, seconds: float, first: int, tracer=None):
        """Two sessions in flight until ``seconds`` pass; returns each
        completed session's (start, end), sessions per second scaled by
        the host's slowdown, and the next index."""
        indices = itertools.count(first)
        intervals: List[tuple] = []
        started = time.monotonic()
        deadline = started + seconds

        def worker(client) -> None:
            while time.monotonic() < deadline:
                index = next(indices)
                begin = time.monotonic()
                ended = self.session(client, index, tracer)
                if ended is not None:
                    intervals.append((begin, ended))

        self._drive(worker)
        ended = time.monotonic()
        following = next(indices)
        self.attempted += following - first
        rate = len(intervals) / (ended - started) * self.gauge.slowdown(started, ended)
        return intervals, rate, following

    # -- runs --------------------------------------------------------------------

    def measure(self, seconds: float) -> None:
        intervals, rate, _ = self.closed_loop(seconds, 0)
        self.verify()
        self.measured = {
            "ops_per_s": rate,
            "latency_p50_ms": self.scaled_p50_ms(intervals),
            "bytes_per_op": statistics.fmean(self.session_bytes) if self.session_bytes else 0.0,
        }

    def measure_traced(self, seconds: float) -> None:
        _closed, rate, nxt = self.closed_loop(seconds / 2, 0)
        self.server.stdin.write("trace\n")
        self.server.stdin.flush()
        if self.replies.next(60.0) != "traced":
            raise RuntimeError("the server did not confirm tracing")
        tracer = layers.Tracer().install()
        try:
            intervals, traced_rate, _ = self.closed_loop(seconds / 2, nxt, tracer)
        finally:
            tracer.uninstall()
        self.notes.extend(tracer.notes)
        self.verify()
        self.close()
        tracer.write_jsonl(
            TRACE_DIR / f"{self.name}.client.jsonl", workload=self.name, side="client"
        )
        header, server_spans = layers.read_jsonl(self.server_trace)
        self.notes.extend(f"server: {note}" for note in header["notes"])
        called = {
            span[6]: span[1] for span in tracer.spans if span[0] == "service.session"
        }
        admitted = [
            (span[1] - called[span[6]]) * 1e3
            for span in server_spans
            if span[0] == "ompe.run" and span[6] in called
        ]
        self.measured = self.traced_metrics(
            tracer.spans,
            server_spans,
            len(intervals),
            sum(end - start for start, end in intervals),
            {
                "service.admit_wait_ms_p50": percentile(admitted, 50),
                "service.admit_wait_ms_p99": percentile(admitted, 99),
                "trace_overhead_pct": (rate / traced_rate - 1.0) * 100.0,
            },
        )

    def verify(self) -> None:
        """Replay the first sessions in process: label, masked value and
        per-phase bytes must equal the served run's."""
        from repro.core.classification import private_classify

        for index, (sample, seed, served) in sorted(self.kept.items()):
            local = private_classify(self.model, sample, config=self.config, seed=seed)
            same = (
                local.label == served.label
                and local.randomized_value == served.randomized_value
                and local.report.transcript.bytes_by_phase()
                == served.report.transcript.bytes_by_phase()
            )
            if not same and index not in self.failed_sessions:
                self.failed_sessions.add(index)
                self.fail(1, f"session {index} differs from in-process private_classify")
        self.kept.clear()


WORKLOADS = {
    "linkage-linear": partial(LinkageWorkload, "linkage-linear", "linear"),
    "linkage-kernel": partial(LinkageWorkload, "linkage-kernel", "kernel"),
    "classify-v2": partial(ClassifyWorkload, "classify-v2", "linear", "v2"),
    "classify-v1-kernel": partial(ClassifyWorkload, "classify-v1-kernel", "kernel", "v1"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    speed = gauge.SpeedGauge().start()
    try:
        check_source()
        workload = WORKLOADS[args.workload](args, speed)
        try:
            workload.setup()
            setup_end = time.monotonic()
            if not args.setup_only:
                if args.trace:
                    workload.measure_traced(args.seconds)
                else:
                    workload.measure(args.seconds)
            measure_end = time.monotonic()
        finally:
            workload.close()
    finally:
        speed.stop()
    setup = {"setup_end": setup_end, "setup_slowdown": speed.slowdown(started, setup_end)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0 if workload.failed == 0 else 1
    metrics = dict(workload.measured)
    if args.trace:
        units = layers.metric_units()
    else:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = max(own_kb, workload.server_rss_kb) / 1024.0
        units = dict(END_TO_END)
    for line in workload.summary_lines() + workload.notes:
        print(line)
    print(f"host slowdown {speed.slowdown(setup_end, measure_end):.4f} while measuring")
    correct = workload.failed == 0 and workload.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": workload.attempted,
                "failed": workload.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
                **setup,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    pin_to_one_cpu()
    sys.exit(main())
