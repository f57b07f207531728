"""Command-line interface for the repro library.

Usage (after ``pip install -e .``)::

    python -m repro.cli datasets                     # list dataset analogs
    python -m repro.cli generate breast-cancer d.libsvm
    python -m repro.cli train d.libsvm model.json --kernel poly --degree 3
    python -m repro.cli classify model.json d.libsvm --limit 5 --private
    python -m repro.cli similarity model_a.json model_b.json --private
    python -m repro.cli experiment table1            # regenerate a table/figure
    python -m repro.cli experiment --all
    python -m repro.cli observe --runs 3             # traced run + drift check
    python -m repro.cli serve model.json --port 9000 # host a trainer over TCP
    python -m repro.cli serve --models-dir left/ --port 9000
    python -m repro.cli remote-classify d.libsvm --connect 127.0.0.1:9000
    python -m repro.cli remote-similarity model_b.json --connect 127.0.0.1:9000
    python -m repro.cli link --left-dir left/ --right-dir right/ \
        --store store/ --threshold 0.8
    python -m repro.cli top --connect 127.0.0.1:9000 # live server view
    python -m repro.cli trace --connect 127.0.0.1:9000 --session s1

The CLI is a thin layer over the public API; each subcommand maps to
one documented library call, so it doubles as executable documentation.
"""

from __future__ import annotations

import os

# One OpenBLAS thread, set before numpy loads its BLAS.  A process not
# pinned to one CPU otherwise spreads each small polynomial-kernel gram
# over several threads and pays more in hand-offs than the product
# costs (tens of times slower on two vCPUs); the values are the same
# either way.  An explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from typing import List, Optional  # noqa: E402

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.core.classification import classify_linear, private_classify  # noqa: E402
from repro.core.ompe import OMPEConfig  # noqa: E402
from repro.core.similarity import (  # noqa: E402
    MetricParams,
    evaluate_similarity_plain,
    evaluate_similarity_private,
)
from repro.evaluation import available_experiments, run_experiment  # noqa: E402
from repro.exceptions import ReproError  # noqa: E402
from repro.ml.datasets import (  # noqa: E402
    available_datasets,
    load_dataset,
    read_libsvm,
    write_libsvm,
)
from repro.ml.datasets.registry import get_spec  # noqa: E402
from repro.ml.svm import accuracy, load_model, save_model, train_svm  # noqa: E402


def _cmd_datasets(_: argparse.Namespace) -> int:
    print(f"{'name':14s} {'dim':>4s} {'paper test':>10s} {'paper lin':>9s} {'paper poly':>10s}")
    for name in available_datasets():
        spec = get_spec(name)
        print(
            f"{name:14s} {spec.dimension:4d} {spec.paper_test_size:10d} "
            f"{spec.paper_linear_accuracy:9.4f} {spec.paper_polynomial_accuracy:10.4f}"
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    data = load_dataset(args.dataset, seed=args.seed)
    X = np.vstack([data.X_train, data.X_test])
    y = np.concatenate([data.y_train, data.y_test])
    write_libsvm(args.output, X, y)
    print(
        f"wrote {X.shape[0]} rows x {X.shape[1]} features "
        f"({data.train_size} train + {data.test_size} test) to {args.output}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    X, y = read_libsvm(args.data)
    kernel_params = {}
    if args.kernel in ("poly", "polynomial"):
        kernel_params = {
            "degree": args.degree,
            "a0": args.a0 if args.a0 is not None else 1.0 / X.shape[1],
            "b0": args.b0,
        }
    elif args.kernel == "rbf":
        kernel_params = {"gamma": args.gamma}
    model = train_svm(X, y, kernel=args.kernel, C=args.C, **kernel_params)
    save_model(model, args.model)
    print(
        f"trained {args.kernel} model on {X.shape[0]} rows: "
        f"{model.n_support} support vectors, "
        f"training accuracy {accuracy(model.predict(X), y):.1%}; "
        f"saved to {args.model}"
    )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    X, y = read_libsvm(args.data, dimension=model.dimension)
    limit = min(args.limit, X.shape[0]) if args.limit else X.shape[0]
    config = OMPEConfig(security_degree=args.security_degree)
    correct = 0
    for index in range(limit):
        if args.private:
            outcome = private_classify(
                model, X[index], config=config, seed=args.seed + index
            )
            label = outcome.label
            extra = f"  [{outcome.total_bytes} B]"
        else:
            label = float(model.predict(X[index : index + 1])[0])
            extra = ""
        marker = "ok " if label == y[index] else "ERR"
        correct += label == y[index]
        print(f"sample {index}: predicted {label:+.0f}, actual {y[index]:+.0f} {marker}{extra}")
    print(f"accuracy: {correct / limit:.1%} over {limit} samples "
          f"({'private protocol' if args.private else 'plain'})")
    return 0


def _print_similarity_outcome(outcome, transport: str) -> None:
    """Print what a (possibly mitigated) similarity outcome releases."""
    from repro.core.privacy.leakage import leakage_score
    from repro.core.similarity.policy import MitigatedSimilarityOutcome

    cost = f"{outcome.total_bytes} B over {outcome.total_rounds} rounds"
    if not isinstance(outcome, MitigatedSimilarityOutcome):
        print(f"similarity T = {outcome.t:.6g} "
              f"(privacy-preserving {transport}; {cost})")
        print("smaller T = more similar models")
        return
    policy = outcome.policy
    released = outcome.released
    if policy.mode == "raw":
        print(f"similarity T = {outcome.t:.6g} "
              f"(privacy-preserving {transport}; policy raw; {cost})")
        print("smaller T = more similar models")
    elif policy.mode == "threshold":
        ((_, bit),) = released.entries
        verdict = "MATCH" if bit else "no match"
        print(f"similarity: {verdict} at threshold {policy.threshold:g} "
              f"(policy {policy.label}; score withheld; {cost})")
    elif policy.mode == "top-k":
        scores = ", ".join(f"{score:.6g}" for score in released.revealed_scores)
        print(f"similarity top-{policy.k} scores: [{scores}] "
              f"(policy {policy.label}; {cost})")
    else:
        print(f"similarity released {released.count} masked value(s) "
              f"(policy permuted; magnitudes and linkage withheld; {cost})")
    score = leakage_score(policy, released.count)
    print(f"leakage score: {score.total:.3f} "
          + " ".join(f"{name}={value:.3f}"
                     for name, value in score.subscores().items()))


def _cmd_similarity(args: argparse.Namespace) -> int:
    model_a = load_model(args.model_a)
    model_b = load_model(args.model_b)
    params = MetricParams()
    policy = None
    if getattr(args, "output_policy", None):
        if not args.private:
            print("--output-policy requires --private (plain evaluation "
                  "has no protocol output to police)", file=sys.stderr)
            return 2
        from repro.core.similarity.policy import parse_output_policy

        policy = parse_output_policy(args.output_policy)
    if args.private:
        outcome = evaluate_similarity_private(
            model_a, model_b, params,
            config=OMPEConfig(security_degree=args.security_degree),
            seed=args.seed,
            policy=policy,
        )
        _print_similarity_outcome(outcome, "in-process")
    else:
        result = evaluate_similarity_plain(model_a, model_b, params)
        print(f"similarity T = {result.t:.6g} "
              f"(plain; L = {result.centroid_distance:.4g}, "
              f"angle = {result.angle_degrees:.2f} deg)")
        print("smaller T = more similar models")
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    from repro.math.groups import fast_group
    from repro.ml.svm import make_linear_model
    from repro.obs import drift
    from repro.utils.rng import ReproRandom

    rng = ReproRandom(args.seed)
    model = make_linear_model(
        [rng.uniform(-2.0, 2.0) for _ in range(args.dimension)],
        rng.uniform(-1.0, 1.0),
    )
    config = OMPEConfig(
        security_degree=args.security_degree,
        cover_expansion=args.cover_expansion,
        group=fast_group(),
    )
    with obs.observed() as (tracer, registry):
        for index in range(args.runs):
            classify_linear(
                model,
                [rng.uniform(-1.0, 1.0) for _ in range(args.dimension)],
                config=config,
                seed=args.seed + index,
            )
    report = drift.drift_from_metrics(
        registry, config, args.dimension, tolerance=args.tolerance
    )

    from repro.math import fastpath

    print("== arithmetic engine ==")
    print(
        f"bignum backend: {fastpath.backend_name()} "
        f"(available: {', '.join(fastpath.available_backends())})"
    )
    print()
    print("== span tree ==")
    print(tracer.flame())
    print()
    print("== metrics (prometheus) ==")
    print(registry.to_prometheus())
    print("== cost-model drift ==")
    print(report.to_text())
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(tracer.to_jsonl())
        print(f"spans written to {args.trace_out}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(registry.to_json())
        print(f"metrics snapshot written to {args.metrics_out}")
    if not report.ok:
        drifted = ", ".join(phase.phase for phase in report.drifted_phases)
        print(f"DRIFT detected in: {drifted}", file=sys.stderr)
        return 3
    return 0


def _parse_endpoint(text: str) -> tuple:
    """Parse ``--connect host:port`` into ``(host, port)``."""
    from repro.exceptions import ValidationError

    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise ValidationError(
            f"--connect expects host:port, got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValidationError(
            f"--connect expects a numeric port, got {port_text!r}"
        ) from None
    return host, port


def _load_model_dir(path: str) -> dict:
    """Load ``<path>/*.json`` as a keyed model collection (stem = key)."""
    from pathlib import Path

    from repro.exceptions import ValidationError

    files = sorted(Path(path).glob("*.json"))
    if not files:
        raise ValidationError(f"no *.json model files in {path!r}")
    return {file.stem: load_model(str(file)) for file in files}


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.net.service import TrainerServer

    models = None
    if args.models_dir:
        models = _load_model_dir(args.models_dir)
        model = None
    elif args.model:
        model = load_model(args.model)
    else:
        print("serve needs a model file or --models-dir", file=sys.stderr)
        return 2
    config = OMPEConfig(security_degree=args.security_degree)
    output_policy = None
    if args.output_policy:
        from repro.core.similarity.policy import parse_output_policy

        output_policy = parse_output_policy(args.output_policy)
    if args.observe:
        # Live registry + tracer: scrapeable over admin/metrics, with
        # per-session span fragments retrievable over admin/trace.
        obs.enable_metrics()
        obs.enable_tracing()
    with TrainerServer(
        model,
        host=args.host,
        port=args.port,
        config=config,
        session_timeout=args.timeout,
        max_connections=args.workers,
        drain_timeout=args.drain_timeout,
        output_policy=output_policy,
        session_workers=args.session_workers,
        models=models,
    ) as server:
        from repro.math import fastpath

        host, port = server.address
        policy_note = (
            f", output policy {output_policy.label}" if output_policy else ""
        )
        if models:
            what = (
                f"{len(models)} keyed models from {args.models_dir} "
                f"({', '.join(sorted(models))})"
            )
        else:
            what = args.model
        shown = server.model
        print(f"serving {what} on {host}:{port} "
              f"({'linear' if shown.is_linear() else 'kernel'} model, "
              f"dimension {shown.dimension}, "
              f"up to {args.workers} concurrent connections, "
              f"protocols v1+v2 ({args.session_workers} session workers)"
              f"{policy_note}, "
              f"bignum backend {fastpath.backend_name()})")
        if args.port_file:
            # Renamed into place, so a reader polling for the file never
            # sees it empty.
            staging = f"{args.port_file}.tmp"
            with open(staging, "w", encoding="utf-8") as handle:
                handle.write(str(port))
            os.replace(staging, args.port_file)
        served = server.serve_forever(max_sessions=args.max_sessions)
        print(f"served {served} sessions")
    return 0


def _cmd_remote_classify(args: argparse.Namespace) -> int:
    from repro.net.service import TrainerClient, TrainerClientPool

    host, port = _parse_endpoint(args.connect)
    X, y = read_libsvm(args.data)
    limit = min(args.limit, X.shape[0]) if args.limit else X.shape[0]
    config = OMPEConfig(security_degree=args.security_degree)
    seeds = [args.seed + index for index in range(limit)]
    tracer = obs.enable_tracing() if args.trace_out else None
    try:
        if args.pool > 1:
            with TrainerClientPool(
                host, port, size=args.pool, config=config,
                timeout=args.timeout, protocol=args.protocol,
                pipeline=args.pipeline,
            ) as pool:
                outcomes = pool.classify_many(
                    [X[index] for index in range(limit)], seeds=seeds
                )
        else:
            with TrainerClient(
                host, port, config=config, timeout=args.timeout,
                protocol=args.protocol,
            ) as client:
                outcomes = [
                    client.classify(X[index], seed=seeds[index])
                    for index in range(limit)
                ]
    finally:
        if tracer is not None:
            obs.disable_tracing()
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                handle.write(tracer.to_jsonl() + "\n")
            print(f"wrote client trace fragment to {args.trace_out} "
                  f"(stitch with: repro trace --connect {args.connect} "
                  f"--stitch {args.trace_out})")
    correct = 0
    for index, outcome in enumerate(outcomes):
        marker = "ok " if outcome.label == y[index] else "ERR"
        correct += outcome.label == y[index]
        print(f"sample {index}: predicted {outcome.label:+.0f}, "
              f"actual {y[index]:+.0f} {marker}  [{outcome.total_bytes} B]")
    print(f"accuracy: {correct / limit:.1%} over {limit} samples "
          f"(private protocol over TCP)")
    return 0


def _cmd_remote_similarity(args: argparse.Namespace) -> int:
    from repro.net.service import TrainerClient

    host, port = _parse_endpoint(args.connect)
    model = load_model(args.model)
    config = OMPEConfig(security_degree=args.security_degree)
    policy = None
    if args.output_policy:
        from repro.core.similarity.policy import parse_output_policy

        policy = parse_output_policy(args.output_policy)
    with TrainerClient(
        host, port, config=config, timeout=args.timeout,
        protocol=args.protocol,
    ) as client:
        outcome = client.evaluate_similarity(
            model, seed=args.seed, policy=policy
        )
    _print_similarity_outcome(outcome, "over TCP")
    return 0


def _render_health(health, metrics_dump) -> str:
    """One ``repro top`` frame: occupancy, flags, live sessions, counters."""
    lines = [
        f"connections {health.active_connections}/{health.max_connections}"
        f"   served {health.sessions_served}"
        f"   stopping={health.stopping} draining={health.draining}",
    ]
    if health.sessions:
        lines.append(f"{'session':10s} {'kind':12s} {'age':>8s}  span")
        for entry in health.sessions:
            span = entry.get("span") or "-"
            phase = entry.get("phase")
            if phase:
                span = f"{span} [{phase}]"
            lines.append(
                f"{str(entry.get('session') or '-'):10s} "
                f"{str(entry.get('kind') or '-'):12s} "
                f"{entry.get('age_s', 0.0):7.2f}s  {span}"
            )
    else:
        lines.append("no sessions in flight")
    if metrics_dump.enabled:
        snapshot = metrics_dump.snapshot()
        for name in sorted(snapshot):
            dump = snapshot[name]
            if dump.get("kind") == "counter":
                total = sum(entry["value"] for entry in dump.get("series", []))
                lines.append(f"{name:44s} {total:12g}")
            elif dump.get("kind") == "gauge":
                # Gauges are last-write-wins per label set — summing
                # them would be meaningless, so each series gets its
                # own line (this is where the per-policy
                # repro_privacy_leakage_score shows up).
                for entry in dump.get("series", []):
                    labels = ",".join(
                        f"{key}={value}"
                        for key, value in sorted(
                            dict(entry.get("labels", {})).items()
                        )
                    )
                    series_name = f"{name}{{{labels}}}" if labels else name
                    lines.append(f"{series_name:60s} {entry['value']:12g}")
    else:
        lines.append("(server metrics disabled — start with serve --observe)")
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.net.service import AdminClient

    host, port = _parse_endpoint(args.connect)
    with AdminClient(
        host, port, timeout=args.timeout, protocol=args.protocol
    ) as admin:
        for iteration in range(max(1, args.iterations)):
            if iteration:
                time.sleep(args.interval)
            health = admin.health()
            metrics_dump = admin.metrics()
            if args.iterations != 1 and not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            print(_render_health(health, metrics_dump))
            sys.stdout.flush()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.net.service import AdminClient
    from repro.obs.distributed import render, stitch

    if not args.connect and not args.stitch:
        print("trace needs --connect and/or --stitch", file=sys.stderr)
        return 2
    fragments = []
    if args.connect:
        host, port = _parse_endpoint(args.connect)
        with AdminClient(
            host, port, timeout=args.timeout, protocol=args.protocol
        ) as admin:
            dump = admin.trace(session=args.session)
        for entry in dump.sessions:
            origin = f"server/{entry.get('session', '?')}"
            fragments.append((origin, entry.get("jsonl", "")))
            error = entry.get("error")
            if error:
                print(f"note: session {entry.get('session')} "
                      f"ended with an error: {error}")
    for path in args.stitch:
        with open(path, "r", encoding="utf-8") as handle:
            fragments.append((os.path.basename(path), handle.read()))
    if not fragments:
        print("no trace fragments found (is the server running "
              "with --observe, and has a session completed?)")
        return 1
    roots = stitch(fragments)
    print(render(roots))
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    from repro.linkage import (
        LinkageJobSpec,
        SerialLinkageRunner,
        ServiceLinkageRunner,
        run_linkage,
    )
    from repro.math.groups import fast_group

    config_kwargs = {"security_degree": args.security_degree}
    if args.fast_group:
        config_kwargs["group"] = fast_group()
    config = OMPEConfig(**config_kwargs)
    spec = LinkageJobSpec(
        _load_model_dir(args.left_dir),
        _load_model_dir(args.right_dir),
        chunk_pairs=args.chunk_pairs,
        threshold=args.threshold,
        top_k=args.top_k,
        seed=args.seed,
        config=config,
    )
    if args.backend == "tcp":
        from repro.net.service import TrainerClientPool

        if not args.connect:
            print("--backend tcp needs --connect host:port", file=sys.stderr)
            return 2
        host, port = _parse_endpoint(args.connect)
        pool = TrainerClientPool(
            host, port, size=args.pool, config=config,
            timeout=args.timeout, protocol=args.protocol,
            pipeline=args.pipeline,
        )
        runner = ServiceLinkageRunner(pool, owns_pool=True)
    else:
        runner = SerialLinkageRunner()

    report = run_linkage(spec, runner, args.store, resume=not args.no_resume)
    if args.matches_out:
        with open(args.matches_out, "w", encoding="utf-8") as handle:
            for score in report.matches:
                handle.write(score.encode() + "\n")
    summary = report.summary()
    print(
        f"linked {summary['pairs_total']} pairs "
        f"({len(spec.left)} left x {len(spec.right)} right) in "
        f"{summary['chunks_total']} chunks via {args.backend}: "
        f"{summary['chunks_computed']} computed, "
        f"{summary['chunks_resumed']} resumed, "
        f"{summary['chunks_quarantined']} quarantined"
    )
    if report.corrupt:
        for error in report.corrupt:
            print(f"recovered from damaged chunk: {error}", file=sys.stderr)
    if summary["pairs_scored"]:
        print(
            f"scored {summary['pairs_scored']} pairs in "
            f"{summary['elapsed_s']:.2f}s "
            f"({summary['pairs_per_second']:.2f} pairs/s)"
        )
    filters = []
    if spec.threshold is not None:
        filters.append(f"T <= {spec.threshold:g}")
    if spec.top_k is not None:
        filters.append(f"top-{spec.top_k} per left record")
    note = f" ({', '.join(filters)})" if filters else ""
    print(f"{len(report.matches)} surviving pair(s){note}:")
    for score in report.matches[: args.limit]:
        print(f"  {score.left} ~ {score.right}  T = {score.t:.6g}")
    hidden = len(report.matches) - args.limit
    if hidden > 0:
        print(f"  ... and {hidden} more (raise --limit to show)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    ids = available_experiments() if args.all else [args.experiment]
    if not args.all and args.experiment is None:
        print("choose an experiment id or pass --all; available: "
              + ", ".join(available_experiments()))
        return 2
    for experiment_id in ids:
        result = run_experiment(experiment_id)
        print(result.to_text())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy-preserving classification and similarity evaluation "
                    "(ICDCS 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the paper-dataset analogs")

    generate = sub.add_parser("generate", help="generate a dataset analog to LIBSVM format")
    generate.add_argument("dataset", choices=available_datasets())
    generate.add_argument("output")
    generate.add_argument("--seed", type=int, default=2016)

    train = sub.add_parser("train", help="train an SVM from a LIBSVM file")
    train.add_argument("data")
    train.add_argument("model")
    train.add_argument("--kernel", default="linear",
                       choices=["linear", "poly", "rbf", "sigmoid"])
    train.add_argument("--C", type=float, default=10.0)
    train.add_argument("--degree", type=int, default=3)
    train.add_argument("--a0", type=float, default=None)
    train.add_argument("--b0", type=float, default=0.0)
    train.add_argument("--gamma", type=float, default=1.0)

    classify = sub.add_parser("classify", help="classify samples against a model")
    classify.add_argument("model")
    classify.add_argument("data")
    classify.add_argument("--private", action="store_true",
                          help="use the privacy-preserving protocol")
    classify.add_argument("--limit", type=int, default=10)
    classify.add_argument("--seed", type=int, default=0)
    classify.add_argument("--security-degree", type=int, default=2)

    similarity = sub.add_parser("similarity", help="compare two trained models")
    similarity.add_argument("model_a")
    similarity.add_argument("model_b")
    similarity.add_argument("--private", action="store_true")
    similarity.add_argument("--seed", type=int, default=0)
    similarity.add_argument("--security-degree", type=int, default=2)
    similarity.add_argument("--output-policy", default=None,
                            help="mitigated output mode (requires --private): "
                                 "raw, threshold:<t>, top-k:<k>, or permuted")

    experiment = sub.add_parser("experiment", help="regenerate a paper table/figure")
    experiment.add_argument("experiment", nargs="?", default=None)
    experiment.add_argument("--all", action="store_true")

    observe = sub.add_parser(
        "observe",
        help="run a traced private classification and check cost-model drift",
    )
    observe.add_argument("--dimension", type=int, default=3)
    observe.add_argument("--security-degree", type=int, default=2)
    observe.add_argument("--cover-expansion", type=int, default=2)
    observe.add_argument("--runs", type=int, default=1)
    observe.add_argument("--seed", type=int, default=0)
    observe.add_argument("--tolerance", type=float, default=0.35,
                         help="per-phase relative drift tolerance")
    observe.add_argument("--trace-out", default=None,
                         help="write the span tree as JSON lines")
    observe.add_argument("--metrics-out", default=None,
                         help="write the metrics snapshot as JSON")

    serve = sub.add_parser(
        "serve",
        help="host a trained model as a TCP trainer service",
    )
    serve.add_argument("model", nargs="?", default=None)
    serve.add_argument("--models-dir", default=None,
                       help="serve every *.json model in this directory as a "
                            "keyed collection (filename stem = key); "
                            "sessions select one via the session/open "
                            "'model' field — the bulk-linkage TCP backend "
                            "relies on this")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 picks a free port (printed on startup)")
    serve.add_argument("--port-file", default=None,
                       help="write the bound port to this file (for scripts)")
    serve.add_argument("--max-sessions", type=int, default=None,
                       help="exit after serving this many sessions")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="seconds the server waits on a silent client")
    serve.add_argument("--workers", type=int, default=8,
                       help="max concurrent client connections")
    serve.add_argument("--session-workers", type=int, default=8,
                       help="worker threads that run sessions, v1 and v2 "
                            "alike (at most this many compute at once)")
    serve.add_argument("--drain-timeout", type=float, default=5.0,
                       help="seconds in-flight sessions get to finish on shutdown")
    serve.add_argument("--security-degree", type=int, default=2)
    serve.add_argument("--observe", action="store_true",
                       help="enable metrics + tracing so admin/* frames, "
                            "repro top, and repro trace have data")
    serve.add_argument("--output-policy", default=None,
                       help="mandate a similarity output policy for every "
                            "session: raw, threshold:<t>, top-k:<k>, or "
                            "permuted (clients requesting a different "
                            "policy are refused)")

    remote_classify = sub.add_parser(
        "remote-classify",
        help="classify samples against a served model over TCP",
    )
    remote_classify.add_argument("data")
    remote_classify.add_argument("--connect", required=True,
                                 help="trainer service endpoint host:port")
    remote_classify.add_argument("--limit", type=int, default=10)
    remote_classify.add_argument("--pool", type=int, default=1,
                                 help="pooled connections; >1 classifies "
                                      "concurrently via TrainerClientPool")
    remote_classify.add_argument("--seed", type=int, default=0)
    remote_classify.add_argument("--timeout", type=float, default=30.0)
    remote_classify.add_argument("--security-degree", type=int, default=2)
    remote_classify.add_argument("--protocol", default="auto",
                                 choices=("v1", "v2", "auto"),
                                 help="wire protocol: v1 (one session per "
                                      "connection), v2 (multiplexed "
                                      "sessions), or auto-negotiate")
    remote_classify.add_argument("--pipeline", type=int, default=16,
                                 help="max in-flight sessions per pooled v2 "
                                      "connection (ignored on v1)")
    remote_classify.add_argument("--trace-out", default=None,
                                 help="trace the run and write the client-side "
                                      "span fragment as JSON lines")

    remote_similarity = sub.add_parser(
        "remote-similarity",
        help="compare a local model against a served model over TCP",
    )
    remote_similarity.add_argument("model")
    remote_similarity.add_argument("--connect", required=True,
                                   help="trainer service endpoint host:port")
    remote_similarity.add_argument("--seed", type=int, default=0)
    remote_similarity.add_argument("--timeout", type=float, default=30.0)
    remote_similarity.add_argument("--security-degree", type=int, default=2)
    remote_similarity.add_argument("--protocol", default="auto",
                                   choices=("v1", "v2", "auto"),
                                   help="wire protocol: v1, v2, or "
                                        "auto-negotiate")
    remote_similarity.add_argument("--output-policy", default=None,
                                   help="request a mitigated output mode: "
                                        "raw, threshold:<t>, top-k:<k>, or "
                                        "permuted (e.g. top-k:5)")

    link = sub.add_parser(
        "link",
        help="bulk-link two model collections (chunked NxM similarity "
             "with a crash-resumable result store)",
    )
    link.add_argument("--left-dir", required=True,
                      help="directory of *.json left models (trainer side)")
    link.add_argument("--right-dir", required=True,
                      help="directory of *.json right models (querying side)")
    link.add_argument("--store", required=True,
                      help="result-store directory (reused to resume)")
    link.add_argument("--backend", default="serial",
                      choices=("serial", "tcp"),
                      help="serial (in this process) or tcp (fan out to a "
                           "served left collection)")
    link.add_argument("--connect", default=None,
                      help="tcp backend endpoint host:port (serve the left "
                           "collection with serve --models-dir first)")
    link.add_argument("--pool", type=int, default=2,
                      help="tcp backend pooled connections")
    link.add_argument("--pipeline", type=int, default=16,
                      help="tcp backend in-flight sessions per v2 connection")
    link.add_argument("--protocol", default="auto",
                      choices=("v1", "v2", "auto"),
                      help="tcp backend wire protocol")
    link.add_argument("--timeout", type=float, default=30.0,
                      help="tcp backend per-session timeout in seconds")
    link.add_argument("--chunk-pairs", type=int, default=128,
                      help="pairs per chunk (the unit of resume)")
    link.add_argument("--threshold", type=float, default=None,
                      help="keep pairs with T <= this (smaller T = more "
                           "similar)")
    link.add_argument("--top-k", type=int, default=None,
                      help="keep the k most-similar pairs per left record")
    link.add_argument("--seed", type=int, default=0)
    link.add_argument("--security-degree", type=int, default=2)
    link.add_argument("--fast-group", action="store_true",
                      help="use the small test group (fast, not "
                           "production-sized security)")
    link.add_argument("--no-resume", action="store_true",
                      help="recompute every chunk even if the store has "
                           "completed ones")
    link.add_argument("--matches-out", default=None,
                      help="write the final filtered pair set as canonical "
                           "JSONL (stable bytes across backends/resumes)")
    link.add_argument("--limit", type=int, default=20,
                      help="max surviving pairs to print")

    top = sub.add_parser(
        "top",
        help="live view of a running trainer service (admin channel)",
    )
    top.add_argument("--connect", required=True,
                     help="trainer service endpoint host:port")
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between refreshes")
    top.add_argument("--iterations", type=int, default=1,
                     help="number of frames to print (1 = snapshot)")
    top.add_argument("--no-clear", action="store_true",
                     help="do not clear the screen between frames")
    top.add_argument("--timeout", type=float, default=10.0)
    top.add_argument("--protocol", default="auto",
                     choices=("v1", "v2", "auto"),
                     help="admin channel wire protocol")

    trace = sub.add_parser(
        "trace",
        help="fetch per-session trace fragments and print the stitched tree",
    )
    trace.add_argument("--connect", default=None,
                       help="trainer service endpoint host:port")
    trace.add_argument("--session", default=None,
                       help="only this session id (e.g. s1)")
    trace.add_argument("--stitch", nargs="*", default=[],
                       help="extra local trace JSONL files to stitch in "
                            "(e.g. from remote-classify --trace-out)")
    trace.add_argument("--timeout", type=float, default=10.0)
    trace.add_argument("--protocol", default="auto",
                       choices=("v1", "v2", "auto"),
                       help="admin channel wire protocol")

    return parser


_HANDLERS = {
    "datasets": _cmd_datasets,
    "generate": _cmd_generate,
    "train": _cmd_train,
    "classify": _cmd_classify,
    "similarity": _cmd_similarity,
    "experiment": _cmd_experiment,
    "link": _cmd_link,
    "observe": _cmd_observe,
    "serve": _cmd_serve,
    "remote-classify": _cmd_remote_classify,
    "remote-similarity": _cmd_remote_similarity,
    "top": _cmd_top,
    "trace": _cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
