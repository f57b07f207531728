"""Trainer server process for the classify workloads.

Spawned by ``workloads.py``; not meant to be run by hand::

    python serve.py --workload classify-v2 --seed 2016 [--trace-out PATH]

Hosts the workload's model (generated from the seed, the same model the
load process checks labels against) on a loopback
:class:`~repro.net.service.TrainerServer`, prints ``ready <port>`` once
listening, then reads commands from stdin:

* ``trace`` installs every layer wrapper and answers ``traced``;
* end of input drains and stops the server, writes the spans to
  ``--trace-out``, prints ``{"peak_rss_kb": ...}`` and exits.

With ``--trace-out`` the precompute layer is traced from the start, so
the warm-up the server's constructor runs is recorded too.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
from pathlib import Path

import inputs
import layers

SERVED = {"classify-v2": "linear", "classify-v1-kernel": "kernel"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SERVED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    from repro.net.service import TrainerServer

    tracer = layers.Tracer()
    if args.trace_out is not None:
        tracer.install(only={"precompute"})
    model = inputs.classify_model(SERVED[args.workload], args.seed)
    server = TrainerServer(
        model=model,
        config=inputs.protocol_config(),
        max_connections=2,
        session_workers=2,
        session_timeout=60.0,
    )
    serving = threading.Thread(target=server.serve_forever, name="bench-serve", daemon=True)
    serving.start()
    try:
        print(f"ready {server.address[1]}", flush=True)
        for line in sys.stdin:
            if line.strip() == "trace":
                tracer.install()
                print("traced", flush=True)
    finally:
        server.stop(drain_timeout=5.0)
        serving.join(timeout=20.0)
        server.close()
        tracer.uninstall()
    if serving.is_alive():
        print("server loop did not stop", file=sys.stderr)
        return 1
    if args.trace_out is not None:
        tracer.write_jsonl(args.trace_out, workload=args.workload, side="server")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
