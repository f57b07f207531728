"""End-to-end benchmark: bulk linkage and served classification.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload <name|all> --seed 2016 [--seconds 25] [--trace 0|1]

Each run starts the workload in fresh interpreters (``workloads.py``):
some that only set up, then one that sets up and measures.  ``setup_s``
is the median of the set-up times, each from spawning the interpreter
to the end of one untimed warm-up operation (traced runs skip the extra
set-ups: they do not report ``setup_s``).  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics.  Exits non-zero when an output was wrong or an
operation failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

WORKLOAD_SCRIPT = Path(__file__).resolve().parent / "workloads.py"
#: Set-ups per run; ``setup_s`` is their median, since one set-up's
#: time swings with the host (a median of three still spread by up to
#: 24% over ten seeds).
SETUP_RUNS = 5
#: A run must end within 180 s even if a child hangs.
CHILD_TIMEOUT_S = 170.0


def spawn(arguments, timeout: float):
    """Run ``workloads.py`` once; returns (spawn time, result, exit code)."""
    spawned = time.monotonic()
    child = subprocess.run(
        [sys.executable, str(WORKLOAD_SCRIPT)] + arguments,
        stdout=subprocess.PIPE,
        text=True,
        env=workloads.child_env(),
        timeout=timeout,
    )
    lines = child.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return spawned, result, child.returncode


def scaled_setup(spawned: float, result: dict) -> float:
    """Spawn to end of warm-up, scaled by the host's slowdown meanwhile."""
    return (result.pop("setup_end") - spawned) / result.pop("setup_slowdown")


def run_workload(name: str, args: argparse.Namespace) -> dict:
    common = ["--workload", name, "--seed", str(args.seed), "--scale", str(args.scale)]
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups = []
    extra_setups = SETUP_RUNS - 1 if args.scale >= 1 and not args.trace else 0
    for _ in range(extra_setups):
        spawned, result, code = spawn(common + ["--setup-only"], deadline - time.monotonic())
        if code != 0 or result is None:
            raise SystemExit(f"error: set-up of {name} failed (exit code {code})")
        setups.append(scaled_setup(spawned, result))
    spawned, result, code = spawn(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline - time.monotonic(),
    )
    if result is None:
        raise SystemExit(f"error: {name} printed no result (exit code {code})")
    setups.append(scaled_setup(spawned, result))
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        metrics.update(result["metrics"])
        result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="below 1: a smoke run with smaller jobs and a single set-up",
    )
    args = parser.parse_args(argv)
    workloads.check_source()
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(name, args)
        if args.workload == "all":
            result = dict(workload=name, **result)
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
