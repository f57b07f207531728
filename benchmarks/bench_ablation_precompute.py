"""Ablation — offline randomness precomputation (paper Section VI-B.1).

"We can further reduce the time cost by generating random polynomials
before the scheme."  This bench measures the online cost of an OMPE
query with and without precomputed randomness pools.  Finding: the
saving is real but modest in this implementation because the k-of-M
oblivious transfer (not polynomial generation) dominates the online
cost — a useful datum the paper's remark glosses over.

Run standalone (PR 8) to measure cold vs warm precompute per bignum
backend and merge the rows into the ``precompute`` section of the
committed ``BENCH_hotpath.json``::

    python benchmarks/bench_ablation_precompute.py [--quick] [--output PATH]

The one row is the pooled vs poolless OMPE online path.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # direct execution from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

from artifact import BENCH_DIR, update_artifact
from repro.core.ompe import (
    OMPEConfig,
    OMPEFunction,
    ReceiverPool,
    SenderPool,
    execute_ompe,
)
from repro.math import fastpath
from repro.math.groups import fast_group
from repro.math.multivariate import MultivariatePolynomial
from repro.utils.rng import ReproRandom


@pytest.fixture(scope="module")
def setup():
    config = OMPEConfig(security_degree=2, cover_expansion=3, group=fast_group())
    polynomial = MultivariatePolynomial.affine(
        [Fraction(2), Fraction(-3), Fraction(1, 2)], Fraction(1, 4)
    )
    function = OMPEFunction.from_polynomial(polynomial)
    alpha = (Fraction(1, 3), Fraction(1, 4), Fraction(-2, 5))
    return config, polynomial, function, alpha


def test_pooled_run_is_exact(setup):
    config, polynomial, function, alpha = setup
    sender_pool = SenderPool(config, 1, 3, ReproRandom(1))
    receiver_pool = ReceiverPool(config, 3, 1, 3, ReproRandom(2))
    outcome = execute_ompe(
        function, alpha, config=config, seed=5, sender_pool=sender_pool,
        receiver_hidden=receiver_pool.hide(alpha, config),
    )
    assert outcome.value == polynomial(alpha) * outcome.amplifier


def test_pool_exhaustion_detected(setup):
    from repro.exceptions import OMPEError

    config, _, function, alpha = setup
    sender_pool = SenderPool(config, 1, 1, ReproRandom(3))
    execute_ompe(function, alpha, config=config, seed=6, sender_pool=sender_pool)
    with pytest.raises(OMPEError):
        execute_ompe(function, alpha, config=config, seed=7, sender_pool=sender_pool)


def test_benchmark_online_without_pool(benchmark, setup):
    config, _, function, alpha = setup

    def run():
        return execute_ompe(function, alpha, config=config, seed=1).value

    benchmark(run)


def test_benchmark_online_with_pool(benchmark, setup):
    config, _, function, alpha = setup
    # Fixed rounds so the pools cannot exhaust mid-benchmark.
    rounds, warmup = 15, 2
    sender_pool = SenderPool(config, 1, rounds + warmup + 1, ReproRandom(8))
    receiver_pool = ReceiverPool(config, 3, 1, rounds + warmup + 1, ReproRandom(9))

    def run():
        return execute_ompe(
            function, alpha, config=config, seed=1, sender_pool=sender_pool,
            receiver_hidden=receiver_pool.hide(alpha, config),
        ).value

    benchmark.pedantic(run, rounds=rounds, warmup_rounds=warmup, iterations=1)


# -- standalone cold-vs-warm precompute table (PR 8) ---------------------------

def _time_loop(callable_, iterations):
    start = time.perf_counter()
    for _ in range(iterations):
        callable_()
    return (time.perf_counter() - start) / iterations


def _backend_rows(backend, quick=False):
    """Cold-build vs warm-use rows for one bignum backend leg."""
    rows = []
    # -- OMPE online: poolless vs precomputed randomness pools -------------
    config = OMPEConfig(security_degree=2, cover_expansion=3, group=fast_group())
    polynomial = MultivariatePolynomial.affine(
        [Fraction(2), Fraction(-3), Fraction(1, 2)], Fraction(1, 4)
    )
    function = OMPEFunction.from_polynomial(polynomial)
    alpha = (Fraction(1, 3), Fraction(1, 4), Fraction(-2, 5))
    rounds = 3 if quick else 8
    cold_s = _time_loop(
        lambda: execute_ompe(function, alpha, config=config, seed=1), rounds
    )
    sender_pool = SenderPool(config, 1, rounds + 1, ReproRandom(8))
    receiver_pool = ReceiverPool(config, 3, 1, rounds + 1, ReproRandom(9))

    def pooled_run():
        execute_ompe(
            function, alpha, config=config, seed=1, sender_pool=sender_pool,
            receiver_hidden=receiver_pool.hide(alpha, config),
        )

    warm_s = _time_loop(pooled_run, rounds)
    rows.append({
        "backend": backend,
        "op": "ompe_online",
        "cold_ms": round(cold_s * 1e3, 3),
        "warm_ms": round(warm_s * 1e3, 3),
        "speedup_warm": round(cold_s / warm_s, 3) if warm_s else None,
    })
    return rows


def run_precompute(quick=False, backend_list=None):
    if backend_list is None:
        backend_list = fastpath.available_backends()
    rows = []
    for backend in backend_list:
        with fastpath.use_backend(backend):
            rows.extend(_backend_rows(backend, quick=quick))
    return {"quick": quick, "backends": list(backend_list), "rows": rows}


def format_precompute_table(results):
    lines = ["cold vs warm precompute:"]
    for row in results["rows"]:
        lines.append(
            f"  {row['op']:20s} {row['backend']:7s} cold {row['cold_ms']:10.3f}   "
            f"warm {row['warm_ms']:10.3f}   {row['speedup_warm']:6.2f}x warm"
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="cold vs warm precompute ablation per bignum backend"
    )
    parser.add_argument("--quick", action="store_true",
                        help="small workloads (CI smoke)")
    parser.add_argument("--output", type=Path, default=None,
                        help="artifact path (default benchmarks/BENCH_hotpath.json)")
    args = parser.parse_args(argv)

    results = run_precompute(quick=args.quick)
    name = "hotpath_quick" if args.quick else "hotpath"
    if args.output is not None:
        directory, name = args.output.parent, args.output.stem
        if name.startswith("BENCH_"):
            name = name[len("BENCH_"):]
    else:
        directory = BENCH_DIR if not args.quick else None
    path = update_artifact(name, "precompute", results, directory=directory)
    print(format_precompute_table(results))
    print(f"artifact: {path}")
    return 0


def test_precompute_rows_quick():
    results = run_precompute(quick=True)
    assert {row["op"] for row in results["rows"]} >= {"ompe_online"}
    for row in results["rows"]:
        assert row["speedup_warm"] is not None and row["speedup_warm"] > 0
    update_artifact("hotpath_quick", "precompute", results)


if __name__ == "__main__":
    sys.exit(main())
