"""Hot-path arithmetic engine — micro-ops and protocol speedup table.

Measures every optimization in the hot-path arithmetic engine against
its naive reference, asserts the outputs are identical, and writes the
speedup table to ``BENCH_hotpath.json``:

* micro-op rows — group exponentiation (C ``pow`` vs fixed-base
  tables), Jacobi membership, the big-int XOR, ``Fraction`` vs
  scaled-integer dot products, and Paillier CRT / pooled-randomizer
  costs;
* protocol rows — full private nonlinear classification and similarity
  runs, hot path vs ``repro.math.fastpath.naive_arithmetic()``, same
  seeds, with identical-output assertions.

Every row carries a ``backend`` column and the whole suite repeats once
per available bignum backend (``python`` always; ``gmpy2`` when
importable; ``gmp`` when the system libgmp loads).  The naive reference is re-measured inside each
backend leg but always runs on pure CPython ``pow``: the oracle is
never routed through a backend.  Results land in the ``arith`` section
of ``BENCH_hotpath.json`` (via ``update_artifact``, so the
``precompute`` section from ``bench_ablation_precompute.py`` survives).

Run standalone::

    python benchmarks/bench_hotpath_arith.py [--quick] [--check] [--output PATH]

``--quick`` shrinks the workloads (CI smoke); ``--check`` exits nonzero
when any optimized path is slower than its naive reference, and — in
full mode — when the protocol rows miss their acceptance gates (≥3x on
nonlinear classification under the python backend, ≥10x under gmpy2,
≥2x on nonlinear similarity).

The module is also collectable by pytest: the test at the bottom runs
the quick workload and enforces output identity.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # direct execution from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

from artifact import BENCH_DIR, BENCH_SEED, update_artifact
from repro.core.ompe import OMPEConfig
from repro.core.ompe.compose import clear_composition_cache
from repro.core.classification.nonlinear import classify_nonlinear
from repro.core.similarity.exact import exact_dot
from repro.core.similarity.linear import evaluate_similarity_private
from repro.crypto.hashing import _xor
from repro.crypto.paillier import PaillierCipher, generate_keypair
from repro.math import fastpath, groups
from repro.math.groups import fast_group
from repro.math.numtheory import jacobi_symbol
from repro.math.polynomials import Polynomial
from repro.ml.kernels import polynomial_kernel
from repro.ml.svm.model import SVMModel, make_linear_model
from repro.utils.rng import ReproRandom

#: Acceptance gates for the full protocol rows (ISSUE 3; gmpy2 gate
#: from ISSUE 8 — it only applies when the gmpy2 backend is active).
GATE_CLASSIFICATION = 3.0
GATE_CLASSIFICATION_GMPY2 = 10.0
GATE_SIMILARITY = 2.0


def _classification_gate(backend):
    return GATE_CLASSIFICATION_GMPY2 if backend == "gmpy2" else GATE_CLASSIFICATION


def _time_loop(callable_, iterations):
    start = time.perf_counter()
    for _ in range(iterations):
        callable_()
    return (time.perf_counter() - start) / iterations


def _micro_row(name, ops, naive_s, fast_s, note=None):
    row = {
        "op": name,
        "ops": ops,
        "naive_us": round(naive_s * 1e6, 3),
        "fast_us": round(fast_s * 1e6, 3),
        "speedup": round(naive_s / fast_s, 3) if fast_s else None,
    }
    if note:
        row["note"] = note
    return row


def run_micro_benchmarks(quick=False):
    """Micro-op table: each hot-path primitive vs its naive reference."""
    rows = []
    group = fast_group()
    draw = ReproRandom(BENCH_SEED)
    iterations = 40 if quick else 200

    # -- group exponentiation family ------------------------------------------
    exponents = [draw.randint(1, group.q - 1) for _ in range(iterations)]
    base = group.random_element(draw)

    def pow_all():
        for e in exponents:
            pow(base, e, group.p)

    pow_s = _time_loop(pow_all, 3) / iterations
    rows.append(_micro_row("variable_base_pow_c", iterations, pow_s, pow_s,
                           note="CPython C pow; the baseline"))

    table = group.fixed_base_table()

    def table_all():
        for e in exponents:
            table.power(e)

    for e in exponents[:5]:
        assert table.power(e) == pow(group.g, e, group.p)
    table_s = _time_loop(table_all, 3) / iterations
    rows.append(_micro_row("fixed_base_table_w8", iterations, pow_s, table_s,
                           note="g^r with the cached window-8 table"))

    # -- subgroup membership ---------------------------------------------------
    member = pow(base, 2, group.p)

    def jacobi_test():
        jacobi_symbol(member, group.p)

    def euler_test():
        pow(member, group.q, group.p)

    assert (jacobi_symbol(member, group.p) == 1) == (
        pow(member, group.q, group.p) == 1
    )
    rows.append(_micro_row(
        "subgroup_membership", 1,
        _time_loop(euler_test, iterations), _time_loop(jacobi_test, iterations),
        note="Jacobi symbol vs Euler-criterion pow",
    ))

    # -- byte and rational arithmetic -----------------------------------------
    data = bytes(range(256)) * 4
    keystream = bytes(reversed(data))

    def xor_int():
        _xor(data, keystream)

    def xor_bytes():
        bytes(a ^ b for a, b in zip(data, keystream))

    assert _xor(data, keystream) == bytes(a ^ b for a, b in zip(data, keystream))
    rows.append(_micro_row(
        "payload_xor", len(data),
        _time_loop(xor_bytes, iterations), _time_loop(xor_int, iterations),
        note="big-int XOR vs per-byte generator, 1 KiB payload",
    ))

    vector_a = [draw.fraction(-5, 5) for _ in range(32)]
    vector_b = [draw.fraction(-5, 5) for _ in range(32)]

    def dot_fast():
        exact_dot(vector_a, vector_b)

    def dot_naive():
        with fastpath.naive_arithmetic():
            exact_dot(vector_a, vector_b)

    with fastpath.naive_arithmetic():
        reference = exact_dot(vector_a, vector_b)
    assert exact_dot(vector_a, vector_b) == reference
    rows.append(_micro_row(
        "exact_dot_32", 32,
        _time_loop(dot_naive, iterations), _time_loop(dot_fast, iterations),
        note="scaled-integer vs Fraction multiply-add",
    ))

    coefficients = [draw.fraction(-3, 3) for _ in range(9)]
    point = draw.fraction(-2, 2)

    def poly_fast():
        Polynomial(coefficients)(point)

    def poly_naive():
        with fastpath.naive_arithmetic():
            Polynomial(coefficients)(point)

    with fastpath.naive_arithmetic():
        reference = Polynomial(coefficients)(point)
    assert Polynomial(coefficients)(point) == reference
    rows.append(_micro_row(
        "polynomial_eval_deg8", 1,
        _time_loop(poly_naive, iterations), _time_loop(poly_fast, iterations),
        note="integer Horner + one normalization vs Fraction Horner",
    ))

    # -- Paillier --------------------------------------------------------------
    public, private = generate_keypair(bits=384 if quick else 768,
                                       rng=ReproRandom(BENCH_SEED))
    message = 123456789
    ciphertext = public.encrypt_raw(message, ReproRandom(1))

    def decrypt_crt():
        private.decrypt_raw(ciphertext)

    def decrypt_lambda():
        with fastpath.naive_arithmetic():
            private.decrypt_raw(ciphertext)

    assert private.decrypt_raw(ciphertext) == message
    paillier_iters = max(10, iterations // 4)
    rows.append(_micro_row(
        "paillier_decrypt", 1,
        _time_loop(decrypt_lambda, paillier_iters),
        _time_loop(decrypt_crt, paillier_iters),
        note="CRT split vs textbook lambda path",
    ))

    pooled = PaillierCipher(public, private, rng=ReproRandom(2), pool_batch=64)
    pooled.pool.refill(paillier_iters + 8)  # offline phase, not timed
    plain = PaillierCipher(public, private, rng=ReproRandom(2))

    def encrypt_pooled():
        pooled.encrypt(42)

    def encrypt_plain():
        plain.encrypt(42)

    rows.append(_micro_row(
        "paillier_encrypt_online", 1,
        _time_loop(encrypt_plain, paillier_iters),
        _time_loop(encrypt_pooled, paillier_iters),
        note="precomputed r^n pool (online cost only)",
    ))
    return rows


def _poly_model(seed, n_sv, dim, degree):
    rng = np.random.default_rng(seed)
    return SVMModel(
        support_vectors=rng.uniform(-1, 1, size=(n_sv, dim)),
        dual_coefficients=rng.uniform(-1, 1, size=n_sv),
        bias=float(rng.uniform(-0.5, 0.5)),
        kernel=polynomial_kernel(degree=degree, a0=1.0, b0=1.0),
        kernel_spec=("poly", {"degree": degree, "a0": 1.0, "b0": 1.0}),
    )


def _timed_modes(run, repeats):
    """Run ``run()`` on the hot path and the naive reference; time both."""
    clear_composition_cache()
    start = time.perf_counter()
    fast_results = [run() for _ in range(repeats)]
    fast_s = (time.perf_counter() - start) / repeats
    clear_composition_cache()
    with fastpath.naive_arithmetic():
        start = time.perf_counter()
        naive_results = [run() for _ in range(repeats)]
        naive_s = (time.perf_counter() - start) / repeats
    return fast_results, naive_results, fast_s, naive_s


def _interleaved_best(run, rounds):
    """Best of ``rounds`` cold runs per mode, alternating hot path and
    naive, so a slow spell of the host rarely lands on one mode only."""
    fast_results, naive_results = [], []
    fast_s = naive_s = float("inf")
    for _ in range(rounds):
        clear_composition_cache()
        start = time.perf_counter()
        fast_results.append(run())
        fast_s = min(fast_s, time.perf_counter() - start)
        clear_composition_cache()
        with fastpath.naive_arithmetic():
            start = time.perf_counter()
            naive_results.append(run())
            naive_s = min(naive_s, time.perf_counter() - start)
    return fast_results, naive_results, fast_s, naive_s


def run_protocol_benchmarks(quick=False, backend=None):
    """Full protocol runs, hot path vs naive, identical outputs enforced."""
    if backend is None:
        backend = fastpath.backend_name()
    config = OMPEConfig(security_degree=2, cover_expansion=2, group=fast_group())
    rows = []

    # -- nonlinear classification (direct kernel evaluation) -------------------
    n_sv, dim, degree = (20, 8, 3) if quick else (40, 12, 3)
    model = _poly_model(1, n_sv, dim, degree)
    sample = np.random.default_rng(9).uniform(-1, 1, size=dim)
    repeats = 1 if quick else 3

    def classify():
        return classify_nonlinear(model, sample, config=config, seed=BENCH_SEED)

    fast, naive, fast_s, naive_s = _timed_modes(classify, repeats)
    identical = all(
        f.label == n.label and f.randomized_value == n.randomized_value
        for f, n in zip(fast, naive)
    )
    rows.append({
        "protocol": "nonlinear_classification",
        "workload": {"n_sv": n_sv, "dim": dim, "degree": degree},
        "fast_ms": round(fast_s * 1e3, 2),
        "naive_ms": round(naive_s * 1e3, 2),
        "speedup": round(naive_s / fast_s, 3),
        "identical_output": identical,
        "gate": None if quick else _classification_gate(backend),
    })

    # -- nonlinear (kernel) similarity ----------------------------------------
    n_sv, dim, degree = (8, 4, 2) if quick else (12, 6, 3)
    model_a = _poly_model(1, n_sv, dim, degree)
    model_b = _poly_model(2, n_sv, dim, degree)

    def similarity():
        return evaluate_similarity_private(
            model_a, model_b, config=config, seed=BENCH_SEED
        )

    # One sample per mode let a slow spell of a shared host fail the gate.
    fast, naive, fast_s, naive_s = _interleaved_best(similarity, 3)
    identical = all(
        f.t_squared == n.t_squared for f, n in zip(fast, naive)
    )
    rows.append({
        "protocol": "nonlinear_similarity",
        "workload": {"n_sv": n_sv, "dim": dim, "degree": degree},
        "fast_ms": round(fast_s * 1e3, 2),
        "naive_ms": round(naive_s * 1e3, 2),
        "speedup": round(naive_s / fast_s, 3),
        "identical_output": identical,
        "gate": None if quick else GATE_SIMILARITY,
    })

    # -- linear similarity (reported, no gate: OT/rng-bound) -------------------
    dim = 3
    rng = np.random.default_rng(5)
    linear_a = make_linear_model(rng.uniform(-1, 1, size=dim), 0.1)
    linear_b = make_linear_model(rng.uniform(-1, 1, size=dim), -0.05)

    def linear_similarity():
        return evaluate_similarity_private(
            linear_a, linear_b, config=config, seed=BENCH_SEED
        )

    fast, naive, fast_s, naive_s = _timed_modes(linear_similarity, 1)
    identical = all(
        f.t_squared == n.t_squared for f, n in zip(fast, naive)
    )
    rows.append({
        "protocol": "linear_similarity",
        "workload": {"dim": dim},
        "fast_ms": round(fast_s * 1e3, 2),
        "naive_ms": round(naive_s * 1e3, 2),
        "speedup": round(naive_s / fast_s, 3),
        "identical_output": identical,
        "gate": None,
    })
    return rows


def run_all(quick=False, backend_list=None):
    """The full table, once per bignum backend, every row tagged.

    The generator-table cache is cleared between legs so each backend
    times (and the protocol rows exercise) tables built with its own
    native entries rather than ones inherited from the previous leg.
    """
    if backend_list is None:
        backend_list = fastpath.available_backends()
    micro, protocol = [], []
    for backend in backend_list:
        with fastpath.use_backend(backend):
            groups._FIXED_BASE_TABLES.clear()
            groups.reset_fixed_base_table_stats()
            micro_rows = run_micro_benchmarks(quick=quick)
            protocol_rows = run_protocol_benchmarks(quick=quick, backend=backend)
        for row in micro_rows + protocol_rows:
            row["backend"] = backend
        micro.extend(micro_rows)
        protocol.extend(protocol_rows)
    return {
        "quick": quick,
        "backends": list(backend_list),
        "micro": micro,
        "protocol": protocol,
    }


def check_results(results):
    """Return a list of failure strings (empty = all gates pass)."""
    failures = []
    for row in results["protocol"]:
        where = f"{row['protocol']}[{row.get('backend', '?')}]"
        if not row["identical_output"]:
            failures.append(f"{where}: outputs differ between modes")
        if row["speedup"] is not None and row["speedup"] < 1.0:
            failures.append(
                f"{where}: optimized path slower than naive "
                f"({row['speedup']}x)"
            )
        gate = row.get("gate")
        if gate is not None and row["speedup"] < gate:
            failures.append(
                f"{where}: speedup {row['speedup']}x below the "
                f"{gate}x acceptance gate"
            )
    return failures


def format_table(results):
    lines = ["protocol rows:"]
    for row in results["protocol"]:
        lines.append(
            f"  {row['protocol']:28s} {row.get('backend', '?'):7s} "
            f"fast {row['fast_ms']:9.2f} ms   "
            f"naive {row['naive_ms']:9.2f} ms   {row['speedup']:6.2f}x   "
            f"identical={row['identical_output']}"
        )
    lines.append("micro-op rows:")
    for row in results["micro"]:
        lines.append(
            f"  {row['op']:28s} {row.get('backend', '?'):7s} "
            f"naive {row['naive_us']:10.2f} us   "
            f"fast {row['fast_us']:10.2f} us   {row['speedup']:6.2f}x"
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workloads (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a gate fails")
    parser.add_argument("--output", type=Path, default=None,
                        help="artifact path (default benchmarks/BENCH_hotpath.json)")
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick)
    name = "hotpath_quick" if args.quick else "hotpath"
    if args.output is not None:
        directory, name = args.output.parent, args.output.stem
        if name.startswith("BENCH_"):
            name = name[len("BENCH_"):]
    else:
        directory = BENCH_DIR if not args.quick else None
    path = update_artifact(name, "arith", results, directory=directory)
    print(format_table(results))
    print(f"artifact: {path}")

    failures = check_results(results)
    for failure in failures:
        print(f"GATE FAILURE: {failure}", file=sys.stderr)
    if args.check and failures:
        return 1
    return 0


# -- pytest entry point (quick workload, identity enforced) --------------------

def test_hotpath_quick_identity_and_direction():
    results = run_all(quick=True)
    assert "python" in results["backends"]
    for row in results["protocol"]:
        assert row["identical_output"], row
        # Direction only (not the full gates): quick workloads on shared
        # CI runners are too noisy for 3x/2x assertions.
        assert row["speedup"] > 0.8, row
    update_artifact("hotpath_quick", "arith", results)


if __name__ == "__main__":
    sys.exit(main())
