"""Hot-path arithmetic — micro-op table against inline references.

Times each exact-arithmetic and crypto hot path against an explicit
reference written out in this file (C ``pow`` for membership, a
per-byte generator for the XOR, ``Fraction`` multiply-add for the dot
product, ``Fraction`` Horner for polynomial evaluation, the textbook
``λ`` path of a key without its factors for Paillier decryption, a
direct draw for the randomizer), asserts the two give the same output,
and writes the table to the ``arith`` section of ``BENCH_hotpath.json``
(via ``update_artifact``, so the ``precompute`` section from
``bench_ablation_precompute.py`` survives).

Every row carries a ``backend`` column and the table repeats once per
available bignum backend (``python`` always; ``gmpy2`` when importable;
``gmp`` when the system libgmp loads).  References call CPython
directly; the hot paths run on the leg's backend.

Run standalone::

    python benchmarks/bench_hotpath_arith.py [--quick] [--check] [--output PATH]

``--quick`` shrinks the workloads (CI smoke); ``--check`` exits nonzero
when a hot path's output differs from its reference or it is slower
than the reference.

The module is also collectable by pytest: the test at the bottom runs
the quick workload and enforces output identity.
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

from artifact import BENCH_DIR, BENCH_SEED, update_artifact
from repro.core.similarity.exact import exact_dot
from repro.crypto.hashing import _xor
from repro.crypto.paillier import (
    PaillierCipher,
    PaillierPrivateKey,
    generate_keypair,
)
from repro.math import fastpath
from repro.math.groups import fast_group
from repro.math.numtheory import jacobi_symbol
from repro.math.polynomials import Polynomial
from repro.utils.rng import ReproRandom


def _time_loop(callable_, iterations):
    start = time.perf_counter()
    for _ in range(iterations):
        callable_()
    return (time.perf_counter() - start) / iterations


def _micro_row(name, ops, reference_s, fast_s, identical, note=None):
    row = {
        "op": name,
        "ops": ops,
        "reference_us": round(reference_s * 1e6, 3),
        "fast_us": round(fast_s * 1e6, 3),
        "speedup": round(reference_s / fast_s, 3) if fast_s else None,
        "identical_output": identical,
    }
    if note:
        row["note"] = note
    return row


def run_micro_benchmarks(quick=False):
    """Micro-op table: each hot-path primitive vs its inline reference."""
    rows = []
    group = fast_group()
    draw = ReproRandom(BENCH_SEED)
    iterations = 40 if quick else 200

    # -- group exponentiation baseline ----------------------------------------
    exponents = [draw.randint(1, group.q - 1) for _ in range(iterations)]
    base = group.random_element(draw)

    def pow_all():
        for e in exponents:
            pow(base, e, group.p)

    pow_s = _time_loop(pow_all, 3) / iterations
    rows.append(_micro_row("variable_base_pow_c", iterations, pow_s, pow_s, True,
                           note="CPython C pow; the baseline"))

    # -- subgroup membership ---------------------------------------------------
    member = pow(base, 2, group.p)

    def jacobi_test():
        jacobi_symbol(member, group.p)

    def euler_test():
        pow(member, group.q, group.p)

    identical = all(
        group.contains(element) == (pow(element, group.q, group.p) == 1)
        for element in (member, group.p - member, group.p - 1)
    )
    rows.append(_micro_row(
        "subgroup_membership", 1,
        _time_loop(euler_test, iterations), _time_loop(jacobi_test, iterations),
        identical, note="Jacobi symbol vs Euler-criterion pow",
    ))

    # -- byte and rational arithmetic -----------------------------------------
    data = bytes(range(256)) * 4
    keystream = bytes(reversed(data))

    def xor_int():
        _xor(data, keystream)

    def xor_bytes():
        bytes(a ^ b for a, b in zip(data, keystream))

    rows.append(_micro_row(
        "payload_xor", len(data),
        _time_loop(xor_bytes, iterations), _time_loop(xor_int, iterations),
        _xor(data, keystream) == bytes(a ^ b for a, b in zip(data, keystream)),
        note="big-int XOR vs per-byte generator, 1 KiB payload",
    ))

    vector_a = [draw.fraction(-5, 5) for _ in range(32)]
    vector_b = [draw.fraction(-5, 5) for _ in range(32)]

    def dot_fast():
        return exact_dot(vector_a, vector_b)

    def dot_reference():
        return sum((a * b for a, b in zip(vector_a, vector_b)), Fraction(0))

    rows.append(_micro_row(
        "exact_dot_32", 32,
        _time_loop(dot_reference, iterations), _time_loop(dot_fast, iterations),
        dot_fast() == dot_reference(),
        note="scaled-integer vs Fraction multiply-add",
    ))

    coefficients = [draw.fraction(-3, 3) for _ in range(9)]
    point = draw.fraction(-2, 2)

    def poly_fast():
        return Polynomial(coefficients)(point)

    def poly_reference():
        result = 0
        for coefficient in reversed(coefficients):
            result = result * point + coefficient
        return result

    fast, reference = poly_fast(), poly_reference()
    rows.append(_micro_row(
        "polynomial_eval_deg8", 1,
        _time_loop(poly_reference, iterations), _time_loop(poly_fast, iterations),
        fast == reference and type(fast) is type(reference),
        note="integer Horner + one normalization vs Fraction Horner",
    ))

    # -- Paillier --------------------------------------------------------------
    public, private = generate_keypair(bits=384 if quick else 768,
                                       rng=ReproRandom(BENCH_SEED))
    # The same key without its factors decrypts on the textbook path.
    textbook = PaillierPrivateKey(public_key=public, lam=private.lam, mu=private.mu)
    message = 123456789
    ciphertext = public.encrypt_raw(message, ReproRandom(1))

    def decrypt_crt():
        return private.decrypt_raw(ciphertext)

    def decrypt_lambda():
        return textbook.decrypt_raw(ciphertext)

    paillier_iters = max(10, iterations // 4)
    rows.append(_micro_row(
        "paillier_decrypt", 1,
        _time_loop(decrypt_lambda, paillier_iters),
        _time_loop(decrypt_crt, paillier_iters),
        decrypt_crt() == decrypt_lambda() == message,
        note="CRT split vs textbook lambda path",
    ))

    pooled = PaillierCipher(public, private, rng=ReproRandom(2), pool_batch=64)
    pooled.pool.refill(paillier_iters + 8)  # offline phase, not timed
    plain = PaillierCipher(public, private, rng=ReproRandom(2))

    def encrypt_pooled():
        pooled.encrypt(42)

    def encrypt_plain():
        plain.encrypt(42)

    # The i-th pooled randomizer is the i-th direct draw.
    identical = pooled.encrypt(42) == plain.encrypt(42)
    rows.append(_micro_row(
        "paillier_encrypt_online", 1,
        _time_loop(encrypt_plain, paillier_iters),
        _time_loop(encrypt_pooled, paillier_iters),
        identical, note="precomputed r^n pool (online cost only)",
    ))
    return rows


def run_all(quick=False, backend_list=None):
    """The micro table, once per bignum backend, every row tagged."""
    if backend_list is None:
        backend_list = fastpath.available_backends()
    micro = []
    for backend in backend_list:
        with fastpath.use_backend(backend):
            rows = run_micro_benchmarks(quick=quick)
        for row in rows:
            row["backend"] = backend
        micro.extend(rows)
    return {"quick": quick, "backends": list(backend_list), "micro": micro}


def check_results(results):
    """Return a list of failure strings (empty = every row passes)."""
    failures = []
    for row in results["micro"]:
        where = f"{row['op']}[{row['backend']}]"
        if not row["identical_output"]:
            failures.append(f"{where}: output differs from the reference")
        if row["speedup"] is not None and row["speedup"] < 1.0:
            failures.append(
                f"{where}: hot path slower than the reference ({row['speedup']}x)"
            )
    return failures


def format_table(results):
    lines = ["micro-op rows:"]
    for row in results["micro"]:
        lines.append(
            f"  {row['op']:28s} {row['backend']:7s} "
            f"reference {row['reference_us']:10.2f} us   "
            f"fast {row['fast_us']:10.2f} us   {row['speedup']:6.2f}x   "
            f"identical={row['identical_output']}"
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workloads (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a row fails its identity or direction check")
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
        print(f"CHECK FAILURE: {failure}", file=sys.stderr)
    if args.check and failures:
        return 1
    return 0


# -- pytest entry point (quick workload, identity enforced) --------------------

def test_hotpath_quick_identity_and_direction():
    results = run_all(quick=True)
    assert "python" in results["backends"]
    for row in results["micro"]:
        assert row["identical_output"], row
        # Direction only, with slack: quick workloads on shared CI
        # runners are noisy.
        assert row["speedup"] > 0.8, row
    update_artifact("hotpath_quick", "arith", results)


if __name__ == "__main__":
    sys.exit(main())
