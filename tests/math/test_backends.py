"""The bignum backend layer: selection, parity, and hostile inputs.

The python backend is the bit-identity oracle; these tests pin

* the selection machinery (``set_backend`` / ``use_backend`` /
  ``REPRO_BIGNUM_BACKEND`` resolution, loud failure on unavailable or
  unknown names, fallback when libgmp does not load);
* primitive-level parity between backends on random and adversarial
  inputs (non-residues, zero exponents, modulus-1 edge cases,
  non-invertible values, bases outside ``[0, m)``, negative
  exponents), at 256 and 2048 bits, including result *types* — every
  backend must lower to plain ``int``;
* thread safety of the ctypes ``gmp`` backend's scratch registers;
* protocol-level bit-identity: a full classification transcript is
  byte-identical across backends.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.exceptions import ValidationError
from repro.math import fastpath
from repro.math.fastpath import backends
from repro.math.fastpath.backends import PythonBackend
from repro.math.groups import fast_group
from repro.math.numtheory import jacobi_symbol, modular_inverse
from repro.utils.rng import ReproRandom
from tests import reference

requires_gmpy2 = pytest.mark.skipif(
    not backends.gmpy2_available(), reason="gmpy2 not installed"
)
requires_gmp = pytest.mark.skipif(
    not backends.gmp_available(), reason="libgmp does not load"
)

#: The RFC 3526 group-14 (2048-bit MODP) safe prime.
RFC3526_P2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

ACCELERATED = [
    pytest.param("gmpy2", marks=requires_gmpy2),
    pytest.param("gmp", marks=requires_gmp),
]


def _all_backends():
    """The oracle, then every backend that loads in this process."""
    for name in backends.available_backends():
        yield backends._resolve(name)


def _accelerated_backends():
    return [backend for backend in _all_backends() if backend.name != "python"]


def _outcome(function, *args):
    """A call's result with its type, or its exception type and message."""
    try:
        result = function(*args)
    except Exception as error:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(error), str(error))
    return ("returned", type(result), result)


class TestSelection:
    def test_python_always_available(self):
        assert "python" in backends.available_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="unknown bignum backend"):
            backends.set_backend("nope")

    def test_unavailable_gmpy2_is_loud(self):
        if backends.gmpy2_available():
            pytest.skip("gmpy2 installed; the loud path cannot trigger")
        with pytest.raises(ValidationError, match="not importable"):
            backends.set_backend("gmpy2")

    @requires_gmp
    def test_gmp_listed_and_preferred_over_python(self, monkeypatch):
        assert "gmp" in backends.available_backends()
        monkeypatch.delenv("REPRO_BIGNUM_BACKEND", raising=False)
        monkeypatch.setitem(
            backends._LOADERS, "gmpy2", (lambda: None, "gmpy2 stubbed out")
        )
        monkeypatch.setattr(backends, "_PROBED", {})
        assert backends._detect_default().name == "gmp"

    def test_unloadable_libgmp_is_loud_and_detection_falls_back(
        self, monkeypatch
    ):
        def unloadable():
            raise OSError("libgmp.so.10: cannot open shared object file")

        monkeypatch.setattr(backends, "_open_libgmp", unloadable)
        monkeypatch.setitem(
            backends._LOADERS, "gmpy2", (lambda: None, "gmpy2 stubbed out")
        )
        monkeypatch.setattr(backends, "_PROBED", {})
        assert not backends.gmp_available()
        assert backends.available_backends() == ("python",)
        with pytest.raises(ValidationError, match="libgmp"):
            backends.set_backend("gmp")
        monkeypatch.delenv("REPRO_BIGNUM_BACKEND", raising=False)
        assert backends._detect_default().name == "python"
        monkeypatch.setenv("REPRO_BIGNUM_BACKEND", "gmp")
        with pytest.raises(ValidationError, match="'gmp' requested"):
            backends._detect_default()

    def test_use_backend_restores_previous(self):
        before = fastpath.backend_name()
        with fastpath.use_backend("python"):
            assert fastpath.backend_name() == "python"
        assert fastpath.backend_name() == before

    def test_use_backend_restores_on_error(self):
        before = fastpath.backend_name()
        with pytest.raises(RuntimeError):
            with fastpath.use_backend("python"):
                raise RuntimeError("boom")
        assert fastpath.backend_name() == before

    def test_resolve_normalizes_case(self):
        assert backends._resolve(" PYTHON ").name == "python"


class TestPrimitiveParity:
    """Each backend must agree with the oracle, value and type."""

    def test_powmod_matches_oracle(self):
        rng = ReproRandom(2016)
        group = fast_group()
        for backend in _all_backends():
            for _ in range(20):
                base = rng.randint(2, group.p - 2)
                exponent = rng.randint(0, group.q - 1)
                result = backend.powmod(base, exponent, group.p)
                assert result == pow(base, exponent, group.p)
                assert type(result) is int

    def test_powmod_zero_exponent(self):
        for backend in _all_backends():
            assert backend.powmod(12345, 0, 97) == 1
            assert type(backend.powmod(12345, 0, 97)) is int

    def test_powmod_modulus_one(self):
        # pow(x, y, 1) == 0 for every x, y — including y == 0.
        for backend in _all_backends():
            assert backend.powmod(5, 3, 1) == 0
            assert backend.powmod(5, 0, 1) == 0

    def test_invert_matches_oracle(self):
        rng = ReproRandom(2017)
        group = fast_group()
        for backend in _all_backends():
            for _ in range(20):
                value = rng.randint(2, group.p - 2)
                inverse = backend.invert(value, group.p)
                assert (value * inverse) % group.p == 1
                assert 0 <= inverse < group.p
                assert type(inverse) is int

    def test_invert_negative_value(self):
        for backend in _all_backends():
            assert backend.invert(-3, 7) == backend.invert(4, 7)

    def test_invert_non_invertible_same_error(self):
        for backend in _all_backends():
            with pytest.raises(ValidationError, match="6 is not invertible modulo 9"):
                backend.invert(6, 9)

    def test_invert_modulus_one_rejected(self):
        for backend in _all_backends():
            with pytest.raises(ValidationError, match="modulus must exceed 1"):
                backend.invert(3, 1)

    def test_jacobi_matches_oracle(self):
        rng = ReproRandom(2019)
        group = fast_group()
        for backend in _all_backends():
            for _ in range(40):
                a = rng.randint(0, group.p - 1)
                assert backend.jacobi(a, group.p) == PythonBackend.jacobi(a, group.p)

    def test_jacobi_non_residue(self):
        # p = 2q + 1 with p ≡ 3 (mod 4): -1 (== p - 1) is a non-residue.
        group = fast_group()
        for backend in _all_backends():
            assert backend.jacobi(group.p - 1, group.p) == -1
            assert backend.jacobi(0, group.p) == 0

    def test_jacobi_even_modulus_rejected(self):
        for backend in _all_backends():
            with pytest.raises(ValidationError, match="odd positive"):
                backend.jacobi(3, 8)
            with pytest.raises(ValidationError, match="odd positive"):
                backend.jacobi(3, 0)


@pytest.mark.parametrize(
    "modulus", [fast_group().p, RFC3526_P2048], ids=["p256", "p2048"]
)
class TestOracleEdgeCases:
    """Every backend returns, or raises, exactly what the oracle does."""

    def test_powmod_edge_cases(self, modulus):
        x = ReproRandom(2020).randint(2, modulus - 2)
        cases = [
            (x, 65537, modulus),
            (modulus + x, 65537, modulus),  # base >= m
            (3 * modulus, 7, modulus),  # base a multiple of m
            (-x, 65537, modulus),  # negative base
            (-modulus, 3, modulus),
            (x, 0, modulus),  # e = 0
            (0, 0, modulus),
            (0, 5, modulus),
            (x, 5, 1),  # m = 1
            (x, 0, 1),
            (x, -1, modulus),  # negative e, invertible
            (x, -3, modulus),
            (modulus, -1, modulus),  # negative e, not invertible
            (x, 3, 0),  # m <= 0: whatever pow does
            (x, 3, -modulus),
            (x, 3, -1),
            (x, 2, modulus - 1),  # even modulus
            (x, 2.0, modulus),  # non-int operands
            (float(3), 2, modulus),
        ]
        for backend in _all_backends():
            for base, exponent, m in cases:
                assert _outcome(backend.powmod, base, exponent, m) == _outcome(
                    pow, base, exponent, m
                ), (backend.name, base, exponent, m)

    def test_invert_edge_cases(self, modulus):
        x = ReproRandom(2021).randint(2, modulus - 2)
        cases = [
            (x, modulus),
            (-x, modulus),
            (modulus + x, modulus),
            (1, modulus),
            (modulus - 1, modulus),
            (0, modulus),  # not invertible
            (modulus, modulus),
            (2, modulus - 1),  # even modulus, even value
            (x, 1),
            (x, 0),
            (x, -modulus),
        ]
        for backend in _all_backends():
            for value, m in cases:
                assert _outcome(backend.invert, value, m) == _outcome(
                    PythonBackend.invert, value, m
                ), (backend.name, value, m)

    def test_jacobi_edge_cases(self, modulus):
        x = ReproRandom(2022).randint(2, modulus - 2)
        cases = [
            (x, modulus),
            (-x, modulus),
            (modulus + x, modulus),
            (0, modulus),
            (modulus, modulus),
            (modulus - 1, modulus),
            (2, modulus),
            (x, 1),
            (x, 15),
            (x, modulus - 1),  # even n
            (x, 0),
            (x, -modulus),
        ]
        for backend in _all_backends():
            for a, n in cases:
                assert _outcome(backend.jacobi, a, n) == _outcome(
                    PythonBackend.jacobi, a, n
                ), (backend.name, a, n)


class TestThreadSafety:
    """Concurrent threads never see each other's registers.

    ctypes releases the GIL inside every libgmp call, so several
    threads run the ``gmp`` backend at once; with shared scratch
    registers one thread's modulus or operands would leak into
    another's results.  Four threads (more than the CI cores) on
    different moduli — two share one, so the cached-modulus path races
    too — with a short switch interval to force interleaving.
    """

    def test_threads_with_different_moduli(self):
        paillier_n = 1000000007 * 998244353
        moduli = [fast_group().p, RFC3526_P2048, paillier_n**2, fast_group().p]
        rng = ReproRandom(2023)
        work = []
        for modulus in moduli:
            inputs = [
                (rng.randint(2, modulus - 2), rng.randint(1, 2**160))
                for _ in range(24)
            ]
            expected = [
                (pow(base, exponent, modulus), PythonBackend.jacobi(base, modulus))
                for base, exponent in inputs
            ]
            work.append((modulus, inputs, expected))
        for backend in _accelerated_backends():
            barrier = threading.Barrier(len(work))
            mismatches = []
            finished = []

            def run(modulus, inputs, expected, backend=backend, barrier=barrier):
                barrier.wait(timeout=30)
                for _ in range(10):
                    for (base, exponent), (power, symbol) in zip(inputs, expected):
                        got = (
                            backend.powmod(base, exponent, modulus),
                            backend.jacobi(base, modulus),
                        )
                        if got != (power, symbol):
                            mismatches.append((modulus.bit_length(), base, got))
                finished.append(modulus)

            threads = [threading.Thread(target=run, args=item) for item in work]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(finished) == len(work)
            assert mismatches == [], (backend.name, mismatches[:3])


class TestDispatchLayer:
    """numtheory primitives dispatch into the active backend."""

    def test_modular_inverse_identical_across_backends(self, bignum_backend):
        group = fast_group()
        rng = ReproRandom(77)
        values = [rng.randint(2, group.p - 2) for _ in range(8)]
        with fastpath.use_backend("python"):
            expected = [modular_inverse(v, group.p) for v in values]
        assert [modular_inverse(v, group.p) for v in values] == expected

    def test_jacobi_symbol_identical_across_backends(self, bignum_backend):
        group = fast_group()
        rng = ReproRandom(78)
        values = [rng.randint(1, group.p - 1) for _ in range(16)]
        with fastpath.use_backend("python"):
            expected = [jacobi_symbol(v, group.p) for v in values]
        assert [jacobi_symbol(v, group.p) for v in values] == expected

    def test_membership_agrees_on_non_residues(self, bignum_backend):
        group = fast_group()
        non_residue = group.p - 1  # -1 is never a residue for p ≡ 3 mod 4
        assert group.contains(non_residue) == reference.is_member(group, non_residue)
        assert group.contains(non_residue) is False


class TestProtocolBitIdentity:
    """A full protocol run is transcript-identical across backends."""

    @pytest.mark.parametrize("name", ACCELERATED)
    def test_classification_transcript_identical(self, fast_config, name):
        from repro.core.classification.linear import classify_linear
        from repro.ml.svm.model import make_linear_model

        model = make_linear_model([1.5, -2.0, 0.5], bias=0.25)
        sample = [0.3, -0.7, 1.1]
        with fastpath.use_backend("python"):
            oracle = classify_linear(model, sample, config=fast_config, seed=99)
        with fastpath.use_backend(name):
            accelerated = classify_linear(model, sample, config=fast_config, seed=99)
        assert accelerated.label == oracle.label
        assert accelerated.randomized_value == oracle.randomized_value
        assert [
            (m.sender, m.msg_type, m.payload) for m in accelerated.report.transcript
        ] == [(m.sender, m.msg_type, m.payload) for m in oracle.report.transcript]

    @pytest.mark.parametrize("name", ACCELERATED)
    def test_paillier_ciphertext_stream_identical(self, name):
        from repro.crypto.paillier import generate_keypair

        public, private = generate_keypair(bits=128, rng=ReproRandom(5))
        messages = [7, 2016, public.n - 3]
        with fastpath.use_backend("python"):
            oracle = [
                public.encrypt_raw(m, ReproRandom(i)) for i, m in enumerate(messages)
            ]
        with fastpath.use_backend(name):
            accelerated = [
                public.encrypt_raw(m, ReproRandom(i)) for i, m in enumerate(messages)
            ]
        assert accelerated == oracle
        with fastpath.use_backend(name):
            assert [private.decrypt_raw(c) for c in accelerated] == messages
