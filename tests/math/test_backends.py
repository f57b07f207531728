"""The bignum backend layer: selection, parity, and hostile inputs.

The python backend is the bit-identity oracle; these tests pin

* the selection machinery (``set_backend`` / ``use_backend`` /
  ``REPRO_BIGNUM_BACKEND`` resolution, loud failure on unavailable or
  unknown names);
* primitive-level parity between backends on random and adversarial
  inputs (non-residues, zero exponents, modulus-1 edge cases,
  non-invertible values), including result *types* — every backend
  must lower to plain ``int``;
* protocol-level bit-identity: a full classification transcript is
  byte-identical across backends.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.math import fastpath
from repro.math.fastpath import backends
from repro.math.fastpath.backends import PythonBackend
from repro.math.groups import fast_group
from repro.math.numtheory import jacobi_symbol, modular_inverse
from repro.utils.rng import ReproRandom

requires_gmpy2 = pytest.mark.skipif(
    not backends.gmpy2_available(), reason="gmpy2 not installed"
)


def _both_backends():
    yield backends._resolve("python")
    if backends.gmpy2_available():
        yield backends._resolve("gmpy2")


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
        for backend in _both_backends():
            for _ in range(20):
                base = rng.randint(2, group.p - 2)
                exponent = rng.randint(0, group.q - 1)
                result = backend.powmod(base, exponent, group.p)
                assert result == pow(base, exponent, group.p)
                assert type(result) is int

    def test_powmod_zero_exponent(self):
        for backend in _both_backends():
            assert backend.powmod(12345, 0, 97) == 1
            assert type(backend.powmod(12345, 0, 97)) is int

    def test_powmod_modulus_one(self):
        # pow(x, y, 1) == 0 for every x, y — including y == 0.
        for backend in _both_backends():
            assert backend.powmod(5, 3, 1) == 0
            assert backend.powmod(5, 0, 1) == 0

    def test_invert_matches_oracle(self):
        rng = ReproRandom(2017)
        group = fast_group()
        for backend in _both_backends():
            for _ in range(20):
                value = rng.randint(2, group.p - 2)
                inverse = backend.invert(value, group.p)
                assert (value * inverse) % group.p == 1
                assert 0 <= inverse < group.p
                assert type(inverse) is int

    def test_invert_negative_value(self):
        for backend in _both_backends():
            assert backend.invert(-3, 7) == backend.invert(4, 7)

    def test_invert_non_invertible_same_error(self):
        for backend in _both_backends():
            with pytest.raises(ValidationError, match="6 is not invertible modulo 9"):
                backend.invert(6, 9)

    def test_invert_modulus_one_rejected(self):
        for backend in _both_backends():
            with pytest.raises(ValidationError, match="modulus must exceed 1"):
                backend.invert(3, 1)

    def test_mul_mod_matches_oracle(self):
        rng = ReproRandom(2018)
        group = fast_group()
        for backend in _both_backends():
            for _ in range(20):
                a = rng.randint(0, group.p - 1)
                b = rng.randint(0, group.p - 1)
                result = backend.mul_mod(a, b, group.p)
                assert result == (a * b) % group.p
                assert type(result) is int

    def test_jacobi_matches_oracle(self):
        rng = ReproRandom(2019)
        group = fast_group()
        for backend in _both_backends():
            for _ in range(40):
                a = rng.randint(0, group.p - 1)
                assert backend.jacobi(a, group.p) == PythonBackend.jacobi(a, group.p)

    def test_jacobi_non_residue(self):
        # p = 2q + 1 with p ≡ 3 (mod 4): -1 (== p - 1) is a non-residue.
        group = fast_group()
        for backend in _both_backends():
            assert backend.jacobi(group.p - 1, group.p) == -1
            assert backend.jacobi(0, group.p) == 0

    def test_jacobi_even_modulus_rejected(self):
        for backend in _both_backends():
            with pytest.raises(ValidationError, match="odd positive"):
                backend.jacobi(3, 8)
            with pytest.raises(ValidationError, match="odd positive"):
                backend.jacobi(3, 0)

    def test_lift_lower_round_trip(self):
        value = 2**255 - 19
        for backend in _both_backends():
            lifted = backend.mpz(value)
            assert backend.to_int(lifted) == value
            assert type(backend.to_int(lifted)) is int


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
        with fastpath.naive_arithmetic():
            naive = group.contains(non_residue)
        assert group.contains(non_residue) == naive is False


class TestProtocolBitIdentity:
    """A full protocol run is transcript-identical across backends."""

    @requires_gmpy2
    def test_classification_transcript_identical(self, fast_config):
        from repro.core.classification.linear import classify_linear
        from repro.ml.svm.model import make_linear_model

        model = make_linear_model([1.5, -2.0, 0.5], bias=0.25)
        sample = [0.3, -0.7, 1.1]
        with fastpath.use_backend("python"):
            oracle = classify_linear(model, sample, config=fast_config, seed=99)
        with fastpath.use_backend("gmpy2"):
            accelerated = classify_linear(model, sample, config=fast_config, seed=99)
        assert accelerated.label == oracle.label
        assert accelerated.value == oracle.value

    @requires_gmpy2
    def test_paillier_ciphertext_stream_identical(self):
        from repro.crypto.paillier import generate_keypair

        public, private = generate_keypair(bits=128, rng=ReproRandom(5))
        messages = [7, 2016, public.n - 3]
        with fastpath.use_backend("python"):
            oracle = [
                public.encrypt_raw(m, ReproRandom(i)) for i, m in enumerate(messages)
            ]
        with fastpath.use_backend("gmpy2"):
            accelerated = [
                public.encrypt_raw(m, ReproRandom(i)) for i, m in enumerate(messages)
            ]
        assert accelerated == oracle
        with fastpath.use_backend("gmpy2"):
            assert [private.decrypt_raw(c) for c in accelerated] == messages
