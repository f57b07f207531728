"""Differential tests for the crypto-layer hot paths.

The OT key schedule (fixed-base ``g^r`` tables, Jacobi membership),
Paillier CRT decryption, and the randomizer pool must all be
*byte-identical* to the naive reference on the same rng seeds: same transfers on the wire,
same ciphertext streams, same plaintexts (and same rejections) out.
"""

from __future__ import annotations

import pytest

from repro.crypto.hashing import _xor, unwrap_message, wrap_message
from repro.crypto.ot.k_of_n import run_k_of_n
from repro.exceptions import DecryptionError, ValidationError
from repro.math import fastpath
from repro.crypto.paillier import (
    PaillierCipher,
    PaillierPrivateKey,
    RandomizerPool,
    generate_keypair,
)
from repro.utils.rng import ReproRandom


class TestOTDifferential:
    # One slot (the key is V^r itself) up to the protocol's largest
    # OMPE transfer width; every size runs the same three-exponentiation
    # sender schedule for its one choice.
    @pytest.mark.parametrize("slots", [1, 5, 27, 81])
    def test_one_of_n_transfers_identical(self, group, slots):
        messages = [f"message-{i}".encode().ljust(16, b".") for i in range(slots)]
        fast_value, fast_transfer = run_k_of_n(
            group, messages, [slots // 2], ReproRandom(99)
        )
        with fastpath.naive_arithmetic():
            naive_value, naive_transfer = run_k_of_n(
                group, messages, [slots // 2], ReproRandom(99)
            )
        assert fast_value == naive_value == [messages[slots // 2]]
        assert fast_transfer == naive_transfer

    def test_k_of_n_transfers_identical(self, group):
        messages = [f"slot-{i}".encode() for i in range(20)]
        indices = [1, 7, 13, 18]
        fast_values, fast_transfers = run_k_of_n(
            group, messages, indices, ReproRandom(123)
        )
        with fastpath.naive_arithmetic():
            naive_values, naive_transfers = run_k_of_n(
                group, messages, indices, ReproRandom(123)
            )
        assert fast_values == naive_values == [messages[i] for i in indices]
        assert fast_transfers == naive_transfers


class TestHashingXor:
    def test_matches_bytewise_reference(self):
        data = bytes(range(256)) * 3
        keystream = bytes(reversed(data))
        assert _xor(data, keystream) == bytes(
            a ^ b for a, b in zip(data, keystream)
        )

    def test_truncates_to_shorter_operand(self):
        assert _xor(b"\xff\xff\xff", b"\x0f") == b"\xf0"
        assert _xor(b"", b"abc") == b""

    def test_wrap_unwrap_roundtrip(self):
        wrapped = wrap_message(b"key material", b"payload", b"ctx")
        assert unwrap_message(b"key material", wrapped, b"ctx") == b"payload"
        assert unwrap_message(b"wrong", wrapped, b"ctx") is None


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(bits=256, rng=ReproRandom(77))


class TestPaillierCRT:
    def test_decrypt_matches_naive(self, keypair):
        public, private = keypair
        draw = ReproRandom(5)
        for _ in range(10):
            message = draw.randint(0, public.n - 1)
            ciphertext = public.encrypt_raw(message, draw)
            assert private.p is not None  # CRT path active
            fast = private.decrypt_raw(ciphertext)
            with fastpath.naive_arithmetic():
                naive = private.decrypt_raw(ciphertext)
            assert fast == naive == message

    def test_key_without_factors_uses_lambda_path(self, keypair):
        public, private = keypair
        stripped = PaillierPrivateKey(
            public_key=public, lam=private.lam, mu=private.mu
        )
        draw = ReproRandom(6)
        ciphertext = public.encrypt_raw(1234, draw)
        assert stripped.decrypt_raw(ciphertext) == 1234

    def test_invalid_ciphertext_rejected_identically(self, keypair):
        public, private = keypair
        # A multiple of a prime factor is never a valid ciphertext unit.
        bogus = private.p * private.p
        with pytest.raises(DecryptionError):
            private.decrypt_raw(bogus)
        with fastpath.naive_arithmetic():
            with pytest.raises(DecryptionError):
                private.decrypt_raw(bogus)

    def test_out_of_range_rejected(self, keypair):
        public, private = keypair
        with pytest.raises(DecryptionError):
            private.decrypt_raw(0)
        with pytest.raises(DecryptionError):
            private.decrypt_raw(public.n_squared)


class TestRandomizerPool:
    def test_pooled_ciphertext_stream_identical(self, keypair):
        public, private = keypair
        values = [1, 42, 1000, 31337]
        pooled_cipher = PaillierCipher(
            public, private, rng=ReproRandom(314), pool_batch=8
        )
        pooled_cipher.pool.refill()  # offline phase
        plain_cipher = PaillierCipher(public, private, rng=ReproRandom(314))
        pooled = [pooled_cipher.encrypt(v) for v in values]
        unpooled = [plain_cipher.encrypt(v) for v in values]
        assert pooled == unpooled
        for ciphertext, value in zip(pooled, values):
            assert pooled_cipher.decrypt(ciphertext) == value

    def test_refill_accounting(self, keypair):
        public, _ = keypair
        pool = RandomizerPool(public, ReproRandom(1), batch=4)
        assert pool.available == 0
        pool.refill()
        assert pool.available == 4
        pool.take()
        assert pool.available == 3
        pool.refill(2)
        assert pool.available == 5
        assert pool.precomputed_total == 6

    def test_take_refills_when_empty(self, keypair):
        public, _ = keypair
        pool = RandomizerPool(public, ReproRandom(2), batch=3)
        randomizer = pool.take()
        assert randomizer > 0
        assert pool.available == 2

    def test_take_order_is_draw_order(self, keypair):
        # The i-th pooled take() must equal the i-th direct draw.
        public, _ = keypair
        pool = RandomizerPool(public, ReproRandom(9), batch=5)
        pool.refill()
        direct_rng = ReproRandom(9)
        n, n_sq = public.n, public.n_squared
        direct = [
            pow(direct_rng.randrange_coprime(n), n, n_sq) for _ in range(5)
        ]
        assert [pool.take() for _ in range(5)] == direct

    def test_batch_validation(self, keypair):
        public, _ = keypair
        with pytest.raises(ValidationError):
            RandomizerPool(public, ReproRandom(0), batch=0)
