"""Differential tests for the crypto-layer hot paths.

OT transfers repeat byte for byte on one rng seed and carry only
points that pass the Euler-criterion membership oracle (the Jacobi
test runs in the protocol); Paillier CRT decryption gives the
plaintexts and rejections of the textbook ``λ`` path (a key without
its factors).
"""

from __future__ import annotations

import pytest

from repro.crypto.hashing import _xor, unwrap_message, wrap_message
from repro.crypto.ot.k_of_n import run_k_of_n
from repro.exceptions import DecryptionError
from repro.crypto.paillier import PaillierPrivateKey, generate_keypair
from repro.utils.rng import ReproRandom
from tests import reference


class TestOTDifferential:
    # One slot (the key is V^r itself) up to the protocol's largest
    # OMPE transfer width; every size runs the same three-exponentiation
    # sender schedule for its one choice.
    @pytest.mark.parametrize("slots", [1, 5, 27, 81])
    def test_one_of_n_transfers_identical(self, group, slots):
        messages = [f"message-{i}".encode().ljust(16, b".") for i in range(slots)]
        value, transfer = run_k_of_n(group, messages, [slots // 2], ReproRandom(99))
        again_value, again_transfer = run_k_of_n(
            group, messages, [slots // 2], ReproRandom(99)
        )
        assert value == again_value == [messages[slots // 2]]
        assert transfer == again_transfer
        assert reference.is_member(group, transfer.ephemeral_point)

    def test_k_of_n_transfers_identical(self, group):
        messages = [f"slot-{i}".encode() for i in range(20)]
        indices = [1, 7, 13, 18]
        values, transfer = run_k_of_n(group, messages, indices, ReproRandom(123))
        again_values, again_transfer = run_k_of_n(
            group, messages, indices, ReproRandom(123)
        )
        assert values == again_values == [messages[i] for i in indices]
        assert transfer == again_transfer
        assert reference.is_member(group, transfer.ephemeral_point)


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


def without_factors(public, private):
    """The same key minus ``p`` and ``q``: decryption takes the ``λ`` path."""
    return PaillierPrivateKey(public_key=public, lam=private.lam, mu=private.mu)


class TestPaillierCRT:
    def test_decrypt_matches_naive(self, keypair):
        public, private = keypair
        textbook = without_factors(public, private)
        draw = ReproRandom(5)
        for _ in range(10):
            message = draw.randint(0, public.n - 1)
            ciphertext = public.encrypt_raw(message, draw)
            assert private.p is not None  # CRT path active
            fast = private.decrypt_raw(ciphertext)
            assert fast == textbook.decrypt_raw(ciphertext) == message

    def test_key_without_factors_uses_lambda_path(self, keypair):
        public, private = keypair
        stripped = without_factors(public, private)
        draw = ReproRandom(6)
        ciphertext = public.encrypt_raw(1234, draw)
        assert stripped.decrypt_raw(ciphertext) == 1234

    def test_invalid_ciphertext_rejected_identically(self, keypair):
        public, private = keypair
        # A multiple of a prime factor is never a valid ciphertext unit.
        bogus = private.p * private.p
        with pytest.raises(DecryptionError):
            private.decrypt_raw(bogus)
        with pytest.raises(DecryptionError):
            without_factors(public, private).decrypt_raw(bogus)

    def test_out_of_range_rejected(self, keypair):
        public, private = keypair
        with pytest.raises(DecryptionError):
            private.decrypt_raw(0)
        with pytest.raises(DecryptionError):
            private.decrypt_raw(public.n_squared)
