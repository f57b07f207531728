"""Tests for KDF and message wrapping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import (
    TAG_BYTES,
    kdf,
    unwrap_message,
    wrap_message,
)
from repro.exceptions import DecryptionError, ValidationError


class TestKDF:
    def test_deterministic(self):
        assert kdf(b"key", 32) == kdf(b"key", 32)

    def test_length(self):
        for length in (0, 1, 31, 32, 33, 100):
            assert len(kdf(b"key", length)) == length

    def test_key_sensitivity(self):
        assert kdf(b"key1", 32) != kdf(b"key2", 32)

    def test_context_sensitivity(self):
        assert kdf(b"key", 32, b"a") != kdf(b"key", 32, b"b")

    def test_prefix_consistency(self):
        assert kdf(b"key", 64)[:32] == kdf(b"key", 32)

    def test_negative_length(self):
        with pytest.raises(ValidationError):
            kdf(b"key", -1)


class TestWrapping:
    @given(st.binary(max_size=200))
    @settings(max_examples=100)
    def test_round_trip(self, plaintext):
        wrapped = wrap_message(b"secret", plaintext)
        assert unwrap_message(b"secret", wrapped) == plaintext

    def test_wrong_key_returns_none(self):
        wrapped = wrap_message(b"secret", b"hello")
        assert unwrap_message(b"wrong", wrapped) is None

    def test_wrong_context_returns_none(self):
        wrapped = wrap_message(b"secret", b"hello", b"ctx-a")
        assert unwrap_message(b"secret", wrapped, b"ctx-b") is None

    def test_tampered_ciphertext_returns_none(self):
        wrapped = bytearray(wrap_message(b"secret", b"hello world"))
        wrapped[0] ^= 0x01
        assert unwrap_message(b"secret", bytes(wrapped)) is None

    def test_tampered_tag_returns_none(self):
        wrapped = bytearray(wrap_message(b"secret", b"hello world"))
        wrapped[-1] ^= 0x01
        assert unwrap_message(b"secret", bytes(wrapped)) is None

    def test_truncated_raises(self):
        with pytest.raises(DecryptionError):
            unwrap_message(b"secret", b"short")

    def test_overhead_is_tag_only(self):
        wrapped = wrap_message(b"secret", b"x" * 50)
        assert len(wrapped) == 50 + TAG_BYTES

    def test_ciphertext_differs_from_plaintext(self):
        plaintext = b"x" * 64
        wrapped = wrap_message(b"secret", plaintext)
        assert wrapped[:64] != plaintext

    def test_empty_plaintext(self):
        wrapped = wrap_message(b"secret", b"")
        assert unwrap_message(b"secret", wrapped) == b""


#: Known answers from the original block-by-block KDF: key bytes 0..31,
#: context ``ot|session-7|slot-3``.  Every output length is a prefix of
#: the 500-byte stream.
_KAT_KEY = bytes(range(32))
_KAT_CONTEXT = b"ot|session-7|slot-3"
_KAT_STREAM_500 = (
    "ed131c713aedcf85ed0b39bdc0e196777a48de7ee494df10277182232cf46846"
    "8aaac1282d60583558fbd2f91f21d949ed95a4ac027a4e517ed03a7f2b043f66"
    "4eb1798be53009d73f344ac135379f0cb90b69a14e3f85e5075ba39a42c30dfb"
    "61b9275d0c9d8fac77995f03dbc0385bf499d7e2cd276bc29b68df3400e05166"
    "b701e1f48473c736eb94e44d213e9b2b880707cb45156c10ee13f396fa09f3af"
    "58178903e4ce6ec2e4511dfac035a58e8fc7e64972b24aa9efe20bf290b025a3"
    "0d1310a2455708ff679614869713309e321ceb0d460267e00ddbdb9afe944783"
    "29ae02db117ea4d8966163090b593b80fe8db612a1e41e725034db50f94d76f7"
    "9edba03bcfe49e35256166f72947a3bbf2987d36efbc43c743b4601bbe332580"
    "12c0bdca976bede1a47d4a5c0d5b02d113b0f37ad2800b74630cacb607ef8532"
    "f96826b96bde05064ff436847cd7923d552963b3ca685ae06788e7ddcc090296"
    "8bc6ef69876b3acbd4f941b61229b24f047a81481cbb6c69a6691e02aae14580"
    "1509cd2cbce3eaab2276dd6d3387deaf6b8126bc3dc9e759bf057051469e1296"
    "676f406bc29386cf7fb474415e260765468ecace1379d92bd825182c1d0d4bed"
    "d7b9264c74c80e33a47c1e1191a4bc0254af0476707a645c692fb94db7b9c34f"
    "631b68b01386ef789fd812d3d7e2b61c276a3128"
)
#: Wrapped plaintext ``bytes((7 i + 3) mod 256 for i < n)`` under the
#: same key and context.
_KAT_WRAPPED = {
    0: "4e2406532df2e8cb6daf90e2803474b2",
    1: "55326096a24ea7c2998903c8886e841dc0",
    45: (
        "551020051e694e50fe71ec910e7f45a4815beab7eb2bf8354e865e2a16ea72fa"
        "7b8b193b0aa1df06b6e743d63e10029ee79de4f1c5c776472c36d1f054"
    ),
}


class TestKnownAnswers:
    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 500])
    def test_kdf(self, length):
        expected = _KAT_STREAM_500[: 2 * length]
        assert kdf(_KAT_KEY, length, _KAT_CONTEXT).hex() == expected

    def test_kdf_without_context(self):
        assert kdf(b"k", 33).hex() == (
            "192d203783d0c6051b3842f3d10a19024ce051ccff459c13c43a75980a69e28f42"
        )

    @pytest.mark.parametrize("length", sorted(_KAT_WRAPPED))
    def test_wrap_round_trip(self, length):
        plaintext = bytes((7 * i + 3) % 256 for i in range(length))
        wrapped = wrap_message(_KAT_KEY, plaintext, _KAT_CONTEXT)
        assert wrapped.hex() == _KAT_WRAPPED[length]
        assert unwrap_message(_KAT_KEY, wrapped, _KAT_CONTEXT) == plaintext
