"""Tests for the canonical message codec."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.utils.serialization import (
    MAX_DECODE_DEPTH,
    decode_message,
    decode_payload,
    decode_payloads,
    encode_message,
    encode_payload,
    encoded_payload_size,
)


scalars = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.fractions(max_denominator=10**15),
    st.floats(allow_nan=False, allow_infinity=False),
)

# The full message-payload vocabulary, including group-element-sized
# integers (OT transports 2048-bit values as a matter of course).
payload_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**2100), max_value=2**2100),
    st.fractions(max_denominator=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.binary(max_size=64),
    st.text(max_size=32),
)

payloads = st.recursive(
    payload_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=8), st.integers()), children, max_size=4
        ),
    ),
    max_leaves=12,
)


class TestRoundTrip:
    @given(scalars)
    @settings(max_examples=200)
    def test_scalar_round_trip(self, value):
        assert decode_payload(encode_payload(value)) == value

    @given(st.lists(scalars, max_size=8).map(tuple))
    @settings(max_examples=100)
    def test_tuple_round_trip(self, values):
        assert decode_payload(encode_payload(values)) == values

    def test_nested_tuples(self):
        value = (1, (Fraction(1, 3), (2.5, -7)), ())
        assert decode_payload(encode_payload(value)) == value

    def test_zero(self):
        assert decode_payload(encode_payload(0)) == 0

    def test_negative_fraction(self):
        value = Fraction(-22, 7)
        assert decode_payload(encode_payload(value)) == value

    def test_huge_integer(self):
        value = -(2**4096) + 12345
        assert decode_payload(encode_payload(value)) == value

    def test_type_preserved(self):
        assert type(decode_payload(encode_payload(Fraction(1, 2)))) is Fraction
        assert type(decode_payload(encode_payload(1))) is int
        assert type(decode_payload(encode_payload(1.0))) is float

    def test_run_of_values(self):
        """An OMPE slot: values laid end to end, read back in order."""
        values = (3, Fraction(-1, 7), 2**300)
        blob = b"".join(map(encode_payload, values))
        assert decode_payloads(blob) == values
        assert decode_payloads(b"") == ()


class TestRejections:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            encode_payload(object())

    def test_trailing_garbage_rejected(self):
        blob = encode_payload(7) + b"\x00"
        with pytest.raises(ValidationError):
            decode_payload(blob)
        with pytest.raises(ValidationError):
            decode_payloads(blob)

    def test_truncated_rejected(self):
        blob = encode_payload(Fraction(355, 113))
        for decode in (decode_payload, decode_payloads):
            with pytest.raises(ValidationError):
                decode(blob[:-2])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            decode_payload(b"")

    def test_unknown_tag_rejected(self):
        for decode in (decode_payload, decode_payloads):
            with pytest.raises(ValidationError):
                decode(b"Zxyz")


class TestEncodedSize:
    def test_grows_with_magnitude(self):
        assert len(encode_payload(2**200)) > len(encode_payload(2))


# -- message payload codec ----------------------------------------------------


class TestPayloadRoundTrip:
    @given(payloads)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_canonical(self, payload):
        """Decoding inverts encoding *and* re-encoding reproduces the
        exact bytes — so types (bool vs int, tuple vs list) survive."""
        blob = encode_payload(payload)
        decoded = decode_payload(blob)
        assert decoded == payload
        assert encode_payload(decoded) == blob

    @given(payloads)
    @settings(max_examples=200, deadline=None)
    def test_size_matches_encoding_length(self, payload):
        """The byte-accounting regression: the size estimator and the
        real encoder must agree exactly, for every payload — this is
        what makes in-memory and TCP byte counts identical."""
        assert encoded_payload_size(payload) == len(encode_payload(payload))

    def test_group_element_sized_integers(self):
        value = -(2**2048) + 987654321
        blob = encode_payload(value)
        assert decode_payload(blob) == value
        assert encoded_payload_size(value) == len(blob)

    def test_registered_dataclasses_round_trip(self, group, fast_config):
        from repro.core.similarity.metric import MetricParams
        from repro.core.similarity.policy import OutputPolicy

        for payload in (
            group,
            fast_config,
            MetricParams(),
            OutputPolicy(),
            OutputPolicy(mode="threshold", threshold=0.5),
            OutputPolicy(mode="top-k", k=5),
            OutputPolicy(mode="permuted"),
        ):
            blob = encode_payload(payload)
            decoded = decode_payload(blob)
            assert decoded == payload
            assert type(decoded) is type(payload)
            assert encoded_payload_size(payload) == len(blob)

    def test_unregistered_dataclass_rejected(self):
        @dataclasses.dataclass
        class Unregistered:
            x: int = 1

        with pytest.raises(ValidationError):
            encode_payload(Unregistered())
        with pytest.raises(ValidationError):
            encoded_payload_size(Unregistered())


class TestPayloadDecoderFuzz:
    """The decoder faces bytes from an untrusted TCP peer: every
    malformed input must raise ValidationError — never a bare
    struct.error, RecursionError, MemoryError, or a hang."""

    @given(st.binary(max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes_never_crash(self, blob):
        try:
            decode_payload(blob)
        except ValidationError:
            pass

    @given(payloads, st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncation_always_detected(self, payload, data):
        blob = encode_payload(payload)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        with pytest.raises(ValidationError):
            decode_payload(blob[:cut])

    @given(payloads, st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_flips_never_crash(self, payload, data):
        blob = bytearray(encode_payload(payload))
        position = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        blob[position] ^= 1 << bit
        try:
            decode_payload(bytes(blob))
        except ValidationError:
            pass  # either a clean rejection or a different valid value

    def test_hostile_container_count_no_allocation(self):
        import struct

        for tag in (b"T", b"L", b"M"):
            blob = tag + struct.pack(">I", 0xFFFFFFFF)
            with pytest.raises(ValidationError):
                decode_payload(blob)

    def test_hostile_varbytes_length_no_allocation(self):
        import struct

        for tag in (b"Y", b"S"):
            blob = tag + struct.pack(">I", 0xFFFFFFFF)
            with pytest.raises(ValidationError):
                decode_payload(blob)

    def test_nesting_depth_bounded(self):
        import struct

        blob = (b"L" + struct.pack(">I", 1)) * (MAX_DECODE_DEPTH + 2) + b"N"
        with pytest.raises(ValidationError, match="depth"):
            decode_payload(blob)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValidationError):
            decode_payload(encode_payload([1, 2]) + b"\x00")


class TestMessageCodec:
    @given(st.text(min_size=1, max_size=24), payloads)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_with_exact_payload_size(self, msg_type, payload):
        blob = encode_message(msg_type, payload)
        decoded_type, decoded_payload, payload_bytes = decode_message(blob)
        assert decoded_type == msg_type
        assert decoded_payload == payload
        assert payload_bytes == encoded_payload_size(payload)
        assert payload_bytes == len(encode_payload(payload))

    def test_empty_type_rejected(self):
        with pytest.raises(ValidationError):
            encode_message("", 1)

    def test_wrong_version_rejected(self):
        blob = bytearray(encode_message("x", 1))
        blob[0] = 99
        with pytest.raises(ValidationError, match="version"):
            decode_message(bytes(blob))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValidationError):
            decode_message(encode_message("x", 1) + b"\x00")

    @given(st.binary(max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_random_frames_never_crash(self, blob):
        try:
            decode_message(blob)
        except ValidationError:
            pass
