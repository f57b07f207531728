"""The message codec against a verbatim copy of its previous walkers.

:mod:`repro.utils.serialization` encodes and sizes by dispatching on the
exact type and decodes by dispatching on the tag byte.  The functions
under "oracle" below are the ``isinstance``-chain walkers it replaced,
copied unchanged; they are the reference here.  Over the whole message
vocabulary both must give the same bytes, the same sizes and the same
decoded values, and on every cut and byte flip of real recorded
``ompe/*``, ``ot/*`` and ``session/*`` messages both must make the same
accept/raise decision with the same error text.  The one intended
difference is listed in :data:`CANONICAL_REFUSALS`: the decoder now
refuses non-canonical integers, fractions and dicts, which the oracle
accepted and re-encoded to other bytes.  The oracle's value codec
(``encode_value``/``decode_value``) is what OMPE slots were once sealed
with: the message codec must write its bytes for every value it took,
and the receiver must refuse, as a slot value, every value it refused.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import random
import struct
import threading
from fractions import Fraction
from typing import Any, Tuple, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ompe import OMPEConfig
from repro.core.ompe.receiver import check_evaluations
from repro.core.similarity.metric import MetricParams
from repro.core.similarity.policy import OutputPolicy
from repro.crypto.hashing import TAG_BYTES
from repro.crypto.ot.base import KEY_BYTES, KOfNTransfer, OTChoice, OTSetup
from repro.exceptions import ProtocolError, ReproError, ValidationError
from repro.math.groups import fast_group
from repro.math.scaled import ScaledVector
from repro.ml.kernels import polynomial_kernel
from repro.ml.svm.model import SVMModel
from repro.net import wire
from repro.net.service import TrainerClient, TrainerServer
from repro.obs.distributed import (
    AdminHealth,
    AdminMetricsDump,
    AdminTraceDump,
    TraceContext,
)
from repro.utils import serialization as codec
from repro.utils.serialization import (
    _PAYLOAD_LAYOUTS,
    _PAYLOAD_TYPES_BY_NAME,
    MAX_DECODE_DEPTH,
    WIRE_VERSION,
)

#: The scalar vocabulary the oracle's value codec took.
Encodable = Union[int, float, Fraction, Tuple]


class _NamesByType:
    """The registry's class -> name map the oracle reads, recovered from
    the codec's per-class ``C`` headers (``b"C" + u32 length + name``)."""

    def get(self, cls):
        layout = _PAYLOAD_LAYOUTS.get(cls)
        return None if layout is None else layout[0][5:].decode("utf-8")

    def values(self):
        return [self.get(cls) for cls in _PAYLOAD_LAYOUTS]


_PAYLOAD_NAMES_BY_TYPE = _NamesByType()

# -- oracle: the previous codec, verbatim ----------------------------------------


def _encode_int(value: int) -> bytes:
    sign = b"\x01" if value < 0 else b"\x00"
    magnitude = abs(value)
    payload = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
    body = sign + payload
    return struct.pack(">I", len(body)) + body


def _int_body_size(value: int) -> int:
    """Exact size of ``_encode_int``'s output, without materializing it."""
    magnitude = abs(value)
    return 4 + 1 + ((magnitude.bit_length() + 7) // 8 or 1)


def _decode_int(data: bytes, offset: int) -> Tuple[int, int]:
    if offset + 4 > len(data):
        raise ValidationError("truncated integer length")
    (length,) = struct.unpack_from(">I", data, offset)
    offset += 4
    body = data[offset : offset + length]
    if len(body) != length or length < 1:
        raise ValidationError("truncated integer payload")
    sign = -1 if body[0] == 1 else 1
    return sign * int.from_bytes(body[1:], "big"), offset + length


def encode_value(value: Encodable) -> bytes:
    """Encode a scalar or (nested) tuple of scalars to canonical bytes."""
    if isinstance(value, bool):
        raise ValidationError("booleans are not protocol values")
    if isinstance(value, int):
        return b"I" + _encode_int(value)
    if isinstance(value, Fraction):
        return b"F" + _encode_int(value.numerator) + _encode_int(value.denominator)
    if isinstance(value, float):
        return b"D" + struct.pack(">d", value)
    if isinstance(value, tuple):
        parts = [b"T", struct.pack(">I", len(value))]
        parts.extend(encode_value(item) for item in value)
        return b"".join(parts)
    raise ValidationError(f"cannot encode {type(value).__name__} as a protocol value")


def _decode_at(data: bytes, offset: int) -> Tuple[Encodable, int]:
    if offset >= len(data):
        raise ValidationError("truncated protocol value")
    tag = data[offset : offset + 1]
    offset += 1
    if tag == b"I":
        return _decode_int(data, offset)
    if tag == b"F":
        numerator, offset = _decode_int(data, offset)
        denominator, offset = _decode_int(data, offset)
        if denominator == 0:
            raise ValidationError("fraction with zero denominator")
        return Fraction(numerator, denominator), offset
    if tag == b"D":
        if offset + 8 > len(data):
            raise ValidationError("truncated float payload")
        (value,) = struct.unpack_from(">d", data, offset)
        return value, offset + 8
    if tag == b"T":
        if offset + 4 > len(data):
            raise ValidationError("truncated tuple count")
        (count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        if count > len(data) - offset:
            raise ValidationError("tuple count exceeds available bytes")
        items = []
        for _ in range(count):
            item, offset = _decode_at(data, offset)
            items.append(item)
        return tuple(items), offset
    raise ValidationError(f"unknown protocol value tag {tag!r}")


def decode_value(data: bytes) -> Encodable:
    """Decode bytes produced by :func:`encode_value`.

    Raises :class:`ValidationError` on trailing garbage, so the codec is
    injective in both directions.
    """
    value, offset = _decode_at(data, 0)
    if offset != len(data):
        raise ValidationError("trailing bytes after protocol value")
    return value


def _varbytes(raw: bytes) -> bytes:
    return struct.pack(">I", len(raw)) + raw


def _decode_varbytes(data: bytes, offset: int) -> Tuple[bytes, int]:
    if offset + 4 > len(data):
        raise ValidationError("truncated length prefix")
    (length,) = struct.unpack_from(">I", data, offset)
    offset += 4
    if length > len(data) - offset:
        raise ValidationError("length prefix exceeds available bytes")
    return data[offset : offset + length], offset + length


def encode_payload(payload: Any) -> bytes:
    """Encode any message-vocabulary value to canonical bytes."""
    if payload is None:
        return b"N"
    if isinstance(payload, bool):
        return b"B\x01" if payload else b"B\x00"
    if isinstance(payload, (int, float, Fraction)):
        return encode_value(payload)
    if isinstance(payload, (bytes, bytearray)):
        return b"Y" + _varbytes(bytes(payload))
    if isinstance(payload, str):
        return b"S" + _varbytes(payload.encode("utf-8"))
    if isinstance(payload, (tuple, list)):
        parts = [b"T" if isinstance(payload, tuple) else b"L"]
        parts.append(struct.pack(">I", len(payload)))
        parts.extend(encode_payload(item) for item in payload)
        return b"".join(parts)
    if isinstance(payload, dict):
        parts = [b"M", struct.pack(">I", len(payload))]
        for key, value in payload.items():
            parts.append(encode_payload(key))
            parts.append(encode_payload(value))
        return b"".join(parts)
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        name = _PAYLOAD_NAMES_BY_TYPE.get(type(payload))
        if name is None:
            raise ValidationError(
                f"{type(payload).__name__} is not a registered payload type "
                f"(see repro.utils.serialization.register_payload_type)"
            )
        parts = [b"C", _varbytes(name.encode("utf-8"))]
        parts.extend(
            encode_payload(getattr(payload, field.name))
            for field in dataclasses.fields(payload)
        )
        return b"".join(parts)
    raise ValidationError(
        f"cannot encode {type(payload).__name__} as a message payload"
    )


def encoded_payload_size(payload: Any) -> int:
    """Exact size of :func:`encode_payload`'s output, without building it.

    This is the single byte-accounting definition shared by the
    simulated transport (:func:`repro.net.message.measure_size`) and
    the TCP transport, so per-phase byte counts are identical across
    both; ``tests/utils/test_serialization.py`` pins the equality.
    """
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 2
    if isinstance(payload, int):
        return 1 + _int_body_size(payload)
    if isinstance(payload, Fraction):
        return (
            1 + _int_body_size(payload.numerator) + _int_body_size(payload.denominator)
        )
    if isinstance(payload, float):
        return 9
    if isinstance(payload, (bytes, bytearray)):
        return 5 + len(payload)
    if isinstance(payload, str):
        return 5 + len(payload.encode("utf-8"))
    if isinstance(payload, (tuple, list)):
        return 5 + sum(encoded_payload_size(item) for item in payload)
    if isinstance(payload, dict):
        return 5 + sum(
            encoded_payload_size(key) + encoded_payload_size(value)
            for key, value in payload.items()
        )
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        name = _PAYLOAD_NAMES_BY_TYPE.get(type(payload))
        if name is None:
            raise ValidationError(
                f"{type(payload).__name__} is not a registered payload type "
                f"(see repro.utils.serialization.register_payload_type)"
            )
        return 5 + len(name.encode("utf-8")) + sum(
            encoded_payload_size(getattr(payload, field.name))
            for field in dataclasses.fields(payload)
        )
    raise ValidationError(
        f"cannot encode {type(payload).__name__} as a message payload"
    )


def _decode_payload_at(data: bytes, offset: int, depth: int) -> Tuple[Any, int]:
    if depth > MAX_DECODE_DEPTH:
        raise ValidationError("payload nesting exceeds the decoder depth bound")
    if offset >= len(data):
        raise ValidationError("truncated message payload")
    tag = data[offset : offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"B":
        if offset >= len(data):
            raise ValidationError("truncated boolean payload")
        flag = data[offset]
        if flag not in (0, 1):
            raise ValidationError(f"invalid boolean byte {flag:#x}")
        return bool(flag), offset + 1
    if tag in (b"I", b"F", b"D"):
        return _decode_at(data, offset - 1)
    if tag == b"Y":
        raw, offset = _decode_varbytes(data, offset)
        return raw, offset
    if tag == b"S":
        raw, offset = _decode_varbytes(data, offset)
        try:
            return raw.decode("utf-8"), offset
        except UnicodeDecodeError as error:
            raise ValidationError(f"invalid utf-8 in string payload: {error}")
    if tag in (b"T", b"L"):
        if offset + 4 > len(data):
            raise ValidationError("truncated container count")
        (count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        if count > len(data) - offset:
            raise ValidationError("container count exceeds available bytes")
        items = []
        for _ in range(count):
            item, offset = _decode_payload_at(data, offset, depth + 1)
            items.append(item)
        return (tuple(items) if tag == b"T" else items), offset
    if tag == b"M":
        if offset + 4 > len(data):
            raise ValidationError("truncated dict count")
        (count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        if count > (len(data) - offset) // 2:
            raise ValidationError("dict count exceeds available bytes")
        mapping = {}
        for _ in range(count):
            key, offset = _decode_payload_at(data, offset, depth + 1)
            value, offset = _decode_payload_at(data, offset, depth + 1)
            try:
                mapping[key] = value
            except TypeError:
                raise ValidationError(
                    f"unhashable dict key of type {type(key).__name__}"
                )
        return mapping, offset
    if tag == b"C":
        raw_name, offset = _decode_varbytes(data, offset)
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise ValidationError("invalid utf-8 in payload type name")
        cls = _PAYLOAD_TYPES_BY_NAME.get(name)
        if cls is None:
            raise ValidationError(f"unknown payload type {name!r}")
        values = {}
        for field in dataclasses.fields(cls):
            value, offset = _decode_payload_at(data, offset, depth + 1)
            values[field.name] = value
        try:
            return cls(**values), offset
        except ValidationError:
            raise
        except Exception as error:
            raise ValidationError(
                f"decoded {name!r} failed construction: {error}"
            )
    raise ValidationError(f"unknown message payload tag {tag!r}")


def decode_payload(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode_payload` (strict)."""
    try:
        payload, offset = _decode_payload_at(bytes(data), 0, 0)
    except ValidationError:
        raise
    except Exception as error:  # struct.error, OverflowError, ...
        raise ValidationError(f"malformed message payload: {error}")
    if offset != len(data):
        raise ValidationError("trailing bytes after message payload")
    return payload


def encode_message(msg_type: str, payload: Any) -> bytes:
    """Encode one protocol message (version + type + payload)."""
    if not msg_type:
        raise ValidationError("msg_type must be non-empty")
    return (
        bytes([WIRE_VERSION])
        + _varbytes(msg_type.encode("utf-8"))
        + encode_payload(payload)
    )


def decode_message(data: bytes) -> Tuple[str, Any, int]:
    """Decode one message; returns ``(msg_type, payload, payload_bytes)``.

    ``payload_bytes`` is the exact encoded size of the payload segment —
    the number :class:`repro.net.mux.MuxChannel` records as the
    message's wire size (and which
    :func:`repro.net.message.measure_size` reproduces for the simulated
    transport).
    """
    data = bytes(data)
    if not data:
        raise ValidationError("empty message frame")
    if data[0] != WIRE_VERSION:
        raise ValidationError(
            f"unsupported wire version {data[0]} (expected {WIRE_VERSION})"
        )
    try:
        raw_type, offset = _decode_varbytes(data, 1)
        try:
            msg_type = raw_type.decode("utf-8")
        except UnicodeDecodeError:
            raise ValidationError("invalid utf-8 in message type")
        if not msg_type:
            raise ValidationError("empty message type")
        payload_bytes = len(data) - offset
        payload, offset = _decode_payload_at(data, offset, 0)
    except ValidationError:
        raise
    except Exception as error:
        raise ValidationError(f"malformed message: {error}")
    if offset != len(data):
        raise ValidationError("trailing bytes after message")
    return msg_type, payload, payload_bytes


# -- helpers -----------------------------------------------------------------

#: Error texts of the canonical-form refusals, the one intended
#: difference from the oracle: it accepted these encodings and
#: re-encoded the value to other bytes.
CANONICAL_REFUSALS = (
    "non-canonical integer: sign byte",
    "non-canonical integer: empty magnitude",
    "non-canonical integer: leading zero byte",
    "non-canonical integer: negative zero",
    "non-canonical fraction:",
    "non-canonical dict: repeated key",
)

def _outcome(function, *args) -> Tuple[str, Any]:
    try:
        return "ok", function(*args)
    except Exception as error:  # noqa: BLE001 - the oracle's errors are data here
        return type(error).__name__, str(error)


def _canonical_refusal(outcome) -> bool:
    return outcome[0] == "ValidationError" and outcome[1].startswith(CANONICAL_REFUSALS)


def _same_value(left, right) -> bool:
    """Equal values of equal types all the way down (NaN equals NaN)."""
    return encode_payload(left) == encode_payload(right) and type(left) is type(right)


def _assert_decoders_agree(blob: bytes, new, old) -> None:
    """``new`` and ``old`` decode ``blob`` alike, bar a canonical refusal."""
    got, expected = _outcome(new, blob), _outcome(old, blob)
    if _canonical_refusal(got):
        # The oracle either refused too (at this or a later fault) or
        # accepted a value that does not re-encode to ``blob``.
        if expected[0] == "ok":
            if old is decode_message:
                reencoded = encode_message(expected[1][0], expected[1][1])
            elif old is decode_value:
                reencoded = encode_value(expected[1])
            else:
                reencoded = encode_payload(expected[1])
            assert reencoded != blob
        return
    assert got[0] == expected[0], (blob, got, expected)
    if got[0] == "ok":
        assert _same_value(got[1], expected[1])
    else:
        assert got[1] == expected[1]


class Colour(enum.IntEnum):
    RED = 1
    BLUE = -(2**70)


Point = collections.namedtuple("Point", "x y")


def _registered_examples() -> list:
    """One or more instances of every payload type the package registers."""
    group = fast_group()
    return [
        group,
        OMPEConfig(),
        OMPEConfig(security_degree=1, cover_expansion=2, group=group),
        MetricParams(),
        MetricParams(l0=0.5, resolution=8),
        OutputPolicy(),
        OutputPolicy(mode="threshold", threshold=0.5),
        OutputPolicy(mode="top-k", k=5),
        OutputPolicy(mode="permuted"),
        TraceContext("trace-1", "span-2", {"tenant": "a"}),
        AdminHealth(1, 8, 3, False, True, ({"session": "s1", "kind": "classify"},)),
        AdminMetricsDump(True, "# HELP x\n", "{}"),
        AdminTraceDump(({"session": "s1", "jsonl": ""},)),
        OTSetup(b"sid-1", (2, 3, 2**255 + 1)),
        OTChoice(b"sid-1", (4, 5)),
        ScaledVector(1, (0,)),
        ScaledVector(10**6 * 49, (-3, 2**70 + 1, 0, -(10**30))),
        KOfNTransfer(
            (b"s" * TAG_BYTES, b"t" * (TAG_BYTES + 9)),
            12345,
            ((b"k" * KEY_BYTES, b"\x00" * KEY_BYTES), (b"j" * KEY_BYTES,) * 2),
        ),
    ]


REGISTERED = _registered_examples()

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**4096), max_value=2**4096),
    st.fractions(),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**600), max_value=2**600),
        st.integers(min_value=1, max_value=2**600),
    ),
    st.floats(),
    st.binary(max_size=40),
    st.binary(max_size=8).map(bytearray),
    st.text(max_size=16),
    st.sampled_from(list(Colour)),
    st.sampled_from(REGISTERED),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.tuples(children, children).map(lambda pair: Point(*pair)),
        st.dictionaries(
            st.one_of(st.text(max_size=6), st.integers(), st.booleans()),
            children,
            max_size=3,
        ),
    )


payloads = st.recursive(scalars, _containers, max_leaves=16)


@st.composite
def deep_payloads(draw):
    """A value wrapped in up to ``MAX_DECODE_DEPTH + 2`` containers."""
    value = draw(scalars)
    for _ in range(draw(st.integers(min_value=0, max_value=MAX_DECODE_DEPTH + 2))):
        value = draw(st.sampled_from(((value,), [value], {"k": value})))
    return value


protocol_values = st.recursive(
    st.one_of(
        st.integers(min_value=-(2**4096), max_value=2**4096),
        st.fractions(),
        st.floats(),
        st.booleans(),
        st.sampled_from(list(Colour)),
    ),
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=12,
)

ORACLE = settings(max_examples=300, deadline=None, derandomize=True)


# -- the whole vocabulary --------------------------------------------------------


class TestVocabulary:
    def test_examples_cover_every_registered_type(self):
        package_types = {
            cls for cls in _PAYLOAD_TYPES_BY_NAME.values()
            if cls.__module__.startswith("repro.")
        }
        assert package_types <= {type(example) for example in REGISTERED}

    @given(st.one_of(payloads, deep_payloads()))
    @ORACLE
    def test_payload_bytes_size_and_value(self, payload):
        blob = encode_payload(payload)
        assert codec.encode_payload(payload) == blob
        assert codec.encoded_payload_size(payload) == encoded_payload_size(payload)
        assert codec.encoded_payload_size(payload) == len(blob)
        _assert_decoders_agree(blob, codec.decode_payload, decode_payload)

    @given(st.text(min_size=1, max_size=12), payloads)
    @ORACLE
    def test_message_bytes_and_value(self, msg_type, payload):
        blob = encode_message(msg_type, payload)
        assert codec.encode_message(msg_type, payload) == blob
        _assert_decoders_agree(blob, codec.decode_message, decode_message)

    @given(protocol_values)
    @ORACLE
    def test_protocol_value_bytes_and_value(self, value):
        """A value the oracle's value codec took seals to the same bytes
        under the message codec, and a run of them reads back alike."""
        expected = _outcome(encode_value, value)
        if expected[0] == "ok":
            blob = expected[1]
            assert codec.encode_payload(value) == blob
            _assert_decoders_agree(blob, codec.decode_payload, decode_value)
            run = codec.decode_payloads(blob * 2)
            decoded = decode_value(blob)
            assert len(run) == 2 and all(_same_value(item, decoded) for item in run)

    @pytest.mark.parametrize(
        "value",
        [
            "text",
            None,
            [1],
            b"raw",
            {1: 2},
            Point(1, 2),
            Colour.RED,
            True,
            1 + 2j,
        ],
        ids=repr,
    )
    def test_protocol_value_vocabulary(self, value):
        """What the oracle's value codec refused, the receiver refuses
        as a sealed slot value; what it took seals to the same bytes."""
        expected = _outcome(encode_value, value)
        if expected[0] == "ok":
            assert codec.encode_payload(value) == expected[1]
            return
        with pytest.raises(ReproError):
            check_evaluations(codec.decode_payloads(codec.encode_payload(value)), 1)

    @pytest.mark.parametrize(
        "value",
        [object(), {1, 2}, 1 + 2j, [object()], {"k": frozenset()}, OTSetup],
        ids=repr,
    )
    def test_refused_payloads_same_error(self, value):
        expected = _outcome(encode_payload, value)
        assert expected[0] == "ValidationError"
        assert _outcome(codec.encode_payload, value) == expected
        assert _outcome(codec.encoded_payload_size, value) == _outcome(
            encoded_payload_size, value
        )

    def test_unregistered_dataclass_same_error(self):
        @dataclasses.dataclass
        class Unregistered:
            x: int = 1

        class Derived(OTChoice):
            pass

        for value in (Unregistered(), Derived(b"s", (1,)), [Unregistered()]):
            expected = _outcome(encode_payload, value)
            assert expected[0] == "ValidationError"
            assert _outcome(codec.encode_payload, value) == expected
            assert _outcome(codec.encoded_payload_size, value) == expected


# -- the canonical-form rule -----------------------------------------------------


def _int_field(sign: int, magnitude: bytes) -> bytes:
    body = bytes([sign]) + magnitude
    return struct.pack(">I", len(body)) + body


NON_CANONICAL = {
    "sign byte 0x02": b"I" + _int_field(2, b"\x05"),
    "negative zero": b"I" + _int_field(1, b"\x00"),
    "leading zero byte": b"I" + _int_field(0, b"\x00\x05"),
    "empty magnitude": b"I" + _int_field(0, b""),
    "F(2, 4)": b"F" + _int_field(0, b"\x02") + _int_field(0, b"\x04"),
    "F(1, -2)": b"F" + _int_field(0, b"\x01") + _int_field(1, b"\x02"),
}


class TestCanonicalForm:
    @pytest.mark.parametrize("name", sorted(NON_CANONICAL))
    def test_refused_now_accepted_by_the_oracle(self, name):
        blob = NON_CANONICAL[name]
        accepted = decode_value(blob)
        assert encode_value(accepted) != blob
        for decode in (codec.decode_payload, codec.decode_payloads):
            with pytest.raises(ValidationError, match="non-canonical"):
                decode(blob)
        wrapped = codec.encode_message("x", [1]).replace(b"I" + _int_field(0, b"\x01"), blob)
        with pytest.raises(ValidationError, match="non-canonical"):
            codec.decode_message(wrapped)

    def test_repeated_dict_key_refused(self):
        repeated = b"M" + struct.pack(">I", 2) + (b"N" + b"I" + _int_field(0, b"\x01")) * 2
        # ``True == 1``: two distinct encodings, one dict key.
        colliding = (
            b"M" + struct.pack(">I", 2)
            + encode_payload(1) + encode_payload("a")
            + encode_payload(True) + encode_payload("b")
        )
        for blob in (repeated, colliding):
            assert encode_payload(decode_payload(blob)) != blob
            with pytest.raises(ValidationError, match="repeated key"):
                codec.decode_payload(blob)

    @pytest.mark.parametrize(
        "cls, fields",
        [
            (AdminHealth, (1, 8, 3, False, True, [{"session": "s1"}])),
            (AdminTraceDump, ([{"session": "s1", "jsonl": ""}],)),
            (OutputPolicy, ("threshold", 1, None)),
        ],
        ids=["health-list", "trace-list", "policy-int-threshold"],
    )
    def test_records_refuse_converted_fields(self, cls, fields):
        """A list where a tuple is due, an int where a float is due:
        refused, where the constructor once converted them."""
        hostile = object.__new__(cls)
        for field, value in zip(dataclasses.fields(cls), fields):
            object.__setattr__(hostile, field.name, value)
        with pytest.raises(ValidationError):
            codec.decode_payload(codec.encode_payload(hostile))
        with pytest.raises(ValidationError):
            cls(*fields)

    @pytest.mark.parametrize(
        "value", [0, 1, -1, 255, -256, 2**64, -(2**4096), Fraction(0), Fraction(-7, 3)]
    )
    def test_canonical_scalars_still_decode(self, value):
        assert codec.decode_payloads(codec.encode_payload(value)) == (value,)

    @given(st.one_of(payloads, protocol_values), st.data())
    @ORACLE
    def test_decoding_implies_reencoding(self, payload, data):
        """Decoding succeeds only on the bytes its value encodes to."""
        blob = bytearray(codec.encode_payload(payload))
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            position = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
            blob[position] = data.draw(st.integers(min_value=0, max_value=255))
        blob = bytes(blob)
        for decode, encode in (
            (codec.decode_payload, codec.encode_payload),
            (
                codec.decode_payloads,
                lambda run: b"".join(map(codec.encode_payload, run)),
            ),
        ):
            try:
                value = decode(blob)
            except ValidationError:
                continue
            assert encode(value) == blob


# -- recorded protocol messages --------------------------------------------------


def _kernel_model(seed: int) -> SVMModel:
    rng = random.Random(seed)
    return SVMModel(
        support_vectors=[[rng.uniform(-1, 1) for _ in range(2)] for _ in range(3)],
        dual_coefficients=[1.0, -1.0, 0.5],
        bias=0.05,
        kernel=polynomial_kernel(degree=2, a0=0.5, b0=0.5),
        kernel_spec=("poly", {"degree": 2, "a0": 0.5, "b0": 0.5}),
    )


@pytest.fixture(scope="module")
def recorded_frames():
    """The first frame of every message type of a served kernel
    classification, a served kernel similarity and a refused session,
    recorded in both directions over an in-memory connection."""
    config = OMPEConfig(security_degree=1, cover_expansion=2, group=fast_group())
    frames = []
    lock = threading.Lock()
    original = wire.MemoryConnection.send_frame

    def recording(self, data):
        with lock:
            frames.append(bytes(data))
        return original(self, data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wire.MemoryConnection, "send_frame", recording)
        with TrainerServer(_kernel_model(1), config=config, params=MetricParams()) as server:
            server_end, client_end = wire.memory_pair(timeout=30.0)
            errors = []

            def serve():
                try:
                    server.serve_connection(server_end)
                except BaseException as error:  # noqa: BLE001 - asserted below
                    errors.append(error)

            peer = threading.Thread(target=serve, daemon=True)
            peer.start()
            with TrainerClient(connection=client_end, config=config) as client:
                client.classify((0.25, -0.5), seed=3)
                client.evaluate_similarity(_kernel_model(2), seed=4)
                with pytest.raises(ProtocolError):
                    client.evaluate_similarity(_kernel_model(2), seed=5, server_model="nope")
            peer.join(30.0)
            assert not peer.is_alive()
            assert not errors
    first = {}
    for frame in frames:
        msg_type, _, _ = decode_message(frame)
        first.setdefault(msg_type, frame)
    return first


class TestRecordedMessages:
    def test_every_message_family_recorded(self, recorded_frames):
        types = set(recorded_frames)
        for expected in (
            "session/open", "session/accept", "session/error", "session/close",
            "ompe/request", "ompe/params", "ompe/points",
            "ompe/ot-setups", "ompe/ot-choices", "ompe/ot-transfers",
        ):
            assert expected in types
        names = set()
        for frame in recorded_frames.values():
            names.update(
                name for name in _PAYLOAD_NAMES_BY_TYPE.values()
                if name.startswith("ot/") and name.encode() in frame
            )
        assert names == {"ot/setup", "ot/choice", "ot/kofn2"}

    def test_recorded_frames_identical(self, recorded_frames):
        for frame in recorded_frames.values():
            msg_type, payload, size = decode_message(frame)
            assert codec.encode_message(msg_type, payload) == frame
            assert codec.encoded_payload_size(payload) == size
            assert codec.decode_message(frame)[2] == size
            _assert_decoders_agree(frame, codec.decode_message, decode_message)

    def test_every_cut(self, recorded_frames):
        for frame in recorded_frames.values():
            for cut in range(len(frame)):
                _assert_decoders_agree(frame[:cut], codec.decode_message, decode_message)

    @pytest.mark.parametrize("mask", [0x01, 0x80, 0xFF])
    def test_every_byte_flip(self, recorded_frames, mask):
        for frame in recorded_frames.values():
            for position in range(len(frame)):
                flipped = bytearray(frame)
                flipped[position] ^= mask
                _assert_decoders_agree(bytes(flipped), codec.decode_message, decode_message)

