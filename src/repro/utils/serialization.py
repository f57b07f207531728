"""Canonical byte encodings for protocol values and wire messages.

One codec lives here: :func:`encode_payload` / :func:`decode_payload`
for one value, :func:`encode_message` / :func:`decode_message` for a
typed message.  It covers everything the protocols put on a channel:
integers, exact rationals, floats, tuples, ``None``, booleans, byte
strings, text, lists, dicts, and the registered protocol dataclasses
(OT setups/choices/transfers, the OMPE config, ...).  This is what
:mod:`repro.net.wire` frames onto a real TCP connection, and what
:func:`repro.net.message.measure_size` mirrors byte-for-byte for the
simulated transport.  An OMPE sender seals each slot as the
:func:`encode_payload` bytes of its values laid end to end, which the
receiver reads back with :func:`decode_payloads`; the oblivious
transfer carries those as opaque byte strings, and they are part of
the protocol transcript, so the codec must stay bit-stable.

Wire format (all integers big-endian; ``varbytes(x)`` is a ``u32``
length followed by the raw payload; integers use a leading sign byte):

* ``int``      -> ``b"I" + varbytes(sign_magnitude)``
* ``Fraction`` -> ``b"F" + varbytes(numerator) + varbytes(denominator)``
* ``float``    -> ``b"D" + 8-byte IEEE 754``
* ``tuple``    -> ``b"T" + u32 count + items``
* ``None``     -> ``b"N"``
* ``bool``     -> ``b"B" + 0x00/0x01``
* ``bytes``    -> ``b"Y" + varbytes(raw)``
* ``str``      -> ``b"S" + varbytes(utf-8)``
* ``list``     -> ``b"L" + u32 count + items``
* ``dict``     -> ``b"M" + u32 count + key/value pairs``
* dataclass    -> ``b"C" + varbytes(registered name) + fields in order``

A full message is ``version byte (0x01) + varbytes(msg_type) +
payload``; :mod:`repro.net.wire` length-prefixes that with a ``u32``
frame header.  Decoding is strict: every malformed, truncated, or
unknown-tag input raises :class:`ValidationError` (never a bare
``struct.error`` or an unbounded allocation), trailing garbage is
rejected, and so is every non-canonical form — an integer with a sign
byte other than 0/1, an empty magnitude, a leading zero byte or a
negative zero; a fraction not in lowest terms with a positive
denominator; a dict with a repeated key — so the codec is injective in
each direction.

Encoding and sizing share one dispatch: the exact type picks the
branch for the values messages are made of (``Fraction``, ``tuple``,
``list``, ``bytes``, ``int``, registered dataclasses, whose header and
field names are cached at registration), and everything else takes the
``isinstance`` order, which fixes the bytes and errors of ``bool``,
``None``, ``str``, ``dict``, ``float``, ``bytearray`` and subclasses.
The encoder appends to one parts list joined once per message;
decoding dispatches on the tag byte and reads integers in place.
"""

from __future__ import annotations

import dataclasses
import struct
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple, Type

from repro.exceptions import ValidationError

#: Version byte leading every encoded message.  Bump on any
#: backwards-incompatible change to the tag vocabulary.
WIRE_VERSION = 1

#: Version byte leading every *multiplexed* (protocol v2) frame.  A v2
#: frame wraps an ordinary v1 message in a session envelope:
#: ``0x02 + u32 session_id + v1 message``.  The first byte therefore
#: distinguishes the two frame generations unambiguously — a v1 decoder
#: handed a v2 frame fails loudly on the version byte, never silently.
MUX_WIRE_VERSION = 2

#: Nesting depth bound for the decoder: deeper frames are rejected as
#: hostile before Python's recursion limit turns them into a crash.
MAX_DECODE_DEPTH = 64


_U32 = struct.Struct(">I")
_pack_u32 = _U32.pack
_unpack_u32 = _U32.unpack_from
_pack_int_head = struct.Struct(">IB").pack
_DOUBLE = struct.Struct(">d")

_TAG_I, _TAG_F, _TAG_D, _TAG_T = b"IFDT"
_TAG_N, _TAG_B, _TAG_Y, _TAG_S, _TAG_L, _TAG_M, _TAG_C = b"NBYSLMC"


def _encode_int(value: int) -> bytes:
    """``varbytes(sign byte + big-endian magnitude)``: the body of an
    ``I`` value, and each half of an ``F`` value."""
    if value < 0:
        magnitude = (-value).to_bytes(((-value).bit_length() + 7) // 8, "big")
        return _pack_int_head(len(magnitude) + 1, 1) + magnitude
    magnitude = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    return _pack_int_head(len(magnitude) + 1, 0) + magnitude


def _int_body_size(value: int) -> int:
    """Exact size of ``_encode_int``'s output, without materializing it."""
    return 5 + ((value.bit_length() + 7) // 8 or 1)


def _decode_int(data: bytes, offset: int) -> Tuple[int, int]:
    """Read one ``_encode_int`` field in place; refuse non-canonical forms.

    Canonical means what ``_encode_int`` writes: sign byte 0 or 1, a
    non-empty magnitude without a leading zero byte, and no negative
    zero — so every integer has exactly one encoding.
    """
    if offset + 4 > len(data):
        raise ValidationError("truncated integer length")
    (length,) = _unpack_u32(data, offset)
    offset += 4
    end = offset + length
    if length < 1 or end > len(data):
        raise ValidationError("truncated integer payload")
    sign = data[offset]
    if sign > 1:
        raise ValidationError(f"non-canonical integer: sign byte {sign:#x}")
    if length == 1:
        raise ValidationError("non-canonical integer: empty magnitude")
    if data[offset + 1] == 0 and (length > 2 or sign):
        raise ValidationError(
            "non-canonical integer: negative zero"
            if length == 2
            else "non-canonical integer: leading zero byte"
        )
    magnitude = int.from_bytes(data[offset + 1 : end], "big")
    return (-magnitude if sign else magnitude), end


def _decode_fraction(data: bytes, offset: int) -> Tuple[Fraction, int]:
    """Read the two integers of an ``F`` value (tag already consumed)."""
    numerator, offset = _decode_int(data, offset)
    denominator, offset = _decode_int(data, offset)
    if denominator == 0:
        raise ValidationError("fraction with zero denominator")
    value = Fraction(numerator, denominator)
    if value.denominator != denominator:
        raise ValidationError(
            f"non-canonical fraction: {numerator}/{denominator} is not in "
            f"lowest terms with a positive denominator"
        )
    return value, offset


def _decode_float(data: bytes, offset: int) -> Tuple[float, int]:
    if offset + 8 > len(data):
        raise ValidationError("truncated float payload")
    (value,) = _DOUBLE.unpack_from(data, offset)
    return value, offset + 8


# -- message payload codec ---------------------------------------------------

#: Registered dataclass payload types: wire name -> class, and per class
#: its ``b"C" + varbytes(name)`` header and field names in declaration
#: order, built once at registration.  Names are part of the wire
#: format; once published they must stay stable.
_PAYLOAD_TYPES_BY_NAME: Dict[str, Type] = {}
_PAYLOAD_LAYOUTS: Dict[Type, Tuple[bytes, Tuple[str, ...]]] = {}


def register_payload_type(name: str, cls: Optional[Type] = None):
    """Register a dataclass so it can cross the wire by ``name``.

    Fields are encoded in declaration order; decoding reconstructs the
    class through its constructor, so ``__post_init__`` validation runs
    on every decoded instance (hostile field values are rejected by the
    type itself).  Usable directly (``register_payload_type("x", X)``)
    or as a class decorator (``@register_payload_type("x")``).
    """
    if cls is None:
        return lambda actual: register_payload_type(name, actual)
    if not dataclasses.is_dataclass(cls):
        raise ValidationError(f"{cls.__name__} is not a dataclass")
    if not name:
        raise ValidationError("payload type name must be non-empty")
    existing = _PAYLOAD_TYPES_BY_NAME.get(name)
    if existing is not None and existing is not cls:
        raise ValidationError(
            f"payload type name {name!r} already registered to "
            f"{existing.__name__}"
        )
    _PAYLOAD_TYPES_BY_NAME[name] = cls
    _PAYLOAD_LAYOUTS[cls] = (
        b"C" + _varbytes(name.encode("utf-8")),
        tuple(field.name for field in dataclasses.fields(cls)),
    )
    return cls


def _varbytes(raw: bytes) -> bytes:
    return _pack_u32(len(raw)) + raw


def _decode_varbytes(data: bytes, offset: int) -> Tuple[bytes, int]:
    if offset + 4 > len(data):
        raise ValidationError("truncated length prefix")
    (length,) = _unpack_u32(data, offset)
    offset += 4
    if length > len(data) - offset:
        raise ValidationError("length prefix exceeds available bytes")
    return data[offset : offset + length], offset + length


def _unregistered(payload: Any) -> ValidationError:
    return ValidationError(
        f"{type(payload).__name__} is not a registered payload type "
        f"(see repro.utils.serialization.register_payload_type)"
    )


def _encode_payload_into(payload: Any, append) -> None:
    """Append ``payload``'s encoding to a parts list.

    The values messages are made of are dispatched first: exact
    ``Fraction`` and ``int``, any ``tuple``/``list`` or byte string
    (no other branch can match an instance of those), and registered
    dataclasses.  Everything else — ``None``, ``bool``, ``str``,
    ``dict``, ``float``, other subclasses, unregistered classes — takes
    the ``isinstance`` order, which fixes its bytes and its error.
    """
    kind = type(payload)
    if kind is Fraction:
        numerator, denominator = payload.as_integer_ratio()
        append(b"F")
        append(_encode_int(numerator))
        append(_encode_int(denominator))
    elif kind is int:
        append(b"I")
        append(_encode_int(payload))
    elif isinstance(payload, (tuple, list)):
        append(b"T" if isinstance(payload, tuple) else b"L")
        append(_pack_u32(len(payload)))
        for item in payload:
            _encode_payload_into(item, append)
    elif isinstance(payload, (bytes, bytearray)):
        raw = bytes(payload)
        append(b"Y")
        append(_pack_u32(len(raw)))
        append(raw)
    elif kind in _PAYLOAD_LAYOUTS:
        header, names = _PAYLOAD_LAYOUTS[kind]
        append(header)
        for name in names:
            _encode_payload_into(getattr(payload, name), append)
    elif payload is None:
        append(b"N")
    elif isinstance(payload, bool):
        append(b"B\x01" if payload else b"B\x00")
    elif isinstance(payload, int):
        append(b"I")
        append(_encode_int(payload))
    elif isinstance(payload, Fraction):
        append(b"F")
        append(_encode_int(payload.numerator))
        append(_encode_int(payload.denominator))
    elif isinstance(payload, float):
        append(b"D")
        append(_DOUBLE.pack(payload))
    elif isinstance(payload, str):
        append(b"S")
        append(_varbytes(payload.encode("utf-8")))
    elif isinstance(payload, dict):
        append(b"M")
        append(_pack_u32(len(payload)))
        for key, value in payload.items():
            _encode_payload_into(key, append)
            _encode_payload_into(value, append)
    elif dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        raise _unregistered(payload)
    else:
        raise ValidationError(
            f"cannot encode {type(payload).__name__} as a message payload"
        )


def encode_payload(payload: Any) -> bytes:
    """Encode any message-vocabulary value to canonical bytes."""
    parts: list = []
    _encode_payload_into(payload, parts.append)
    return b"".join(parts)


def encoded_payload_size(payload: Any) -> int:
    """Exact size of :func:`encode_payload`'s output, without building it.

    This is the single byte-accounting definition shared by the
    simulated transport (:func:`repro.net.message.measure_size`) and
    the TCP transport, so per-phase byte counts are identical across
    both; ``tests/utils/test_serialization.py`` pins the equality.  It
    dispatches exactly as the encoder does.
    """
    kind = type(payload)
    if kind is Fraction:
        numerator, denominator = payload.as_integer_ratio()
        # Both ``_int_body_size`` terms, inlined on the hottest path.
        return 11 + (
            ((numerator.bit_length() + 7) // 8 or 1)
            + ((denominator.bit_length() + 7) // 8 or 1)
        )
    if kind is int:
        return 1 + _int_body_size(payload)
    if isinstance(payload, (tuple, list)):
        return 5 + sum(map(encoded_payload_size, payload))
    if isinstance(payload, (bytes, bytearray)):
        return 5 + len(payload)
    if kind in _PAYLOAD_LAYOUTS:
        header, names = _PAYLOAD_LAYOUTS[kind]
        return len(header) + sum(
            encoded_payload_size(getattr(payload, name)) for name in names
        )
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
    if isinstance(payload, str):
        return 5 + len(payload.encode("utf-8"))
    if isinstance(payload, dict):
        return 5 + sum(
            encoded_payload_size(key) + encoded_payload_size(value)
            for key, value in payload.items()
        )
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        raise _unregistered(payload)
    raise ValidationError(
        f"cannot encode {type(payload).__name__} as a message payload"
    )


def _decode_payload_at(data: bytes, offset: int, depth: int) -> Tuple[Any, int]:
    if depth > MAX_DECODE_DEPTH:
        raise ValidationError("payload nesting exceeds the decoder depth bound")
    if offset >= len(data):
        raise ValidationError("truncated message payload")
    tag = data[offset]
    offset += 1
    if tag == _TAG_I:
        return _decode_int(data, offset)
    if tag == _TAG_F:
        return _decode_fraction(data, offset)
    if tag == _TAG_T or tag == _TAG_L:
        if offset + 4 > len(data):
            raise ValidationError("truncated container count")
        (count,) = _unpack_u32(data, offset)
        offset += 4
        if count > len(data) - offset:
            raise ValidationError("container count exceeds available bytes")
        items = []
        depth += 1
        for _ in range(count):
            item, offset = _decode_payload_at(data, offset, depth)
            items.append(item)
        return (tuple(items) if tag == _TAG_T else items), offset
    if tag == _TAG_Y:
        return _decode_varbytes(data, offset)
    if tag == _TAG_C:
        raw_name, offset = _decode_varbytes(data, offset)
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise ValidationError("invalid utf-8 in payload type name")
        cls = _PAYLOAD_TYPES_BY_NAME.get(name)
        if cls is None:
            raise ValidationError(f"unknown payload type {name!r}")
        values = {}
        for field_name in _PAYLOAD_LAYOUTS[cls][1]:
            value, offset = _decode_payload_at(data, offset, depth + 1)
            values[field_name] = value
        try:
            return cls(**values), offset
        except ValidationError:
            raise
        except Exception as error:
            raise ValidationError(
                f"decoded {name!r} failed construction: {error}"
            )
    if tag == _TAG_N:
        return None, offset
    if tag == _TAG_B:
        if offset >= len(data):
            raise ValidationError("truncated boolean payload")
        flag = data[offset]
        if flag not in (0, 1):
            raise ValidationError(f"invalid boolean byte {flag:#x}")
        return bool(flag), offset + 1
    if tag == _TAG_D:
        return _decode_float(data, offset)
    if tag == _TAG_S:
        raw, offset = _decode_varbytes(data, offset)
        try:
            return raw.decode("utf-8"), offset
        except UnicodeDecodeError as error:
            raise ValidationError(f"invalid utf-8 in string payload: {error}")
    if tag == _TAG_M:
        if offset + 4 > len(data):
            raise ValidationError("truncated dict count")
        (count,) = _unpack_u32(data, offset)
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
        if len(mapping) != count:
            raise ValidationError("non-canonical dict: repeated key")
        return mapping, offset
    raise ValidationError(
        f"unknown message payload tag {data[offset - 1 : offset]!r}"
    )


def _decode_payload_checked(data: bytes, offset: int) -> Tuple[Any, int]:
    """:func:`_decode_payload_at` at depth 0, every failure typed."""
    try:
        return _decode_payload_at(data, offset, 0)
    except ValidationError:
        raise
    except Exception as error:  # struct.error, OverflowError, ...
        raise ValidationError(f"malformed message payload: {error}")


def decode_payload(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode_payload` (strict)."""
    payload, offset = _decode_payload_checked(bytes(data), 0)
    if offset != len(data):
        raise ValidationError("trailing bytes after message payload")
    return payload


def decode_payloads(data: bytes) -> Tuple[Any, ...]:
    """Decode a run of :func:`encode_payload` outputs laid end to end.

    An OMPE slot seals one value per sender function this way; each
    value is decoded as strictly as by :func:`decode_payload`, and the
    caller checks that each is a value its protocol step expects.
    """
    data = bytes(data)
    values = []
    offset = 0
    while offset < len(data):
        value, offset = _decode_payload_checked(data, offset)
        values.append(value)
    return tuple(values)


# -- full message codec ------------------------------------------------------


def encode_message(msg_type: str, payload: Any) -> bytes:
    """Encode one protocol message (version + type + payload)."""
    if not msg_type:
        raise ValidationError("msg_type must be non-empty")
    parts = [bytes([WIRE_VERSION]), _varbytes(msg_type.encode("utf-8"))]
    _encode_payload_into(payload, parts.append)
    return b"".join(parts)


def peek_message_type(data: bytes) -> str:
    """Decode only the ``msg_type`` of an encoded v1 message.

    The multiplexing demultiplexer routes frames by type without paying
    for a full payload decode on the I/O loop — the session's worker
    thread decodes the payload.  Validation of the header segment is as
    strict as :func:`decode_message`'s.
    """
    data = bytes(data)
    if not data:
        raise ValidationError("empty message frame")
    if data[0] != WIRE_VERSION:
        raise ValidationError(
            f"unsupported wire version {data[0]} (expected {WIRE_VERSION})"
        )
    raw_type, _ = _decode_varbytes(data, 1)
    try:
        msg_type = raw_type.decode("utf-8")
    except UnicodeDecodeError:
        raise ValidationError("invalid utf-8 in message type")
    if not msg_type:
        raise ValidationError("empty message type")
    return msg_type


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


# -- multiplexed (protocol v2) frame codec ------------------------------------

#: Hard ceiling on a v2 session id (u32 on the wire).  Session id 0 is
#: the connection-control session (negotiation, admin traffic).
MAX_SESSION_ID = 2**32 - 1

#: The reserved connection-control session id.
CONTROL_SESSION_ID = 0

_SESSION_HEADER = struct.Struct(">I")


def encode_mux_frame(session_id: int, message: bytes) -> bytes:
    """Wrap one encoded v1 message in a v2 session envelope.

    Layout: ``0x02 + u32_be session_id + message``.  The transport's
    length prefix goes *around* this, exactly as for v1 frames, so the
    framing layer below is version-agnostic.
    """
    if not isinstance(session_id, int) or isinstance(session_id, bool):
        raise ValidationError(
            f"session id must be an int, got {type(session_id).__name__}"
        )
    if not 0 <= session_id <= MAX_SESSION_ID:
        raise ValidationError(
            f"session id {session_id} outside the u32 range"
        )
    if not message:
        raise ValidationError("a mux frame needs a non-empty inner message")
    return bytes([MUX_WIRE_VERSION]) + _SESSION_HEADER.pack(session_id) + message


def split_mux_frame(data: bytes) -> Tuple[int, bytes]:
    """Split a v2 frame into ``(session_id, inner message bytes)``.

    Strict: a wrong version byte (including a v1 message byte, 0x01), a
    truncated session header, or an empty inner message all raise
    :class:`ValidationError`.  The inner message is *not* decoded here —
    the demultiplexer routes on the session id first and decodes on the
    session's own thread.
    """
    data = bytes(data)
    if not data:
        raise ValidationError("empty mux frame")
    if data[0] != MUX_WIRE_VERSION:
        raise ValidationError(
            f"unsupported mux frame version {data[0]} "
            f"(expected {MUX_WIRE_VERSION})"
        )
    if len(data) < 1 + _SESSION_HEADER.size + 1:
        raise ValidationError("truncated mux frame header")
    (session_id,) = _SESSION_HEADER.unpack_from(data, 1)
    return session_id, data[1 + _SESSION_HEADER.size:]
