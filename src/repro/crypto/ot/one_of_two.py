"""1-out-of-2 oblivious transfer (classic Naor–Pinkas).

The historical base case of the OT hierarchy (paper Section III-B step
1), in the form of Naor & Pinkas, "Efficient Oblivious Transfer
Protocols" (SODA 2001), §3.1.  The sender publishes a random group
element ``C`` whose discrete log nobody knows.  The receiver with bit
``b`` samples ``k`` and sends ``PK_b = g^k`` implicitly by transmitting
``PK_0``; the sender derives ``PK_1 = C / PK_0``.  The sender draws one
``r``, sends ``g^r`` and wraps message ``i`` under ``PK_i^r``.  The
receiver recovers only slot ``b`` as ``(g^r)^k``; the complementary key
``C^r / PK_b^r`` needs ``C^r``, the CDH of ``(g^r, C)``.

Functionally subsumed by :mod:`repro.crypto.ot.one_of_n` (n = 2), but
implemented independently because it is the textbook protocol and makes
a good cross-check in tests.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.crypto.hashing import unwrap_message, wrap_message
from repro.crypto.ot.base import OTChoice, OTSetup, OTTransfer, validate_messages
from repro.exceptions import ObliviousTransferError, ValidationError
from repro.math.groups import SchnorrGroup
from repro.utils.rng import ReproRandom


def _slot_context(session: bytes, slot: int) -> bytes:
    return session + b"|bit:" + str(slot).encode("ascii")


class OneOfTwoSender:
    """Sender holding two messages, willing to reveal exactly one."""

    def __init__(self, group: SchnorrGroup, rng: ReproRandom) -> None:
        self.group = group
        self._rng = rng
        self._setup: Optional[OTSetup] = None

    def setup(self) -> OTSetup:
        """Publish the session id and the no-known-dlog constant ``C``."""
        session = self._rng.bytes(16)
        c = self.group.random_element(self._rng)
        self._setup = OTSetup(session=session, blinding_points=(c,))
        return self._setup

    def transfer(self, messages: Sequence[bytes], choice: OTChoice) -> OTTransfer:
        """Wrap both messages under the two derived public keys."""
        if self._setup is None:
            raise ObliviousTransferError("transfer before setup")
        if choice.session != self._setup.session:
            raise ObliviousTransferError("choice belongs to a different session")
        payload = validate_messages(messages)
        if len(payload) != 2:
            raise ValidationError("1-of-2 OT requires exactly two messages")
        if len(choice.blinded_keys) != 1:
            raise ObliviousTransferError("1-of-2 choice must carry one public key")
        group = self.group
        (c,) = self._setup.blinding_points
        pk0 = choice.blinded_keys[0]
        if not group.contains(pk0):
            raise ObliviousTransferError("public key is not a group element")
        pk1 = group.div(c, pk0)
        r = group.random_exponent(self._rng)
        wrapped = tuple(
            wrap_message(
                group.encode_element(group.exp(pk, r)),
                message,
                _slot_context(self._setup.session, slot),
            )
            for slot, (pk, message) in enumerate(zip((pk0, pk1), payload))
        )
        return OTTransfer(
            session=self._setup.session,
            ephemeral_point=group.exp_g(r),
            wrapped=wrapped,
        )


class OneOfTwoReceiver:
    """Receiver holding a selection bit ``b``."""

    def __init__(self, group: SchnorrGroup, rng: ReproRandom) -> None:
        self.group = group
        self._rng = rng
        self._secret: Optional[int] = None
        self._bit: Optional[int] = None
        self._session: Optional[bytes] = None

    def choose(self, setup: OTSetup, bit: int) -> OTChoice:
        """Commit to selection bit ``bit`` by sending ``PK_0``."""
        if bit not in (0, 1):
            raise ValidationError(f"bit must be 0 or 1, got {bit}")
        if len(setup.blinding_points) != 1:
            raise ObliviousTransferError("1-of-2 setup must carry one constant")
        (c,) = setup.blinding_points
        if not self.group.contains(c):
            raise ObliviousTransferError("constant is not a group element")
        self._secret = self.group.random_exponent(self._rng)
        self._bit = bit
        self._session = setup.session
        pk_b = self.group.exp_g(self._secret)
        pk0 = pk_b if bit == 0 else self.group.div(c, pk_b)
        return OTChoice(session=setup.session, blinded_keys=(pk0,))

    def retrieve(self, transfer: OTTransfer) -> bytes:
        """Unwrap the chosen message."""
        if self._secret is None or self._bit is None:
            raise ObliviousTransferError("retrieve before choose")
        if transfer.session != self._session:
            raise ObliviousTransferError("transfer belongs to a different session")
        if transfer.message_count != 2:
            raise ObliviousTransferError("1-of-2 transfer must carry two messages")
        point = transfer.ephemeral_point
        if not isinstance(point, int) or not self.group.contains(point):
            raise ObliviousTransferError("ephemeral point is not a group element")
        key_bytes = self.group.encode_element(self.group.exp(point, self._secret))
        plaintext = unwrap_message(
            key_bytes, transfer.wrapped[self._bit], _slot_context(transfer.session, self._bit)
        )
        if plaintext is None:
            raise ObliviousTransferError("chosen slot failed to authenticate")
        return plaintext


def run_one_of_two(
    group: SchnorrGroup,
    messages: Sequence[bytes],
    bit: int,
    rng: ReproRandom,
) -> Tuple[bytes, OTTransfer]:
    """Convenience one-shot execution (both roles locally)."""
    sender = OneOfTwoSender(group, rng.fork("sender"))
    receiver = OneOfTwoReceiver(group, rng.fork("receiver"))
    setup = sender.setup()
    choice = receiver.choose(setup, bit)
    transfer = sender.transfer(messages, choice)
    return receiver.retrieve(transfer), transfer
