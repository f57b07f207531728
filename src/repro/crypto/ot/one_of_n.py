"""1-out-of-n oblivious transfer (Naor–Pinkas style).

Construction (semi-honest, random-oracle model, CDH assumption), with
the single-ephemeral key schedule of Naor & Pinkas, "Efficient
Oblivious Transfer Protocols" (SODA 2001):

* **Setup.** The sender samples a public group element ``w`` with an
  unknown discrete log (derived from a random exponent it immediately
  forgets — here simply a random element) and a session id.
* **Choice.** To select index ``σ``, the receiver samples a secret
  exponent ``k`` and sends ``V = g^k · w^σ``.  Since ``g^k`` is uniform,
  ``V`` is uniform in the group whatever ``σ`` is — the receiver's
  choice is *perfectly* hidden.
* **Transfer.** The sender samples one ``r``, sends ``R = g^r`` and,
  for every slot ``i``, the message wrapped under
  ``key_i = (V · w^{-i})^r``.  It computes ``K = V^r`` and
  ``S = w^{-r}`` once and walks ``key_i = K · S^i`` by multiplication,
  so a transfer costs three exponentiations whatever its slot count.
* **Retrieve.** For ``i = σ``, ``V · w^{-σ} = g^k``, so the receiver
  computes ``key_σ = R^k``.  For ``i ≠ σ``,
  ``key_i = key_σ · (w^r)^{σ-i}``; computing it requires ``w^r``, the
  CDH of ``(g^r, w)`` — infeasible for the honest-but-curious
  receiver.  Each key is hashed with the session id and its slot index,
  so no two slots share a wrapping key.

This is the workhorse primitive: the paper's ``m``-out-of-``M`` step
runs ``m`` parallel sessions of this protocol
(:mod:`repro.crypto.ot.k_of_n`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.crypto.hashing import unwrap_message, wrap_message
from repro.crypto.ot.base import (
    OTChoice,
    OTSetup,
    OTTransfer,
    validate_index,
    validate_messages,
)
from repro.exceptions import ObliviousTransferError
from repro.math.groups import SchnorrGroup
from repro.utils.rng import ReproRandom


def _slot_context(session: bytes, slot: int) -> bytes:
    return session + b"|slot:" + str(slot).encode("ascii")


class TransferMaterial:
    """Memoized sender-side material shared by parallel sessions.

    The ``k``-of-``n`` construction answers every one of its ``k·m``
    parallel sessions over the *same* message vector.  Everything about
    that vector that does not depend on the session — the validated
    payload copy and the per-slot key-derivation context suffixes — is
    deterministic, so it is computed once here and reused by every
    session instead of once per session.  Purely a cache: a transfer
    produced through a shared :class:`TransferMaterial` is bit-identical
    to one produced without it (covered by ``tests/crypto/test_ot.py``).
    """

    __slots__ = ("payload", "slot_suffixes", "sessions_served")

    def __init__(self, messages: Sequence[bytes]) -> None:
        self.payload = validate_messages(messages)
        self.slot_suffixes: Tuple[bytes, ...] = tuple(
            b"|slot:" + str(slot).encode("ascii")
            for slot in range(len(self.payload))
        )
        self.sessions_served = 0


class OneOfNSender:
    """Sender side of the 1-out-of-n OT."""

    def __init__(self, group: SchnorrGroup, rng: ReproRandom) -> None:
        self.group = group
        self._rng = rng
        self._setup: Optional[OTSetup] = None

    def setup(self) -> OTSetup:
        """Publish the session's public parameters."""
        session = self._rng.bytes(16)
        w = self.group.random_element(self._rng)
        self._setup = OTSetup(session=session, blinding_points=(w,))
        return self._setup

    def transfer(
        self,
        messages: Sequence[bytes],
        choice: OTChoice,
        material: Optional[TransferMaterial] = None,
    ) -> OTTransfer:
        """Wrap every message so only the chosen slot is recoverable.

        ``material`` optionally carries the pre-validated payload and
        per-slot context suffixes shared with sibling parallel sessions
        (see :class:`TransferMaterial`); the output is identical with or
        without it.  Key schedule: one ``r``, ``R = g^r``, ``K = V^r``,
        ``S = w^{-r}``, then ``key_i = K · S^i`` by multiplication —
        three exponentiations per transfer, all on the active bignum
        backend.
        """
        if self._setup is None:
            raise ObliviousTransferError("transfer before setup")
        if choice.session != self._setup.session:
            raise ObliviousTransferError("choice belongs to a different session")
        if len(choice.blinded_keys) != 1:
            raise ObliviousTransferError("1-of-n choice must carry one blinded key")
        if material is None:
            material = TransferMaterial(messages)
        material.sessions_served += 1
        group = self.group
        (w,) = self._setup.blinding_points
        blinded = choice.blinded_keys[0]
        if not group.contains(blinded):
            raise ObliviousTransferError("blinded key is not a group element")
        session = self._setup.session
        r = group.random_exponent(self._rng)
        ephemeral_point = group.exp_g(r)
        key_point = group.exp(blinded, r)  # K = V^r, the key of slot 0
        step = group.exp(w, -r)  # S = w^{-r}
        wrapped: List[bytes] = []
        for message, suffix in zip(material.payload, material.slot_suffixes):
            key_bytes = group.encode_element(key_point)
            wrapped.append(wrap_message(key_bytes, message, session + suffix))
            key_point = group.mul(key_point, step)
        return OTTransfer(
            session=session,
            ephemeral_point=ephemeral_point,
            wrapped=tuple(wrapped),
        )


class OneOfNReceiver:
    """Receiver side of the 1-out-of-n OT."""

    def __init__(self, group: SchnorrGroup, rng: ReproRandom) -> None:
        self.group = group
        self._rng = rng
        self._secret: Optional[int] = None
        self._index: Optional[int] = None
        self._count: Optional[int] = None
        self._session: Optional[bytes] = None

    def choose(self, setup: OTSetup, index: int, count: int) -> OTChoice:
        """Blind the selection ``index`` among ``count`` slots."""
        validate_index(index, count)
        if len(setup.blinding_points) != 1:
            raise ObliviousTransferError("1-of-n setup must carry one blinding point")
        (w,) = setup.blinding_points
        if not self.group.contains(w):
            raise ObliviousTransferError("blinding point is not a group element")
        self._secret = self.group.random_exponent(self._rng)
        self._index = index
        self._count = count
        self._session = setup.session
        blinded = self.group.mul(
            self.group.exp_g(self._secret),
            self.group.exp(w, index),
        )
        return OTChoice(session=setup.session, blinded_keys=(blinded,))

    def _key_bytes(self, transfer: OTTransfer) -> bytes:
        """``R^k``: the only slot key this receiver can derive."""
        if self._secret is None:
            raise ObliviousTransferError("retrieve before choose")
        if transfer.session != self._session:
            raise ObliviousTransferError("transfer belongs to a different session")
        if transfer.message_count != self._count:
            raise ObliviousTransferError(
                f"transfer carries {transfer.message_count} slots, "
                f"expected {self._count}"
            )
        point = transfer.ephemeral_point
        if not isinstance(point, int) or not self.group.contains(point):
            raise ObliviousTransferError("ephemeral point is not a group element")
        return self.group.encode_element(self.group.exp(point, self._secret))

    def retrieve(self, transfer: OTTransfer) -> bytes:
        """Unwrap the chosen message; aborts if it fails to authenticate."""
        key_bytes = self._key_bytes(transfer)
        plaintext = unwrap_message(
            key_bytes,
            transfer.wrapped[self._index],
            _slot_context(transfer.session, self._index),
        )
        if plaintext is None:
            raise ObliviousTransferError("chosen slot failed to authenticate")
        return plaintext

    def attempt_all(self, transfer: OTTransfer) -> List[Optional[bytes]]:
        """Adversarial probe: try to unwrap *every* slot with our key.

        Used by the privacy analysis to demonstrate that all non-chosen
        slots fail authentication (returns ``None`` entries): the slot
        index inside the key derivation separates them even though a
        single ephemeral point serves every slot.
        """
        key_bytes = self._key_bytes(transfer)
        return [
            unwrap_message(key_bytes, wrapped, _slot_context(transfer.session, slot))
            for slot, wrapped in enumerate(transfer.wrapped)
        ]


def run_one_of_n(
    group: SchnorrGroup,
    messages: Sequence[bytes],
    index: int,
    rng: ReproRandom,
) -> Tuple[bytes, OTTransfer]:
    """Convenience one-shot execution (both roles locally).

    Returns the retrieved message and the transfer (for accounting).
    """
    sender = OneOfNSender(group, rng.fork("sender"))
    receiver = OneOfNReceiver(group, rng.fork("receiver"))
    setup = sender.setup()
    choice = receiver.choose(setup, index, len(messages))
    transfer = sender.transfer(messages, choice)
    return receiver.retrieve(transfer), transfer
