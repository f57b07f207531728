"""1-out-of-n oblivious transfer of 16-byte keys (Naor–Pinkas style).

Construction (semi-honest, random-oracle model, CDH assumption), with
the single-ephemeral key schedule of Naor & Pinkas, "Efficient
Oblivious Transfer Protocols" (SODA 2001):

* **Setup.** The sender draws an exponent ``c``, publishes
  ``w = g^c`` and a session id, and keeps ``c`` as private state.  The
  receiver never learns ``c``: to it, ``w`` is a random element with
  an unknown discrete log.
* **Choice.** To select index ``σ``, the receiver samples a secret
  exponent ``k`` and sends ``V = g^k · w^σ``.  Since ``g^k`` is uniform,
  ``V`` is uniform in the group whatever ``σ`` is — the receiver's
  choice is *perfectly* hidden.
* **Transfer.** The sender samples one ``r``, sends ``R = g^r`` and,
  for every slot ``i``, the 16-byte key ``κ_i`` XORed with
  ``H(key_i, session, i)`` where ``key_i = (V · w^{-i})^r``.  It
  computes ``K = V^r`` and ``S = w^{-r} = g^{-rc}`` once (the latter from
  the fixed-base table of ``g``) and walks ``key_i = K · S^i`` by
  multiplication, so a transfer costs one variable-base and two
  fixed-base exponentiations whatever its slot count.
* **Retrieve.** For ``i = σ``, ``V · w^{-σ} = g^k``, so the receiver
  computes ``key_σ = R^k``.  For ``i ≠ σ``,
  ``key_i = key_σ · (w^r)^{σ-i}``; computing it requires ``w^r``, the
  CDH of ``(g^r, w)`` — infeasible for the honest-but-curious
  receiver.  Each key is hashed with the session id and its slot index,
  so no two slots share a pad.

The pads carry no tag: a wrong key unpads to garbage that is caught
when it fails to open its sealed payload
(:mod:`repro.crypto.ot.k_of_n`, which runs ``m`` parallel sessions of
this protocol for the paper's ``m``-out-of-``M`` step).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.crypto.hashing import _xor, kdf
from repro.crypto.ot.base import (
    KEY_BYTES,
    OTChoice,
    OTSetup,
    OTTransfer,
    validate_index,
    validate_keys,
)
from repro.exceptions import ObliviousTransferError
from repro.math.groups import SchnorrGroup
from repro.utils.rng import ReproRandom


def _slot_suffix(slot: int) -> bytes:
    return b"|slot:" + str(slot).encode("ascii")


def _pad(key_bytes: bytes, value: bytes, context: bytes) -> bytes:
    """``value ⊕ H(key, context)``; its own inverse."""
    return _xor(value, kdf(key_bytes, KEY_BYTES, context))


class TransferMaterial:
    """Memoized sender-side material shared by parallel sessions.

    The ``k``-of-``n`` construction answers every one of its ``k·m``
    parallel sessions over the *same* key vector.  Everything about
    that vector that does not depend on the session — the validated
    key copy and the per-slot key-derivation context suffixes — is
    deterministic, so it is computed once here and reused by every
    session instead of once per session.  Purely a cache: a transfer
    produced through a shared :class:`TransferMaterial` is bit-identical
    to one produced without it (covered by ``tests/crypto/test_ot.py``).
    """

    __slots__ = ("keys", "slot_suffixes", "sessions_served")

    def __init__(self, keys: Sequence[bytes]) -> None:
        self.keys = validate_keys(keys)
        self.slot_suffixes: Tuple[bytes, ...] = tuple(
            _slot_suffix(slot) for slot in range(len(self.keys))
        )
        self.sessions_served = 0


class OneOfNSender:
    """Sender side of the 1-out-of-n OT."""

    def __init__(self, group: SchnorrGroup, rng: ReproRandom) -> None:
        self.group = group
        self._rng = rng
        self._setup: Optional[OTSetup] = None
        self._blinding_log: Optional[int] = None

    def setup(self) -> OTSetup:
        """Publish the session's public parameters."""
        session = self._rng.bytes(16)
        self._blinding_log = self.group.random_exponent(self._rng)
        w = self.group.exp_g(self._blinding_log)
        self._setup = OTSetup(session=session, blinding_points=(w,))
        return self._setup

    def transfer(
        self,
        keys: Sequence[bytes],
        choice: OTChoice,
        material: Optional[TransferMaterial] = None,
    ) -> OTTransfer:
        """Pad every key so only the chosen slot's is recoverable.

        ``material`` optionally carries the pre-validated keys and
        per-slot context suffixes shared with sibling parallel sessions
        (see :class:`TransferMaterial`); the output is identical with or
        without it.  Key schedule: one ``r``, ``R = g^r``, ``K = V^r``,
        ``S = w^{-r} = g^{-rc}``, then ``key_i = K · S^i`` by
        multiplication — one variable-base and two fixed-base
        exponentiations per transfer, all on the active bignum backend.
        """
        if self._setup is None:
            raise ObliviousTransferError("transfer before setup")
        if choice.session != self._setup.session:
            raise ObliviousTransferError("choice belongs to a different session")
        if len(choice.blinded_keys) != 1:
            raise ObliviousTransferError("1-of-n choice must carry one blinded key")
        if material is None:
            material = TransferMaterial(keys)
        material.sessions_served += 1
        group = self.group
        blinded = choice.blinded_keys[0]
        if not group.contains(blinded):
            raise ObliviousTransferError("blinded key is not a group element")
        session = self._setup.session
        r = group.random_exponent(self._rng)
        ephemeral_point = group.exp_g(r)
        key_point = group.exp(blinded, r)  # K = V^r, the key of slot 0
        step = group.exp_g(-r * self._blinding_log)  # S = w^{-r}
        pads: List[bytes] = []
        for key, suffix in zip(material.keys, material.slot_suffixes):
            pads.append(_pad(group.encode_element(key_point), key, session + suffix))
            key_point = group.mul(key_point, step)
        return OTTransfer(
            session=session, ephemeral_point=ephemeral_point, pads=tuple(pads)
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

    def _unpad(self, key_bytes: bytes, transfer: OTTransfer, slot: int) -> bytes:
        pad = transfer.pads[slot]
        if not isinstance(pad, bytes) or len(pad) != KEY_BYTES:
            raise ObliviousTransferError(f"padded slot {slot} is not {KEY_BYTES} bytes")
        return _pad(key_bytes, pad, transfer.session + _slot_suffix(slot))

    def retrieve(self, transfer: OTTransfer) -> bytes:
        """Unpad the chosen key.

        The pad carries no tag, so a tampered slot yields a wrong key;
        the caller detects it when the key fails to open its payload.
        """
        return self._unpad(self._key_bytes(transfer), transfer, self._index)

    def unpad_all(self, transfer: OTTransfer) -> List[bytes]:
        """Adversarial probe: unpad *every* slot with this receiver's key.

        Only the chosen slot yields the sender's key; the privacy
        analysis (:meth:`repro.crypto.ot.k_of_n.KOfNReceiver.attempt_all`)
        shows the others open nothing.
        """
        key_bytes = self._key_bytes(transfer)
        return [
            self._unpad(key_bytes, transfer, slot)
            for slot in range(transfer.message_count)
        ]


def run_one_of_n(
    group: SchnorrGroup,
    keys: Sequence[bytes],
    index: int,
    rng: ReproRandom,
) -> Tuple[bytes, OTTransfer]:
    """Convenience one-shot execution (both roles locally).

    Returns the retrieved key and the transfer (for accounting).
    """
    sender = OneOfNSender(group, rng.fork("sender"))
    receiver = OneOfNReceiver(group, rng.fork("receiver"))
    setup = sender.setup()
    choice = receiver.choose(setup, index, len(keys))
    transfer = sender.transfer(keys, choice)
    return receiver.retrieve(transfer), transfer
