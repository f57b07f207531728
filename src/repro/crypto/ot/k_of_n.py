"""k-out-of-n oblivious transfer as one Naor–Pinkas exchange.

Paper Section III-B step 3: the receiver holds indices
``{σ_1, ..., σ_k}`` and obtains exactly the corresponding ``k``
messages, while the sender learns nothing about the index set.  The
protocol's ``m``-out-of-``M`` retrieval step (Section IV-A.3) is an
instance with ``k = m`` covers among ``M`` pairs, and 1-of-n is
``k = 1``.

Construction (semi-honest, random-oracle model, CDH assumption): the
batched key schedule of Naor & Pinkas, "Efficient Oblivious Transfer
Protocols" (SODA 2001), which reuses one ``w`` and one ephemeral ``r``
across a batch of transfers and puts the transfer index in the hash.

* **Setup.** The sender draws a session id and an exponent ``c``,
  publishes ``w = g^c`` and keeps ``c``.
* **Choice.** For each ``j`` the receiver draws a fresh ``k_j`` and
  sends ``V_j = g^{k_j} · w^{σ_j}``; each ``V_j`` is uniform in the
  group whatever ``σ_j`` is.
* **Transfer.** The sender seals each of the ``n`` messages once,
  ``sealed[i] = wrap(κ_i, message_i)`` under a fresh 16-byte key
  ``κ_i``, draws one ``r``, sends ``R = g^r`` and, for every row ``j``
  and slot ``i``, the pad ``κ_i ⊕ H((V_j · w^{-i})^r, session ‖ j ‖ i)``.
  It computes ``S = w^{-r} = g^{-rc}`` once as a power of ``g``,
  ``K_j = V_j^r`` once per row, and walks ``K_j · S^i`` by
  multiplication: ``k + 2`` exponentiations per transfer, plus one for
  ``w``, whatever ``n`` is.
* **Retrieve.** Row ``j``'s key at ``i = σ_j`` is ``R^{k_j}``; any
  other slot's needs ``w^r``, the CDH of ``(R, w)``.  The receiver
  unpads ``κ_{σ_j}`` and opens ``sealed[σ_j]``; a failed MAC raises
  :class:`ObliviousTransferError`.

The receiver enforces distinct indices locally.  (A maliciously chosen
repeated index would yield a duplicate message, never an extra one, so
sender privacy degrades gracefully.)  The transfer bandwidth is the
``n`` sealed messages once, one group element, and ``k·n`` 16-byte
pads.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.crypto.hashing import unwrap_message, wrap_message
from repro.crypto.ot.base import (
    KEY_BYTES,
    KOfNTransfer,
    OTChoice,
    OTSetup,
    validate_index,
    validate_messages,
)
from repro.exceptions import ObliviousTransferError, ValidationError
from repro.math.groups import SchnorrGroup
from repro.utils.rng import ReproRandom

#: Counter block 0 of :func:`repro.crypto.hashing.kdf`: a 16-byte pad is
#: the first SHA-256 block of ``counter ‖ context ‖ key``, truncated.
_KDF_BLOCK_0 = bytes(8)


def _sealed_context(slot: int) -> bytes:
    return b"|sealed:" + str(slot).encode("ascii")


def _row_prefix(session: bytes, row: int) -> bytes:
    """The hash input before the slot: ``counter 0 ‖ session ‖ row``."""
    return _KDF_BLOCK_0 + session + b"|row:" + str(row).encode("ascii")


def _slot_suffix(slot: int) -> bytes:
    return b"|slot:" + str(slot).encode("ascii")


def _pad_int(prefix: bytes, suffix: bytes, key_bytes: bytes) -> int:
    """``H(key, session ‖ row ‖ slot)`` truncated to 16 bytes, as an int."""
    digest = hashlib.sha256(prefix + suffix + key_bytes).digest()
    return int.from_bytes(digest[:KEY_BYTES], "big")


def _to_bytes(value: int) -> bytes:
    return value.to_bytes(KEY_BYTES, "big")


class KOfNSender:
    """Sender side: one setup point, one ephemeral point, ``k`` pad rows."""

    def __init__(self, group: SchnorrGroup, rng: ReproRandom) -> None:
        self.group = group
        self._rng = rng
        self._key_rng = rng.fork("sealing")
        self._setup: Optional[OTSetup] = None
        self._blinding_log: Optional[int] = None
        self._count = 0

    def setup(self, k: int) -> OTSetup:
        """Publish ``w = g^c`` for a transfer of ``k`` chosen slots."""
        if k < 1:
            raise ValidationError(f"k must be at least 1, got {k}")
        with obs.get_tracer().span("ot.setup", sessions=k):
            session = self._rng.bytes(16)
            self._blinding_log = self.group.random_exponent(self._rng)
            w = self.group.exp(self.group.g, self._blinding_log)
            self._count = k
            self._setup = OTSetup(session=session, blinding_points=(w,))
            return self._setup

    def transfer(self, messages: Sequence[bytes], choice: OTChoice) -> KOfNTransfer:
        """Seal every message once and pad its key in every row."""
        if self._setup is None:
            raise ObliviousTransferError("transfer before setup")
        if not isinstance(choice, OTChoice):
            raise ObliviousTransferError(
                f"expected one ot/choice record, got {type(choice).__name__}"
            )
        session = self._setup.session
        if choice.session != session:
            raise ObliviousTransferError("choice belongs to a different session")
        blinded = choice.blinded_keys
        if not isinstance(blinded, tuple) or len(blinded) != self._count:
            raise ObliviousTransferError(
                f"choice must carry {self._count} blinded keys"
            )
        group = self.group
        for point in blinded:
            if not group.contains(point):
                raise ObliviousTransferError("blinded key is not a group element")
        payload = validate_messages(messages)
        with obs.get_tracer().span(
            "ot.transfer",
            sessions=len(blinded),
            slots=len(payload),
            sealed=len(payload),
            padded=len(blinded) * len(payload),
        ):
            keys = [self._key_rng.bytes(KEY_BYTES) for _ in payload]
            sealed = tuple(
                wrap_message(key, message, _sealed_context(slot))
                for slot, (key, message) in enumerate(zip(keys, payload))
            )
            key_ints = [int.from_bytes(key, "big") for key in keys]
            suffixes = [_slot_suffix(slot) for slot in range(len(keys))]
            r = group.random_exponent(self._rng)
            ephemeral_point = group.exp(group.g, r)
            step = group.exp(group.g, -r * self._blinding_log)  # S = w^{-r}
            p, width, sha256 = group.p, group.element_bytes, hashlib.sha256
            rows = []
            for row, point in enumerate(blinded):
                prefix = _row_prefix(session, row)
                key_point = group.exp(point, r)  # K_j = V_j^r, the key of slot 0
                pads = []
                for key, suffix in zip(key_ints, suffixes):
                    # _pad_int inlined: one hash per pad, K_j · S^i walked.
                    digest = sha256(prefix + suffix + key_point.to_bytes(width, "big")).digest()
                    pads.append(_to_bytes(key ^ int.from_bytes(digest[:KEY_BYTES], "big")))
                    key_point = key_point * step % p
                rows.append(tuple(pads))
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_ot_transfers_total",
                "Completed k-of-n OT sessions (sender side)",
            ).inc(len(blinded))
        return KOfNTransfer(
            sealed=sealed, ephemeral_point=ephemeral_point, pads=tuple(rows)
        )


class KOfNReceiver:
    """Receiver side: enforces distinct indices, opens each chosen payload."""

    def __init__(self, group: SchnorrGroup, rng: ReproRandom) -> None:
        self.group = group
        self._rng = rng
        self._secrets: Tuple[int, ...] = ()
        self._indices: Optional[Tuple[int, ...]] = None
        self._count: Optional[int] = None
        self._session = b""

    def choose(self, setup: OTSetup, indices: Sequence[int], count: int) -> OTChoice:
        """Blind ``k`` distinct selections among ``count`` slots."""
        indices = tuple(indices)
        if not indices:
            raise ValidationError("k-of-n needs at least one index")
        for index in indices:
            validate_index(index, count)
        if len(set(indices)) != len(indices):
            raise ValidationError("k-of-n indices must be distinct")
        if not isinstance(setup, OTSetup):
            raise ObliviousTransferError(
                f"expected one ot/setup record, got {type(setup).__name__}"
            )
        if not isinstance(setup.blinding_points, tuple) or len(setup.blinding_points) != 1:
            raise ObliviousTransferError("setup must carry one blinding point")
        group = self.group
        (w,) = setup.blinding_points
        if not group.contains(w):
            raise ObliviousTransferError("blinding point is not a group element")
        with obs.get_tracer().span("ot.choose", sessions=len(indices), slots=count):
            self._secrets = tuple(group.random_exponent(self._rng) for _ in indices)
            self._indices = indices
            self._count = count
            self._session = setup.session
            blinded = tuple(
                group.mul(group.exp(group.g, secret), group.exp(w, index))
                for secret, index in zip(self._secrets, indices)
            )
            return OTChoice(session=setup.session, blinded_keys=blinded)

    def _row_keys(self, transfer: KOfNTransfer) -> List[bytes]:
        """Check the record's shape and ``R``; return ``R^{k_j}`` per row."""
        if self._indices is None:
            raise ObliviousTransferError("retrieve before choose")
        if not isinstance(transfer, KOfNTransfer):
            raise ObliviousTransferError(
                f"expected an ot/kofn2 transfer, got {type(transfer).__name__}"
            )
        if len(transfer.pads) != len(self._indices):
            raise ObliviousTransferError(
                f"{len(transfer.pads)} pad rows for {len(self._indices)} choices"
            )
        for row in transfer.pads:
            if len(row) != self._count:
                raise ObliviousTransferError(
                    f"pad row carries {len(row)} slots, expected {self._count}"
                )
        if len(transfer.sealed) != self._count:
            raise ObliviousTransferError(
                f"transfer seals {len(transfer.sealed)} payloads, "
                f"expected {self._count}"
            )
        point = transfer.ephemeral_point
        group = self.group
        if not group.contains(point):
            raise ObliviousTransferError("ephemeral point is not a group element")
        return [group.encode_element(group.exp(point, secret)) for secret in self._secrets]

    def _open(self, transfer: KOfNTransfer, row: int, slot: int, key_bytes: bytes):
        """Unpad ``pads[row][slot]`` with ``key_bytes``; try its sealed blob."""
        pad = _pad_int(_row_prefix(self._session, row), _slot_suffix(slot), key_bytes)
        key = _to_bytes(int.from_bytes(transfer.pads[row][slot], "big") ^ pad)
        return unwrap_message(key, transfer.sealed[slot], _sealed_context(slot))

    def retrieve(self, transfer: KOfNTransfer) -> List[bytes]:
        """Open the chosen payload of each row, in choice order."""
        with obs.get_tracer().span("ot.retrieve", sessions=len(self._indices or ())):
            payloads = []
            for row, (key_bytes, index) in enumerate(
                zip(self._row_keys(transfer), self._indices)
            ):
                payload = self._open(transfer, row, index, key_bytes)
                if payload is None:
                    raise ObliviousTransferError("chosen slot failed to authenticate")
                payloads.append(payload)
            return payloads

    def attempt_all(self, transfer: KOfNTransfer) -> List[Optional[bytes]]:
        """Adversarial probe: try to open *every* sealed payload.

        Every row's key unpads every slot of its row, and each
        candidate key is tried on that slot's sealed payload.  Used by
        the privacy analysis to demonstrate that only the chosen
        payloads open (``None`` elsewhere): the row and slot indices
        inside the pad derivation separate every pad even though one
        ephemeral point serves them all.
        """
        opened: List[Optional[bytes]] = [None] * len(transfer.sealed)
        for row, key_bytes in enumerate(self._row_keys(transfer)):
            for slot in range(len(transfer.sealed)):
                payload = self._open(transfer, row, slot, key_bytes)
                if payload is not None:
                    opened[slot] = payload
        return opened

    @property
    def indices(self) -> Tuple[int, ...]:
        """The chosen indices (receiver side only, for bookkeeping)."""
        if self._indices is None:
            raise ObliviousTransferError("indices requested before choose")
        return self._indices


def run_k_of_n(
    group: SchnorrGroup,
    messages: Sequence[bytes],
    indices: Sequence[int],
    rng: ReproRandom,
) -> Tuple[List[bytes], KOfNTransfer]:
    """Convenience one-shot execution (both roles locally).

    Returns the retrieved messages (in index order given) and the
    transfer (for communication accounting).
    """
    sender = KOfNSender(group, rng.fork("sender"))
    receiver = KOfNReceiver(group, rng.fork("receiver"))
    setup = sender.setup(len(indices))
    choice = receiver.choose(setup, indices, len(messages))
    transfer = sender.transfer(messages, choice)
    return receiver.retrieve(transfer), transfer
