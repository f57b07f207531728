"""k-out-of-n oblivious transfer.

Paper Section III-B step 3: the receiver holds indices
``{σ_1, ..., σ_k}`` and obtains exactly the corresponding ``k``
messages, while the sender learns nothing about the index set.  The
protocol's ``m``-out-of-``M`` retrieval step (Section IV-A.3) is an
instance with ``k = m`` covers among ``M`` pairs.

Construction: the standard length extension of OT.  The sender seals
each of the ``n`` messages once, under its own fresh 16-byte key
``κ_i``, and runs ``k`` parallel, independently-keyed sessions of the
1-out-of-n protocol that all move the *same* key vector.  Session
``j`` hands the receiver ``κ_{σ_j}``, which opens ``sealed[σ_j]``.  In
the semi-honest model of the paper's threat model (Section III-D) the
receiver follows the protocol and queries ``k`` *distinct* indices; the
receiver class enforces distinctness locally.  (A maliciously chosen
repeated index would yield a duplicate message, never an extra one, so
sender privacy degrades gracefully.)

Each session costs the sender three exponentiations whatever ``n`` is
(the single-ephemeral schedule of :mod:`repro.crypto.ot.one_of_n`), so
the whole phase costs ``3k``.  The transfer bandwidth is the ``n``
sealed messages once, plus ``k·n`` 16-byte pads and one ephemeral group
element per session.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.crypto.hashing import unwrap_message, wrap_message
from repro.crypto.ot.base import (
    KEY_BYTES,
    KOfNTransfer,
    OTChoice,
    OTSetup,
    validate_messages,
)
from repro.crypto.ot.one_of_n import OneOfNReceiver, OneOfNSender, TransferMaterial
from repro.exceptions import ObliviousTransferError, ValidationError
from repro.math.groups import SchnorrGroup
from repro.utils.rng import ReproRandom


def _sealed_context(slot: int) -> bytes:
    return b"|sealed:" + str(slot).encode("ascii")


class KOfNSender:
    """Sender side: one 1-of-n sub-sender per requested slot."""

    def __init__(self, group: SchnorrGroup, rng: ReproRandom) -> None:
        self.group = group
        self._rng = rng
        self._key_rng = rng.fork("sealing")
        self._subsenders: List[OneOfNSender] = []

    def setup(self, k: int) -> List[OTSetup]:
        """Publish parameters for ``k`` parallel sessions."""
        if k < 1:
            raise ValidationError(f"k must be at least 1, got {k}")
        with obs.get_tracer().span("ot.setup", sessions=k):
            self._subsenders = [
                OneOfNSender(self.group, self._rng.fork("session", i))
                for i in range(k)
            ]
            return [sub.setup() for sub in self._subsenders]

    def transfer(
        self, messages: Sequence[bytes], choices: Sequence[OTChoice]
    ) -> KOfNTransfer:
        """Seal every message once and move the keys through every session.

        The keys and their per-slot key-derivation context suffixes are
        memoized once in a :class:`TransferMaterial` shared by all ``k``
        sessions — in a batched conversation that is ``k·m`` sessions
        over ``M·batch`` slots.
        """
        if len(choices) != len(self._subsenders):
            raise ObliviousTransferError(
                f"{len(choices)} choices for {len(self._subsenders)} sessions"
            )
        payload = validate_messages(messages)
        with obs.get_tracer().span(
            "ot.transfer",
            sessions=len(choices),
            slots=len(payload),
            sealed=len(payload),
            padded=len(choices) * len(payload),
        ):
            keys = [self._key_rng.bytes(KEY_BYTES) for _ in payload]
            sealed = tuple(
                wrap_message(key, message, _sealed_context(slot))
                for slot, (key, message) in enumerate(zip(keys, payload))
            )
            material = TransferMaterial(keys)
            sessions = tuple(
                sub.transfer(keys, choice, material=material)
                for sub, choice in zip(self._subsenders, choices)
            )
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_ot_transfers_total",
                "Completed k-of-n OT sessions (sender side)",
            ).inc(len(sessions))
        return KOfNTransfer(sealed=sealed, sessions=sessions)


class KOfNReceiver:
    """Receiver side: enforces distinct indices, opens each chosen payload."""

    def __init__(self, group: SchnorrGroup, rng: ReproRandom) -> None:
        self.group = group
        self._rng = rng
        self._subreceivers: List[OneOfNReceiver] = []
        self._indices: Optional[Tuple[int, ...]] = None
        self._count: Optional[int] = None

    def choose(
        self, setups: Sequence[OTSetup], indices: Sequence[int], count: int
    ) -> List[OTChoice]:
        """Blind ``k`` distinct selections among ``count`` slots."""
        indices = tuple(indices)
        if len(set(indices)) != len(indices):
            raise ValidationError("k-of-n indices must be distinct")
        if len(setups) != len(indices):
            raise ObliviousTransferError(
                f"{len(setups)} setups for {len(indices)} indices"
            )
        self._indices = indices
        self._count = count
        with obs.get_tracer().span(
            "ot.choose", sessions=len(indices), slots=count
        ):
            self._subreceivers = [
                OneOfNReceiver(self.group, self._rng.fork("session", i))
                for i in range(len(indices))
            ]
            return [
                sub.choose(setup, index, count)
                for sub, setup, index in zip(self._subreceivers, setups, indices)
            ]

    def _check_shape(self, transfer: KOfNTransfer) -> None:
        if self._indices is None:
            raise ObliviousTransferError("retrieve before choose")
        if not isinstance(transfer, KOfNTransfer):
            raise ObliviousTransferError(
                f"expected an ot/kofn transfer, got {type(transfer).__name__}"
            )
        if len(transfer.sessions) != len(self._subreceivers):
            raise ObliviousTransferError(
                f"{len(transfer.sessions)} transfers for "
                f"{len(self._subreceivers)} sessions"
            )
        # Each session checks its own slot count against ``count``.
        if len(transfer.sealed) != self._count:
            raise ObliviousTransferError(
                f"transfer seals {len(transfer.sealed)} payloads, "
                f"expected {self._count}"
            )

    def retrieve(self, transfer: KOfNTransfer) -> List[bytes]:
        """Open the chosen payload of each session, in choice order."""
        self._check_shape(transfer)
        with obs.get_tracer().span("ot.retrieve", sessions=len(transfer.sessions)):
            payloads = []
            for sub, session, index in zip(
                self._subreceivers, transfer.sessions, self._indices
            ):
                payload = unwrap_message(
                    sub.retrieve(session), transfer.sealed[index], _sealed_context(index)
                )
                if payload is None:
                    raise ObliviousTransferError("chosen slot failed to authenticate")
                payloads.append(payload)
            return payloads

    def attempt_all(self, transfer: KOfNTransfer) -> List[Optional[bytes]]:
        """Adversarial probe: try to open *every* sealed payload.

        Every session's key unpads every slot, and each candidate key is
        tried on that slot's sealed payload.  Used by the privacy
        analysis to demonstrate that only the chosen payloads open
        (``None`` elsewhere): the slot index inside the pad derivation
        separates the slots even though one ephemeral point serves them.
        """
        self._check_shape(transfer)
        opened: List[Optional[bytes]] = [None] * len(transfer.sealed)
        for sub, session in zip(self._subreceivers, transfer.sessions):
            for slot, key in enumerate(sub.unpad_all(session)):
                payload = unwrap_message(
                    key, transfer.sealed[slot], _sealed_context(slot)
                )
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
    setups = sender.setup(len(indices))
    choices = receiver.choose(setups, indices, len(messages))
    transfer = sender.transfer(messages, choices)
    return receiver.retrieve(transfer), transfer
