"""k-out-of-n oblivious transfer.

Paper Section III-B step 3: the receiver holds indices
``{σ_1, ..., σ_k}`` and obtains exactly the corresponding ``k``
messages, while the sender learns nothing about the index set.  The
protocol's ``m``-out-of-``M`` retrieval step (Section IV-A.3) is an
instance with ``k = m`` covers among ``M`` pairs.

Construction: ``k`` parallel, independently-keyed sessions of the
1-out-of-n protocol, all answering over the *same* message vector.  In
the semi-honest model of the paper's threat model (Section III-D) the
receiver follows the protocol and queries ``k`` *distinct* indices; the
receiver class enforces distinctness locally.  (A maliciously chosen
repeated index would yield a duplicate message, never an extra one, so
sender privacy degrades gracefully.)

Each session costs the sender three exponentiations whatever ``n`` is
(the single-ephemeral schedule of :mod:`repro.crypto.ot.one_of_n`), so
the whole phase costs ``3k``.  The transfer bandwidth is ``k`` full
wrapped vectors plus one ephemeral group element per session.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.crypto.ot.base import OTChoice, OTSetup, OTTransfer
from repro.crypto.ot.one_of_n import OneOfNReceiver, OneOfNSender, TransferMaterial
from repro.exceptions import ObliviousTransferError, ValidationError
from repro.math.groups import SchnorrGroup
from repro.utils.rng import ReproRandom


class KOfNSender:
    """Sender side: one 1-of-n sub-sender per requested slot."""

    def __init__(self, group: SchnorrGroup, rng: ReproRandom) -> None:
        self.group = group
        self._rng = rng
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
    ) -> List[OTTransfer]:
        """Answer every parallel session over the same message vector.

        The per-slot key-derivation material (validated payload, context
        suffixes) is memoized once in a :class:`TransferMaterial` and
        shared across all ``k`` sessions instead of being rebuilt per
        session — in a batched conversation that is ``k·m`` sessions
        over ``M·batch`` slots.  Outputs are identical to the unshared
        path on the same seeds.
        """
        if len(choices) != len(self._subsenders):
            raise ObliviousTransferError(
                f"{len(choices)} choices for {len(self._subsenders)} sessions"
            )
        material = TransferMaterial(messages)
        with obs.get_tracer().span(
            "ot.transfer", sessions=len(choices), slots=len(messages)
        ):
            transfers = [
                sub.transfer(messages, choice, material=material)
                for sub, choice in zip(self._subsenders, choices)
            ]
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_ot_transfers_total",
                "Completed k-of-n OT sessions (sender side)",
            ).inc(len(transfers))
        return transfers


class KOfNReceiver:
    """Receiver side: enforces distinct indices, unwraps each session."""

    def __init__(self, group: SchnorrGroup, rng: ReproRandom) -> None:
        self.group = group
        self._rng = rng
        self._subreceivers: List[OneOfNReceiver] = []
        self._indices: Optional[Tuple[int, ...]] = None

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

    def retrieve(self, transfers: Sequence[OTTransfer]) -> List[bytes]:
        """Unwrap the chosen message of each session, in choice order."""
        if self._indices is None:
            raise ObliviousTransferError("retrieve before choose")
        if len(transfers) != len(self._subreceivers):
            raise ObliviousTransferError(
                f"{len(transfers)} transfers for {len(self._subreceivers)} sessions"
            )
        with obs.get_tracer().span("ot.retrieve", sessions=len(transfers)):
            return [
                sub.retrieve(transfer)
                for sub, transfer in zip(self._subreceivers, transfers)
            ]

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
) -> Tuple[List[bytes], List[OTTransfer]]:
    """Convenience one-shot execution (both roles locally).

    Returns the retrieved messages (in index order given) and the
    transfers (for communication accounting).
    """
    sender = KOfNSender(group, rng.fork("sender"))
    receiver = KOfNReceiver(group, rng.fork("receiver"))
    setups = sender.setup(len(indices))
    choices = receiver.choose(setups, indices, len(messages))
    transfers = sender.transfer(messages, choices)
    return receiver.retrieve(transfers), transfers


def transfer_size_bytes(transfers: Sequence[OTTransfer], element_bytes: int) -> int:
    """Total wire size of a k-of-n transfer phase."""
    return sum(t.size_bytes(element_bytes) for t in transfers)
