"""OMPE receiver (the paper's Bob / client side).

Implements the receiver steps of Sections III-C and IV-A, for a run
of ``k ≥ 1`` sender functions over one input ``α = α₁‖…‖α_k`` (see
:mod:`repro.core.ompe.sender`):

1. Announce the arity; learn the interpolation parameters ``(p, m, M)``.
2. Hide the input ``α`` in random degree-``q`` polynomials
   ``g_i(v)`` with ``g_i(0) = α_i``, pick ``M`` distinct nonzero nodes,
   select ``m`` cover positions where ``z_i = G(v_i)``, fill the rest
   with disguises, and send all ``M`` pairs.  An input hidden before
   the run (:class:`~repro.core.ompe.precompute.HiddenInput`) sends its
   ready points message instead.

   Disguises here are drawn as evaluations of *fresh* random hiding
   polynomials (with random constant terms), so covers and disguises
   are identically distributed — strictly stronger camouflage than the
   paper's "randomly selected" values, and testable
   (:mod:`repro.core.privacy.analysis`).
3. Run ``m``-out-of-``M`` OT to learn the cover slots only.
4. Read the ``k`` values of each slot, Lagrange-interpolate each
   ``B_j(v)`` and output the secrets ``B_j(0) = r_j P_j(α_j) + o_j``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from repro import obs
from repro.core.ompe.config import OMPEConfig
from repro.core.ompe.function import as_exact_vector
from repro.core.ompe.precompute import HiddenInput, hide_input
from repro.crypto.ot.k_of_n import KOfNReceiver
from repro.exceptions import OMPEError, ProtocolAbort
from repro.math.interpolation import lagrange_at_zero
from repro.math.polynomials import Number
from repro.net.party import Party
from repro.utils.rng import ReproRandom
from repro.utils.serialization import decode_payloads


def check_evaluations(values: Sequence[Number], count: int) -> Sequence[Number]:
    """Refuse a decoded slot that is not ``count`` values, each an
    ``int`` or ``Fraction``.

    The sender seals whatever it likes, so a slot of another length, a
    tuple, a float, a boolean or any other decoded payload is refused
    here, before it reaches the interpolation.  The check is on the
    exact type: a ``bool`` is an ``int`` to ``isinstance``.
    """
    if len(values) != count:
        raise ProtocolAbort(
            f"retrieved slot carries {len(values)} values, expected {count}"
        )
    for value in values:
        if type(value) is not int and type(value) is not Fraction:
            raise ProtocolAbort(
                f"retrieved evaluation is a {type(value).__name__}, not a scalar"
            )
    return values


class OMPEReceiver(Party):
    """Holds the input ``α``; learns only each ``r_j P_j(α_j) + o_j``.

    ``function_count`` is the ``k`` of the run: how many values each
    retrieved slot must carry.  ``hidden`` is an optional
    :class:`~repro.core.ompe.precompute.HiddenInput` of this very input
    and config, whose points message the receiver sends as it is;
    without one the input is hidden online, by
    :func:`~repro.core.ompe.precompute.hide_input` on
    ``rng.fork("hide")``, when the parameters arrive.
    """

    def __init__(
        self,
        name: str,
        input_vector: Sequence[Number],
        config: OMPEConfig,
        rng: Optional[ReproRandom] = None,
        hidden: Optional[HiddenInput] = None,
        function_count: int = 1,
    ) -> None:
        super().__init__(name, rng)
        vector = tuple(input_vector)
        if not vector:
            raise OMPEError("input vector must be non-empty")
        if function_count < 1:
            raise OMPEError(f"function_count must be at least 1, got {function_count}")
        self.input_vector = as_exact_vector(vector)
        if hidden is not None:
            if hidden.config != config:
                raise OMPEError(
                    "hidden input was prepared for another OMPE config "
                    "than the receiver's"
                )
            if hidden.input_vector != self.input_vector:
                raise OMPEError(
                    "hidden input was prepared for another input than the "
                    "receiver's"
                )
        self.hidden = hidden
        self.function_count = function_count
        self.config = config
        self._cover_count: int = 0
        self._pair_count: int = 0
        self._nodes: Sequence[Number] = ()
        self._cover_positions: Sequence[int] = ()
        self._ot_receiver: Optional[KOfNReceiver] = None

    # -- step 1 --------------------------------------------------------------

    def send_request(self) -> None:
        """Announce the arity."""
        with obs.get_tracer().span(
            "ompe.request",
            party=self.name,
            phase="request",
            arity=len(self.input_vector),
        ):
            self.send("ompe/request", len(self.input_vector))

    # -- step 2 ---------------------------------------------------------------

    def handle_params(self) -> None:
        """Receive ``(p, m, M)``; send the ``M`` disguised pairs."""
        with obs.get_tracer().span(
            "ompe.points", party=self.name, phase="points"
        ) as span:
            self._handle_params(span)

    def _handle_params(self, span) -> None:
        degree, cover_count, pair_count = self.receive("ompe/params")
        span.set(m=cover_count, M=pair_count, degree=degree)
        if cover_count != self.config.cover_count(degree):
            raise ProtocolAbort(
                f"sender announced m={cover_count}, config implies "
                f"{self.config.cover_count(degree)}"
            )
        if pair_count != self.config.pair_count(degree):
            raise ProtocolAbort(
                f"sender announced M={pair_count}, config implies "
                f"{self.config.pair_count(degree)}"
            )
        self._cover_count = cover_count
        self._pair_count = pair_count
        hidden = self.hidden
        if hidden is None:
            span.set(hiders=len(self.input_vector) * (pair_count - cover_count + 1))
            hidden = hide_input(
                self.rng.fork("hide"), self.config, self.input_vector, degree
            )
        else:
            if (len(hidden.cover_positions), len(hidden.points)) != (
                cover_count, pair_count
            ):
                raise ProtocolAbort(
                    f"hidden input has {len(hidden.cover_positions)} covers "
                    f"among {len(hidden.points)} points, sender announced "
                    f"m={cover_count}, M={pair_count}"
                )
            span.set(hiders=0, prepared=True)  # hidden before the run
        self._nodes = hidden.nodes
        self._cover_positions = hidden.cover_positions
        self.send("ompe/points", hidden.points)

    # -- steps 3 and 4 ----------------------------------------------------------

    def handle_ot_setups(self) -> None:
        """Blind the cover positions into OT choices."""
        with obs.get_tracer().span(
            "ompe.ot_choice",
            party=self.name,
            phase="ot-choices",
            m=self._cover_count,
        ):
            setup = self.receive("ompe/ot-setups")
            self._ot_receiver = KOfNReceiver(
                self.config.resolved_group(), self.rng.fork("ot")
            )
            choice = self._ot_receiver.choose(
                setup, self._cover_positions, self._pair_count
            )
            self.send("ompe/ot-choices", choice)

    def finish(self) -> Tuple[Number, ...]:
        """Retrieve the cover slots, interpolate, return every ``B_j(0)``."""
        tracer = obs.get_tracer()
        with tracer.span("ompe.finish", party=self.name, phase="finish"):
            if self._ot_receiver is None:
                raise OMPEError("finish before handle_ot_setups")
            transfer = self.receive("ompe/ot-transfers")
            payloads = self._ot_receiver.retrieve(transfer)
            with tracer.span(
                "ompe.interpolate",
                party=self.name,
                phase="interpolate",
                covers=len(self._cover_positions),
            ):
                slots = [
                    check_evaluations(decode_payloads(blob), self.function_count)
                    for blob in payloads
                ]
                nodes = [self._nodes[i] for i in self._cover_positions]
                secrets = tuple(
                    lagrange_at_zero(nodes, list(values)) for values in zip(*slots)
                )
        return secrets
