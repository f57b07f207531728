"""OMPE receiver (the paper's Bob / client side).

Implements the receiver steps of Sections III-C and IV-A:

1. Announce the arity; learn the interpolation parameters ``(p, m, M)``.
2. Hide the input ``α`` in random degree-``q`` polynomials
   ``g_i(v)`` with ``g_i(0) = α_i``, pick ``M`` distinct nonzero nodes,
   select ``m`` cover positions where ``z_i = G(v_i)``, fill the rest
   with disguises, and send all ``M`` pairs.

   Disguises here are drawn as evaluations of *fresh* random hiding
   polynomials (with random constant terms), so covers and disguises
   are identically distributed — strictly stronger camouflage than the
   paper's "randomly selected" values, and testable
   (:mod:`repro.core.privacy.analysis`).
3. Run ``m``-out-of-``M`` OT to learn the cover evaluations only.
4. Lagrange-interpolate ``B(v)`` and output the secret
   ``B(0) = r_a P(α) + r_b``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from repro import obs
from repro.core.ompe.config import OMPEConfig
from repro.core.ompe.function import as_exact_vector
from repro.core.ompe.hiding import Hiders, points_message
from repro.crypto.ot.k_of_n import KOfNReceiver
from repro.exceptions import OMPEError, ProtocolAbort
from repro.math.interpolation import lagrange_at_zero
from repro.math.polynomials import Number
from repro.net.party import Party
from repro.utils.rng import ReproRandom
from repro.utils.serialization import decode_value
from repro.utils.timer import TimingRecorder


def check_evaluations(values: List[Number]) -> List[Number]:
    """Refuse a decoded evaluation that is not an ``int`` or ``Fraction``.

    The sender seals whatever it likes, so a tuple or a float is refused
    here, before it reaches the interpolation.
    """
    for value in values:
        if not isinstance(value, (int, Fraction)):
            raise ProtocolAbort(
                f"retrieved evaluation is a {type(value).__name__}, not a scalar"
            )
    return values


class OMPEReceiver(Party):
    """Holds the input ``α``; learns only ``r_a P(α) + r_b``."""

    def __init__(
        self,
        name: str,
        input_vector: Sequence[Number],
        config: OMPEConfig,
        rng: Optional[ReproRandom] = None,
        timings: Optional[TimingRecorder] = None,
        pool=None,
    ) -> None:
        super().__init__(name, rng)
        if pool is not None and pool.arity != len(tuple(input_vector)):
            raise OMPEError(
                f"precomputation pool was built for arity {pool.arity}, "
                f"input has {len(tuple(input_vector))}"
            )
        self.pool = pool
        vector = tuple(input_vector)
        if not vector:
            raise OMPEError("input vector must be non-empty")
        self.input_vector = as_exact_vector(vector)
        self.config = config
        self.timings = timings or TimingRecorder()
        self._cover_count: int = 0
        self._pair_count: int = 0
        self._nodes: List[Number] = []
        self._cover_positions: List[int] = []
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
        if self.pool is not None:
            if self.pool.function_degree != degree:
                raise ProtocolAbort(
                    f"precomputation pool was built for degree "
                    f"{self.pool.function_degree}, sender announced {degree}"
                )
            span.set(hiders=0)  # drawn offline with the pool
            with self.timings.measure("receiver/randomize"):
                bundle = self.pool.pop()
                hiders = Hiders(
                    self.pool.config.security_degree,
                    constants=[(c.numerator, c.denominator) for c in self.input_vector],
                    numerators=bundle.numerators,
                )
                pairs = []
                for node, disguise in zip(bundle.nodes, bundle.disguises):
                    vector = hiders.at(node) if disguise is None else disguise
                    pairs.append((node, vector))
                self._nodes = list(bundle.nodes)
                self._cover_positions = list(bundle.cover_positions)
            self.send("ompe/points", tuple(pairs))
            return
        span.set(hiders=len(self.input_vector) * (pair_count - cover_count + 1))
        with self.timings.measure("receiver/randomize"):
            pairs, self._nodes, self._cover_positions = points_message(
                self.input_vector, self.config, self.rng.fork("hide"), cover_count, pair_count
            )
        self.send("ompe/points", pairs)

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
            with self.timings.measure("receiver/ot"):
                self._ot_receiver = KOfNReceiver(
                    self.config.resolved_group(), self.rng.fork("ot")
                )
                choice = self._ot_receiver.choose(
                    setup, self._cover_positions, self._pair_count
                )
            self.send("ompe/ot-choices", choice)

    def finish(self) -> Number:
        """Retrieve cover evaluations, interpolate, return ``B(0)``."""
        tracer = obs.get_tracer()
        with tracer.span("ompe.finish", party=self.name, phase="finish"):
            if self._ot_receiver is None:
                raise OMPEError("finish before handle_ot_setups")
            transfer = self.receive("ompe/ot-transfers")
            with self.timings.measure("receiver/ot"):
                payloads = self._ot_receiver.retrieve(transfer)
            with tracer.span(
                "ompe.interpolate",
                party=self.name,
                phase="interpolate",
                covers=len(self._cover_positions),
            ):
                with self.timings.measure("receiver/interpolate"):
                    values = check_evaluations([decode_value(blob) for blob in payloads])
                    nodes = [self._nodes[i] for i in self._cover_positions]
                    secret = lagrange_at_zero(nodes, values)
        return secret
