"""OMPE sender (the paper's Alice / trainer side).

Implements the sender steps of Sections III-C and IV-A:

1. On request, generate the masking polynomial ``h(u)`` of degree
   ``deg(P) * q`` with ``h(0) = 0``, draw the positive amplifier ``r_a``
   (and optionally the offset ``r_b``), and announce the interpolation
   parameters.
2. On receiving the ``M`` point/vector pairs, evaluate
   ``A(v_i, z_i) = h(v_i) + r_a · P(z_i) + r_b`` for every pair.
3. Serve the evaluations through an ``m``-out-of-``M`` oblivious
   transfer, learning nothing about which ``m`` were real covers.
"""

from __future__ import annotations

from typing import List, Optional

from repro import obs
from repro.core.ompe.config import OMPEConfig
from repro.core.ompe.function import OMPEFunction
from repro.core.ompe.hiding import check_points
from repro.core.ompe.precompute import draw_sender_bundle
from repro.crypto.ot.k_of_n import KOfNSender
from repro.exceptions import OMPEError, ProtocolAbort
from repro.math.polynomials import Number, Polynomial
from repro.net.party import Party
from repro.utils.rng import ReproRandom
from repro.utils.serialization import encode_value
from repro.utils.timer import TimingRecorder


class OMPESender(Party):
    """Holds the secret function ``P``; reveals only ``r_a P(α) + r_b``."""

    def __init__(
        self,
        name: str,
        function: OMPEFunction,
        config: OMPEConfig,
        rng: Optional[ReproRandom] = None,
        amplify: bool = True,
        offset: bool = False,
        timings: Optional[TimingRecorder] = None,
        pool=None,
    ) -> None:
        super().__init__(name, rng)
        self.function = function
        self.config = config
        self.amplify = amplify
        self.offset = offset
        self.pool = pool
        if pool is not None:
            if pool.function_degree != function.total_degree:
                raise OMPEError(
                    f"precomputation pool was built for degree "
                    f"{pool.function_degree}, function has {function.total_degree}"
                )
            if (pool.amplify, pool.offset) != (amplify, offset):
                raise OMPEError(
                    f"precomputation pool was built for amplify={pool.amplify}, "
                    f"offset={pool.offset}; sender has amplify={amplify}, "
                    f"offset={offset}"
                )
        self.timings = timings or TimingRecorder()
        self.amplifier: Number = 1
        self.offset_value: Number = 0
        self._mask: Optional[Polynomial] = None
        self._ot_sender: Optional[KOfNSender] = None
        self._cover_count: int = 0

    # -- step 1 -------------------------------------------------------------

    def handle_request(self) -> None:
        """Receive the request; publish masking parameters."""
        with obs.get_tracer().span(
            "ompe.params", party=self.name, phase="params"
        ) as span:
            with self.timings.measure("sender/randomize"):
                arity = self.receive("ompe/request")
                if arity != self.function.arity:
                    raise ProtocolAbort(
                        f"receiver announced arity {arity}, function has "
                        f"{self.function.arity}"
                    )
                if self.pool is not None:
                    bundle = self.pool.pop()
                else:
                    bundle = draw_sender_bundle(
                        self.rng,
                        self.config,
                        self.function.total_degree,
                        self.amplify,
                        self.offset,
                    )
                self._mask = bundle.mask
                self.amplifier = bundle.amplifier
                self.offset_value = bundle.offset
                self._cover_count = self.config.cover_count(
                    self.function.total_degree
                )
                pair_count = self.config.pair_count(self.function.total_degree)
            span.set(
                m=self._cover_count,
                M=pair_count,
                degree=self.function.total_degree,
            )
            self.send(
                "ompe/params",
                (self.function.total_degree, self._cover_count, pair_count),
            )

    # -- steps 2 and 3 -------------------------------------------------------

    def handle_points(self) -> None:
        """Evaluate ``A`` on all pairs and open the OT phase."""
        tracer = obs.get_tracer()
        pairs = self.receive("ompe/points")
        check_points(pairs, self.function.arity)
        expected = self.config.pair_count(self.function.total_degree)
        if len(pairs) != expected:
            raise ProtocolAbort(
                f"expected {expected} point/vector pairs, got {len(pairs)}"
            )
        if self._mask is None:
            raise OMPEError("handle_points before handle_request")
        with tracer.span(
            "ompe.evaluate", party=self.name, phase="evaluate", pairs=len(pairs)
        ):
            with self.timings.measure("sender/evaluate"):
                # With identity amplifier/offset (amplify=False runs,
                # e.g. the similarity protocol's third OMPE), skip the
                # no-op Fraction multiply/add — the values are unchanged
                # (x*1 == x, x+0 == x exactly on int and Fraction).
                skip_amplifier = self.amplifier == 1
                skip_offset = self.offset_value == 0
                values = self.function.evaluate_all(
                    [vector for _, vector in pairs]
                )
                evaluations: List[bytes] = []
                for (node, _), value in zip(pairs, values):
                    if not skip_amplifier:
                        value = self.amplifier * value
                    value = self._mask(node) + value
                    if not skip_offset:
                        value = value + self.offset_value
                    evaluations.append(encode_value(value))
        with tracer.span(
            "ompe.ot_setup",
            party=self.name,
            phase="ot-setups",
            m=self._cover_count,
        ):
            with self.timings.measure("sender/ot"):
                self._ot_sender = KOfNSender(
                    self.config.resolved_group(), self.rng.fork("ot")
                )
                setup = self._ot_sender.setup(self._cover_count)
                self._evaluations = evaluations
            self.send("ompe/ot-setups", setup)

    def handle_choices(self) -> None:
        """Answer the receiver's OT choices."""
        with obs.get_tracer().span(
            "ompe.ot_transfer", party=self.name, phase="ot-transfers"
        ):
            choice = self.receive("ompe/ot-choices")
            if self._ot_sender is None:
                raise OMPEError("handle_choices before handle_points")
            with self.timings.measure("sender/ot"):
                transfer = self._ot_sender.transfer(self._evaluations, choice)
            self.send("ompe/ot-transfers", transfer)
