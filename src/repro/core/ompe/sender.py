"""OMPE sender (the paper's Alice / trainer side).

Implements the sender steps of Sections III-C and IV-A for ``k ≥ 1``
secret functions ``P_1 … P_k`` over one hidden input ``α₁‖…‖α_k``:
``P_j`` reads its own slice ``α_j``, so the run's arity is
``Σ P_j.arity`` and its degree ``D`` the largest ``P_j.total_degree``.

1. On request, generate for each function a masking polynomial
   ``h_j(u)`` of degree ``D · q`` with ``h_j(0) = 0``, its amplifier
   ``r_j`` (``1`` unless amplified) and its offset ``o_j`` (``0``
   unless offset), and announce the interpolation parameters.
2. On receiving the ``M`` point/vector pairs, evaluate
   ``A_j(v_i, z_i) = h_j(v_i) + r_j · P_j(z_i) + o_j`` for every pair and
   function; slot ``i`` seals the ``k`` values one after another.
3. Serve the slots through one ``m``-out-of-``M`` oblivious transfer,
   learning nothing about which ``m`` were real covers.

With ``k = 1`` this is the paper's one-function run, message for
message and byte for byte.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.ompe.config import OMPEConfig
from repro.core.ompe.function import OMPEFunction
from repro.core.ompe.hiding import check_points
from repro.core.ompe.precompute import draw_sender_bundle
from repro.crypto.ot.k_of_n import KOfNSender
from repro.exceptions import OMPEError, ProtocolAbort, ValidationError
from repro.math.polynomials import Number, Polynomial
from repro.net.party import Party
from repro.utils.rng import ReproRandom
from repro.utils.serialization import encode_payload

#: One flag for every function, or one per function.
Flags = Union[bool, Sequence[bool]]


def per_function(flags: Flags, count: int, name: str) -> Tuple[bool, ...]:
    """One ``amplify``/``offset`` flag per function."""
    if isinstance(flags, bool):
        return (flags,) * count
    flags = tuple(flags)
    if len(flags) != count:
        raise ValidationError(f"{len(flags)} {name} flags for {count} functions")
    return flags


class OMPESender(Party):
    """Holds the secret functions ``P_j``; reveals only ``r_j P_j(α_j) + o_j``."""

    def __init__(
        self,
        name: str,
        function: Union[OMPEFunction, Sequence[OMPEFunction]],
        config: OMPEConfig,
        rng: Optional[ReproRandom] = None,
        amplify: Flags = True,
        offset: Flags = False,
        pool=None,
    ) -> None:
        super().__init__(name, rng)
        self.functions = (
            (function,) if isinstance(function, OMPEFunction) else tuple(function)
        )
        if not self.functions:
            raise ValidationError("an OMPE run needs at least one function")
        count = len(self.functions)
        self.amplify = per_function(amplify, count, "amplify")
        self.offset = per_function(offset, count, "offset")
        self.arity = sum(function.arity for function in self.functions)
        self.degree = max(function.total_degree for function in self.functions)
        self.config = config
        self.pool = pool
        if pool is not None:
            if pool.config != config:
                raise OMPEError(
                    "precomputation pool was built for another OMPE config "
                    "than the sender's"
                )
            if pool.function_degree != self.degree:
                raise OMPEError(
                    f"precomputation pool was built for degree "
                    f"{pool.function_degree}, function has {self.degree}"
                )
            for amplify_j, offset_j in zip(self.amplify, self.offset):
                if (pool.amplify, pool.offset) != (amplify_j, offset_j):
                    raise OMPEError(
                        f"precomputation pool was built for amplify={pool.amplify}, "
                        f"offset={pool.offset}; sender has amplify={amplify_j}, "
                        f"offset={offset_j}"
                    )
        self.amplifiers: Tuple[Number, ...] = (1,) * count
        self.offsets: Tuple[Number, ...] = (0,) * count
        self._masks: Tuple[Polynomial, ...] = ()
        self._ot_sender: Optional[KOfNSender] = None
        self._cover_count: int = 0

    def _bundles(self) -> list:
        """One randomness bundle per function: the first from the
        sender's own stream, function ``j ≥ 1`` from its fork
        ``("function", j)``; or popped from the pool."""
        if self.pool is not None:
            return [self.pool.pop() for _ in self.functions]
        return [
            draw_sender_bundle(
                self.rng if index == 0 else self.rng.fork("function", index),
                self.config,
                self.degree,
                amplify,
                offset,
            )
            for index, (amplify, offset) in enumerate(zip(self.amplify, self.offset))
        ]

    # -- step 1 -------------------------------------------------------------

    def handle_request(self) -> None:
        """Receive the request; publish masking parameters."""
        with obs.get_tracer().span(
            "ompe.params", party=self.name, phase="params"
        ) as span:
            arity = self.receive("ompe/request")
            if arity != self.arity:
                raise ProtocolAbort(
                    f"receiver announced arity {arity}, function has {self.arity}"
                )
            bundles = self._bundles()
            self._masks = tuple(bundle.mask for bundle in bundles)
            self.amplifiers = tuple(bundle.amplifier for bundle in bundles)
            self.offsets = tuple(bundle.offset for bundle in bundles)
            self._cover_count = self.config.cover_count(self.degree)
            pair_count = self.config.pair_count(self.degree)
            span.set(m=self._cover_count, M=pair_count, degree=self.degree)
            self.send("ompe/params", (self.degree, self._cover_count, pair_count))

    # -- steps 2 and 3 -------------------------------------------------------

    def handle_points(self) -> None:
        """Evaluate every ``A_j`` on all pairs and open the OT phase."""
        tracer = obs.get_tracer()
        pairs = self.receive("ompe/points")
        check_points(pairs, self.arity)
        expected = self.config.pair_count(self.degree)
        if len(pairs) != expected:
            raise ProtocolAbort(
                f"expected {expected} point/vector pairs, got {len(pairs)}"
            )
        if not self._masks:
            raise OMPEError("handle_points before handle_request")
        with tracer.span(
            "ompe.evaluate", party=self.name, phase="evaluate", pairs=len(pairs)
        ):
            nodes = [node for node, _ in pairs]
            columns = []
            start = 0
            for function, mask, amplifier, offset in zip(
                self.functions, self._masks, self.amplifiers, self.offsets
            ):
                end = start + function.arity
                # A ScaledVector slice keeps one denominator; a run of
                # one function takes the vector itself.
                values = function.evaluate_all(
                    [vector[start:end] for _, vector in pairs]
                )
                columns.append(
                    [
                        encode_payload(mask(node) + amplifier * value + offset)
                        for node, value in zip(nodes, values)
                    ]
                )
                start = end
            evaluations: List[bytes] = [b"".join(slot) for slot in zip(*columns)]
        with tracer.span(
            "ompe.ot_setup",
            party=self.name,
            phase="ot-setups",
            m=self._cover_count,
        ):
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
            transfer = self._ot_sender.transfer(self._evaluations, choice)
            self.send("ompe/ot-transfers", transfer)
