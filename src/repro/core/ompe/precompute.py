"""Offline precomputation for OMPE (paper Section VI-B.1).

The paper notes the privacy overhead "can be further reduced by
generating random polynomials before the scheme".  Everything random in
an OMPE run is independent of the actual query:

* **Sender**: the masking polynomial ``h(u)`` (only its degree depends
  on the function), the amplifier ``r_a``, and the offset ``r_b``.
* **Receiver**: the hiding polynomials' non-constant coefficients,
  kept as their lattice numerators (at query time the secret
  coordinates become the constant terms, so
  ``g_i(v) = t̃_i + ĝ_i(v)``), plus the nodes ``v_1..v_M``, the cover
  positions, and the full disguise vectors.

:func:`draw_sender_bundle` and :func:`draw_receiver_bundle` are each
role's one draw.  An online run calls them on its own stream when the
query arrives; :class:`SenderPool` and :class:`ReceiverPool` call them
ahead of time on the forks ``("bundle", k)`` of theirs.  The sender
pops one sender bundle per function of its run.  The receiver takes a
:class:`HiddenInput`: a receiver bundle bound to one input, with its
points message finished (:meth:`ReceiverBundle.hide`,
:func:`hide_input`).  An online receiver hides its input when the
parameters arrive, :func:`~repro.core.ompe.protocol.execute_ompe` hides
it from a pool before the run starts, and a caller whose input repeats
across runs may hide it once and hand the same value to each run (a
linkage job does so for each right model's OMPE #1/#2 input).
Precomputation thus changes when the randomness is drawn, never how.
``benchmarks/bench_ablation_precompute.py`` measures the online-latency
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.ompe.config import OMPEConfig, draw_amplifier
from repro.core.ompe.function import OMPEFunction, as_exact_vector
from repro.core.ompe.hiding import (
    Hiders,
    PointsMessage,
    disguise_vector,
    draw_nodes,
    draw_numerators,
)
from repro.exceptions import OMPEError, ValidationError
from repro.math import fastpath
from repro.math.polynomials import Number, Polynomial
from repro.math.scaled import ScaledVector
from repro.utils.rng import ReproRandom


@dataclass(frozen=True)
class SenderBundle:
    """One precomputed sender randomness bundle."""

    mask: Polynomial
    amplifier: Number
    offset: Number


def draw_sender_bundle(
    draw: ReproRandom,
    config: OMPEConfig,
    function_degree: int,
    amplify: bool = True,
    offset: bool = False,
) -> SenderBundle:
    """The sender's randomness for one function of one query, drawn
    from ``draw``.

    The mask ``h`` (degree ``deg(P)·q``, ``h(0) = 0``) comes from
    ``draw.fork("mask")``, the amplifier ``r_a`` from
    ``draw.fork("amplifier")`` (``1`` unless ``amplify``) and the offset
    ``r_b`` from ``draw.fork("offset")`` (``0`` unless ``offset``).
    """
    mask = Polynomial.random(
        function_degree * config.security_degree,
        draw.fork("mask"),
        constant_term=0,
        coefficient_bound=config.coefficient_bound,
    )
    amplifier: Number = 1
    if amplify:
        amplifier = draw_amplifier(draw.fork("amplifier"))
    offset_value: Number = 0
    if offset:
        bound = config.coefficient_bound
        offset_value = draw.fork("offset").nonzero_fraction(-bound, bound)
    return SenderBundle(mask=mask, amplifier=amplifier, offset=offset_value)


@dataclass(frozen=True)
class ReceiverBundle:
    """The receiver's randomness for one query.

    ``numerators[i]`` holds cover hider ``i``'s lattice numerators
    ``(n_q, n_1, ..., n_(q-1))`` (:func:`~repro.core.ompe.hiding.lattice_numerators`);
    the query supplies the secret coordinate as its constant term.
    ``disguises`` holds the ready-made disguise vector at each non-cover
    position and ``None`` at the covers.
    """

    numerators: Tuple[Tuple[int, ...], ...]
    nodes: Tuple[Number, ...]
    cover_positions: Tuple[int, ...]
    disguises: Tuple[Optional[ScaledVector], ...]

    def points(self, input_vector: Sequence[Number], config: OMPEConfig) -> PointsMessage:
        """The points message hiding ``input_vector``: the cover hiders
        at the covers, the stored disguise elsewhere."""
        constants, denominator, _ = fastpath.scale_to_integers(input_vector)
        hiders = Hiders(
            config.security_degree,
            constants=constants,
            denominator=denominator,
            numerators=self.numerators,
        )
        return tuple(
            (node, hiders.at(node) if disguise is None else disguise)
            for node, disguise in zip(self.nodes, self.disguises)
        )

    def hide(self, input_vector: Sequence[Number], config: OMPEConfig) -> "HiddenInput":
        """This draw bound to ``input_vector``: its points message, ready to send."""
        vector = as_exact_vector(input_vector)
        return HiddenInput(
            input_vector=vector,
            config=config,
            nodes=self.nodes,
            cover_positions=self.cover_positions,
            points=self.points(vector, config),
        )


@dataclass(frozen=True)
class HiddenInput:
    """One input hidden by one receiver draw, ready for any number of runs.

    A receiver sends ``points`` as its points message and keeps
    ``nodes`` and ``cover_positions`` for the OT and the interpolation.
    It accepts the value only for the very ``input_vector`` and
    ``config`` it was hidden under: the same nodes and hiders over
    another input would give the sender ``α − α'`` at the covers.
    Every run that reuses it shows the sender the same points message
    again, with a fresh OT session and fresh sender masks.
    """

    input_vector: Tuple[Number, ...]
    config: OMPEConfig
    nodes: Tuple[Number, ...]
    cover_positions: Tuple[int, ...]
    points: PointsMessage


def draw_receiver_bundle(
    draw: ReproRandom, config: OMPEConfig, arity: int, function_degree: int
) -> ReceiverBundle:
    """The receiver's randomness for one query of ``arity`` coordinates
    against a degree-``function_degree`` function, drawn from ``draw``.

    The cover hiders' numerators come from ``draw.fork("covers")`` at
    label path ``("g",)``, the ``M`` nodes from ``draw.fork("nodes")``
    and the ``m`` cover positions from ``draw.fork("positions")``.  The
    disguise at position ``j`` takes its constant terms from
    ``draw.fork("disguises")``, in position order, and its numerators
    from that stream's fork ``("poly", j)`` at ``("g",)``: fresh hiders
    with random constant terms, so disguises are identically
    distributed with covers.  That is ``arity·(M - m + 1)`` hiders.
    """
    pair_count = config.pair_count(function_degree)
    numerators = draw_numerators(draw.fork("covers"), ("g",), arity, config)
    nodes = tuple(draw_nodes(draw.fork("nodes"), pair_count, config))
    positions = tuple(
        draw.fork("positions").sample_indices(
            pair_count, config.cover_count(function_degree)
        )
    )
    covers = set(positions)
    disguise_draw = draw.fork("disguises")
    disguises = tuple(
        None
        if index in covers
        else disguise_vector(
            disguise_draw, disguise_draw.fork("poly", index), ("g",), arity, node, config
        )
        for index, node in enumerate(nodes)
    )
    return ReceiverBundle(
        numerators=tuple(tuple(row) for row in numerators),
        nodes=nodes,
        cover_positions=positions,
        disguises=disguises,
    )


def hide_input(
    draw: ReproRandom,
    config: OMPEConfig,
    input_vector: Sequence[Number],
    function_degree: int,
) -> HiddenInput:
    """``input_vector`` hidden for a degree-``function_degree`` run by
    :func:`draw_receiver_bundle` on ``draw``."""
    bundle = draw_receiver_bundle(draw, config, len(input_vector), function_degree)
    return bundle.hide(input_vector, config)


class SenderPool:
    """Pre-generates sender bundles for a fixed function degree.

    ``amplify`` and ``offset`` are recorded: a sender refuses a pool
    drawn with other settings.
    """

    def __init__(
        self,
        config: OMPEConfig,
        function_degree: int,
        count: int,
        rng: Optional[ReproRandom] = None,
        amplify: bool = True,
        offset: bool = False,
    ) -> None:
        if count < 1:
            raise ValidationError(f"count must be at least 1, got {count}")
        if function_degree < 1:
            raise ValidationError(
                f"function_degree must be at least 1, got {function_degree}"
            )
        self.config = config
        self.function_degree = function_degree
        self.amplify = amplify
        self.offset = offset
        rng = rng or ReproRandom()
        self._bundles = [
            draw_sender_bundle(
                rng.fork("bundle", index), config, function_degree, amplify, offset
            )
            for index in range(count)
        ]

    def __len__(self) -> int:
        return len(self._bundles)

    def pop(self) -> SenderBundle:
        """Consume one bundle (each must be used at most once).

        Exhaustion contract (pinned by ``tests/core/test_precompute.py``):
        a raw pool raises :class:`~repro.exceptions.OMPEError` when
        popped empty — it never regenerates silently, because a reused
        or implicitly re-derived mask/amplifier would break one-time
        randomness.  Refill is a *caller* policy:
        :class:`~repro.core.classification.session.PrivateClassificationSession`
        constructs a fresh pool from its own seeded stream when this
        error would otherwise trip.
        """
        if not self._bundles:
            raise OMPEError("sender precomputation pool exhausted")
        return self._bundles.pop()


class ReceiverPool:
    """Pre-generates receiver bundles for a fixed (arity, degree) shape."""

    def __init__(
        self,
        config: OMPEConfig,
        arity: int,
        function_degree: int,
        count: int,
        rng: Optional[ReproRandom] = None,
    ) -> None:
        if count < 1:
            raise ValidationError(f"count must be at least 1, got {count}")
        if arity < 1:
            raise ValidationError(f"arity must be at least 1, got {arity}")
        self.config = config
        self.arity = arity
        rng = rng or ReproRandom()
        self._bundles = [
            draw_receiver_bundle(rng.fork("bundle", index), config, arity, function_degree)
            for index in range(count)
        ]

    def __len__(self) -> int:
        return len(self._bundles)

    def pop(self) -> ReceiverBundle:
        """Consume one bundle (each must be used at most once).

        Same exhaustion contract as :meth:`SenderPool.pop`: raises
        :class:`~repro.exceptions.OMPEError` when empty, never refills
        itself — transparent refill belongs to the session.
        """
        if not self._bundles:
            raise OMPEError("receiver precomputation pool exhausted")
        return self._bundles.pop()

    def hide(self, input_vector: Sequence[Number], config: OMPEConfig) -> HiddenInput:
        """Pop one bundle and hide ``input_vector`` with it.

        A receiver of another ``config`` or arity is refused with
        :class:`~repro.exceptions.OMPEError` before anything is popped.
        """
        if self.config != config:
            raise OMPEError(
                "precomputation pool was built for another OMPE config "
                "than the receiver's"
            )
        if self.arity != len(input_vector):
            raise OMPEError(
                f"precomputation pool was built for arity {self.arity}, "
                f"input has {len(input_vector)}"
            )
        return self.pop().hide(input_vector, config)


def draw_pools(
    config: OMPEConfig, function: OMPEFunction, count: int, rng: ReproRandom
) -> Tuple[SenderPool, ReceiverPool]:
    """A matching sender/receiver pool pair of ``count`` bundles for
    ``function``, drawn from ``rng.fork("sender")`` / ``rng.fork("receiver")``."""
    degree = function.total_degree
    return (
        SenderPool(config, degree, count, rng.fork("sender")),
        ReceiverPool(config, function.arity, degree, count, rng.fork("receiver")),
    )
