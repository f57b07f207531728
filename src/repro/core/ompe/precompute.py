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

:class:`SenderPool` and :class:`ReceiverPool` pre-generate batches of
these bundles; the sender/receiver classes pop from them during the
online phase.  :func:`draw_sender_bundle` is the one sender draw: the
pool, the online sender and the batched sender all call it, each with
its own stream.  ``benchmarks/bench_ablation_precompute.py`` measures the
online-latency reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.ompe.config import OMPEConfig, draw_amplifier
from repro.core.ompe.function import OMPEFunction
from repro.core.ompe.hiding import disguise_vector, draw_nodes, draw_numerators
from repro.exceptions import OMPEError, ValidationError
from repro.math.polynomials import Number, Polynomial
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
    """The sender's randomness for one query, drawn from ``draw``.

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
    """One precomputed receiver randomness bundle.

    ``numerators[i]`` holds hider ``i``'s lattice numerators
    ``(n_q, n_1, ..., n_(q-1))`` (:func:`~repro.core.ompe.hiding.lattice_numerators`);
    the online phase supplies the secret coordinate as its constant
    term.  ``disguises`` maps the non-cover positions to ready-made
    disguise vectors.
    """

    numerators: Tuple[Tuple[int, ...], ...]
    nodes: Tuple[Number, ...]
    cover_positions: Tuple[int, ...]
    disguises: Tuple[Optional[Tuple[Number, ...]], ...]


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
        and the :mod:`repro.engine` workers construct a fresh pool from
        their own seeded stream when this error would otherwise trip.
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
        self.function_degree = function_degree
        rng = rng or ReproRandom()
        pair_count = config.pair_count(function_degree)
        cover_count = config.cover_count(function_degree)
        self._bundles: List[ReceiverBundle] = []
        for index in range(count):
            draw = rng.fork("bundle", index)
            numerators = tuple(
                tuple(row) for row in draw_numerators(draw, ("g",), arity, config)
            )
            nodes = tuple(draw_nodes(draw.fork("nodes"), pair_count, config))
            positions = tuple(
                draw.fork("positions").sample_indices(pair_count, cover_count)
            )
            position_set = set(positions)
            disguise_draw = draw.fork("disguises")
            disguises: List[Optional[Tuple[Number, ...]]] = []
            for pair_index, node in enumerate(nodes):
                if pair_index in position_set:
                    disguises.append(None)
                    continue
                disguises.append(
                    disguise_vector(
                        disguise_draw,
                        disguise_draw,
                        ("poly", pair_index),
                        arity,
                        node,
                        config,
                    )
                )
            self._bundles.append(
                ReceiverBundle(
                    numerators=numerators,
                    nodes=nodes,
                    cover_positions=positions,
                    disguises=tuple(disguises),
                )
            )

    def __len__(self) -> int:
        return len(self._bundles)

    def pop(self) -> ReceiverBundle:
        """Consume one bundle (each must be used at most once).

        Same exhaustion contract as :meth:`SenderPool.pop`: raises
        :class:`~repro.exceptions.OMPEError` when empty, never refills
        itself — transparent refill belongs to the session/engine layer.
        """
        if not self._bundles:
            raise OMPEError("receiver precomputation pool exhausted")
        return self._bundles.pop()


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
