"""The receiver's hiding polynomials and points message (paper Section IV-A, step 2).

Bob hides each input coordinate ``α_i`` in a random degree-``q``
polynomial ``g_i(v)`` with ``g_i(0) = α_i`` and sends ``M`` node/vector
pairs: ``m`` covers ``(v, (g_1(v), ..., g_n(v)))`` and ``M - m``
disguises, each built from fresh hiding polynomials with random
constant terms.

Every coordinate's polynomial is drawn from its own stream
``parent.fork(*prefix, i)``, exactly as ``Polynomial.random`` draws it:
the nonzero leading coefficient first, then the ``q - 1`` middle ones,
all on the ``1/10**6`` lattice of :meth:`ReproRandom.fraction`.  In
exact mode with the hot path on, :class:`Hiders` keeps only those
integer numerators ``n_j`` and evaluates at a node ``x/y`` as::

    g(x/y) = (a·G·y^q + b·Σ n_j·x^j·y^(q-j)) / (b·G·y^q)

for a constant term ``a/b`` and ``G = 10**6``, sharing the node's
powers ``x^j·y^(q-j)`` across the vector and building one ``Fraction``
per value.  Floats and :func:`repro.math.fastpath.naive_arithmetic`
build ``Polynomial.random`` + ``evaluate_all`` from the same streams —
the differential oracle.  Both give the same values, value types and
bytes (``tests/core/test_hiding.py``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

from repro.core.ompe.config import OMPEConfig
from repro.math import fastpath
from repro.math.polynomials import Number, Polynomial, evaluate_all
from repro.utils.rng import _DEFAULT_FRACTION_GRID as LATTICE
from repro.utils.rng import ReproRandom, derive_seed

PointsMessage = Tuple[Tuple[Number, Tuple[Number, ...]], ...]


class Hiders:
    """The hiding polynomials of one vector, ready to evaluate at nodes.

    Build with :func:`draw_hiders`.  Holds either ``Polynomial`` objects
    (floats, naive arithmetic) or, in lattice form, per coordinate the
    constant term as ``(a, b)`` and the numerators ``(n_q, n_1, ...,
    n_(q-1))`` in draw order.
    """

    __slots__ = ("_polynomials", "_constants", "_numerators", "_degree")

    def __init__(
        self,
        degree: int,
        polynomials: Optional[List[Polynomial]] = None,
        constants: Sequence[Tuple[int, int]] = (),
        numerators: Sequence[Sequence[int]] = (),
    ) -> None:
        self._degree = degree
        self._polynomials = polynomials
        self._constants = constants
        self._numerators = numerators

    def at(self, node: Number) -> Tuple[Number, ...]:
        """The vector ``(g_1(node), ..., g_n(node))``."""
        if self._polynomials is not None:
            return tuple(evaluate_all(self._polynomials, node))
        q = self._degree
        x, y = node.numerator, node.denominator
        # x^j·y^(q-j) in draw order: j = q first, then j = 1 .. q-1.
        powers = [x**q] + [x**j * y ** (q - j) for j in range(1, q)]
        scale = LATTICE * y**q
        values = []
        for (a, b), numerators in zip(self._constants, self._numerators):
            total = sum(map(mul, numerators, powers))
            values.append(Fraction(a * scale + b * total, b * scale))
        return tuple(values)


def _lattice_mode(config: OMPEConfig) -> bool:
    return config.exact and fastpath.enabled()


def _lattice_numerators(
    parent: ReproRandom, prefix: tuple, count: int, config: OMPEConfig
) -> List[List[int]]:
    """``Polynomial.random``'s coefficient draws, as lattice numerators."""
    high = config.coefficient_bound * LATTICE
    low = -high
    middle = range(config.security_degree - 1)
    seed = parent.seed
    drawn = []
    for index in range(count):
        randint = random.Random(derive_seed(seed, *prefix, index)).randint
        lead = randint(low, high)
        while not lead:
            lead = randint(low, high)
        drawn.append([lead] + [randint(low, high) for _ in middle])
    return drawn


def draw_hiders(
    parent: ReproRandom, prefix: tuple, constants: Sequence[Number], config: OMPEConfig
) -> Hiders:
    """Draw ``g_i`` with ``g_i(0) = constants[i]`` from ``parent.fork(*prefix, i)``."""
    degree = config.security_degree
    if not _lattice_mode(config):
        return Hiders(
            degree,
            polynomials=[
                Polynomial.random(
                    degree,
                    parent.fork(*prefix, index),
                    constant_term=constant,
                    coefficient_bound=config.coefficient_bound,
                    exact=config.exact,
                )
                for index, constant in enumerate(constants)
            ],
        )
    return Hiders(
        degree,
        constants=[(c.numerator, c.denominator) for c in constants],
        numerators=_lattice_numerators(parent, prefix, len(constants), config),
    )


def disguise_vector(
    draw: ReproRandom,
    parent: ReproRandom,
    prefix: tuple,
    arity: int,
    node: Number,
    config: OMPEConfig,
) -> Tuple[Number, ...]:
    """A disguise at ``node``: fresh hiders whose constant terms ``draw``
    supplies (uniform on ``[-1, 1]``), coordinate ``i`` from
    ``parent.fork(*prefix, i)``."""
    if not _lattice_mode(config):
        constants = [
            draw.fraction(-1, 1) if config.exact else draw.uniform(-1.0, 1.0)
            for _ in range(arity)
        ]
        return draw_hiders(parent, prefix, constants, config).at(node)
    # ReproRandom.fraction(-1, 1) draws exactly this numerator over LATTICE.
    constants = [(draw.randint(-LATTICE, LATTICE), LATTICE) for _ in range(arity)]
    hiders = Hiders(
        config.security_degree,
        constants=constants,
        numerators=_lattice_numerators(parent, prefix, arity, config),
    )
    return hiders.at(node)


def _float_nodes(draw: ReproRandom, count: int, bound: int) -> List[float]:
    seen = set()
    nodes: List[float] = []
    while len(nodes) < count:
        value = draw.uniform(-bound, bound)
        if abs(value) > 1e-9 and value not in seen:
            seen.add(value)
            nodes.append(value)
    return nodes


def points_message(
    input_vector: Sequence[Number],
    config: OMPEConfig,
    draw: ReproRandom,
    cover_count: int,
    pair_count: int,
) -> Tuple[PointsMessage, List[Number], List[int]]:
    """The online receiver's points message, its nodes and cover positions.

    Draws ``arity·(M - m + 1)`` hiding polynomials: one set of cover
    hiders, reused at all ``m`` cover nodes, and one per disguise.
    """
    hiders = draw_hiders(draw.fork("covers"), ("g",), input_vector, config)
    if config.exact:
        nodes = draw.fork("nodes").distinct_fractions(
            pair_count, -config.node_bound, config.node_bound, exclude_zero=True
        )
    else:
        nodes = _float_nodes(draw.fork("nodes"), pair_count, config.node_bound)
    positions = draw.fork("positions").sample_indices(pair_count, cover_count)
    position_set = set(positions)
    disguise_draw = draw.fork("disguises")
    arity = len(input_vector)
    pairs = []
    for index, node in enumerate(nodes):
        if index in position_set:
            vector = hiders.at(node)
        else:
            # Fresh hiding polynomials with random constant terms:
            # disguises are identically distributed with covers.
            vector = disguise_vector(
                disguise_draw, disguise_draw.fork("poly", index), ("g",), arity, node, config
            )
        pairs.append((node, vector))
    return tuple(pairs), nodes, positions
