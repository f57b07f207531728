"""The receiver's hiding polynomials and points message (paper Section IV-A, step 2).

Bob hides each input coordinate ``α_i`` in a random degree-``q``
polynomial ``g_i(v)`` with ``g_i(0) = α_i`` and sends ``M`` node/vector
pairs: ``m`` covers ``(v, (g_1(v), ..., g_n(v)))`` and ``M - m``
disguises, each built from fresh hiding polynomials with random
constant terms.

Every coordinate's coefficients are integer numerators over the
``1/10**6`` lattice, drawn by :func:`lattice_numerators` from
one keyed BLAKE2b stream per hider set: the key comes from
``parent.seed``, the message is the label path ``prefix`` followed by
the coordinate index and a block counter.  The nonzero leading
numerator ``n_q`` is drawn first, then the ``q - 1`` middle ones.  With
the hot path on, :class:`Hiders` keeps only those numerators ``n_j``
and evaluates at a node ``x/y`` as::

    g(x/y) = (a·G·y^q + b·Σ n_j·x^j·y^(q-j)) / (b·G·y^q)

for a constant term ``a/b`` and ``G = 10**6``, sharing the node's
powers ``x^j·y^(q-j)`` across the vector and building one ``Fraction``
per value.  :func:`repro.math.fastpath.naive_arithmetic` and the
receiver pool build ``Polynomial`` objects from the same numerators
(:func:`hiding_polynomials`), and the oracle evaluates them with
``evaluate_all``.  Both give the same values, value types and bytes
(``tests/core/test_hiding.py``).

:func:`check_points` is the senders' first step on a received points
message: it refuses any value that is not a well-formed pair of numbers.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

from repro.core.ompe.config import OMPEConfig
from repro.exceptions import ProtocolAbort, ValidationError
from repro.math import fastpath
from repro.math.polynomials import Number, Polynomial, evaluate_all
from repro.utils.rng import _DEFAULT_FRACTION_GRID as LATTICE
from repro.utils.rng import ReproRandom

PointsMessage = Tuple[Tuple[Number, Tuple[Number, ...]], ...]

#: Number types a points message may carry; ``bool`` never counts.
_POINT_TYPES = (int, Fraction)

#: Bytes per stream block: one full-width BLAKE2b digest.
BLOCK_BYTES = 64
#: Fixed width of the coordinate index and of the block counter.
COUNTER_BYTES = 8
_KEY_PERSON = b"repro.hiders.key"
_STREAM_PERSON = b"repro.hiders"


class Hiders:
    """The hiding polynomials of one vector, ready to evaluate at nodes.

    Build with :func:`draw_hiders`.  Holds either ``Polynomial`` objects
    (naive arithmetic) or, in lattice form, per coordinate the
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


def _stream_key(seed: int) -> bytes:
    """A 32-byte BLAKE2b key from any ``int`` seed, negative or wide."""
    encoded = seed.to_bytes(seed.bit_length() // 8 + 1, "big", signed=True)
    return hashlib.blake2b(encoded, digest_size=32, person=_KEY_PERSON).digest()


def _encode_prefix(prefix: tuple) -> bytes:
    """Each label's ``repr``, length-prefixed: distinct paths never collide."""
    parts = []
    for label in prefix:
        text = repr(label).encode("utf-8")
        parts.append(len(text).to_bytes(4, "big") + text)
    return b"".join(parts)


def lattice_numerators(
    seed: int, prefix: tuple, count: int, degree: int, high: int
) -> List[List[int]]:
    """Numerators ``(n_q, n_1, ..., n_(q-1))`` of ``count`` hiders, each
    uniform on ``[-high, high]`` with ``n_q ≠ 0``.

    Coordinate ``i`` reads the blocks
    ``BLAKE2b(key=K(seed), msg=prefix ‖ i ‖ block)`` as big-endian words
    of ``⌈log₂₅₆ span⌉ + 4`` bytes, ``span = 2·high + 1``; a word at or
    above the largest multiple of ``span`` is rejected, any other gives
    ``word mod span − high``.  The lead is drawn first and redrawn while
    zero, then the ``q − 1`` middle numerators.
    """
    if high < 1:
        raise ValidationError(f"lattice bound must be at least 1, got {high}")
    span = 2 * high + 1
    width = (span.bit_length() + 7) // 8 + 4
    limit = (1 << (8 * width)) // span * span
    offsets = range(0, BLOCK_BYTES - width + 1, width)
    stream = hashlib.blake2b(
        key=_stream_key(seed), digest_size=BLOCK_BYTES, person=_STREAM_PERSON
    )
    stream.update(_encode_prefix(prefix))
    from_bytes = int.from_bytes
    drawn = []
    for index in range(count):
        coordinate = index.to_bytes(COUNTER_BYTES, "big")
        row: List[int] = []
        block_index = 0
        while len(row) < degree:
            hasher = stream.copy()
            hasher.update(coordinate + block_index.to_bytes(COUNTER_BYTES, "big"))
            block = hasher.digest()
            block_index += 1
            for offset in offsets:
                word = from_bytes(block[offset : offset + width], "big")
                if word >= limit:
                    continue
                value = word % span - high
                if value or row:  # a zero lead is redrawn
                    row.append(value)
                    if len(row) == degree:
                        break
        drawn.append(row)
    return drawn


def _lattice_numerators(
    parent: ReproRandom, prefix: tuple, count: int, config: OMPEConfig
) -> List[List[int]]:
    return lattice_numerators(
        parent.seed,
        prefix,
        count,
        config.security_degree,
        config.coefficient_bound * LATTICE,
    )


def hiding_polynomials(
    parent: ReproRandom, prefix: tuple, constants: Sequence[Number], config: OMPEConfig
) -> List[Polynomial]:
    """``g_i`` with ``g_i(0) = constants[i]`` as ``Polynomial`` objects,
    built from :func:`lattice_numerators`, the draw the lattice hot path
    evaluates."""
    numerators = _lattice_numerators(parent, prefix, len(constants), config)
    return [
        Polynomial(
            [
                constant,
                *(Fraction(n, LATTICE) for n in middle),
                Fraction(lead, LATTICE),
            ]
        )
        for constant, (lead, *middle) in zip(constants, numerators)
    ]


def draw_hiders(
    parent: ReproRandom, prefix: tuple, constants: Sequence[Number], config: OMPEConfig
) -> Hiders:
    """Draw ``g_i`` with ``g_i(0) = constants[i]`` for label path ``prefix``."""
    degree = config.security_degree
    if not fastpath.enabled():
        return Hiders(
            degree, polynomials=hiding_polynomials(parent, prefix, constants, config)
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
    supplies (uniform on ``[-1, 1]``), drawn for label path ``prefix``
    of ``parent`` as in :func:`draw_hiders`."""
    if not fastpath.enabled():
        constants = [draw.fraction(-1, 1) for _ in range(arity)]
        return draw_hiders(parent, prefix, constants, config).at(node)
    # ReproRandom.fraction(-1, 1) draws exactly this numerator over LATTICE.
    constants = [(draw.randint(-LATTICE, LATTICE), LATTICE) for _ in range(arity)]
    hiders = Hiders(
        config.security_degree,
        constants=constants,
        numerators=_lattice_numerators(parent, prefix, arity, config),
    )
    return hiders.at(node)


def draw_nodes(draw: ReproRandom, count: int, config: OMPEConfig) -> List[Number]:
    """``count`` distinct nonzero interpolation nodes in ``±node_bound``."""
    return draw.distinct_fractions(count, -config.node_bound, config.node_bound)


def _is_number(value) -> bool:
    return isinstance(value, _POINT_TYPES) and not isinstance(value, bool)


def check_points(pairs, arity: int) -> None:
    """Refuse a points message that is not ``((node, vector), ...)`` of numbers.

    Each entry must be a 2-sequence of a number and a sequence of
    ``arity`` numbers; numbers are ``int`` or ``Fraction``.  Raises
    :class:`~repro.exceptions.ProtocolAbort` on the first violation, so
    a hostile peer meets the typed abort and never the evaluator.
    """
    if not isinstance(pairs, (tuple, list)):
        raise ProtocolAbort(f"points message is a {type(pairs).__name__}, not a sequence")
    for index, pair in enumerate(pairs):
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise ProtocolAbort(f"points entry {index} is not a (node, vector) pair")
        node, vector = pair
        if not _is_number(node):
            raise ProtocolAbort(
                f"points entry {index}: node of type {type(node).__name__}"
            )
        if not isinstance(vector, (tuple, list)) or len(vector) != arity:
            raise ProtocolAbort(
                f"points entry {index}: vector is not {arity} coordinates"
            )
        for value in vector:
            if not _is_number(value):
                raise ProtocolAbort(
                    f"points entry {index}: coordinate of type {type(value).__name__}"
                )


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
    nodes = draw_nodes(draw.fork("nodes"), pair_count, config)
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
