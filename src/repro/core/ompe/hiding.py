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
numerator ``n_q`` is drawn first, then the ``q - 1`` middle ones.
:class:`Hiders` keeps only those numerators ``n_j`` and evaluates at a
node ``x/y`` as::

    g_i(x/y) = (A_i·G·y^q + B·Σ n_j·x^j·y^(q-j)) / (B·G·y^q)

for constant terms ``A_i/B`` over one common denominator ``B`` and
``G = 10**6``, sharing the node's powers
``x^j·y^(q-j)`` across the vector and bringing the vector to its one
canonical :class:`~repro.math.scaled.ScaledVector` with one gcd per
point.  A receiver bundle
(:func:`repro.core.ompe.precompute.draw_receiver_bundle`, drawn online
or ahead of time by a pool) keeps the cover hiders' numerators and
supplies the input as their constants at query time.
``tests/core/test_hiding.py`` holds this form to ``Polynomial`` objects
built from the same numerators, and ``tests/core/test_scaled_points.py``
to the per-coordinate ``Fraction`` formula it replaced.

:func:`check_points` is the senders' first step on a received points
message: it refuses any entry that is not a distinct non-zero node and a
:class:`~repro.math.scaled.ScaledVector` of the announced arity.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from operator import mul
from typing import List, Sequence, Tuple

from repro.core.ompe.config import OMPEConfig
from repro.exceptions import ProtocolAbort, ValidationError
from repro.math.polynomials import Number
from repro.math.scaled import ScaledVector
from repro.utils.rng import _DEFAULT_FRACTION_GRID as LATTICE
from repro.utils.rng import ReproRandom

PointsMessage = Tuple[Tuple[Number, ScaledVector], ...]

#: Number types a points message's nodes may be; ``bool`` never counts.
_POINT_TYPES = (int, Fraction)

#: Bytes per stream block: one full-width BLAKE2b digest.
BLOCK_BYTES = 64
#: Fixed width of the coordinate index and of the block counter.
COUNTER_BYTES = 8
_KEY_PERSON = b"repro.hiders.key"
_STREAM_PERSON = b"repro.hiders"


class Hiders:
    """The hiding polynomials of one vector, ready to evaluate at nodes.

    The constant terms are ``constants[i] / denominator`` over one
    ``denominator ≥ 1``, and per coordinate the lattice numerators
    ``(n_q, n_1, ..., n_(q-1))`` in draw order, as
    :func:`draw_numerators` returns them.
    """

    __slots__ = ("_denominator", "_constants", "_numerators", "_degree")

    def __init__(
        self,
        degree: int,
        constants: Sequence[int],
        denominator: int,
        numerators: Sequence[Sequence[int]],
    ) -> None:
        self._degree = degree
        self._constants = constants
        self._denominator = denominator
        self._numerators = numerators

    def at(self, node: Number) -> ScaledVector:
        """The vector ``(g_1(node), ..., g_n(node))``."""
        q = self._degree
        x, y = node.numerator, node.denominator
        # x^j·y^(q-j) in draw order: j = q first, then j = 1 .. q-1.
        powers = [x**q] + [x**j * y ** (q - j) for j in range(1, q)]
        scale = LATTICE * y**q
        common = self._denominator
        return ScaledVector.reduced(
            common * scale,
            [
                constant * scale + common * sum(map(mul, numerators, powers))
                for constant, numerators in zip(self._constants, self._numerators)
            ],
        )


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


def draw_numerators(
    parent: ReproRandom, prefix: tuple, count: int, config: OMPEConfig
) -> List[List[int]]:
    """:func:`lattice_numerators` of ``count`` hiders for label path
    ``prefix`` of ``parent``, at ``config``'s degree and bound."""
    return lattice_numerators(
        parent.seed,
        prefix,
        count,
        config.security_degree,
        config.coefficient_bound * LATTICE,
    )


def disguise_vector(
    draw: ReproRandom,
    parent: ReproRandom,
    prefix: tuple,
    arity: int,
    node: Number,
    config: OMPEConfig,
) -> ScaledVector:
    """A disguise at ``node``: fresh hiders whose constant terms ``draw``
    supplies (uniform on ``[-1, 1]``, as ``draw.fraction(-1, 1)``) and
    whose numerators :func:`draw_numerators` draws for label path
    ``prefix`` of ``parent``."""
    hiders = Hiders(
        config.security_degree,
        constants=[draw.randint(-LATTICE, LATTICE) for _ in range(arity)],
        denominator=LATTICE,
        numerators=draw_numerators(parent, prefix, arity, config),
    )
    return hiders.at(node)


def draw_nodes(draw: ReproRandom, count: int, config: OMPEConfig) -> List[Number]:
    """``count`` distinct nonzero interpolation nodes in ``±node_bound``."""
    return draw.distinct_fractions(count, -config.node_bound, config.node_bound)


def _is_number(value) -> bool:
    return isinstance(value, _POINT_TYPES) and not isinstance(value, bool)


def check_points(pairs, arity: int) -> None:
    """Refuse a points message that is not ``((node, vector), ...)`` of
    distinct non-zero nodes and canonical vectors.

    Each entry must be a 2-sequence of a node (``int`` or ``Fraction``,
    non-zero and unlike every other node) and a
    :class:`~repro.math.scaled.ScaledVector` of ``arity`` coordinates.
    A vector of separate ``Fraction``s, as a peer older than the scaled
    form sends, is refused like any other type.  Honest receivers draw
    distinct non-zero nodes (:func:`draw_nodes`); a repeated node would
    put the same mask value ``h(v)`` in several slots, whose differences
    are then ``r·(P(z₁) − P(z₂))`` — the function's own ratios.  Raises
    :class:`~repro.exceptions.ProtocolAbort` on the first violation, so
    a hostile peer meets the typed abort and never the evaluator.
    """
    if not isinstance(pairs, (tuple, list)):
        raise ProtocolAbort(f"points message is a {type(pairs).__name__}, not a sequence")
    nodes = set()
    for index, pair in enumerate(pairs):
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise ProtocolAbort(f"points entry {index} is not a (node, vector) pair")
        node, vector = pair
        if not _is_number(node):
            raise ProtocolAbort(
                f"points entry {index}: node of type {type(node).__name__}"
            )
        # A canonical node's (numerator, denominator) names it, and a
        # tuple of ints hashes far faster than a Fraction.
        key = (node.numerator, node.denominator)
        if not key[0]:
            raise ProtocolAbort(f"points entry {index}: node 0 would reveal the input")
        if key in nodes:
            raise ProtocolAbort(f"points entry {index}: node {node} repeats")
        nodes.add(key)
        if type(vector) is not ScaledVector:
            raise ProtocolAbort(
                f"points entry {index}: vector is a {type(vector).__name__}, "
                f"not an ompe/vector"
            )
        if len(vector) != arity:
            raise ProtocolAbort(
                f"points entry {index}: vector is not {arity} coordinates"
            )
