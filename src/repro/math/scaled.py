"""Rational vectors over one shared denominator.

An OMPE points message carries ``M`` vectors of rationals (paper
Section IV-A, step 2).  :class:`ScaledVector` writes one such vector as
integer numerators over a single denominator, in the one canonical form
``gcd(denominator, *numerators) == 1``.  Then ``denominator`` is the
lcm of the coordinates' reduced denominators, so the form is a
bijection of the reduced ``Fraction`` vector: it carries the same
information, in one integer per coordinate plus one.

It crosses the wire as the registered payload ``ompe/vector``; the
constructor refuses every other form, so the decoder does too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence, Tuple, Union

from repro.exceptions import ValidationError
from repro.math import fastpath
from repro.utils.serialization import register_payload_type

_INT_ONLY = frozenset((int,))


@register_payload_type("ompe/vector")
@dataclass(frozen=True)
class ScaledVector:
    """The vector ``(numerators[i] / denominator)_i`` in canonical form.

    ``denominator`` is an ``int ≥ 1`` and ``numerators`` a tuple of
    ``int`` (never ``bool``) with ``gcd(denominator, *numerators) == 1``.
    It reads as a sequence of exact ``Fraction``s (``len``, indexing,
    iteration), so generic evaluators take it as they take a tuple; a
    slice is the canonical form of its coordinates, with one gcd and no
    ``Fraction`` per coordinate.  Integer evaluators read ``numerators``
    and ``denominator`` directly.
    """

    denominator: int
    numerators: Tuple[int, ...]

    def __post_init__(self) -> None:
        denominator, numerators = self.denominator, self.numerators
        if type(denominator) is not int or denominator < 1:
            raise ValidationError(
                f"scaled vector denominator must be an int ≥ 1, got {denominator!r}"
            )
        if type(numerators) is not tuple:
            raise ValidationError(
                f"scaled vector numerators are a {type(numerators).__name__}, "
                f"not a tuple"
            )
        if not _INT_ONLY.issuperset(map(type, numerators)):
            raise ValidationError("scaled vector numerators must all be ints")
        if gcd(denominator, *numerators) != 1:
            raise ValidationError(
                "non-canonical scaled vector: denominator and numerators "
                "share a factor"
            )

    @classmethod
    def reduced(cls, denominator: int, numerators: Sequence[int]) -> "ScaledVector":
        """``numerators / denominator`` (``denominator ≥ 1``) brought to
        canonical form by one gcd."""
        common = gcd(denominator, *numerators)
        if common != 1:
            denominator //= common
            numerators = [numerator // common for numerator in numerators]
        return cls(denominator, tuple(numerators))

    @classmethod
    def of(cls, values: Sequence) -> "ScaledVector":
        """The canonical form of ``int``/``Fraction`` values; any other
        value raises :class:`~repro.exceptions.ValidationError`."""
        scaled = fastpath.scale_to_integers(values)
        if scaled is None:
            raise ValidationError("a scaled vector takes int or Fraction coordinates")
        numerators, denominator, _ = scaled
        return cls(denominator, numerators)

    def __len__(self) -> int:
        return len(self.numerators)

    def __iter__(self) -> Iterator[Fraction]:
        denominator = self.denominator
        return (Fraction(numerator, denominator) for numerator in self.numerators)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Fraction, "ScaledVector"]:
        if isinstance(index, slice):
            if index.indices(len(self.numerators)) == (0, len(self.numerators), 1):
                return self
            return ScaledVector.reduced(self.denominator, self.numerators[index])
        return Fraction(self.numerators[index], self.denominator)
