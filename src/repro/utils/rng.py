"""Deterministic, forkable randomness for protocols and experiments.

Every randomized component in the library accepts an explicit random
source so that experiments are reproducible end-to-end.  The sources are
built on :class:`random.Random` (protocol randomness operates on Python
integers and :class:`fractions.Fraction`, where ``numpy`` generators are
awkward), with helpers to derive independent child streams.

Protocol security in this reproduction is analyzed in the semi-honest
model of the paper; a deployment would swap :class:`ReproRandom` for an
OS CSPRNG by constructing it with ``systematic=False``.
"""

from __future__ import annotations

import hashlib
import random
import secrets
from fractions import Fraction
from typing import List, Optional, Sequence, TypeVar

from repro.exceptions import ValidationError

_T = TypeVar("_T")

#: Upper bound (exclusive) for the integer lattice used when drawing
#: "real" random coefficients as exact fractions.
_DEFAULT_FRACTION_GRID = 10**6


def derive_seed(master_seed: int, *labels: object) -> int:
    """Derive a child seed from ``master_seed`` and a label path.

    The derivation hashes the master seed together with the labels, so
    children with different labels are statistically independent while
    remaining reproducible.

    >>> derive_seed(7, "ot", 3) == derive_seed(7, "ot", 3)
    True
    >>> derive_seed(7, "ot", 3) != derive_seed(7, "ot", 4)
    True
    """
    digest = hashlib.sha256()
    digest.update(str(master_seed).encode("utf-8"))
    for label in labels:
        digest.update(b"/")
        digest.update(repr(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


class ReproRandom:
    """A seedable random source with protocol-oriented helpers.

    Parameters
    ----------
    seed:
        Seed for the deterministic stream.  ``None`` draws a fresh seed
        from the OS entropy pool (still recorded on ``self.seed`` so a
        run can be replayed).
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        if seed is None:
            seed = secrets.randbits(64)
        self.seed = int(seed)

    def __getattr__(self, name: str):
        # The Mersenne Twister is seeded on the first draw, not at
        # construction: most forks only fork again or lend their
        # ``seed``, and seeding costs more than deriving the seed.  Once
        # set, ``_rng`` is an instance attribute and this hook is not
        # consulted again.
        if name != "_rng":
            raise AttributeError(name)
        rng = random.Random(self.seed)
        self._rng = rng
        return rng

    # -- stream management -------------------------------------------------

    def fork(self, *labels: object) -> "ReproRandom":
        """Return an independent child stream labelled by ``labels``."""
        return ReproRandom(derive_seed(self.seed, *labels))

    # -- integers -----------------------------------------------------------

    def randbits(self, bits: int) -> int:
        """Return a uniform integer with at most ``bits`` bits."""
        if bits <= 0:
            raise ValidationError(f"bits must be positive, got {bits}")
        return self._rng.getrandbits(bits)

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range [low, high]."""
        if low > high:
            raise ValidationError(f"empty range [{low}, {high}]")
        return self._rng.randint(low, high)

    def randrange_coprime(self, modulus: int) -> int:
        """Return a uniform unit of ``Z_modulus`` (element coprime to it)."""
        import math

        if modulus <= 1:
            raise ValidationError(f"modulus must exceed 1, got {modulus}")
        while True:
            candidate = self._rng.randrange(1, modulus)
            if math.gcd(candidate, modulus) == 1:
                return candidate

    # -- reals / fractions ---------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        """Return a uniform float in [low, high]."""
        return self._rng.uniform(low, high)

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Return a Gaussian sample."""
        return self._rng.gauss(mu, sigma)

    def fraction(
        self,
        low: int = -10,
        high: int = 10,
        grid: int = _DEFAULT_FRACTION_GRID,
    ) -> Fraction:
        """Return an exact random fraction in [low, high].

        Values are drawn on a ``1/grid`` lattice so protocol arithmetic
        stays exact under :class:`fractions.Fraction`.
        """
        if low >= high:
            raise ValidationError(f"empty interval [{low}, {high}]")
        numerator = self._rng.randint(low * grid, high * grid)
        return Fraction(numerator, grid)

    def nonzero_fraction(
        self,
        low: int = -10,
        high: int = 10,
        grid: int = _DEFAULT_FRACTION_GRID,
    ) -> Fraction:
        """Return a nonzero exact random fraction in [low, high]."""
        while True:
            value = self.fraction(low, high, grid)
            if value != 0:
                return value

    def positive_fraction(
        self,
        low: int = 0,
        high: int = 10,
        grid: int = _DEFAULT_FRACTION_GRID,
    ) -> Fraction:
        """Return a strictly positive exact random fraction in (low, high]."""
        if high <= 0:
            raise ValidationError(f"high must be positive, got {high}")
        while True:
            value = self.fraction(low, high, grid)
            if value > 0:
                return value

    def distinct_fractions(
        self,
        count: int,
        low: int = -10,
        high: int = 10,
        grid: int = _DEFAULT_FRACTION_GRID,
        exclude_zero: bool = True,
    ) -> List[Fraction]:
        """Return ``count`` pairwise-distinct random fractions.

        Used for interpolation nodes, which must be distinct (and
        nonzero, since the protocols reserve ``v = 0`` for the secret).
        """
        span = (high - low) * grid + 1
        if exclude_zero and low <= 0 <= high:
            span -= 1
        if count > span:
            raise ValidationError(
                f"cannot draw {count} distinct fractions from a grid of {span}"
            )
        chosen: List[Fraction] = []
        seen = set()
        while len(chosen) < count:
            value = self.fraction(low, high, grid)
            if exclude_zero and value == 0:
                continue
            if value in seen:
                continue
            seen.add(value)
            chosen.append(value)
        return chosen

    # -- sequences ------------------------------------------------------------

    def sample_indices(self, population: int, count: int) -> List[int]:
        """Return ``count`` sorted distinct indices from ``range(population)``."""
        if count > population:
            raise ValidationError(
                f"cannot sample {count} indices from population {population}"
            )
        return sorted(self._rng.sample(range(population), count))

    def choice(self, items: Sequence[_T]) -> _T:
        """Return one uniformly random element of ``items``."""
        if not items:
            raise ValidationError("cannot choose from an empty sequence")
        return self._rng.choice(items)

    def bytes(self, length: int) -> bytes:
        """Return ``length`` random bytes."""
        if length < 0:
            raise ValidationError(f"length must be non-negative, got {length}")
        return self._rng.getrandbits(8 * length).to_bytes(length, "big") if length else b""
