"""Prime-order Schnorr subgroups of ``Z_p^*``.

The Naor–Pinkas oblivious transfer (:mod:`repro.crypto.ot`) works in a
cyclic group where the Decisional Diffie–Hellman problem is assumed
hard.  We use the order-``q`` subgroup of ``Z_p^*`` for a safe prime
``p = 2q + 1``: squaring maps any element into the subgroup, membership
is testable, and all arithmetic is plain modular exponentiation.

Parameter sizes here are tunable: tests and benchmarks use small groups
(128–256 bit) for speed; :func:`default_group` offers a precomputed
512-bit group.  A deployment would use ≥2048-bit parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ValidationError
from repro.math import fastpath
from repro.math.numtheory import (
    generate_safe_prime,
    is_probable_prime,
    jacobi_symbol,
    modular_inverse,
)
from repro.utils.rng import ReproRandom
from repro.utils.serialization import register_payload_type


@register_payload_type("math/schnorr-group")
@dataclass(frozen=True)
class SchnorrGroup:
    """A prime-order-``q`` subgroup of ``Z_p^*`` with ``p = 2q + 1``.

    Attributes
    ----------
    p:
        Safe prime modulus.
    q:
        Subgroup order, ``(p - 1) // 2``.
    g:
        Generator of the order-``q`` subgroup.
    """

    p: int
    q: int
    g: int

    def __post_init__(self) -> None:
        if self.p != 2 * self.q + 1:
            raise ValidationError("p must equal 2q + 1")
        if not is_probable_prime(self.p) or not is_probable_prime(self.q):
            raise ValidationError("p and q must both be prime")
        if not self.contains(self.g) or self.g == 1:
            raise ValidationError("g must generate the order-q subgroup")

    # -- group operations ----------------------------------------------------

    def contains(self, element: int) -> bool:
        """True when ``element`` lies in the order-``q`` subgroup.

        For a safe prime ``p = 2q + 1`` the order-``q`` subgroup is
        exactly the set of quadratic residues, so membership is a
        Jacobi-symbol computation (gcd-like, ~5x cheaper than the
        ``e^q mod p`` test, which the tests keep as the oracle; the two
        agree on every input, and ``p ≡ 3 mod 4`` makes ``-1`` a
        non-residue, so ``p - 1`` is excluded by either).  Anything that
        is not an ``int`` — ``bool``, ``Fraction``, ``float``, ``str`` —
        is not an element, so a decoded hostile value is refused here
        rather than failing inside the arithmetic.
        """
        if not isinstance(element, int) or isinstance(element, bool):
            return False
        if not 0 < element < self.p:
            return False
        return jacobi_symbol(element, self.p) == 1

    def exp(self, base: int, exponent: int) -> int:
        """Return ``base ** exponent mod p`` on the active bignum backend.

        The exponent is reduced mod ``q`` first, so a negative exponent
        such as ``-r·c`` yields the inverse power.  Every public-key
        operation of the OT layer, ``g^r`` included, is one call here.
        GMP's ``powm`` (gmpy2 or the ctypes ``gmp`` backend) is several
        times faster than CPython ``pow`` at these sizes; the python
        backend is ``pow`` itself.
        """
        return fastpath.get_backend().powmod(base, exponent % self.q, self.p)

    def mul(self, a: int, b: int) -> int:
        """Group multiplication."""
        return (a * b) % self.p

    def inv(self, element: int) -> int:
        """Group inverse."""
        return modular_inverse(element, self.p)

    def div(self, a: int, b: int) -> int:
        """Return ``a / b`` in the group."""
        return self.mul(a, self.inv(b))

    def random_exponent(self, rng: ReproRandom) -> int:
        """Uniform exponent in ``[1, q - 1]``."""
        return rng.randint(1, self.q - 1)

    def random_element(self, rng: ReproRandom) -> int:
        """Uniform non-identity subgroup element."""
        return self.exp(self.g, self.random_exponent(rng))

    @property
    def element_bytes(self) -> int:
        """Bytes needed to encode one group element."""
        return (self.p.bit_length() + 7) // 8

    def encode_element(self, element: int) -> bytes:
        """Fixed-width big-endian encoding of a group element."""
        if not 0 < element < self.p:
            raise ValidationError("element out of range for encoding")
        return element.to_bytes(self.element_bytes, "big")


def generate_group(bits: int, rng: Optional[ReproRandom] = None) -> SchnorrGroup:
    """Generate a fresh Schnorr group with a ``bits``-bit safe prime."""
    rng = rng or ReproRandom()
    p = generate_safe_prime(bits, rng)
    q = (p - 1) // 2
    # Squaring any element lands in the order-q subgroup; avoid the identity.
    while True:
        h = rng.randint(2, p - 2)
        g = pow(h, 2, p)
        if g != 1:
            return SchnorrGroup(p=p, q=q, g=g)


# Precomputed safe primes so callers do not pay generation cost at
# import time.  p = 2q + 1 with p, q prime; g = 4 = 2^2 is a quadratic
# residue and therefore generates the order-q subgroup.  Both were
# produced by generate_safe_prime(bits, ReproRandom(2016)).
_P_256 = int(
    "1018899632155406837894638751842396378426563141714804843979959701573"
    "83394629547"
)
_P_512 = int(
    "9089552301755067186032138780513399388424399611891803208602136417393"
    "3068515444526490970966502044340050389091891670009972740985952578658"
    "40989330835240449059"
)
_CACHED: dict = {}


def _cached_group(p: int) -> SchnorrGroup:
    group = _CACHED.get(p)
    if group is None:
        group = SchnorrGroup(p=p, q=(p - 1) // 2, g=4)
        _CACHED[p] = group
    return group


def default_group() -> SchnorrGroup:
    """Return a shared 512-bit group (lazily verified on first use)."""
    return _cached_group(_P_512)


def fast_group() -> SchnorrGroup:
    """Return a shared 256-bit group — fast, for tests and benchmarks."""
    return _cached_group(_P_256)


def small_test_group() -> SchnorrGroup:
    """A tiny (64-bit) group for fast unit tests — NOT secure."""
    rng = ReproRandom(2016)
    return generate_group(64, rng)
