"""Number-theoretic primitives for the cryptographic substrate.

Implements Miller–Rabin primality testing, prime and safe-prime
generation, modular inverses, and the Chinese Remainder Theorem — the
building blocks for the Naor–Pinkas oblivious transfer group
(:mod:`repro.math.groups`) and the Paillier cryptosystem
(:mod:`repro.crypto.paillier`).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

from repro.exceptions import KeyGenerationError, ValidationError
from repro.math import fastpath
from repro.utils.rng import ReproRandom


#: Small primes used for fast trial-division pre-screening.
_SMALL_PRIMES: Tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)

#: Deterministic Miller–Rabin witnesses valid for all n < 3.3e24.
_DETERMINISTIC_WITNESSES: Tuple[int, ...] = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: Bound below which the deterministic witness set is exact.
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def _miller_rabin_witness(candidate: int, witness: int) -> bool:
    """Return True when ``witness`` proves ``candidate`` composite."""
    if witness % candidate == 0:
        return False
    exponent = candidate - 1
    twos = 0
    while exponent % 2 == 0:
        exponent //= 2
        twos += 1
    powmod = fastpath.get_backend().powmod
    x = powmod(witness, exponent, candidate)
    if x in (1, candidate - 1):
        return False
    for _ in range(twos - 1):
        x = powmod(x, 2, candidate)
        if x == candidate - 1:
            return False
    return True


def is_probable_prime(
    candidate: int,
    rounds: int = 40,
    rng: Optional[ReproRandom] = None,
) -> bool:
    """Miller–Rabin primality test.

    Deterministic (exact) below ``3.3e24``; probabilistic with error at
    most ``4^-rounds`` above.
    """
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    if candidate < _DETERMINISTIC_BOUND:
        witnesses: Iterable[int] = _DETERMINISTIC_WITNESSES
    else:
        rng = rng or ReproRandom()
        witnesses = (rng.randint(2, candidate - 2) for _ in range(rounds))
    return not any(_miller_rabin_witness(candidate, w) for w in witnesses)


def generate_prime(bits: int, rng: ReproRandom, attempts: int = 100_000) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    if bits < 2:
        raise ValidationError(f"bits must be at least 2, got {bits}")
    for _ in range(attempts):
        candidate = rng.randbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng=rng):
            return candidate
    raise KeyGenerationError(f"no {bits}-bit prime found in {attempts} attempts")


def generate_safe_prime(bits: int, rng: ReproRandom, attempts: int = 200_000) -> int:
    """Generate a safe prime ``p = 2q + 1`` with ``p`` of ``bits`` bits.

    Safe primes give a large prime-order subgroup of ``Z_p^*`` for the
    Naor–Pinkas oblivious-transfer construction.
    """
    if bits < 5:
        raise ValidationError(f"bits must be at least 5 for a safe prime, got {bits}")
    for _ in range(attempts):
        q = rng.randbits(bits - 1) | (1 << (bits - 2)) | 1
        if not is_probable_prime(q, rng=rng):
            continue
        p = 2 * q + 1
        if is_probable_prime(p, rng=rng):
            return p
    raise KeyGenerationError(f"no {bits}-bit safe prime found in {attempts} attempts")


def modular_inverse(value: int, modulus: int) -> int:
    """Return the inverse of ``value`` modulo ``modulus``.

    Runs on the active bignum backend.  Raises :class:`ValidationError`
    when ``modulus <= 1`` or no inverse exists.
    """
    return fastpath.get_backend().invert(value, modulus)


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol ``(a | n)`` for odd ``n > 0``.

    Binary algorithm: pull out factors of two (flipping sign when
    ``n ≡ ±3 mod 8``) and apply quadratic reciprocity.  For prime ``n``
    this equals the Legendre symbol, so ``jacobi_symbol(a, p) == 1``
    tests quadratic residuosity — the fast membership test for the
    order-``q`` subgroup of ``Z_p^*`` when ``p = 2q + 1`` is a safe
    prime (the subgroup is exactly the squares).  Runs on the active
    bignum backend; raises :class:`ValidationError` unless ``n`` is odd
    and positive.
    """
    return fastpath.get_backend().jacobi(a, n)


def lcm(a: int, b: int) -> int:
    """Least common multiple (0 when either argument is 0)."""
    if a == 0 or b == 0:
        return 0
    return abs(a * b) // math.gcd(a, b)


def primes_below(bound: int) -> List[int]:
    """Sieve of Eratosthenes: all primes strictly below ``bound``."""
    if bound <= 2:
        return []
    sieve = bytearray(b"\x01") * bound
    sieve[0:2] = b"\x00\x00"
    for value in range(2, int(bound**0.5) + 1):
        if sieve[value]:
            sieve[value * value :: value] = b"\x00" * len(sieve[value * value :: value])
    return [index for index, flag in enumerate(sieve) if flag]
