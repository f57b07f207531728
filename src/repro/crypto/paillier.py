"""The Paillier additively homomorphic cryptosystem.

Used as the **baseline comparator**: related work [15] (Rahulamathavan
et al.) evaluates SVM decision functions in the encrypted domain with
Paillier, the approach the paper argues "introduces too much complexity
for the computations".  ``benchmarks/bench_baseline_paillier.py``
quantifies that claim against the OMPE-based protocol.

Standard textbook Paillier with the ``g = n + 1`` simplification:

* public key ``n = p*q``; encryption of ``m`` is
  ``(1 + n)^m * r^n mod n^2`` for random unit ``r``;
* decryption uses ``λ = lcm(p-1, q-1)`` and ``L(x) = (x - 1) / n``.

Homomorphisms: ``E(a) * E(b) = E(a + b)`` and ``E(a)^k = E(k a)``.
Fixed-point encoding maps signed rationals onto ``Z_n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from repro.exceptions import DecryptionError, KeyGenerationError, ValidationError
from repro.math import fastpath
from repro.math.numtheory import generate_prime, lcm, modular_inverse
from repro.utils.rng import ReproRandom


Number = Union[int, float, Fraction]

#: Default fixed-point scaling factor for encoding reals.
DEFAULT_PRECISION = 10**8


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public key: modulus ``n`` (with cached ``n^2``)."""

    n: int

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    def encrypt_raw(
        self,
        message: int,
        rng: ReproRandom,
        pool: Optional["RandomizerPool"] = None,
    ) -> int:
        """Encrypt an integer already reduced into ``Z_n``.

        ``pool`` optionally supplies a precomputed ``r^n`` randomizer
        (see :class:`RandomizerPool`); the pool draws its ``r`` values
        from the same rng in the same order, so pooled and unpooled
        encryption of the same message sequence yield identical
        ciphertexts.
        """
        if not 0 <= message < self.n:
            raise ValidationError("message out of range for modulus")
        n_sq = self.n_squared
        if pool is not None:
            randomizer = pool.take()
        else:
            r = rng.randrange_coprime(self.n)
            randomizer = fastpath.get_backend().powmod(r, self.n, n_sq)
        # (1 + n)^m = 1 + m*n (mod n^2) — the g = n + 1 shortcut.
        g_m = (1 + message * self.n) % n_sq
        return (g_m * randomizer) % n_sq

    def add(self, ciphertext_a: int, ciphertext_b: int) -> int:
        """Homomorphic addition of plaintexts."""
        return (ciphertext_a * ciphertext_b) % self.n_squared

    def multiply_plain(self, ciphertext: int, scalar: int) -> int:
        """Homomorphic multiplication by a plaintext integer."""
        powmod = fastpath.get_backend().powmod
        if scalar < 0:
            inverse = modular_inverse(ciphertext, self.n_squared)
            return powmod(inverse, -scalar, self.n_squared)
        return powmod(ciphertext, scalar, self.n_squared)


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Private key ``(λ, μ)`` bound to its public key.

    When the prime factors ``p`` and ``q`` are retained (the default
    for keys from :func:`generate_keypair`), decryption runs through
    the standard CRT split — two half-size exponentiations modulo
    ``p²`` and ``q²`` instead of one full-size exponentiation modulo
    ``n²``, ~3-4x faster and bit-identical on every decryptable
    ciphertext.  Keys built without factors (``p = q = None``) use the
    textbook ``λ``-based path.
    """

    public_key: PaillierPublicKey
    lam: int
    mu: int
    p: Optional[int] = None
    q: Optional[int] = None

    def decrypt_raw(self, ciphertext: int) -> int:
        """Decrypt to an integer in ``Z_n``."""
        n = self.public_key.n
        n_sq = self.public_key.n_squared
        if not 0 < ciphertext < n_sq:
            raise DecryptionError("ciphertext out of range")
        if self.p is not None and self.q is not None:
            return self._decrypt_crt(ciphertext)
        x = fastpath.get_backend().powmod(ciphertext, self.lam, n_sq)
        if (x - 1) % n != 0:
            raise DecryptionError("ciphertext is not a valid Paillier encryption")
        return ((x - 1) // n * self.mu) % n

    @cached_property
    def _crt_constants(self) -> Tuple[Tuple[Tuple[int, int, int], ...], int]:
        """``((s, s², h_s) for s in (p, q))`` and ``q⁻¹ mod p``.

        They depend on the key alone, so each key computes them once
        instead of paying three modular inversions per decryption.
        """
        p, q, n = self.p, self.q, self.public_key.n
        primes = tuple(
            (prime, prime * prime, modular_inverse(-(n // prime) % prime, prime))
            for prime in (p, q)
        )
        return primes, modular_inverse(q, p)

    def _decrypt_crt(self, ciphertext: int) -> int:
        """CRT decryption: recover ``m mod p`` and ``m mod q`` separately.

        For prime factor ``s``, ``L_s(c^{s-1} mod s²) · h_s mod s``
        equals ``m mod s`` with ``L_s(x) = (x - 1) / s`` and
        ``h_s = (-n/s)^{-1} mod s`` (the ``g = n + 1`` simplification).
        The same validity condition as the textbook path applies:
        ``c^{s-1} ≡ 1 (mod s)`` for units, so a non-unit ciphertext is
        rejected exactly as the ``λ`` path rejects it.  Garner's step
        ``m = m_q + q·((m_p − m_q)·q⁻¹ mod p)`` recombines the two.
        """
        primes, q_inverse = self._crt_constants
        powmod = fastpath.get_backend().powmod
        residues: List[int] = []
        for prime, prime_sq, h in primes:
            x = powmod(ciphertext, prime - 1, prime_sq)
            if (x - 1) % prime != 0:
                raise DecryptionError("ciphertext is not a valid Paillier encryption")
            residues.append((x - 1) // prime % prime * h % prime)
        m_p, m_q = residues
        return m_q + self.q * ((m_p - m_q) * q_inverse % self.p)


def generate_keypair(
    bits: int = 512, rng: Optional[ReproRandom] = None
) -> Tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Generate a Paillier keypair with an ``n`` of roughly ``bits`` bits."""
    if bits < 16:
        raise KeyGenerationError(f"modulus of {bits} bits is too small")
    rng = rng or ReproRandom()
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p != q:
            break
    n = p * q
    lam = lcm(p - 1, q - 1)
    # μ = (L(g^λ mod n²))⁻¹ = λ⁻¹ mod n for g = n + 1.
    mu = modular_inverse(lam, n)
    public = PaillierPublicKey(n=n)
    return public, PaillierPrivateKey(public_key=public, lam=lam, mu=mu, p=p, q=q)


class RandomizerPool:
    """Precomputed ``r^n`` randomizers for Paillier encryption.

    The ``r^n mod n²`` exponentiation dominates encryption cost and is
    independent of the message, so it can be hoisted into an offline
    phase and amortized across a batch — the PINFER-style randomizer
    precomputation.  The pool draws its ``r`` values from the caller's
    rng in encryption order, so the ``i``-th pooled encryption uses
    exactly the randomizer the ``i``-th unpooled encryption would have
    drawn: ciphertext streams are identical.  It is the private pool
    behind ``PaillierCipher(pool_batch=...)``, which the Paillier
    baseline benchmarks use; nothing shares it across threads or
    processes.
    """

    def __init__(
        self, public_key: PaillierPublicKey, rng: ReproRandom, batch: int = 32
    ) -> None:
        if batch < 1:
            raise ValidationError(f"batch must be at least 1, got {batch}")
        self.public_key = public_key
        self._rng = rng
        self._batch = batch
        self._ready: List[int] = []
        self.precomputed_total = 0

    def refill(self, count: Optional[int] = None) -> None:
        """Precompute ``count`` (default: one batch of) randomizers."""
        count = self._batch if count is None else count
        n = self.public_key.n
        n_sq = self.public_key.n_squared
        powmod = fastpath.get_backend().powmod
        fresh = [
            powmod(self._rng.randrange_coprime(n), n, n_sq) for _ in range(count)
        ]
        fresh.reverse()  # take() pops from the end, oldest first
        self._ready[:0] = fresh
        self.precomputed_total += count

    def take(self) -> int:
        """Pop the next randomizer, refilling the pool when empty."""
        if not self._ready:
            self.refill()
        return self._ready.pop()

    @property
    def available(self) -> int:
        """Randomizers currently precomputed and unused."""
        return len(self._ready)


class FixedPointCodec:
    """Signed fixed-point encoding of rationals into ``Z_n``.

    Values ``v`` map to ``round(v * precision) mod n``; anything above
    ``n // 2`` decodes as negative.  Homomorphic sums of ``k`` products
    remain decodable while ``|Σ a_i b_i| * precision² < n / 2``.
    """

    def __init__(self, public_key: PaillierPublicKey, precision: int = DEFAULT_PRECISION):
        if precision <= 0:
            raise ValidationError(f"precision must be positive, got {precision}")
        self.public_key = public_key
        self.precision = precision

    def encode(self, value: Number) -> int:
        """Encode a signed rational as an element of ``Z_n``."""
        scaled = round(Fraction(value) * self.precision)
        if abs(scaled) >= self.public_key.n // 2:
            raise ValidationError("value overflows the fixed-point range")
        return scaled % self.public_key.n

    def decode(self, element: int, scale_power: int = 1) -> Fraction:
        """Decode from ``Z_n``; ``scale_power`` counts plain multiplications."""
        n = self.public_key.n
        element %= n
        signed = element - n if element > n // 2 else element
        return Fraction(signed, self.precision**scale_power)


class PaillierCipher:
    """Convenience wrapper pairing keys with a fixed-point codec."""

    def __init__(
        self,
        public_key: PaillierPublicKey,
        private_key: Optional[PaillierPrivateKey] = None,
        precision: int = DEFAULT_PRECISION,
        rng: Optional[ReproRandom] = None,
        pool_batch: Optional[int] = None,
    ) -> None:
        self.public_key = public_key
        self.private_key = private_key
        self.codec = FixedPointCodec(public_key, precision)
        self._rng = rng or ReproRandom()
        self.pool: Optional[RandomizerPool] = None
        if pool_batch is not None:
            self.pool = RandomizerPool(public_key, self._rng, batch=pool_batch)

    def encrypt(self, value: Number) -> int:
        """Encrypt a signed rational (fixed-point).

        With a randomizer pool configured (``pool_batch``), the ``r^n``
        work is taken from the precomputed pool; the ciphertext stream
        is identical to the unpooled one on the same rng seed.
        """
        return self.public_key.encrypt_raw(
            self.codec.encode(value), self._rng, pool=self.pool
        )

    def decrypt(self, ciphertext: int, scale_power: int = 1) -> Fraction:
        """Decrypt to a signed rational."""
        if self.private_key is None:
            raise DecryptionError("no private key available")
        return self.codec.decode(self.private_key.decrypt_raw(ciphertext), scale_power)

    def add(self, ciphertext_a: int, ciphertext_b: int) -> int:
        """Homomorphic plaintext addition."""
        return self.public_key.add(ciphertext_a, ciphertext_b)

    def multiply_plain(self, ciphertext: int, value: Number) -> int:
        """Homomorphic multiplication by a plaintext rational.

        The plaintext is fixed-point encoded, so the result carries one
        extra ``precision`` factor (``scale_power=2`` on decryption).
        """
        scaled = round(Fraction(value) * self.codec.precision)
        return self.public_key.multiply_plain(ciphertext, scaled)
