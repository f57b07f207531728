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

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import obs
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
        ``e^q mod p`` test).  The naive ``pow`` test is retained as the
        reference and used when the hot path is disabled; both agree on
        every input (``p ≡ 3 mod 4``, so ``-1`` is a non-residue and
        ``p - 1`` is correctly excluded by either test).
        """
        if not 0 < element < self.p:
            return False
        if fastpath.enabled():
            return jacobi_symbol(element, self.p) == 1
        return pow(element, self.q, self.p) == 1

    def exp(self, base: int, exponent: int) -> int:
        """Return ``base ** exponent mod p`` on the active bignum backend.

        gmpy2's ``powmod`` is several times faster than CPython ``pow``
        at these sizes; the python backend is ``pow`` itself.
        """
        return fastpath.get_backend().powmod(base, exponent % self.q, self.p)

    def exp_g(self, exponent: int) -> int:
        """Return ``g ** exponent mod p`` via a cached fixed-base table.

        The OT protocols compute ``g^r`` for every setup, choice and
        transfer; a windowed precomputation table for the fixed base ``g``
        cuts that cost ~10x (see ``bench_hotpath_arith``).  The table is
        built lazily on first use and cached per parameter set.  When
        the hot path is disabled this falls back to the naive ``pow``
        reference; both produce identical group elements.
        """
        reduced = exponent % self.q
        if not fastpath.enabled():
            return pow(self.g, reduced, self.p)
        return self.fixed_base_table().power(reduced)

    def fixed_base_table(self) -> "FixedBaseTable":
        """The cached windowed table for the generator ``g``.

        Keyed by the parameter triple ``(p, q, g)`` in a bounded LRU:
        keying by ``id(self)`` (as earlier revisions did) both leaked
        entries for freed groups and could serve a *stale table* if a
        freed group's id was reused by a new group with different
        parameters.  Equal parameter sets now share one table
        regardless of instance identity.
        """
        key = (self.p, self.q, self.g)
        table = _FIXED_BASE_TABLES.get(key)
        if table is None:
            started = time.perf_counter()
            table = FixedBaseTable(self.g, self.p, self.q.bit_length())
            elapsed = time.perf_counter() - started
            _TABLE_STATS["builds"] += 1
            _TABLE_STATS["build_seconds"] += elapsed
            metrics = obs.get_metrics()
            if metrics.enabled:
                metrics.counter(
                    "repro_precompute_misses_total",
                    "Precompute-store misses that forced a live build",
                ).inc(kind="fixed-base-table")
                metrics.histogram(
                    "repro_precompute_build_seconds",
                    "Time spent building precompute material on a miss",
                ).observe(elapsed, kind="fixed-base-table")
            _FIXED_BASE_TABLES[key] = table
            while len(_FIXED_BASE_TABLES) > _FIXED_BASE_TABLE_CAP:
                try:
                    _FIXED_BASE_TABLES.popitem(last=False)
                except KeyError:
                    break  # another thread emptied the cache under us
        else:
            # Hot path (once per exp_g): a plain dict bump only — the
            # metrics registry is consulted on misses, never on hits.
            _TABLE_STATS["hits"] += 1
            try:
                _FIXED_BASE_TABLES.move_to_end(key)
            except KeyError:
                pass  # concurrently evicted; the table in hand stays valid
        return table

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
        return self.exp_g(self.random_exponent(rng))

    @property
    def element_bytes(self) -> int:
        """Bytes needed to encode one group element."""
        return (self.p.bit_length() + 7) // 8

    def encode_element(self, element: int) -> bytes:
        """Fixed-width big-endian encoding of a group element."""
        if not 0 < element < self.p:
            raise ValidationError("element out of range for encoding")
        return element.to_bytes(self.element_bytes, "big")


#: Cache of generator fixed-base tables, keyed by the group parameter
#: triple ``(p, q, g)`` — never by object identity, which can be reused
#: after a group is freed.  Bounded LRU; frozen dataclasses cannot hold
#: mutable state, so the cache lives module-side.
_FIXED_BASE_TABLES: "OrderedDict" = OrderedDict()
_FIXED_BASE_TABLE_CAP = 16

#: Process-local generator-table cache statistics.  Kept as a plain
#: dict (not metrics instruments) because the hit counter is bumped on
#: every ``exp_g`` — the precompute service exports these into the
#: registry at convenient boundaries (engine drain, ``repro observe``).
_TABLE_STATS: Dict[str, float] = {"hits": 0, "builds": 0, "build_seconds": 0.0}


def fixed_base_table_stats() -> Dict[str, float]:
    """Snapshot of the generator-table cache counters (hits/builds)."""
    return dict(_TABLE_STATS)


def reset_fixed_base_table_stats() -> None:
    """Zero the cache counters (engine workers call this after fork,
    so inherited parent-side builds are not charged to the worker)."""
    _TABLE_STATS["hits"] = 0
    _TABLE_STATS["builds"] = 0
    _TABLE_STATS["build_seconds"] = 0.0


def cached_table_keys() -> List[tuple]:
    """The ``(p, q, g)`` triples currently warm in the table cache."""
    return list(_FIXED_BASE_TABLES.keys())


def export_fixed_base_tables(
    keys: Optional[Sequence[tuple]] = None,
) -> List[dict]:
    """Serialize cached generator tables for another process.

    Rows are lowered to plain ints, so the blob is picklable and
    backend-independent; ``keys`` filters to specific ``(p, q, g)``
    triples (the engine ships only its own group, not every cached
    table).
    """
    wanted = set(keys) if keys is not None else None
    exported = []
    for key, table in _FIXED_BASE_TABLES.items():
        if wanted is not None and key not in wanted:
            continue
        p, q, g = key
        exported.append(
            {
                "p": p,
                "q": q,
                "g": g,
                "window": table.window,
                "rows": table.to_rows(),
            }
        )
    return exported


def install_fixed_base_tables(blobs: Sequence[dict]) -> int:
    """Install serialized tables into this process's cache.

    Existing entries win (a worker forked from a warm parent already
    holds the identical table); returns the number actually installed.
    """
    installed = 0
    for blob in blobs:
        key = (blob["p"], blob["q"], blob["g"])
        if key in _FIXED_BASE_TABLES:
            continue
        _FIXED_BASE_TABLES[key] = FixedBaseTable.from_rows(
            blob["p"], blob["window"], blob["rows"]
        )
        installed += 1
        while len(_FIXED_BASE_TABLES) > _FIXED_BASE_TABLE_CAP:
            try:
                _FIXED_BASE_TABLES.popitem(last=False)
            except KeyError:
                break
    return installed


class FixedBaseTable:
    """Windowed fixed-base exponentiation.

    Precomputes ``base^(d * 2^(w*i))`` for every window position ``i``
    and digit ``d``; a subsequent exponentiation is then just one
    modular multiplication per nonzero window — no squarings.  With the
    default window of 8 a 255-bit exponentiation is ≤32 multiplications
    (vs ~320 multiplication-equivalents inside C ``pow``), ~10x faster
    once the one-time table build is amortized.
    """

    def __init__(self, base: int, modulus: int, exponent_bits: int, window: int = 8):
        if window < 1:
            raise ValidationError(f"window must be at least 1, got {window}")
        self.modulus = modulus
        self.window = window
        self.windows = (exponent_bits + window - 1) // window
        self._table = []
        # Table entries are held in the backend-native representation
        # (mpz under gmpy2, plain int under python): the per-window
        # multiplications in ``power`` then run on native values
        # with operator syntax — no per-multiply dispatch overhead —
        # and the result is lowered to int exactly once on return.
        lift = fastpath.get_backend().mpz
        native_modulus = lift(modulus)
        radix = 1 << window
        block_base = lift(base % modulus)
        one = lift(1)
        for _ in range(self.windows):
            row = [one] * radix
            for digit in range(1, radix):
                row[digit] = (row[digit - 1] * block_base) % native_modulus
            self._table.append(row)
            block_base = (row[radix - 1] * block_base) % native_modulus

    def to_rows(self) -> List[List[int]]:
        """The precomputed rows as plain ints (picklable, backend-free)."""
        return [[int(entry) for entry in row] for row in self._table]

    @classmethod
    def from_rows(
        cls, modulus: int, window: int, rows: Sequence[Sequence[int]]
    ) -> "FixedBaseTable":
        """Rebuild a table from :meth:`to_rows` output without recomputing."""
        table = cls.__new__(cls)
        table.modulus = modulus
        table.window = window
        table.windows = len(rows)
        lift = fastpath.get_backend().mpz
        table._table = [[lift(entry) for entry in row] for row in rows]
        return table

    def power(self, exponent: int) -> int:
        """Return ``base ** exponent mod modulus``."""
        if exponent < 0:
            raise ValidationError("exponent must be non-negative")
        result = 1
        mask = (1 << self.window) - 1
        position = 0
        modulus = self.modulus
        table = self._table
        while exponent and position < self.windows:
            digit = exponent & mask
            if digit:
                result = (result * table[position][digit]) % modulus
            exponent >>= self.window
            position += 1
        if exponent:
            raise ValidationError("exponent exceeds the precomputed range")
        # Lower back to int: table entries may be backend-native (mpz).
        return int(result)


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
