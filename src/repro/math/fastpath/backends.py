"""Pluggable bignum backends for the hot-path arithmetic engine.

The hot paths (fixed-base tables, Montgomery batch inversion, Jacobi
membership, Paillier CRT / ``r^n`` randomizers) all bottom out in a
handful of bignum primitives.  This module abstracts them behind a
:class:`BignumBackend` protocol with two implementations:

* :class:`PythonBackend` — plain CPython integers.  This is the
  **bit-identity oracle**: its outputs define correct behaviour, and
  the differential suites compare every other backend against it.
* :class:`Gmpy2Backend` — GMP via ``gmpy2`` (``pip install .[fast]``),
  auto-selected when importable.  Every result is lowered back to a
  Python ``int`` before it leaves the backend, so value *types* on the
  wire, in transcripts, and in serialized payloads are identical to the
  oracle's.

Selection order:

1. ``REPRO_BIGNUM_BACKEND`` environment variable (``python`` or
   ``gmpy2``) — explicit, and **loud** when the requested backend is
   not importable (CI legs must never silently fall back);
2. ``gmpy2`` when importable;
3. ``python`` otherwise.

:mod:`repro.math.numtheory` (``modular_inverse``, ``jacobi_symbol``,
Miller–Rabin), :meth:`repro.math.groups.SchnorrGroup.exp` and the
Paillier cipher's modular exponentiations dispatch into the active
backend unconditionally, so :class:`PythonBackend` holds the one
pure-Python copy of those algorithms;
:func:`repro.math.fastpath.naive_arithmetic` does not change which
backend runs them.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator, Tuple

try:  # Python < 3.8 has no typing.Protocol; the ABC is documentation only
    from typing import Protocol
except ImportError:  # pragma: no cover - ancient interpreters
    Protocol = object  # type: ignore[assignment]

from repro.exceptions import ValidationError


class BignumBackend(Protocol):
    """The primitive set every bignum backend must provide.

    All integer arguments are Python ``int``; all *returned values* are
    Python ``int`` (never a backend-native type), except :meth:`mpz`
    which deliberately lifts into the backend's native representation
    for long product chains — lower with :meth:`to_int` before the
    value escapes.
    """

    name: str

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        """``base ** exponent mod modulus`` (CPython ``pow`` semantics)."""

    def invert(self, value: int, modulus: int) -> int:
        """Modular inverse; raises :class:`ValidationError` when none exists."""

    def mul_mod(self, a: int, b: int, modulus: int) -> int:
        """``a * b mod modulus``."""

    def jacobi(self, a: int, n: int) -> int:
        """Jacobi symbol ``(a | n)`` for odd positive ``n``."""

    def mpz(self, value: int):
        """Lift an int into the backend-native type (identity for python)."""

    def to_int(self, value) -> int:
        """Lower a backend-native value back to a Python ``int``."""


class PythonBackend:
    """Pure-CPython backend — the bit-identity correctness oracle.

    Its inverse and Jacobi implementations are the ones
    :func:`repro.math.numtheory.modular_inverse` and
    :func:`repro.math.numtheory.jacobi_symbol` run on this backend; the
    gmpy2 backend raises the same error messages.
    """

    name = "python"

    @staticmethod
    def powmod(base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    @staticmethod
    def invert(value: int, modulus: int) -> int:
        if modulus <= 1:
            raise ValidationError(f"modulus must exceed 1, got {modulus}")
        old_r, r = value % modulus, modulus
        old_s, s = 1, 0
        while r:
            quotient = old_r // r
            old_r, r = r, old_r - quotient * r
            old_s, s = s, old_s - quotient * s
        if old_r != 1:
            raise ValidationError(f"{value} is not invertible modulo {modulus}")
        return old_s % modulus

    @staticmethod
    def mul_mod(a: int, b: int, modulus: int) -> int:
        return (a * b) % modulus

    @staticmethod
    def jacobi(a: int, n: int) -> int:
        if n <= 0 or n % 2 == 0:
            raise ValidationError(f"Jacobi symbol requires odd positive n, got {n}")
        a %= n
        result = 1
        while a:
            while a % 2 == 0:
                a //= 2
                if n & 7 in (3, 5):
                    result = -result
            a, n = n, a
            if a & 3 == 3 and n & 3 == 3:
                result = -result
            a %= n
        return result if n == 1 else 0

    @staticmethod
    def mpz(value: int) -> int:
        return value

    @staticmethod
    def to_int(value) -> int:
        return int(value)


class Gmpy2Backend:
    """GMP-accelerated backend over an imported ``gmpy2`` module.

    Every public method lowers its result to Python ``int``; GMP error
    shapes (``ZeroDivisionError`` on non-invertible values,
    ``ValueError`` on even Jacobi moduli) are translated into the same
    :class:`ValidationError` messages the oracle raises.
    """

    name = "gmpy2"

    def __init__(self, module) -> None:
        self._gmpy2 = module
        self._mpz = module.mpz

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return int(self._gmpy2.powmod(base, exponent, modulus))

    def invert(self, value: int, modulus: int) -> int:
        if modulus <= 1:
            raise ValidationError(f"modulus must exceed 1, got {modulus}")
        try:
            inverse = self._gmpy2.invert(value % modulus, modulus)
        except ZeroDivisionError:
            raise ValidationError(
                f"{value} is not invertible modulo {modulus}"
            ) from None
        return int(inverse) % modulus

    def mul_mod(self, a: int, b: int, modulus: int) -> int:
        return int(self._mpz(a) * b % modulus)

    def jacobi(self, a: int, n: int) -> int:
        if n <= 0 or n % 2 == 0:
            raise ValidationError(f"Jacobi symbol requires odd positive n, got {n}")
        return int(self._gmpy2.jacobi(self._mpz(a), self._mpz(n)))

    def mpz(self, value: int):
        return self._mpz(value)

    @staticmethod
    def to_int(value) -> int:
        return int(value)


_PYTHON = PythonBackend()
_GMPY2: Tuple[bool, "Gmpy2Backend | None"] = (False, None)  # (probed, backend)
_LOCK = threading.Lock()


def _gmpy2_backend():
    """The gmpy2 backend, or None when the module is not importable."""
    global _GMPY2
    probed, backend = _GMPY2
    if not probed:
        with _LOCK:
            probed, backend = _GMPY2
            if not probed:
                try:
                    import gmpy2  # noqa: PLC0415 - optional accelerator
                except ImportError:
                    backend = None
                else:
                    backend = Gmpy2Backend(gmpy2)
                _GMPY2 = (True, backend)
    return backend


def gmpy2_available() -> bool:
    """True when the gmpy2 accelerator can be used in this process."""
    return _gmpy2_backend() is not None


def available_backends() -> Tuple[str, ...]:
    """Names accepted by :func:`set_backend`, oracle first."""
    if gmpy2_available():
        return ("python", "gmpy2")
    return ("python",)


def _resolve(name: str):
    normalized = name.strip().lower()
    if normalized == "python":
        return _PYTHON
    if normalized == "gmpy2":
        backend = _gmpy2_backend()
        if backend is None:
            raise ValidationError(
                "bignum backend 'gmpy2' requested but gmpy2 is not importable "
                "(install the [fast] extra)"
            )
        return backend
    raise ValidationError(
        f"unknown bignum backend {name!r} (available: python, gmpy2)"
    )


def _detect_default():
    forced = os.environ.get("REPRO_BIGNUM_BACKEND", "").strip()
    if forced:
        # Loud on purpose: a CI leg that asks for gmpy2 must fail, not
        # silently measure the oracle.
        return _resolve(forced)
    return _gmpy2_backend() or _PYTHON


_ACTIVE = _detect_default()


def get_backend() -> BignumBackend:
    """The active bignum backend (process-global)."""
    return _ACTIVE


def backend_name() -> str:
    """Name of the active backend (``python`` or ``gmpy2``)."""
    return _ACTIVE.name


def set_backend(name: str) -> BignumBackend:
    """Select the active backend by name; raises on unknown/unavailable."""
    global _ACTIVE
    _ACTIVE = _resolve(name)
    return _ACTIVE


@contextmanager
def use_backend(name: str) -> Iterator[BignumBackend]:
    """Run the enclosed block under a specific backend, then restore."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = _resolve(name)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
