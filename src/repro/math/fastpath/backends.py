"""Pluggable bignum backends for the hot-path arithmetic engine.

Group exponentiation, modular inversion, Jacobi membership and the
Paillier CRT / ``r^n`` randomizers all bottom out in three bignum
primitives: ``powmod``, ``invert`` and ``jacobi``.  This module
abstracts them behind a :class:`BignumBackend` protocol with three
implementations:

* :class:`PythonBackend` — plain CPython integers.  This is the
  **bit-identity oracle**: its outputs define correct behaviour, and
  the differential suites compare every other backend against it.
* :class:`Gmpy2Backend` — GMP via ``gmpy2`` (``pip install .[fast]``),
  auto-selected when importable.
* :class:`GmpBackend` — the system's shared GMP library (``libgmp``)
  bound through :mod:`ctypes`, auto-selected when it loads and gmpy2
  is not importable.  No extra package is needed.

Every result is lowered back to a Python ``int`` before it leaves a
backend, so value *types* on the wire, in transcripts, and in
serialized payloads are identical to the oracle's.

Selection order:

1. ``REPRO_BIGNUM_BACKEND`` environment variable (``python``, ``gmpy2``
   or ``gmp``) — explicit, and **loud** when the requested backend is
   not available (CI legs must never silently fall back);
2. ``gmpy2`` when importable;
3. ``gmp`` when libgmp loads;
4. ``python`` otherwise.

:mod:`repro.math.numtheory` (``modular_inverse``, ``jacobi_symbol``,
Miller–Rabin), :meth:`repro.math.groups.SchnorrGroup.exp` and the
Paillier cipher's modular exponentiations dispatch into the active
backend unconditionally, so :class:`PythonBackend` holds the one
pure-Python copy of those algorithms;
:func:`repro.math.fastpath.naive_arithmetic` does not change which
backend runs them.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import threading
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, Optional, Tuple

try:  # Python < 3.8 has no typing.Protocol; the ABC is documentation only
    from typing import Protocol
except ImportError:  # pragma: no cover - ancient interpreters
    Protocol = object  # type: ignore[assignment]

from repro.exceptions import ValidationError


class BignumBackend(Protocol):
    """The primitive set every bignum backend must provide.

    All integer arguments are Python ``int``; all returned values are
    Python ``int``, never a backend-native type.
    """

    name: str

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        """``base ** exponent mod modulus`` (CPython ``pow`` semantics)."""

    def invert(self, value: int, modulus: int) -> int:
        """Modular inverse; raises :class:`ValidationError` when none exists."""

    def jacobi(self, a: int, n: int) -> int:
        """Jacobi symbol ``(a | n)`` for odd positive ``n``."""


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

    def jacobi(self, a: int, n: int) -> int:
        if n <= 0 or n % 2 == 0:
            raise ValidationError(f"Jacobi symbol requires odd positive n, got {n}")
        return int(self._gmpy2.jacobi(self._mpz(a), self._mpz(n)))


class _MpzStruct(ctypes.Structure):
    """GMP's ``__mpz_struct``; an ``mpz_t`` is a one-element array of it."""

    _fields_ = [
        ("_mp_alloc", ctypes.c_int),
        ("_mp_size", ctypes.c_int),
        ("_mp_d", ctypes.c_void_p),
    ]


_MPZ_P = ctypes.POINTER(_MpzStruct)
_SIZE_T = ctypes.c_size_t


def _bind_libgmp(lib: ctypes.CDLL) -> SimpleNamespace:
    """The libgmp functions :class:`GmpBackend` calls, with prototypes.

    Each ``__gmpz_*`` symbol is returned as attribute ``mpz_*``.  Every
    ``size_t`` parameter is declared, so ctypes converts Python ints to
    the full native width instead of passing a C ``int``.  Raises
    :class:`AttributeError` when a symbol is missing.
    """
    prototypes = {
        "__gmpz_init": (None, [_MPZ_P]),
        "__gmpz_clear": (None, [_MPZ_P]),
        # mpz_import(rop, count, order, size, endian, nails, op)
        "__gmpz_import": (
            None,
            [_MPZ_P, _SIZE_T, ctypes.c_int, _SIZE_T, ctypes.c_int, _SIZE_T,
             ctypes.c_char_p],
        ),
        # mpz_export(rop, countp, order, size, endian, nails, op)
        "__gmpz_export": (
            ctypes.c_void_p,
            [ctypes.c_void_p, ctypes.POINTER(_SIZE_T), ctypes.c_int, _SIZE_T,
             ctypes.c_int, _SIZE_T, _MPZ_P],
        ),
        "__gmpz_powm": (None, [_MPZ_P, _MPZ_P, _MPZ_P, _MPZ_P]),
        "__gmpz_invert": (ctypes.c_int, [_MPZ_P, _MPZ_P, _MPZ_P]),
        "__gmpz_jacobi": (ctypes.c_int, [_MPZ_P, _MPZ_P]),
    }
    functions = SimpleNamespace()
    for symbol, (restype, argtypes) in prototypes.items():
        function = getattr(lib, symbol)
        function.restype = restype
        function.argtypes = argtypes
        setattr(functions, symbol[3:], function)
    return functions


class _Registers:
    """One thread's ``mpz_t`` scratch registers and export buffer.

    ctypes releases the GIL for the duration of every foreign call, so
    two threads may be inside libgmp at once: nothing here is shared
    between threads.  ``modulus`` caches the last modulus loaded into
    the ``mod`` register; the export buffer is sized from it, since
    every exported value is reduced below it.
    """

    def __init__(self, gmp: SimpleNamespace) -> None:
        self._structs = [_MpzStruct() for _ in range(4)]
        for struct in self._structs:
            gmp.mpz_init(struct)
        self._clear = gmp.mpz_clear
        self.base, self.exp, self.out, self.mod = (
            ctypes.byref(struct) for struct in self._structs
        )
        self.modulus: Optional[int] = None
        self.buffer = bytearray()
        self.c_buffer = None
        self.count = _SIZE_T()
        self.count_ref = ctypes.byref(self.count)

    def __del__(self) -> None:
        for struct in self._structs:
            self._clear(struct)


class GmpBackend:
    """The system libgmp through :mod:`ctypes`.

    ``powmod``, ``invert`` and ``jacobi`` run in libgmp, and no GMP
    value ever leaves the backend.  Values cross as little-endian bytes
    (``int.to_bytes`` + ``mpz_import``, ``mpz_export`` +
    ``int.from_bytes``).  Inputs outside the fast path — operands that
    are not plain ``int``, modulus ≤ 1, negative exponent, even Jacobi
    modulus — are delegated to the oracle (``pow`` itself for
    ``powmod``), so results and errors match it exactly.
    """

    name = "gmp"

    def __init__(self, gmp: SimpleNamespace) -> None:
        self._gmp = gmp
        self._import = gmp.mpz_import
        self._export = gmp.mpz_export
        self._powm = gmp.mpz_powm
        self._invert = gmp.mpz_invert
        self._jacobi = gmp.mpz_jacobi
        self._local = threading.local()

    def _registers(self, modulus: int) -> _Registers:
        """This thread's registers, with ``modulus`` loaded."""
        try:
            registers = self._local.registers
        except AttributeError:
            registers = self._local.registers = _Registers(self._gmp)
        if registers.modulus != modulus:
            self._load(registers.mod, modulus)
            size = (modulus.bit_length() + 7) >> 3
            if len(registers.buffer) < size:
                registers.buffer = bytearray(size)
                registers.c_buffer = (ctypes.c_char * size).from_buffer(
                    registers.buffer
                )
            registers.modulus = modulus
        return registers

    def _load(self, register, value: int) -> None:
        """``register = value`` for a non-negative ``int``."""
        data = value.to_bytes((value.bit_length() + 7) >> 3, "little")
        self._import(register, len(data), -1, 1, 0, 0, data)

    def _result(self, registers: _Registers) -> int:
        """The ``out`` register as a Python ``int``."""
        self._export(
            registers.c_buffer, registers.count_ref, -1, 1, 0, 0, registers.out
        )
        return int.from_bytes(registers.buffer[: registers.count.value], "little")

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        if not (
            type(base) is int
            and type(exponent) is int
            and type(modulus) is int
            and modulus > 1
            and exponent >= 0
        ):
            return pow(base, exponent, modulus)
        registers = self._registers(modulus)
        self._load(registers.base, base % modulus)
        self._load(registers.exp, exponent)
        self._powm(registers.out, registers.base, registers.exp, registers.mod)
        return self._result(registers)

    def invert(self, value: int, modulus: int) -> int:
        if not (type(value) is int and type(modulus) is int and modulus > 1):
            return PythonBackend.invert(value, modulus)
        registers = self._registers(modulus)
        self._load(registers.base, value % modulus)
        if not self._invert(registers.out, registers.base, registers.mod):
            raise ValidationError(f"{value} is not invertible modulo {modulus}")
        return self._result(registers)

    def jacobi(self, a: int, n: int) -> int:
        if not (type(a) is int and type(n) is int and n > 0 and n & 1):
            return PythonBackend.jacobi(a, n)
        registers = self._registers(n)
        self._load(registers.base, a % n)
        return self._jacobi(registers.base, registers.mod)


def _open_libgmp() -> ctypes.CDLL:
    """Load the shared GMP library; raises :class:`OSError` when absent.

    The common Linux soname is tried first: ``find_library`` may spawn
    ``ldconfig``, which would add milliseconds to every import.
    """
    try:
        return ctypes.CDLL("libgmp.so.10")
    except OSError:
        path = ctypes.util.find_library("gmp")
        if path is None:
            raise OSError("libgmp not found") from None
        return ctypes.CDLL(path)


def _load_gmpy2():
    try:
        import gmpy2  # noqa: PLC0415 - optional accelerator
    except ImportError:
        return None
    return Gmpy2Backend(gmpy2)


def _load_gmp():
    try:
        return GmpBackend(_bind_libgmp(_open_libgmp()))
    except (OSError, AttributeError):
        return None


_PYTHON = PythonBackend()
#: Optional backends in auto-detection order, with how to load each
#: and what to tell a user who forces one that does not load.
_LOADERS: Dict[str, Tuple[Callable[[], Optional[BignumBackend]], str]] = {
    "gmpy2": (_load_gmpy2, "gmpy2 is not importable (install the [fast] extra)"),
    "gmp": (_load_gmp, "the shared GMP library (libgmp) could not be loaded"),
}
_PROBED: Dict[str, Optional[BignumBackend]] = {}
_LOCK = threading.Lock()


def _probe(name: str):
    """The named optional backend, or None when it cannot load (cached)."""
    try:
        return _PROBED[name]
    except KeyError:
        pass
    with _LOCK:
        if name not in _PROBED:
            _PROBED[name] = _LOADERS[name][0]()
        return _PROBED[name]


def gmpy2_available() -> bool:
    """True when the gmpy2 accelerator can be used in this process."""
    return _probe("gmpy2") is not None


def gmp_available() -> bool:
    """True when the system libgmp loads through ctypes in this process."""
    return _probe("gmp") is not None


def available_backends() -> Tuple[str, ...]:
    """Names accepted by :func:`set_backend`, oracle first."""
    return ("python",) + tuple(name for name in _LOADERS if _probe(name))


def _resolve(name: str):
    normalized = name.strip().lower()
    if normalized == "python":
        return _PYTHON
    if normalized in _LOADERS:
        backend = _probe(normalized)
        if backend is None:
            raise ValidationError(
                f"bignum backend {normalized!r} requested but "
                f"{_LOADERS[normalized][1]}"
            )
        return backend
    raise ValidationError(
        f"unknown bignum backend {name!r} (available: python, "
        f"{', '.join(_LOADERS)})"
    )


def _detect_default():
    forced = os.environ.get("REPRO_BIGNUM_BACKEND", "").strip()
    if forced:
        # Loud on purpose: a CI leg that asks for gmpy2 or gmp must
        # fail, not silently measure the oracle.
        return _resolve(forced)
    for name in _LOADERS:
        backend = _probe(name)
        if backend is not None:
            return backend
    return _PYTHON


_ACTIVE = _detect_default()


def get_backend() -> BignumBackend:
    """The active bignum backend (process-global)."""
    return _ACTIVE


def backend_name() -> str:
    """Name of the active backend (``python``, ``gmpy2`` or ``gmp``)."""
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
