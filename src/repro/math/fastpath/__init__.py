"""Global switch and shared helpers for the hot-path arithmetic engine.

The protocol stack carries two parallel arithmetic implementations:

* the **naive reference** — the ``e^q mod p`` subgroup membership
  test and :class:`fractions.Fraction` operator arithmetic everywhere.
  This is the seed implementation, retained verbatim as the
  correctness oracle;
* the **hot path** — Jacobi membership tests and scaled-integer
  evaluation of rational polynomials that defers the single
  ``Fraction`` normalisation to the very end.

Every hot path is *output-identical* to the naive reference: same
answers out of the group layer, same (canonically normalised)
``Fraction`` values out of the polynomial layer, and therefore the same
protocol transcripts, labels, and similarity values on the same seeds.
``tests/core/test_hotpath_differential.py`` pins that guarantee and
``benchmarks/bench_hotpath_arith.py`` measures the gap.

The switch is process-global: :func:`naive_arithmetic` flips it for
the enclosed block (benchmarks and differential tests).

Underneath the switch sits a second, orthogonal axis: the **bignum
backend** (:mod:`repro.math.fastpath.backends`).  Modular
exponentiation, inversion and the Jacobi symbol (``powmod``,
``invert``, ``jacobi``) always run on the active
:class:`BignumBackend`, switch or no switch — pure CPython by default
(the oracle), GMP via ``gmpy2`` when importable, else GMP via the
system libgmp through ctypes (``gmp``) when it loads; any of them can
be forced with ``REPRO_BIGNUM_BACKEND``.  All backends are
bit-identical, and the python backend is the one copy of those
algorithms.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional, Sequence, Tuple

from repro.math.fastpath.backends import (  # noqa: F401 - re-exported API
    BignumBackend,
    GmpBackend,
    Gmpy2Backend,
    PythonBackend,
    available_backends,
    backend_name,
    get_backend,
    gmp_available,
    gmpy2_available,
    set_backend,
    use_backend,
)

_ENABLED = True


def enabled() -> bool:
    """True when the hot-path arithmetic engine is active."""
    return _ENABLED


@contextmanager
def naive_arithmetic() -> Iterator[None]:
    """Run the enclosed block on the naive reference arithmetic."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


#: Sentinel returned by fast evaluators when the input shape is not
#: rational (floats, symbolic values) and the naive path must run.
MISS = object()


def rational_parts(value) -> Optional[Tuple[int, int]]:
    """Return ``(numerator, denominator)`` for int/Fraction, else None.

    Booleans are rejected: they are ``int`` subclasses but never valid
    protocol values (serialization refuses them too).
    """
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    return None


def scale_to_integers(
    values: Sequence,
) -> Optional[Tuple[Tuple[int, ...], int, bool]]:
    """Rescale rationals onto a common denominator.

    Returns ``(numerators, common_denominator, has_fraction)`` where
    ``value[i] == numerators[i] / common_denominator`` exactly, or
    ``None`` when any value is not an int/Fraction.  ``has_fraction``
    records whether any input was a :class:`Fraction` *instance* — the
    naive path's result type depends on that, not on the denominator.
    """
    has_fraction = False
    for value in values:
        if isinstance(value, Fraction):
            has_fraction = True
        elif not isinstance(value, int) or isinstance(value, bool):
            return None
    common = lcm(*{value.denominator for value in values})
    scaled = tuple(
        value.numerator * (common // value.denominator) for value in values
    )
    return scaled, common, has_fraction
