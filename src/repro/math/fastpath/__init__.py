"""Shared helpers of the exact-arithmetic hot paths.

The protocol stack runs one arithmetic: Jacobi subgroup membership and
scaled-integer evaluation of rational polynomials, which rescales the
operands onto a common denominator, works in plain integers and builds
a single ``Fraction`` at the end.  Each hot path gives the same value
and the same Python type as the ``Fraction`` operator arithmetic it
replaces, so transcripts, labels and similarity values are those of
the plain arithmetic on the same seeds.  The plain loops live on as
test-local oracles (``tests/reference.py``); ``tests/math/test_fastpath.py``
and ``tests/core/test_hotpath_differential.py`` hold the hot paths to
them, and ``benchmarks/bench_hotpath_arith.py`` times each primitive
against an inline reference.  Floats, which the polynomial classes
accept but no protocol path passes, fall through to the plain loop
via :data:`MISS`.

Modular exponentiation, inversion and the Jacobi symbol (``powmod``,
``invert``, ``jacobi``) run on the active **bignum backend**
(:mod:`repro.math.fastpath.backends`): pure CPython (the oracle), GMP
via ``gmpy2`` when importable, else GMP via the system libgmp through
ctypes (``gmp``) when it loads; any of them can be forced with
``REPRO_BIGNUM_BACKEND``.  All backends are bit-identical, and the
python backend is the one copy of those algorithms.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Tuple

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

#: Sentinel returned by fast evaluators when the input shape is not
#: rational (floats, symbolic values) and the plain loop must run.
MISS = object()


def scale_to_integers(
    values: Sequence,
) -> Optional[Tuple[Tuple[int, ...], int, bool]]:
    """Rescale rationals onto a common denominator.

    Returns ``(numerators, common_denominator, has_fraction)`` where
    ``value[i] == numerators[i] / common_denominator`` exactly, or
    ``None`` when any value is not an int/Fraction.  ``has_fraction``
    records whether any input was a :class:`Fraction` *instance* — the
    plain arithmetic's result type depends on that, not on the denominator.
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
