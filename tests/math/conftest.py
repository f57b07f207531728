"""Backend matrix for the math differential/property suites.

Every test in this directory runs once per available bignum backend
(:mod:`repro.math.fastpath.backends`): the pure-Python oracle always,
gmpy2 when importable and the ctypes ``gmp`` backend when libgmp
loads (each skipped otherwise).  Bit-identity between
backends is thereby enforced by the *entire* suite, not just by the
dedicated cross-backend tests in ``test_backends.py``.
"""

from __future__ import annotations

import pytest

from repro.math.fastpath import backends


def _backend_params():
    params = [pytest.param("python", id="be-python")]
    for name, available in (
        ("gmpy2", backends.gmpy2_available),
        ("gmp", backends.gmp_available),
    ):
        params.append(
            pytest.param(
                name,
                id=f"be-{name}",
                marks=pytest.mark.skipif(
                    not available(), reason=f"{name} backend not available"
                ),
            )
        )
    return params


@pytest.fixture(params=_backend_params(), autouse=True)
def bignum_backend(request):
    """Run the test under each backend, restoring the previous one."""
    with backends.use_backend(request.param):
        yield request.param
