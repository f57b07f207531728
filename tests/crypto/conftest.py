"""Backend matrix for the crypto differential/property suites.

Mirror of ``tests/math/conftest.py``: every OT/Paillier/hashing test
runs under each available bignum backend, pinning transcript- and
ciphertext-level bit-identity between the pure-Python oracle and the
GMP backends (gmpy2, and ``gmp`` over the system libgmp; each skipped
when it is not available).
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
