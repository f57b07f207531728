"""``OMPEFunction.from_polynomial`` evaluates the polynomial it was given.

``{x: 2, y: 3}`` and ``{x: Fraction(2), y: Fraction(3)}`` are equal
polynomials with one hash, yet they evaluate to different types at an
integer point (``int`` against ``Fraction``), and so to different
``encode_payload`` bytes.  A function built from either must give exactly
that polynomial's value and bytes, whichever was wrapped first.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.ompe import OMPEFunction
from repro.math.multivariate import MultivariatePolynomial
from repro.utils.serialization import encode_payload

TERMS = {
    "int": {(1, 0): 2, (0, 1): 3},
    "fraction": {(1, 0): Fraction(2), (0, 1): Fraction(3)},
}
POINTS = [(1, 1), (-4, 7), (Fraction(1, 3), 2), (Fraction(5, 2), Fraction(-1, 9))]


def test_equal_polynomials_evaluate_to_different_types():
    as_int = MultivariatePolynomial(2, TERMS["int"])
    as_fraction = MultivariatePolynomial(2, TERMS["fraction"])
    assert as_int == as_fraction and hash(as_int) == hash(as_fraction)
    assert type(as_int((1, 1))) is int
    assert type(as_fraction((1, 1))) is Fraction


@pytest.mark.parametrize("order", [("int", "fraction"), ("fraction", "int")])
def test_from_polynomial_keeps_value_types(order):
    for name in order:
        polynomial = MultivariatePolynomial(2, TERMS[name])
        function = OMPEFunction.from_polynomial(polynomial)
        for point in POINTS:
            value, expected = function(point), polynomial(point)
            assert type(value) is type(expected), (name, point)
            assert encode_payload(value) == encode_payload(expected), (name, point)
        assert function.evaluate_all(POINTS) == [polynomial(p) for p in POINTS]
