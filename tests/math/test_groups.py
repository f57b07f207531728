"""Tests for Schnorr groups."""

from fractions import Fraction

import pytest

from repro.exceptions import ValidationError
from repro.math.groups import (
    SchnorrGroup,
    default_group,
    fast_group,
)


class TestConstruction:
    def test_fast_group_valid(self, group):
        assert group.p == 2 * group.q + 1
        assert group.contains(group.g)

    def test_default_group_is_512_bit(self):
        assert default_group().p.bit_length() == 512

    def test_fast_group_is_256_bit(self):
        assert fast_group().p.bit_length() == 256

    def test_invalid_p_q_relation(self):
        with pytest.raises(ValidationError):
            SchnorrGroup(p=23, q=5, g=4)

    def test_composite_rejected(self):
        with pytest.raises(ValidationError):
            SchnorrGroup(p=21, q=10, g=4)

    def test_identity_generator_rejected(self):
        group = fast_group()
        with pytest.raises(ValidationError):
            SchnorrGroup(p=group.p, q=group.q, g=1)

    def test_non_subgroup_generator_rejected(self):
        group = fast_group()
        # A quadratic non-residue is outside the order-q subgroup.
        candidate = 2
        while pow(candidate, group.q, group.p) == 1:
            candidate += 1
        with pytest.raises(ValidationError):
            SchnorrGroup(p=group.p, q=group.q, g=candidate)

class TestOperations:
    def test_exponent_laws(self, group, rng):
        a = group.random_exponent(rng)
        b = group.random_exponent(rng)
        left = group.mul(group.exp(group.g, a), group.exp(group.g, b))
        right = group.exp(group.g, (a + b) % group.q)
        assert left == right

    def test_subgroup_closure(self, group, rng):
        x = group.random_element(rng)
        y = group.random_element(rng)
        assert group.contains(group.mul(x, y))

    def test_element_order_divides_q(self, group, rng):
        x = group.random_element(rng)
        assert group.exp(x, group.q) == 1

    def test_contains_rejects_outside(self, group):
        assert not group.contains(0)
        assert not group.contains(group.p)
        assert not group.contains(group.p + 5)

    @pytest.mark.parametrize(
        "element", [True, Fraction(4, 1), Fraction(3, 2), 2.5, "7", None], ids=repr
    )
    def test_contains_rejects_non_int(self, group, element):
        # True and Fraction(4, 1) equal subgroup members (1 and 4) but
        # are not group elements; the rest used to raise TypeError.
        assert group.contains(group.g)
        assert group.contains(element) is False

    def test_random_exponent_range(self, group, rng):
        for _ in range(20):
            e = group.random_exponent(rng)
            assert 1 <= e <= group.q - 1


class TestEncoding:
    def test_encode_width(self, group, rng):
        x = group.random_element(rng)
        blob = group.encode_element(x)
        assert len(blob) == group.element_bytes
        assert int.from_bytes(blob, "big") == x

    def test_encode_rejects_out_of_range(self, group):
        with pytest.raises(ValidationError):
            group.encode_element(0)
        with pytest.raises(ValidationError):
            group.encode_element(group.p)


class TestGeneratorPower:
    """``g^e`` is ``exp(g, e)``: the OT layer's only exponentiation."""

    def test_exp_generator_matches_pow(self, group, rng):
        for _ in range(30):
            exponent = group.random_exponent(rng)
            assert group.exp(group.g, exponent) == pow(group.g, exponent, group.p)

    def test_exp_generator_zero_and_one(self, group):
        assert group.exp(group.g, 0) == 1
        assert group.exp(group.g, 1) == group.g

    def test_exp_generator_reduces_mod_q(self, group, rng):
        exponent = group.random_exponent(rng)
        assert group.exp(group.g, exponent + group.q) == group.exp(group.g, exponent)

    def test_exp_generator_negative_exponent(self, group, rng):
        # The OT sender's S = g^{-r·c} is the inverse of (g^c)^r.
        r, c = group.random_exponent(rng), group.random_exponent(rng)
        step = group.exp(group.g, -r * c)
        assert step == pow(group.g, (-r * c) % group.q, group.p)
        assert group.mul(step, group.exp(group.exp(group.g, c), r)) == 1
