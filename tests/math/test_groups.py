"""Tests for Schnorr groups."""

from fractions import Fraction

import pytest

from repro.exceptions import ValidationError
from repro.math import fastpath
from repro.math.groups import (
    SchnorrGroup,
    default_group,
    fast_group,
    generate_group,
)
from repro.utils.rng import ReproRandom


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

    def test_generate_group_small(self):
        group = generate_group(32, ReproRandom(3))
        assert group.p.bit_length() == 32
        assert group.contains(group.g)


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

    def test_inverse(self, group, rng):
        x = group.random_element(rng)
        assert group.mul(x, group.inv(x)) == 1

    def test_div(self, group, rng):
        x = group.random_element(rng)
        y = group.random_element(rng)
        assert group.mul(group.div(x, y), y) == x

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
        with fastpath.naive_arithmetic():
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


class TestFixedBase:
    def test_exp_g_matches_pow(self, group, rng):
        for _ in range(30):
            exponent = group.random_exponent(rng)
            assert group.exp_g(exponent) == pow(group.g, exponent, group.p)

    def test_exp_g_zero_and_one(self, group):
        assert group.exp_g(0) == 1
        assert group.exp_g(1) == group.g

    def test_exp_g_reduces_mod_q(self, group, rng):
        exponent = group.random_exponent(rng)
        assert group.exp_g(exponent + group.q) == group.exp_g(exponent)

    def test_table_direct(self, group, rng):
        from repro.math.groups import FixedBaseTable

        table = FixedBaseTable(group.g, group.p, group.q.bit_length(), window=4)
        for _ in range(10):
            exponent = group.random_exponent(rng)
            assert table.power(exponent) == pow(group.g, exponent, group.p)

    def test_table_rejects_negative(self, group):
        from repro.math.groups import FixedBaseTable

        table = FixedBaseTable(group.g, group.p, 16)
        with pytest.raises(ValidationError):
            table.power(-1)

    def test_table_rejects_oversize(self, group):
        from repro.math.groups import FixedBaseTable

        table = FixedBaseTable(group.g, group.p, 8)
        with pytest.raises(ValidationError):
            table.power(1 << 20)

    def test_table_rejects_bad_window(self, group):
        from repro.math.groups import FixedBaseTable

        with pytest.raises(ValidationError):
            FixedBaseTable(group.g, group.p, 16, window=0)

    def test_table_speedup(self, group, rng):
        import time

        exponents = [group.random_exponent(rng) for _ in range(200)]
        group.exp_g(exponents[0])  # warm the cache
        start = time.perf_counter()
        for exponent in exponents:
            pow(group.g, exponent, group.p)
        pow_time = time.perf_counter() - start
        start = time.perf_counter()
        for exponent in exponents:
            group.exp_g(exponent)
        table_time = time.perf_counter() - start
        assert table_time < pow_time
