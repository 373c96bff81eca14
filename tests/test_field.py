"""Field arithmetic against hand-computed GF(8)/GF(4) facts and cross-route checks."""

import random

import numpy as np
import pytest

from walsh_lab import (
    PRIMITIVE_POLY,
    DomainError,
    Field,
    NonInvertibleError,
    UnsupportedError,
    make_field,
    mod_inverse,
)


# GF(8) with x^3 + x + 1: alpha^3 = alpha + 1.  Powers of alpha as bitmasks:
# 1, 2, 4, 3, 6, 7, 5, then back to 1.
GF8_POWERS = [1, 2, 4, 3, 6, 7, 5]

# Tr(x) = x + x^2 + x^4 on GF(8), worked out by hand per element value.
GF8_TRACE = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1}


def random_primitive_modulus(m: int, rng: random.Random) -> int:
    """A random degree-m modulus that Field accepts as primitive."""
    while True:
        cand = (1 << m) | (rng.getrandbits(m - 1) << 1) | 1
        try:
            Field(m, cand, table_cap=1)
        except DomainError:
            continue
        return cand


class TestScalarArithmetic:
    def test_alpha_power_sequence(self):
        f = make_field(3)
        x = 1
        for expected in GF8_POWERS:
            assert x == expected
            x = f.mul(x, f.alpha)
        assert x == 1  # alpha has order 7

    def test_hand_products(self):
        f = make_field(3)
        assert f.mul(0b010, 0b100) == 0b011  # alpha * alpha^2 = alpha^3
        assert f.mul(0b110, 0b111) == 0b100  # alpha^4 * alpha^5 = alpha^9 = alpha^2
        assert f.mul(0, 0b101) == 0
        assert f.mul(1, 0b101) == 0b101

    def test_add_is_xor(self):
        f = make_field(3)
        for x in range(8):
            for y in range(8):
                assert f.add(x, y) == x ^ y

    def test_inverse(self):
        f = make_field(3)
        assert f.inv(0b010) == 0b101  # alpha^-1 = alpha^6
        for x in range(1, 8):
            assert f.mul(x, f.inv(x)) == 1
        with pytest.raises(DomainError):
            f.inv(0)

    def test_pow_edge_cases(self):
        f = make_field(3)
        assert f.pow(0, 0) == 1
        assert f.pow(0, 5) == 0
        assert f.pow(f.alpha, 7) == 1
        assert f.pow(f.alpha, -1) == f.inv(f.alpha)
        with pytest.raises(DomainError):
            f.pow(0, -2)

    def test_exp_log_roundtrip(self):
        f = make_field(5)
        for i in range(f.order):
            assert f.log_of(f.exp(i)) == i
        assert f.exp(f.order) == 1


class TestTraces:
    def test_gf8_trace_table(self):
        f = make_field(3)
        for x, tr in GF8_TRACE.items():
            assert f.trace(x) == tr

    def test_trace_matches_direct_sum(self):
        # independent route: Tr(x) = x + x^2 + ... + x^(2^(m-1)) via mul only
        f = make_field(4)
        for x in range(16):
            acc, y = 0, x
            for _ in range(4):
                acc ^= y
                y = f.mul(y, y)
            assert acc in (0, 1)
            assert f.trace(x) == acc

    def test_trace_is_additive(self):
        f = make_field(6)
        rng = random.Random(101)
        for _ in range(200):
            x, y = rng.randrange(64), rng.randrange(64)
            assert f.trace(x ^ y) == f.trace(x) ^ f.trace(y)

    def test_relative_trace_and_norm_land_in_subfield(self, field6):
        for x in range(64):
            assert field6.in_subfield(field6.trace_rel(x))
            assert field6.in_subfield(field6.norm_rel(x))

    def test_trace_transitivity(self, field6):
        # absolute trace factors through the subfield trace of the relative trace
        for x in range(64):
            assert field6.trace(x) == field6.subfield_trace(field6.trace_rel(x))

    def test_subfield_trace_rejects_outsiders(self, field6):
        outsider = next(x for x in range(64) if not field6.in_subfield(x))
        with pytest.raises(DomainError):
            field6.subfield_trace(outsider)

    def test_traces_bundle(self, field6):
        for x in (0, 1, 7, 33, 63):
            b = field6.traces(x)
            assert b.tr_abs == field6.trace(x)
            assert b.tr_rel == field6.trace_rel(x)
            assert b.norm_rel == field6.norm_rel(x)

    def test_relative_ops_need_even_degree(self):
        f = make_field(5)
        with pytest.raises(UnsupportedError):
            f.trace_rel(3)
        with pytest.raises(UnsupportedError):
            f.subfield_elements()


class TestSubfield:
    def test_subfield_is_a_field_of_the_right_size(self, field6):
        sub = field6.subfield_elements()
        assert len(sub) == 8
        s = set(sub)
        for x in s:
            assert field6.pow(x, 8) == x
            for y in s:
                assert x ^ y in s
                assert field6.mul(x, y) in s

    def test_in_subfield_mask_matches_set(self, field6):
        s = set(field6.subfield_elements())
        mask = field6.in_subfield_mask()
        for x in range(64):
            assert bool(mask[x]) == (x in s)

    def test_designated_generator_order(self, field6):
        c = field6.designated_generator(9)
        seen = {1}
        x = c
        while x != 1:
            seen.add(x)
            x = field6.mul(x, c)
        assert len(seen) == 9
        with pytest.raises(DomainError):
            field6.designated_generator(5)  # 5 does not divide 63

    def test_unit_subgroup(self, field6):
        group = field6.unit_subgroup(9)
        assert len(set(group)) == 9
        for u in group:
            assert field6.pow(u, 9) == 1

    def test_norm_lands_in_unit_circle_quotient(self, field6):
        # norm of a nonzero element is a (2^t + 1)-th ... power structure:
        # x^(1 + 2^t) ranges over L*, each value hit 2^t + 1 times
        from collections import Counter

        counts = Counter(field6.norm_rel(x) for x in range(1, 64))
        assert set(counts) == set(field6.subfield_elements()) - {0}
        assert set(counts.values()) == {9}


class TestDualIndexing:
    def test_gf4_hand_example(self):
        f = make_field(2)
        # Tr over GF(4): Tr(1) = 0, Tr(alpha) = Tr(alpha^2) = 1
        assert [f.trace(x) for x in [0, 1, 2, 3]] == [0, 0, 1, 1]
        assert f.dual_index(0b01) == 0b10
        assert f.dual_index(0b10) == 0b11
        assert f.dual_index(0b11) == 0b01
        assert f.dual_index_inv(0b11) == 0b10

    def test_roundtrip(self, field6):
        seen = set()
        for a in range(64):
            u = field6.dual_index(a)
            seen.add(u)
            assert field6.dual_index_inv(u) == a
        assert len(seen) == 64  # bijection

    def test_pairing_property(self, field6):
        # defining property: parity(dual_index(a) & x) = Tr(a*x)
        rng = random.Random(7)
        for _ in range(300):
            a, x = rng.randrange(64), rng.randrange(64)
            lhs = (field6.dual_index(a) & x).bit_count() & 1
            assert lhs == field6.trace(field6.mul(a, x))

    def test_vectorized_dual_matches_scalar(self, field6):
        du = field6.dual_index_all()
        for a in range(64):
            assert int(du[a]) == field6.dual_index(a)

    @pytest.mark.parametrize("m", [8, 16, 20])
    def test_vectorized_dual_matches_scalar_sampled(self, m):
        f = make_field(m)
        du = f.dual_index_all()
        rng = random.Random(m)
        for a in [0, 1, f.q - 1] + [rng.randrange(f.q) for _ in range(200)]:
            assert int(du[a]) == f.dual_index(a)


class TestVectorizedMaps:
    def test_power_map(self, field8):
        pm = field8.power_map(7)
        for x in (0, 1, 5, 100, 200, 255):
            assert int(pm[x]) == field8.pow(x, 7)

    def test_scalar_mul_map(self, field8):
        sm = field8.scalar_mul_map(77)
        rng = random.Random(3)
        for _ in range(50):
            x = rng.randrange(256)
            assert int(sm[x]) == field8.mul(77, x)

    def test_trace_bits(self, field8):
        tb = field8.trace_bits()
        for x in range(256):
            assert int(tb[x]) == field8.trace(x)


class TestAntilog:
    @pytest.mark.parametrize("m", range(2, 17))
    def test_matches_the_mulx_chain(self, m):
        rng = random.Random(1000 + m)
        for modulus in (PRIMITIVE_POLY[m], random_primitive_modulus(m, rng)):
            f = Field(m, modulus, table_cap=1)
            alog = f._antilog()
            assert alog.dtype == np.int32 and alog.shape == (f.order,)
            x = 1
            chain = []
            for _ in range(f.order):
                chain.append(x)
                x = f._mulx(x)
            assert x == 1
            assert alog.tolist() == chain


class TestTablelessMaps:
    """The tableless maps against shift-and-reduce scalar arithmetic."""

    @pytest.mark.parametrize("m", [9, 17, 19])
    def test_maps_match_scalar_ops(self, m):
        f = make_field(m, table_cap=1)
        assert not f.has_tables
        rng = random.Random(m)
        xs = [0, 1, f.q - 1] + [rng.randrange(f.q) for _ in range(197)]
        for d in (3, (1 << (m // 2)) + 3, f.q - 2):
            pm = f.power_map(d)
            assert [int(pm[x]) for x in xs] == [f.pow(x, d) for x in xs]
        for a in (0, 1, rng.randrange(2, f.q)):
            sm = f.scalar_mul_map(a)
            assert [int(sm[x]) for x in xs] == [f.mul(a, x) for x in xs]


class TestTablelessMode:
    def test_fallback_agrees_with_tables(self):
        ft = make_field(6)
        fn = make_field(6, table_cap=1)
        assert ft.has_tables and not fn.has_tables
        rng = random.Random(42)
        for _ in range(150):
            x, y = rng.randrange(64), rng.randrange(64)
            assert ft.mul(x, y) == fn.mul(x, y)
            if x:
                assert ft.inv(x) == fn.inv(x)
            assert ft.pow(x, 17) == fn.pow(x, 17)
            assert ft.trace(x) == fn.trace(x)

    def test_power_map_fallback(self):
        ft = make_field(4)
        fn = make_field(4, table_cap=1)
        assert list(ft.power_map(7)) == list(fn.power_map(7))

    @pytest.mark.parametrize("m", range(2, 13))
    def test_maps_agree_with_tables(self, m):
        ft = make_field(m)
        fn = make_field(m, table_cap=1)
        assert ft.has_tables and not fn.has_tables
        rng = random.Random(m)
        for d in {1, 3, 7, ft.q - 2, rng.randrange(1, ft.q - 1)}:
            assert np.array_equal(ft.power_map(d), fn.power_map(d))
        for a in {0, 1, ft.q - 1, rng.randrange(ft.q)}:
            assert np.array_equal(ft.scalar_mul_map(a), fn.scalar_mul_map(a))
        assert np.array_equal(ft.dual_index_all(), fn.dual_index_all())
        assert np.array_equal(ft.trace_bits(), fn.trace_bits())

    def test_log_needs_tables(self):
        fn = make_field(4, table_cap=1)
        with pytest.raises(UnsupportedError):
            fn.log_of(3)


class TestConstruction:
    def test_degree_limits(self):
        for bad in (0, 1, 29, 64):
            with pytest.raises(ValueError):
                make_field(bad)

    def test_modulus_must_match_degree(self):
        with pytest.raises(DomainError):
            Field(3, modulus=0x13)  # degree-4 polynomial for m = 3

    def test_reducible_modulus_rejected(self):
        # x^3 + x^2 + x + 1 = (x + 1)(x^2 + 1)
        with pytest.raises(DomainError):
            Field(3, modulus=0xF)

    def test_irreducible_but_imprimitive_rejected(self):
        # x^4 + x^3 + x^2 + x + 1 is irreducible with root of order 5, not 15
        with pytest.raises(DomainError):
            Field(4, modulus=0x1F)

    def test_every_default_polynomial_builds(self):
        for m in range(2, 17):
            f = make_field(m)
            assert f.pow(f.alpha, f.order) == 1


class TestModInverse:
    def test_known_value(self):
        assert mod_inverse(19, 63) == 10
        assert (19 * 10) % 63 == 1

    def test_random_pairs(self):
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randrange(3, 10**6)
            d = rng.randrange(1, n)
            from math import gcd

            if gcd(d, n) == 1:
                assert (d * mod_inverse(d, n)) % n == 1

    def test_noninvertible(self):
        with pytest.raises(NonInvertibleError) as exc:
            mod_inverse(21, 63)
        assert exc.value.gcd == 21
