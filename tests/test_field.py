"""Field arithmetic against hand-computed GF(8)/GF(4) facts and cross-route checks."""

import itertools
import random
import sys
import threading
import tracemalloc
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import walsh_lab.field as field_module
from walsh_lab import (
    DEFAULT_TABLE_CAP,
    PRIMITIVE_POLY,
    DomainError,
    Field,
    NonInvertibleError,
    UnsupportedError,
    check_bound,
    check_sarwate,
    family_spectrum,
    make_field,
    mod_inverse,
    sextic_census,
    subfield_identities,
    truth_table,
    walsh_coefficients,
    walsh_coefficients_at,
    walsh_spectrum,
)


# GF(8) with x^3 + x + 1: alpha^3 = alpha + 1.  Powers of alpha as bitmasks:
# 1, 2, 4, 3, 6, 7, 5, then back to 1.
GF8_POWERS = [1, 2, 4, 3, 6, 7, 5]

# Tr(x) = x + x^2 + x^4 on GF(8), worked out by hand per element value.
GF8_TRACE = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1}


class TestModulus:
    @pytest.mark.parametrize("modulus", [-0x43, 0x23, 0x83, -1, 0])
    def test_rejects_a_modulus_not_of_degree_m(self, modulus):
        # a negative modulus has bit_length m + 1 too
        with pytest.raises(DomainError):
            make_field(6, modulus)


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

    @pytest.mark.parametrize("m", [2, 4, 8, 12])
    def test_subfield_is_the_fixed_field_of_x_to_2_to_t(self, m, random_modulus):
        rng = random.Random(50 + m)
        for modulus in (None, random_modulus(m, rng)):
            for cap in (DEFAULT_TABLE_CAP, 1):
                f = make_field(m, modulus, table_cap=cap)
                fixed = [x for x in range(f.q) if f.pow(x, 1 << (m // 2)) == x]
                assert list(f.subfield_elements()) == fixed

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
    def test_coset_labels_pair_with_the_subfield_basis(self, m, random_modulus):
        # bit i of the label of x is Tr(x * gamma^i), and the basis spans L
        rng = random.Random(70 + m)
        for modulus in (None, random_modulus(m, rng)):
            for cap in (DEFAULT_TABLE_CAP, 1):
                f = make_field(m, modulus, table_cap=cap)
                basis = f.subfield_basis()
                assert len(basis) == m // 2
                span = field_module.xor_span(basis, 1 << (m // 2))
                assert sorted(span.tolist()) == list(f.subfield_elements())
                labels = f.coset_labels()
                for x in range(f.q):
                    assert int(labels[x]) == sum(
                        f.trace(f.mul(x, g)) << i for i, g in enumerate(basis)), x

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
    def test_coset_labels_name_the_cosets_of_L(self, m, random_modulus):
        rng = random.Random(m)
        for modulus in (PRIMITIVE_POLY[m], random_modulus(m, rng)):
            f = make_field(m, modulus)
            labels = f.coset_labels()
            assert labels.dtype == np.int32
            sub = f.subfield_elements()
            assert np.flatnonzero(labels == 0).tolist() == list(sub)
            # linear with kernel L: constant on each coset x + L, 2^t distinct values
            for x in range(0, f.q, 3):
                assert {int(labels[x ^ y]) for y in sub} == {int(labels[x])}
            assert sorted(set(labels.tolist())) == list(range(1 << (m // 2)))

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
        du = field6.dual_indices(np.arange(64, dtype=np.int32))
        for a in range(64):
            assert int(du[a]) == field6.dual_index(a)

    @pytest.mark.parametrize("m", [8, 16, 20])
    def test_vectorized_dual_matches_scalar_sampled(self, m):
        f = make_field(m)
        du = f.dual_indices(np.arange(f.q, dtype=np.int32))
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
        assert sm.dtype == np.int32
        rng = random.Random(3)
        for _ in range(50):
            x = rng.randrange(256)
            assert int(sm[x]) == field8.mul(77, x)

    def test_trace_bits(self, field8):
        tb = field8.trace_bits()
        for x in range(256):
            assert int(tb[x]) == field8.trace(x)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_trace_bits_match_scalar_trace_everywhere(self, m, random_modulus):
        rng = random.Random(2000 + m)
        for modulus in (PRIMITIVE_POLY[m], random_modulus(m, rng)):
            f = Field(m, modulus)
            tb = f.trace_bits()
            assert tb.dtype == np.uint8
            assert tb.tolist() == [f.trace(x) for x in range(f.q)]

    def test_power_map_is_int32(self, field8):
        assert field8.power_map(7).dtype == np.int32
        assert make_field(9, table_cap=1).power_map(7).dtype == np.int32


class TestAntilog:
    @pytest.mark.parametrize("m", range(2, 17))
    def test_matches_the_mulx_chain(self, m, random_modulus, monkeypatch):
        # below m = 16 the antilog is one outer product, in one row of 64 up
        # to m = 6; at m = 16 the row stream writes it, and the heads of its
        # one block are the only geometric sequence: no doubling fills it
        assert 2**6 - 1 < field_module._ANTILOG_HEAD < 2**7 - 1
        doubled = []
        geometric = Field.geometric

        def counted(self, *args):
            doubled.append(args[1])
            return geometric(self, *args)

        monkeypatch.setattr(Field, "geometric", counted)
        rng = random.Random(1000 + m)
        for modulus in (PRIMITIVE_POLY[m], random_modulus(m, rng)):
            f = Field(m, modulus, table_cap=1)
            doubled.clear()
            alog = f._antilog()
            assert doubled == ([f.q // 64] if m == 16 else [])
            assert alog.dtype == np.int32 and alog.shape == (f.order,)
            x = 1
            chain = []
            for _ in range(f.order):
                chain.append(x)
                x = f._mulx(x)
            assert x == 1
            assert alog.tolist() == chain
            assert sorted(chain) == list(range(1, f.q))

    @pytest.mark.parametrize("m", [3, 8, 13, 20])
    def test_geometric_matches_the_scalar_chain(self, m, random_modulus):
        # counts inside the scalar head, at its end, and past it by doubling
        # steps that end partway
        rng = random.Random(3000 + m)
        f = make_field(m, random_modulus(m, rng), table_cap=1)
        for c in (1, f.alpha, rng.randrange(2, f.q)):
            for count in (1, 63, 64, 65, 200, 1000):
                x, chain = 1, []
                for _ in range(count):
                    chain.append(x)
                    x = field_module._polymul_mod(x, c, f.modulus, m)
                got = f.geometric(c, count)
                assert got.dtype == np.int32 and got.tolist() == chain, f"c={c} count={count}"

    @pytest.mark.parametrize("m", [5, 13, 14, 15])
    def test_streamed_power_blocks_match_the_table(self, m, random_modulus):
        rng = random.Random(3100 + m)
        modulus = random_modulus(m, rng)
        ft = make_field(m, modulus)
        fn = make_field(m, modulus, table_cap=1)
        n = ft.order
        for e in (1, 2, 6, n, n + 1, ft.q - 2, rng.randrange(3, n)):
            want = ft.power_rows([e], n)[0]
            if e == 1:
                assert np.array_equal(want, ft.antilog())
            sampled = sorted({0, 1, n - 1, *(rng.randrange(n) for _ in range(20))})
            assert [int(want[i]) for i in sampled] == \
                [ft._raw_pow(ft.alpha, e * i) for i in sampled], f"e={e}"
            for size in (16, 1000, 1 << 14, 1 << 15):
                for f in (ft, fn):
                    blocks = [b.copy() for b in f.power_blocks(e, size)]
                    assert all(b.dtype == np.int32 for b in blocks)
                    assert [b.size for b in blocks[:-1]] == [size] * (len(blocks) - 1)
                    assert np.array_equal(np.concatenate(blocks), want), \
                        f"e={e} size={size} tables={f.has_tables}"

    @pytest.mark.parametrize("m", range(2, 23))
    def test_dual_stream_is_dual_indices_of_the_plain_one(self, m, random_modulus):
        # block sizes 1 and 7 run every block up to m = 12 and a prefix
        # above, 2^14 and 2^m - 1 or more the whole stream; with tables the
        # first walk streams, the second (the first dual one) builds the
        # antilog, and the plain walks after it read its slices while the
        # dual ones stream from its first block
        rng = random.Random(8000 + m)
        modulus = random_modulus(m, rng)
        for table_cap in (DEFAULT_TABLE_CAP, 1):
            f = make_field(m, modulus, table_cap=table_cap)
            n = f.order
            for e in (1, rng.randrange(2, max(3, n))):
                for size in (1, 7, 1 << 14, n, n + 5):
                    limit = None if m <= 12 or size > 7 else 3000 // size
                    plain = itertools.islice(f.power_blocks(e, size), limit)
                    dual = itertools.islice(f.power_blocks(e, size, dual=True), limit)
                    for k, (p, u) in enumerate(itertools.zip_longest(plain, dual)):
                        assert u.dtype == np.int32 and u.size == min(size, n - k * size)
                        assert np.array_equal(u, f.dual_indices(p)), \
                            f"e={e} size={size} block={k} tables={f.has_tables}"

    @pytest.mark.parametrize("m", range(2, 23))
    def test_doubling_matches_the_vector_recurrence(self, m, random_modulus):
        rng = random.Random(2000 + m)
        for modulus in (PRIMITIVE_POLY[m], random_modulus(m, rng)):
            f = Field(m, modulus, table_cap=1)
            alog = f._antilog()
            assert alog.dtype == np.int32 and alog.shape == (f.order,)
            assert alog[0] == 1
            prev = alog[:-1]
            assert np.array_equal(alog[1:], (prev << 1) ^ ((prev >> (m - 1)) & 1) * modulus)
            assert f._mulx(int(alog[-1])) == 1
            seen = np.zeros(f.q, dtype=bool)
            seen[alog] = True
            assert not seen[0] and seen[1:].all()
            log = field_module._log_from_antilog(alog, f.q)
            assert log.dtype == np.int32 and log[0] == -1
            assert np.array_equal(log[alog], np.arange(f.order))


def _times(f: Field, x: np.ndarray, c: int) -> np.ndarray:
    """x * c for the int32 array x, by vectorized shift-and-reduce."""
    acc, x = np.zeros_like(x), x.copy()
    while c:
        if c & 1:
            acc ^= x
        c >>= 1
        x = (x << 1) ^ (x >> (f.m - 1)) * f.modulus
    return acc


def _powers(f: Field, es: Sequence[int]) -> dict[int, np.ndarray]:
    """The scalar chain alpha^(e*i), 0 <= i < 2^m - 1, for each e of es:
    element by element up to m = 12, and above that read from an antilog
    that is first checked against the vector recurrence of the modulus."""
    n = f.order
    if f.m > 12:
        alog = make_field(f.m, f.modulus, table_cap=1).antilog()
        assert alog[0] == 1 and np.array_equal(alog[1:], _times(f, alog[:-1], f.alpha))
        return {e: alog[np.arange(n, dtype=np.int64) * (e % n) % n] for e in es}
    out = {}
    for e in es:
        c, x, chain = _oracle_pow(f, f.alpha, e % n), 1, []
        for _ in range(n):
            chain.append(x)
            x = field_module._polymul_mod(x, c, f.modulus, f.m)
        out[e] = np.array(chain, dtype=np.int32)
    return out


class TestRowStream:
    # every walk over the powers of alpha that does not read a built antilog
    # is a stream of rows of 64; its edges are the last, partial row, the
    # step of the heads from one block to the next, sizes that are not a
    # multiple of 64, and a block of the whole walk

    @pytest.mark.parametrize("m", range(2, 23))
    def test_blocks_concatenate_to_the_scalar_chain(self, m, random_modulus):
        # on a fresh field with tables (where a walk with e = 1 streams),
        # one whose antilog() is built, and one without tables; a prefix of
        # 16 blocks where there are more, and one block of the whole walk
        # (of size n + 64 too up to m = 16)
        rng = random.Random(3200 + m)
        n = (1 << m) - 1
        sizes = [s for s in (64, 192, 1 << 14) if s < n] + [1000 if n > 1000 else 5, n]
        sizes += [n + 64] if m <= 16 else []
        for modulus in (PRIMITIVE_POLY[m], random_modulus(m, rng)):
            built = make_field(m, modulus)
            tableless = make_field(m, modulus, table_cap=1)
            built.antilog()
            tableless.antilog()
            es = (1, 2, rng.randrange(3, max(4, n - 1)), n - 1, n + 1)
            for e, plain in _powers(tableless, es).items():
                want = {False: plain, True: tableless.dual_indices(plain)}
                for size, dual in itertools.product(sizes, (False, True)):
                    limit = min(-(-n // size), 16)
                    for f in (make_field(m, modulus), built, tableless):
                        walk = itertools.islice(f.power_blocks(e, size, dual), limit)
                        blocks = [b.copy() for b in walk]
                        assert all(b.dtype == np.int32 for b in blocks)
                        assert [b.size for b in blocks[:-1]] == [size] * (len(blocks) - 1)
                        got = np.concatenate(blocks)
                        assert got.size == min(n, limit * size)
                        assert np.array_equal(got, want[dual][:got.size]), \
                            (hex(modulus), e, size, f.has_tables, dual)

    def test_chunks_are_bounded_by_the_block(self):
        # m = 20 without tables: no array but the row tables (2 * 2^10 rows
        # of 64) has more than one block of 2^16 entries
        f = make_field(20, table_cap=1)
        tracemalloc.start()
        try:
            for dual in (False, True):
                for _ in f.power_blocks(7, 1 << 16, dual):
                    pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = 2 * (1 << 10) * 64 * 4
        assert peak < tables + 3 * 4 * (1 << 16) + (1 << 16), f"peak {peak} bytes"


def _frobenius_trace(f: Field, x: int) -> int:
    """Tr(x) = x + x^2 + ... + x^(2^(m-1)) by repeated squaring."""
    s = z = x
    for _ in range(f.m - 1):
        z = field_module._polymul_mod(z, z, f.modulus, f.m)
        s ^= z
    assert s in (0, 1)
    return s


class TestTraceSetup:
    @pytest.mark.parametrize("m", range(2, 29))
    def test_newton_traces_match_frobenius_sums(self, m, random_modulus):
        rng = random.Random(3000 + m)
        for modulus in (PRIMITIVE_POLY[m], random_modulus(m, rng)):
            f = Field(m, modulus, table_cap=1)
            tr = []
            x = 1
            for _ in range(2 * m - 1):
                tr.append(_frobenius_trace(f, x))
                x = f._mulx(x)
            assert f.trace_mask == sum(tr[i] << i for i in range(m))
            assert f._dual_rows == [sum(tr[i + j] << i for i in range(m)) for j in range(m)]

    def test_construction_makes_few_scalar_products(self, monkeypatch):
        calls = 0
        polymul = field_module._polymul_mod

        def counted(*args):
            nonlocal calls
            calls += 1
            return polymul(*args)

        monkeypatch.setattr(field_module, "_polymul_mod", counted)
        f = make_field(22)
        assert f.has_tables
        assert calls < 400

    def test_tables_are_the_only_q_sized_arrays(self):
        tracemalloc.start()
        try:
            f = make_field(20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 4 * f.q + (1 << 20)


def _oracle_pow(f: Field, x: int, e: int) -> int:
    """x^e by square-and-multiply over shift-and-reduce products, no tables."""
    r = 1
    while e:
        if e & 1:
            r = field_module._polymul_mod(r, x, f.modulus, f.m)
        x = field_module._polymul_mod(x, x, f.modulus, f.m)
        e >>= 1
    return r


class TestLazyLog:
    def test_make_field_builds_no_q_sized_array_above_one_block(self):
        # an antilog of at most one _POWER_BLOCK is built with the field; a
        # larger one, and every log, waits for its first use
        small = make_field(16)
        assert small._alog is not None and small._log is None
        tracemalloc.start()
        try:
            f = make_field(20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.has_tables and f._alog is None and f._log is None
        # not even a uint8 array of q entries
        assert peak < f.q, f"peak {peak} bytes"

    @pytest.mark.parametrize("first", ["mul", "inv", "pow", "log_of", "antilog"])
    def test_first_table_use_builds_the_antilog_once(self, first, monkeypatch):
        built = []
        antilog = Field._antilog

        def counted(self, *args):
            built.append(self.m)
            return antilog(self, *args)

        monkeypatch.setattr(Field, "_antilog", counted)
        f = make_field(17)
        assert f.has_tables and f._alog is None
        assert f.exp(5) == 32 and f.power_rows([3], 4).tolist() == [[1, 8, 64, 512]]
        assert built == []  # neither reads a table it would have to build
        x = f.exp(1000)
        if first == "antilog":
            assert f.antilog()[1000] == x
        elif first == "log_of":
            assert f.log_of(x) == 1000
        elif first == "pow":
            assert f.pow(f.alpha, 1000) == x
        elif first == "inv":
            assert f.mul(f.inv(x), x) == 1
        else:
            assert f.mul(f.alpha, f.exp(999)) == x
        assert built == [17] and f._alog is not None
        alog = f._alog
        assert f.inv(x) == f.exp(-1000) and f.log_of(f.pow(x, 3)) == 3000
        assert built == [17] and f._alog is alog

    @pytest.mark.parametrize("first", ["mul", "inv", "pow", "log_of"])
    def test_scalar_ops_build_the_log_once(self, first, monkeypatch, random_modulus):
        built = []
        scatter = field_module._log_from_antilog

        def counted(alog, q):
            built.append(q)
            return scatter(alog, q)

        monkeypatch.setattr(field_module, "_log_from_antilog", counted)
        rng = random.Random(first)
        m = 13
        f = make_field(m, random_modulus(m, rng))
        assert f._log is None

        def check(op, x, y):
            if op == "mul":
                assert f.mul(x, y) == field_module._polymul_mod(x, y, f.modulus, m)
            elif op == "inv":
                assert field_module._polymul_mod(x, f.inv(x), f.modulus, m) == 1
            elif op == "pow":
                e = y - (1 << (m - 1))  # negative exponents too
                assert f.pow(x, e) == _oracle_pow(f, x, e % f.order)
            else:
                k = f.log_of(x)
                assert 0 <= k < f.order and _oracle_pow(f, f.alpha, k) == x

        # the first call builds the log; every later one reads the same table
        check(first, rng.randrange(1, f.q), rng.randrange(1, f.q))
        log = f._log
        assert built == [f.q] and log is not None
        for _ in range(50):
            for op in ("mul", "inv", "pow", "log_of"):
                check(op, rng.randrange(1, f.q), rng.randrange(1, f.q))
        assert built == [f.q] and f._log is log
        assert f.mul(0, 5) == 0 and f.pow(0, 3) == 0

    def test_threads_sharing_a_fresh_field_build_each_table_once(self, monkeypatch):
        # three fresh fields, each shared by four threads whose first call is
        # mul: the log's build reads the antilog under the same lock
        built = []
        antilog, scatter = Field._antilog, field_module._log_from_antilog

        def counted_antilog(self, *args):
            built.append("antilog")
            return antilog(self, *args)

        def counted_scatter(alog, q):
            built.append("log")
            return scatter(alog, q)

        monkeypatch.setattr(Field, "_antilog", counted_antilog)
        monkeypatch.setattr(field_module, "_log_from_antilog", counted_scatter)
        pairs = [(x, 3 * x + 1) for x in range(1, 200)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                f = make_field(17)
                assert f._alog is None and f._log is None
                want = [field_module._polymul_mod(x, y, f.modulus, f.m) for x, y in pairs]
                start = threading.Barrier(4)

                def work(k):
                    start.wait(timeout=60)
                    return [f.mul(x, y) for x, y in pairs[k::4]]

                with ThreadPoolExecutor(max_workers=4) as ex:
                    futures = [ex.submit(work, k) for k in range(4)]
                    got = [fut.result(timeout=60) for fut in futures]
                assert got == [want[k::4] for k in range(4)]
        finally:
            sys.setswitchinterval(interval)
        assert built == ["antilog", "log"] * 3

    def test_spectrum_path_leaves_the_log_unbuilt(self):
        f = make_field(12)
        truth_table(f, 7)
        walsh_coefficients(f, 7)
        f.power_map(7)
        f.exp(100)
        assert f._log is None
        # the vector routes of every CLI command: verify, census, scan, identities
        half = make_field(12)
        family_spectrum(half)
        sextic_census(half)
        assert half._log is None
        check_sarwate(f, 11)
        check_bound(f, 11)
        subfield_identities(f, 7)
        assert f._log is None

    def test_log_of_without_tables_is_still_unsupported(self):
        fn = make_field(12, table_cap=1 << 11)
        with pytest.raises(UnsupportedError):
            fn.log_of(3)


class TestLazyDualInverse:
    @staticmethod
    def _count_inversions(monkeypatch) -> list[int]:
        inverted = []
        invert = field_module._invert_bit_matrix

        def counted(rows, m):
            inverted.append(m)
            return invert(rows, m)

        monkeypatch.setattr(field_module, "_invert_bit_matrix", counted)
        return inverted

    @pytest.mark.parametrize("m", [12, 20])
    def test_identities_and_spectra_never_invert(self, m, monkeypatch):
        inverted = self._count_inversions(monkeypatch)
        f = make_field(m)
        subfield_identities(f, 7)
        walsh_spectrum(make_field(m), 7)
        assert inverted == [] and f._dual_rows_inv is None

    @pytest.mark.parametrize("first", ["dual_index_inv", "dual_step"])
    def test_first_use_inverts_once(self, first, monkeypatch):
        # at m = 17 the dual positions of walsh_coefficients on a fresh field
        # stream in rows, from tables mapped through dual_indices, and build
        # no antilog: the walk inverts nothing, and the first dual_index_inv
        # after it inverts once
        inverted = self._count_inversions(monkeypatch)
        f = make_field(17)
        if first == "dual_step":
            walsh_coefficients(f, 7)
            assert inverted == [] and f._dual_rows_inv is None and f._alog is None
        assert f.dual_index_inv(f.dual_index(77)) == 77
        assert inverted == [17]
        rows = f._dual_rows_inv
        walsh_coefficients(f, 11)
        assert f.dual_index_inv(f.dual_index(5)) == 5
        assert inverted == [17] and f._dual_rows_inv is rows

    def test_cold_dual_walk_inverts_and_dual_indexes_nothing(self, monkeypatch):
        inverted = self._count_inversions(monkeypatch)
        indexed = []
        dual_index = Field.dual_index

        def counted(self, a):
            indexed.append(a)
            return dual_index(self, a)

        monkeypatch.setattr(Field, "dual_index", counted)
        f = make_field(20)
        got = walsh_coefficients(f, 7)
        assert inverted == [] and indexed == [] and f._alog is None
        rng = random.Random(20)
        points = [rng.randrange(f.q) for _ in range(8)]
        assert [int(got[a]) for a in points] == walsh_coefficients_at(f, [7] * 8, points)

    @pytest.mark.parametrize("m", range(2, 29))
    def test_dual_step_is_the_product_conjugated_by_g(self, m, random_modulus):
        # a row of the dual stream of the powers of c, read from its two
        # tables at a head y, against the formula of each step along it,
        # u -> dual_index(c * dual_index_inv(u)), from u = dual_index(y)
        rng = random.Random(m)
        h = m // 2
        for modulus in (PRIMITIVE_POLY[m], random_modulus(m, rng)):
            f = make_field(m, modulus)
            for c in (f.alpha, *(rng.randrange(1, f.q) for _ in range(4))):
                low, high = f._row_halves(c, dual=True)
                assert low.dtype == high.dtype == np.int32
                assert (low.shape, high.shape) == (((1 << h), 64), ((1 << (m - h)), 64))
                for y in (1, f.q - 1, rng.randrange(1, f.q)):
                    want = [f.dual_index(y)]
                    for _ in range(63):
                        want.append(f.dual_index(field_module._polymul_mod(
                            c, f.dual_index_inv(want[-1]), modulus, m)))
                    got = low[y & ((1 << h) - 1)] ^ high[y >> h]
                    assert got.tolist() == want, (m, hex(modulus), c, y)

    def test_threads_sharing_a_fresh_field_invert_once(self, monkeypatch):
        # five fresh fields, each shared by four threads that start together
        inverted = self._count_inversions(monkeypatch)
        points = list(range(1, 400))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                f = make_field(20)
                want = [f.dual_index(a) for a in points]
                start = threading.Barrier(4)

                def work(k):
                    start.wait(timeout=60)
                    return [f.dual_index_inv(u) for u in want[k::4]]

                with ThreadPoolExecutor(max_workers=4) as ex:
                    futures = [ex.submit(work, k) for k in range(4)]
                    got = [fut.result(timeout=60) for fut in futures]
                assert got == [points[k::4] for k in range(4)]
        finally:
            sys.setswitchinterval(interval)
        assert inverted == [20] * 5

    @pytest.mark.parametrize("m", range(2, 29))
    def test_roundtrip_with_random_moduli(self, m, random_modulus):
        rng = random.Random(4000 + m)
        f = make_field(m, random_modulus(m, rng), table_cap=1)
        for a in [0, 1, 2, f.q - 1] + [rng.randrange(f.q) for _ in range(50)]:
            assert f.dual_index_inv(f.dual_index(a)) == a, f"modulus={f.modulus:#x} a={a}"


class TestPowerMap:
    @pytest.mark.parametrize("m", [2, 5, 12, 17])
    def test_matches_scalar_pow(self, m, random_modulus):
        # m = 17 runs two blocks of power_blocks
        rng = random.Random(6000 + m)
        modulus = random_modulus(m, rng)
        q = 1 << m
        xs = sorted({0, 1, q - 1, *(rng.randrange(q) for _ in range(150))})
        for table_cap in (DEFAULT_TABLE_CAP, 1):
            f = make_field(m, modulus, table_cap=table_cap)
            for d in (1, 6, q - 2, rng.randrange(1, q - 1)):
                pm = f.power_map(d)
                assert pm.dtype == np.int32 and pm.size == q
                assert [int(pm[x]) for x in xs] == \
                    [_oracle_pow(f, x, d) if x else 0 for x in xs], \
                    f"m={m} tables={f.has_tables} d={d}"

    def test_tableless_power_map_streams_both_sides(self, monkeypatch):
        # no q-sized antilog: the result is the only array of q entries
        ft, fn = make_field(20), make_field(20, table_cap=1)

        def refuse(self):
            raise AssertionError("power_map built an antilog")

        monkeypatch.setattr(Field, "antilog", refuse)
        want = ft.power_map(7)
        tracemalloc.start()
        try:
            got = fn.power_map(7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak <= 2.0 * 4 * fn.q

    @pytest.mark.parametrize("table_cap", [DEFAULT_TABLE_CAP, 1])
    def test_exponents_beyond_int64_reduce_mod_the_order(self, table_cap):
        # 7 + 255 * 2^60 = 7 mod 255 overflows an int64 before its reduction
        f = make_field(8, table_cap=table_cap)
        big = 7 + 255 * 2**60
        assert f.has_tables == (table_cap == DEFAULT_TABLE_CAP)
        assert np.array_equal(f.power_map(big), f.power_map(7))
        got = f.power_rows([big, 3 - 255 * 2**70, 255 * 2**64], 9)
        assert np.array_equal(got, f.power_rows([7, 3, 0], 9))


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
        everything = np.arange(ft.q, dtype=np.int32)
        assert np.array_equal(ft.dual_indices(everything), fn.dual_indices(everything))
        assert np.array_equal(ft.trace_bits(), fn.trace_bits())

    @pytest.mark.parametrize("m", [2, 7, 12])
    def test_antilog_and_trace_bits_agree_with_tables(self, m):
        ft = make_field(m)
        fn = make_field(m, table_cap=1)
        alog_t, alog_n = ft.antilog(), fn.antilog()
        bits_t, bits_n = ft.trace_bits(), fn.trace_bits()
        assert alog_t.dtype == alog_n.dtype == np.int32
        assert bits_t.dtype == bits_n.dtype == np.uint8
        assert np.array_equal(alog_t, alog_n) and np.array_equal(bits_t, bits_n)
        assert [ft.log_of(int(x)) for x in alog_t] == list(range(ft.order))
        # the trace m-sequence Tr(alpha^i), read through the antilog
        assert bits_t[alog_t].tolist() == [ft.trace(ft.exp(i)) for i in range(ft.order)]
        assert fn._log is None

    def test_log_needs_tables(self):
        fn = make_field(4, table_cap=1)
        with pytest.raises(UnsupportedError):
            fn.log_of(3)


class TestConstruction:
    def test_degree_limits(self):
        for bad in (0, 1, 29, 64):
            with pytest.raises(DomainError, match=r"m must be in \[2, 28\]"):
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


class TestPrimitiveProof:
    @staticmethod
    def _count_raw_pow(monkeypatch):
        calls = []
        raw = Field._raw_pow

        def counted(self, x, e):
            calls.append(e)
            return raw(self, x, e)

        monkeypatch.setattr(Field, "_raw_pow", counted)
        return calls

    @pytest.mark.parametrize("table_cap", [DEFAULT_TABLE_CAP, 1], ids=["tables", "tableless"])
    def test_a_modulus_is_proved_once(self, monkeypatch, random_modulus, table_cap):
        m = 14
        modulus = random_modulus(m, random.Random(table_cap))
        monkeypatch.setattr(field_module, "_PROVEN_PRIMITIVE", set())
        calls = self._count_raw_pow(monkeypatch)
        first = make_field(m, modulus, table_cap=table_cap)
        assert calls, "the first construction proves the modulus primitive"
        calls.clear()
        second = make_field(m, modulus, table_cap=table_cap)
        assert calls == []
        assert field_module._PROVEN_PRIMITIVE == {(m, modulus)}
        assert np.array_equal(first.trace_bits(), second.trace_bits())

    @pytest.mark.parametrize("m,modulus", [(3, 0xF), (4, 0x1F), (4, 0x15)])
    def test_a_failed_proof_fails_every_time(self, monkeypatch, m, modulus):
        # reducible, irreducible but imprimitive, and a square
        calls = self._count_raw_pow(monkeypatch)
        for _ in range(3):
            calls.clear()
            with pytest.raises(DomainError):
                make_field(m, modulus)
            assert calls
            assert (m, modulus) not in field_module._PROVEN_PRIMITIVE


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

    def test_matches_extended_euclid(self):
        def euclid(d, n):
            # (gcd, inverse mod n if the gcd is 1)
            r0, r1, s0, s1 = n, d % n, 0, 1
            while r1:
                qt = r0 // r1
                r0, r1 = r1, r0 - qt * r1
                s0, s1 = s1, s0 - qt * s1
            return r0, s0 % n

        rng = random.Random(28)
        moduli = [2, 3, 63, 255, (1 << 28) - 1] + [rng.randrange(2, 1 << 28) for _ in range(60)]
        for n in moduli:
            ds = [0, 1, -1, n - 1, n, n + 1, -n, rng.randrange(-5 * n, 0), rng.randrange(n, 5 * n)]
            for d in ds + [rng.randrange(1, n) for _ in range(5)]:
                g, want = euclid(d, n)
                if g == 1:
                    assert mod_inverse(d, n) == want, (d, n)
                else:
                    with pytest.raises(NonInvertibleError) as exc:
                        mod_inverse(d, n)
                    assert (exc.value.d, exc.value.n, exc.value.gcd) == (d, n, g)

    @pytest.mark.parametrize("n", [1, 0, -7])
    def test_modulus_below_two(self, n):
        with pytest.raises(DomainError) as exc:
            mod_inverse(3, n)
        assert not isinstance(exc.value, NonInvertibleError)
