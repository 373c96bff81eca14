"""Walsh machinery: the butterfly route must equal direct summation, plus
frozen spectra for two reference parameter sets."""

import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import gcd

import numpy as np
import pytest

import walsh_lab.field as field_module
import walsh_lab.walsh as walsh_module
from walsh_lab import (
    DEFAULT_TABLE_CAP,
    PRIMITIVE_POLY,
    DomainError,
    Field,
    check_exponents,
    family_spectrum,
    fwht,
    fwht_columns,
    make_field,
    sign_transforms,
    subfield_identities,
    subfield_sum_check,
    tables_per_block,
    truth_table,
    walsh_coefficient,
    walsh_coefficients,
    walsh_coefficients_at,
    walsh_coefficients_naive,
    walsh_spectrum,
)

# Reference spectra, frozen.  m = 6, d = 19 and m = 12, d = 131.
SPECTRUM_M6_D19 = {-16: 6, 0: 48, 16: 10}
SPECTRUM_M12_D131 = {-256: 12, -128: 240, -64: 832, 0: 1896, 64: 832, 128: 272, 256: 12}


class TestFrozenSpectra:
    def test_m6_d19(self, field6):
        assert walsh_spectrum(field6, 19).as_dict() == SPECTRUM_M6_D19

    def test_m12_d131(self, field12):
        assert walsh_spectrum(field12, 131).as_dict() == SPECTRUM_M12_D131


class TestOracleAgreement:
    """fwht + dual reindexing vs per-coefficient direct summation."""

    @pytest.mark.parametrize("m", [4, 6])
    def test_exhaustive_over_coprime_exponents(self, m):
        f = make_field(m)
        for d in range(1, f.q - 1):
            if gcd(d, f.order) != 1:
                continue
            fast = walsh_coefficients(f, d)
            slow = walsh_coefficients_naive(f, d)
            assert np.array_equal(fast, slow), f"m={m} d={d}"

    def test_sample_including_noncoprime(self, field8):
        rng = random.Random(2024)
        ds = rng.sample(range(1, 255), 6)
        for d in ds:
            assert np.array_equal(
                walsh_coefficients(field8, d), walsh_coefficients_naive(field8, d)
            ), f"d={d}"

    def test_sampled_points_past_the_gather_blocks(self, random_modulus):
        # m = 18 spans 16 blocks of the sign scatter, 4 of the dual indices
        # and 4 butterfly blocks; the oracle is checked at points spread
        # over all of them
        rng = random.Random(18)
        f = make_field(18, random_modulus(18, rng))
        d = 3 + (1 << 10)
        fast = walsh_coefficients(f, d)
        assert fast.dtype == np.int32
        for a in [0, 1, f.q - 1] + [rng.randrange(f.q) for _ in range(13)]:
            assert int(fast[a]) == walsh_coefficient(f, d, a), f"a={a}"

    @pytest.mark.parametrize("m", range(2, 11))
    def test_random_moduli_with_and_without_tables(self, m, random_modulus):
        # the signs are placed at dual coordinates, so the butterfly's entry a
        # must be W_d(a) itself, for any modulus and with a transient antilog
        rng = random.Random(7000 + m)
        modulus = random_modulus(m, rng)
        for table_cap in (1 << m, 1):
            f = make_field(m, modulus, table_cap=table_cap)
            for d in {1, f.q - 2, rng.randrange(1, f.q - 1)}:
                fast = walsh_coefficients(f, d)
                assert fast.dtype == np.int32
                assert np.array_equal(fast, walsh_coefficients_naive(f, d)), \
                    f"m={m} tables={f.has_tables} d={d}"

    def test_single_coefficient_matches_tableless_loop(self):
        ft = make_field(4)
        fn = make_field(4, table_cap=1)
        for d in (1, 3, 7, 11):
            for a in range(16):
                assert walsh_coefficient(ft, d, a) == walsh_coefficient(fn, d, a)

    def test_tableless_coefficient_takes_no_scalar_products(self, monkeypatch):
        # one vectorized summation for every field: without tables it must
        # not fall back to a shift-and-reduce product per point
        ft = make_field(10)
        fn = make_field(10, table_cap=1)
        assert not fn.has_tables
        rng = random.Random(10)
        cases = [(d, a) for d in (1, 3, 7, 35, 1021) for a in (0, 1, 1023, rng.randrange(1024))]
        expected = [walsh_coefficient(ft, d, a) for d, a in cases]

        def refuse(*args):
            raise AssertionError("walsh_coefficient called a scalar field product")

        monkeypatch.setattr(Field, "mul", refuse)
        monkeypatch.setattr(Field, "pow", refuse)
        assert [walsh_coefficient(fn, d, a) for d, a in cases] == expected
        ds, points = zip(*cases)
        assert walsh_coefficients_at(fn, ds, points) == expected
        assert walsh_coefficients_at(ft, ds, points) == expected


def _direct_sum(field, d, a):
    """W_d(a) through power_map and scalar_mul_map, the summation the batched
    oracle replaced."""
    return field.q - 2 * int(np.count_nonzero(
        field.trace_bits()[field.power_map(d) ^ field.scalar_mul_map(a)]))


class TestBatchedOracle:
    @pytest.mark.parametrize("m", range(2, 7))
    def test_every_pair_against_the_naive_sums(self, m):
        # every exponent, invertible or not, at every point, in one call:
        # many groups of tables_per_block pairs, with and without tables
        for table_cap in (DEFAULT_TABLE_CAP, 1):
            f = make_field(m, table_cap=table_cap)
            ds = [d for d in range(1, f.q - 1) for _ in range(f.q)]
            points = [a for _ in range(1, f.q - 1) for a in range(f.q)]
            want = [int(w) for d in range(1, f.q - 1) for w in walsh_coefficients_naive(f, d)]
            assert walsh_coefficients_at(f, ds, points) == want, f"m={m} tables={f.has_tables}"

    @pytest.mark.parametrize("m", range(8, 15))
    def test_random_pairs_with_random_moduli(self, m, random_modulus):
        # non-invertible exponents, a = 0 and a last group that is not full
        rng = random.Random(8000 + m)
        for modulus in [random_modulus(m, rng) for _ in range(3)]:
            ft = make_field(m, modulus)
            count = 3 * tables_per_block(ft) + 5
            ds = [3, 7, 23, ft.q - 2] + [rng.randrange(1, ft.q - 1) for _ in range(count - 4)]
            points = [0, rng.randrange(ft.q), 0, 0] + [rng.randrange(ft.q) for _ in range(count - 4)]
            # 3, 7 or 23 divides 2^m - 1 except at the prime 2^13 - 1
            assert any(gcd(d, ft.order) > 1 for d in ds) or m == 13
            want = [_direct_sum(ft, d, a) for d, a in zip(ds, points)]
            by_butterfly = {d: walsh_coefficients(ft, d) for d in set(ds)}
            assert want == [int(by_butterfly[d][a]) for d, a in zip(ds, points)]
            for table_cap in (DEFAULT_TABLE_CAP, 1):
                f = make_field(m, modulus, table_cap=table_cap)
                assert walsh_coefficients_at(f, ds, points) == want, \
                    f"modulus={modulus:#x} tables={f.has_tables}"

    def test_shares_nothing_with_the_sign_table_route(self, monkeypatch, field12):
        rng = random.Random(12)
        ds = [rng.randrange(1, field12.q - 1) for _ in range(21)]
        points = [rng.randrange(field12.q) for _ in range(21)]
        fn = make_field(12, table_cap=1)
        want = walsh_coefficients_at(field12, ds, points)

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle reached the sign-table route")

        for name in ("dual_index", "dual_indices", "dual_index_inv", "power_rows"):
            monkeypatch.setattr(Field, name, refuse)
        for name in ("_parities", "_parity_transforms", "fwht", "_rotating"):
            monkeypatch.setattr(walsh_module, name, refuse)
        assert walsh_coefficients_at(field12, ds, points) == want
        assert walsh_coefficients_at(fn, ds, points) == want
        assert [walsh_coefficient(field12, d, a) for d, a in zip(ds, points)] == want

    def test_validation(self, field6):
        assert walsh_coefficients_at(field6, [], []) == []
        with pytest.raises(DomainError):
            walsh_coefficients_at(field6, [19, 19], [1])
        with pytest.raises(DomainError):
            walsh_coefficients_at(field6, [19, 63], [1, 1])
        with pytest.raises(DomainError):
            walsh_coefficients_at(field6, [19, 19], [1, 64])


class TestSpectrumInvariants:
    def test_moments(self):
        # first moment 2^m, second moment 2^(2m), for any exponent
        rng = random.Random(55)
        for _ in range(12):
            m = rng.randrange(2, 11)
            f = make_field(m)
            d = rng.randrange(1, f.q - 1)
            s = walsh_spectrum(f, d)
            assert s.moment(1) == f.q
            assert s.moment(2) == f.q * f.q
            assert s.total() == f.q

    def test_linear_exponent(self, field4):
        # d = 1 pairs Tr(x) against Tr(ax): coefficient q at a = 1, else 0
        for a in range(16):
            expected = 16 if a == 1 else 0
            assert walsh_coefficient(field4, 1, a) == expected

    def test_degenerate_exponent_spectrum(self, field6):
        # d = 2 is a Frobenius twist of d = 1
        assert walsh_spectrum(field6, 2).as_dict() == {0: 63, 64: 1}

    def test_coprime_flag(self, field6):
        assert walsh_spectrum(field6, 19).coprime
        assert not walsh_spectrum(field6, 3).coprime

    def test_accessors(self, field6):
        s = walsh_spectrum(field6, 19)
        assert s.count(16) == 10
        assert s.count(999) == 0
        assert s.values() == (-16, 0, 16)

    @pytest.mark.parametrize("m, sample", [(m, None) for m in range(3, 13)] + [(14, 128), (16, 64)])
    def test_mceliece_divisibility(self, m, sample):
        # Tr(x^d + a*x) has algebraic degree wt_2(d), so by McEliece's
        # theorem every W_d(a) is divisible by 2^ceil(m / wt_2(d)); every
        # invertible d up to m = 12, a seeded sample above
        f = make_field(m)
        ds = _invertible(f)
        if sample:
            ds = sorted(random.Random(600 + m).sample(ds, sample))
        for block in _blocks(f, ds):
            for d, row in zip(block, sign_transforms(f, block)):
                step = 1 << -(-m // bin(d).count("1"))
                assert not (row % step).any(), f"m={m} d={d}"

    @pytest.mark.parametrize("m, sample, four", [(4, None, 4), (8, None, 24), (16, 128, None)])
    def test_at_least_four_values(self, m, sample, four):
        # Helleseth: for m a power of two, W_d(a) over a != 0 takes at least
        # four values unless d is a power of 2 mod 2^m - 1.  Exactly four
        # occur for all 4 such d at m = 4 and 24 of the 120 at m = 8.
        f = make_field(m)
        powers = {pow(2, j, f.order) for j in range(m)}
        ds = [d for d in _invertible(f) if d not in powers]
        if sample:
            ds = sorted(random.Random(700 + m).sample(ds, sample))
        counts = [np.unique(row[1:]).size for block in _blocks(f, ds)
                  for row in sign_transforms(f, block)]
        assert min(counts) >= 4, f"m={m}"
        if four is not None:
            assert counts.count(4) == four


class TestTruthTable:
    def test_signs_are_plus_minus_one(self, field6):
        signs = truth_table(field6, 19)
        assert set(np.unique(signs)) == {-1, 1}
        assert signs[0] == 1  # Tr(0) = 0

    def test_sign_at_each_point(self, field6):
        signs = truth_table(field6, 19)
        for x in range(64):
            assert int(signs[x]) == 1 - 2 * field6.trace(field6.pow(x, 19))

    @pytest.mark.parametrize("m", [9, 17, 19, 20])
    def test_log_gather_matches_scalar_trace(self, m, random_modulus):
        # the popcount rows scattered through the antilog against Tr(x^d)
        # computed by scalar arithmetic, with and without tables
        rng = random.Random(4000 + m)
        xs = [0, 1, (1 << m) - 1] + [rng.randrange(1 << m) for _ in range(197)]
        for modulus in (None, random_modulus(m, rng)):
            for table_cap in (1 << m, 1):
                f = make_field(m, modulus, table_cap=table_cap)
                for d in (3, (1 << (m // 2)) + 3, rng.randrange(1, f.q - 1), f.q - 2):
                    signs = truth_table(f, d)
                    assert signs.dtype == np.int32 and signs.size == f.q
                    assert [int(signs[x]) for x in xs] == \
                        [1 - 2 * f.trace(f.pow(x, d)) for x in xs], \
                        f"m={m} modulus={modulus} tables={f.has_tables} d={d}"

    @pytest.mark.parametrize("m,ds", [(12, (3, 35, 65, 4080)), (18, (3, 133, 219, 262140))])
    def test_non_invertible_exponents(self, m, ds, random_modulus):
        # gcd(d, 2^m - 1) > 1: x -> x^d is not a permutation, and the rows
        # parity(v_r & b_j) must still give Tr(x^d) at every x
        rng = random.Random(5000 + m)
        ft = make_field(m, random_modulus(m, rng))
        fn = make_field(m, ft.modulus, table_cap=1)
        xs = range(ft.q) if m <= 12 else [0, 1, ft.q - 1] + [rng.randrange(ft.q) for _ in range(300)]
        for d in ds:
            assert gcd(d, ft.order) > 1
            expected = [1 - 2 * ft.trace(ft.pow(x, d)) for x in xs]
            for f in (ft, fn):
                signs = truth_table(f, d)
                assert [int(signs[x]) for x in xs] == expected, f"m={m} d={d} tables={f.has_tables}"


def _radix2_reference(x: np.ndarray) -> np.ndarray:
    """The textbook butterfly in int64: one pass over the whole array per
    index bit, lowest bit first."""
    a = x.astype(np.int64)
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        lo, hi = pairs[:, 0].copy(), pairs[:, 1].copy()
        pairs[:, 0] = lo + hi
        pairs[:, 1] = lo - hi
        h *= 2
    return a


class TestFwht:
    def test_tiny_frozen_example(self):
        out = fwht(np.array([1, 1, 1, -1], dtype=np.int64))
        assert list(out) == [2, 2, 2, -2]

    def test_involution(self):
        rng = np.random.default_rng(8)
        x = rng.integers(-5, 6, size=64).astype(np.int64)
        once = fwht(x.copy())
        twice = fwht(once.copy())
        assert np.array_equal(twice, 64 * x)

    def test_rejects_bad_length(self):
        for n in (12, 0):
            with pytest.raises(DomainError):
                fwht(np.zeros(n, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64, np.bool_])
    def test_rejects_unsigned(self, dtype):
        with pytest.raises(DomainError):
            fwht(np.ones(8, dtype=dtype))

    def test_rejects_strided_view(self):
        # a reshape of a strided view is a copy, so the result would be lost
        with pytest.raises(DomainError):
            fwht(np.ones(16, dtype=np.int32)[::2])

    @pytest.mark.parametrize("k", range(13))
    def test_involution_in_int32(self, k):
        # lengths 1 .. 2^12 run every split of the index into up to three
        # Hadamard factors; |x| <= 64 keeps n^2 * |x| inside int32, and the
        # second pass takes float64 once n^2 * |x| passes 2^24
        n = 1 << k
        x = np.random.default_rng(k).integers(-64, 65, size=n).astype(np.int32)
        once = fwht(x.copy())
        twice = fwht(once.copy())
        assert once.dtype == twice.dtype == np.int32
        assert np.array_equal(twice, n * x)

    @pytest.mark.parametrize("k", [17, 18, 19])
    def test_blocked_butterfly_matches_radix2_reference(self, k):
        # past the 2^16-entry block: the low 16 bits on each block, then the
        # k - 16 high bits down the columns; n * |x| <= 2^19 * 1000 passes
        # 2^24, so the products run in float64
        x = np.random.default_rng(k).integers(-1000, 1001, size=1 << k).astype(np.int32)
        once = fwht(x.copy())
        assert once.dtype == np.int32
        assert np.array_equal(once, _radix2_reference(x))
        # the second pass's partial sums pass 2^31, so it runs in int64
        assert np.array_equal(fwht(once.astype(np.int64)), (1 << k) * x.astype(np.int64))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64], ids=["int32", "int64"])
    @pytest.mark.parametrize("k", range(21))
    def test_every_length_matches_radix2_reference(self, k, dtype):
        # int32 inputs with |x| <= 7 take float32 (n * |x| <= 7 * 2^20 < 2^24),
        # int64 inputs with |x| up to 2^30 take float64
        top = 7 if dtype == np.int32 else 1 << 30
        x = np.random.default_rng(100 + k).integers(-top, top + 1, size=1 << k).astype(dtype)
        once = fwht(x.copy())
        assert once.dtype == dtype
        assert np.array_equal(once, _radix2_reference(x))

    @pytest.mark.parametrize("top,float_type", [(4096, np.float32), (4097, np.float64)])
    def test_float32_limit(self, top, float_type, monkeypatch):
        # n * max|x| = 2^24 is the last bound float32 holds exactly; one more
        # and the products run in float64.  Coefficient 0 of the second
        # input is 2^24 + 4095, which float32 would round.
        seen = []
        real = walsh_module._matmul
        monkeypatch.setattr(walsh_module, "_matmul",
                            lambda a, b, out: seen.append(out.dtype) or real(a, b, out))
        x = np.full(1 << 12, top, dtype=np.int32)
        x[0] = 4096
        assert np.array_equal(fwht(x.copy()), _radix2_reference(x))
        assert seen and set(seen) == {np.dtype(float_type)}

    def test_float64_limit(self):
        # n * max|x| = 2^53 still runs; past it the transform is refused
        # before it touches the input
        x = np.full(16, 1 << 49, dtype=np.int64)
        x[::2] *= -1
        assert np.array_equal(fwht(x.copy()), _radix2_reference(x))
        x[5] += 1
        before = x.copy()
        for transform, arr in ((fwht, x), (fwht_columns, x.reshape(16, 1))):
            with pytest.raises(DomainError):
                transform(arr)
            assert np.array_equal(x, before)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_inexact_inputs_keep_their_precision(self, dtype):
        # a float or complex array is transformed in its own dtype
        rng = np.random.default_rng(9)
        x = (rng.random(1 << 10) - 0.5).astype(dtype)
        if dtype == np.complex128:
            x += 1j * rng.random(1 << 10)
        i = np.arange(1 << 10)
        h = 1 - 2 * (np.bitwise_count(i[:, None] & i) & 1).astype(np.float64)
        once = fwht(x.copy())
        assert once.dtype == dtype
        assert np.allclose(once, h @ x, rtol=0, atol=1e-12)

    def test_every_product_runs_on_the_calling_thread(self, monkeypatch):
        # OpenBLAS threads a gemm only above 64^3 multiply-adds, so each 2-D
        # product of the butterfly must stay at or below that size
        sizes = []
        real = walsh_module._matmul

        def spy(a, b, out):
            assert a.shape[-1] == b.shape[-2]
            sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
            real(a, b, out)

        monkeypatch.setattr(walsh_module, "_matmul", spy)
        rng = np.random.default_rng(22)
        for m in range(2, 23):
            fwht(np.where(rng.random(1 << m) < 0.5, 1, -1).astype(np.int32))
        family_spectrum(make_field(14))
        for m in (8, 12, 14):
            f = make_field(m)
            sign_transforms(f, list(range(1, f.order))[:tables_per_block(f)])
        assert sizes and max(sizes) <= 1 << 18

    @pytest.mark.parametrize("route,k", [("fwht", 4), ("fwht", 12), ("fwht", 16), ("fwht", 17),
                                         ("sign_transforms", 8), ("sign_transforms", 12),
                                         ("sign_transforms", 14)])
    def test_block_stage_multiplies_tall_slices_by_the_hadamard(self, route, k, monkeypatch):
        # the block stage multiplies (rows x 2^b) slices by H_(2^b) on the
        # right; only the column stage past 2^16 entries has H on the left
        products = []
        real = walsh_module._matmul
        monkeypatch.setattr(walsh_module, "_matmul",
                            lambda a, b, out: products.append((a, b, out.dtype)) or real(a, b, out))
        if route == "fwht":
            fwht(np.random.default_rng(k).integers(-1, 2, size=1 << k).astype(np.int32))
        else:
            f = make_field(k)
            sign_transforms(f, list(range(1, f.order))[:tables_per_block(f)])
        block = [(a, b, dtype) for a, b, dtype in products
                 if a is not walsh_module._hadamard(a.shape[-1].bit_length() - 1, dtype)]
        assert block and (len(block) < len(products)) == (k > 16)
        for a, b, dtype in block:
            bits = b.shape[0].bit_length() - 1
            assert b is walsh_module._hadamard(bits, dtype)
            assert a.shape[-2] << 2 * bits <= walsh_module._PRODUCT_CAP

    @pytest.mark.parametrize("k", [0, 3, 12, 16, 17, 19])
    def test_float32_runs_in_place_and_matches_int32(self, k, monkeypatch):
        # a float32 array is its own product dtype: each 2^16-entry block is
        # transformed where it lies, not copied into a scratch buffer
        bits = np.random.default_rng(300 + k).integers(0, 2, size=1 << k)
        want = fwht(bits.astype(np.int32))
        x = bits.astype(np.float32)
        runs = []
        real = walsh_module._rotating
        monkeypatch.setattr(walsh_module, "_rotating",
                            lambda a, b, k: runs.append(np.shares_memory(a, x)) or real(a, b, k))
        assert fwht(x) is x and x.dtype == np.float32
        assert len(runs) == max(1, x.size >> 16) and all(runs)
        assert np.array_equal(x, want)

    def test_allocates_only_the_buffers_it_uses(self):
        # a float32 block is transformed where it lies: one 256 KiB scratch
        # buffer, no copy buffer; an int32 input takes both and gives the
        # same result
        bits = np.random.default_rng(16).integers(0, 2, size=1 << 16)
        want = fwht(bits.astype(np.int32))
        x = bits.astype(np.float32)
        fwht(x.copy())  # the Hadamard factors are built on first use
        tracemalloc.start()
        try:
            fwht(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(x, want)
        assert peak <= (1 << 18) + (1 << 14), f"peak {peak} bytes"

    def test_fwht_runs_in_place(self, field6):
        signs = truth_table(field6, 19)
        assert fwht(signs) is signs
        assert np.array_equal(signs[field6.dual_indices(np.arange(64, dtype=np.int32))],
                              walsh_coefficients_naive(field6, 19))


class TestFwhtColumns:
    @pytest.mark.parametrize("r,n", [(0, 3), (1, 1), (5, 7), (6, 300)])
    def test_each_column_is_one_butterfly(self, r, n):
        x = np.random.default_rng(r).integers(-6, 7, size=(1 << r, n)).astype(np.int32)
        out = fwht_columns(x.copy())
        assert out.dtype == np.int32
        for col in range(n):
            assert np.array_equal(out[:, col], fwht(x[:, col].copy()))

    @pytest.mark.parametrize("r", [7, 10, 12])
    def test_columns_across_chunk_boundaries(self, r):
        # a chunk holds 2^16 / 2^r columns; two full chunks and a ragged one
        width = (1 << 16) >> r
        x = np.random.default_rng(r).integers(-9, 10, size=(1 << r, 2 * width + 3))
        out = fwht_columns(x.astype(np.int32))
        assert out.dtype == np.int32
        assert np.array_equal(out, np.stack([_radix2_reference(col) for col in x.T], axis=1))

    @pytest.mark.parametrize("r", [0, 3, 12, 17])
    def test_one_column_is_one_run_of_the_flat_kernel(self, r, monkeypatch):
        # a single column is the flat array itself: full matrix products,
        # no more of them than fwht makes on the same entries
        x = np.random.default_rng(r).integers(-9, 10, size=(1 << r, 1)).astype(np.int32)
        calls = []
        real = walsh_module._matmul
        monkeypatch.setattr(walsh_module, "_matmul",
                            lambda a, b, out: calls.append((a.shape, b.shape)) or real(a, b, out))
        flat = fwht(x.reshape(-1).copy())
        flat_calls = calls[:]
        calls.clear()
        out = fwht_columns(x.copy())
        assert np.array_equal(out.reshape(-1), flat)
        assert np.array_equal(flat, _radix2_reference(x.reshape(-1)))
        assert len(calls) <= len(flat_calls)
        # each (rows x 2^b) @ H_(2^b) product is as tall as the cap allows,
        # or covers the whole column
        for a_shape, b_shape in calls:
            rows, side = a_shape[-2], b_shape[0]
            assert rows * side * side == walsh_module._PRODUCT_CAP or rows * side == x.size

    def test_one_column_chunks(self):
        # 2^17 rows fill a chunk with one column; each runs through the flat kernel
        x = np.random.default_rng(5).integers(-3, 4, size=(1 << 17, 3)).astype(np.int32)
        out = fwht_columns(x.copy())
        assert np.array_equal(out, np.stack([_radix2_reference(col) for col in x.T], axis=1))

    def test_runs_in_place_and_rejects_what_fwht_rejects(self):
        x = np.ones((4, 2), dtype=np.int64)
        assert fwht_columns(x) is x
        for bad in (np.ones((6, 2), dtype=np.int64), np.ones((4, 2), dtype=np.uint8),
                    np.ones((4, 4), dtype=np.int32)[:, ::2]):
            with pytest.raises(DomainError):
                fwht_columns(bad)


def _oracle_transform(field: Field, d: int) -> np.ndarray:
    """The butterfly of the sign table built from power_map and trace_bits,
    by the radix-2 reference: no scatter, no Hadamard factors."""
    return _radix2_reference(1 - 2 * field.trace_bits()[field.power_map(d)].astype(np.int64))


def _blocks(field: Field, ds: list[int]) -> list[list[int]]:
    size = tables_per_block(field)
    return [ds[lo:lo + size] for lo in range(0, len(ds), size)]


def _invertible(field: Field) -> list[int]:
    return [d for d in range(1, field.order) if gcd(d, field.order) == 1]


class TestSignTransforms:
    @pytest.mark.parametrize("m", [4, 6, 8, 10, 12])
    def test_every_invertible_exponent(self, m):
        f = make_field(m)
        ds = [d for d in range(1, f.order) if gcd(d, f.order) == 1]
        for block in _blocks(f, ds):
            got = sign_transforms(f, block)
            assert got.dtype == np.int32 and got.shape == (len(block), f.q)
            for d, row in zip(block, got):
                assert np.array_equal(row, _oracle_transform(f, d)), f"m={m} d={d}"

    @pytest.mark.parametrize("m", [10, 12, 14])
    def test_ragged_block_and_single_exponent(self, m):
        # the last block of a scan is short; one exponent takes fwht itself
        f = make_field(m)
        ds = [d for d in range(1, f.order) if gcd(d, f.order) == 1]
        size = tables_per_block(f)
        assert size == (1 << 16) >> m
        ragged = ds[-(size // 2 + 1):]
        got = sign_transforms(f, ragged)
        for d, row in zip(ragged, got):
            assert np.array_equal(row, fwht(truth_table(f, d))), f"d={d}"
            assert np.array_equal(sign_transforms(f, [d])[0], row)

    @pytest.mark.parametrize("m", [2, 3, 5, 6, 8, 9, 10, 12])
    def test_random_moduli_with_and_without_tables(self, m, random_modulus):
        # a full block, and K in {2, 3, 5, 17, 33}: a carried axis whose
        # length is not a power of two, and K past tables_per_block
        rng = random.Random(9100 + m)
        for _ in range(3):
            modulus = random_modulus(m, rng)
            ft = make_field(m, modulus)
            fn = make_field(m, modulus, table_cap=1)
            assert ft.has_tables and not fn.has_tables
            ds = [d for d in range(1, ft.order) if gcd(d, ft.order) == 1]
            blocks = [rng.sample(ds, min(len(ds), tables_per_block(ft)))]
            blocks += [rng.choices(range(1, ft.order), k=k) for k in (2, 3, 5, 17, 33)]
            for block in blocks:
                want = np.stack([_oracle_transform(ft, d) for d in block])
                for f in (ft, fn):
                    assert np.array_equal(sign_transforms(f, block), want), \
                        f"modulus={modulus:#x} K={len(block)} tables={f.has_tables}"

    def test_non_invertible_exponents_and_blocks_of_several_sizes(self, field8, field12):
        # any exponent in range has a sign table, and a block may hold more
        # than tables_per_block exponents (16 at m = 12)
        for f, block in ((field8, [3, 5, 15, 17, 51, 85]), (field8, [7, 21]),
                         (field8, list(range(1, 255))), (field12, list(range(1, 80, 2)))):
            got = sign_transforms(f, block)
            for d, row in zip(block, got):
                assert np.array_equal(row, _oracle_transform(f, d)), f"m={f.m} d={d}"

    def test_no_exponents(self, field6):
        assert sign_transforms(field6, []).shape == (0, 64)

    def test_rejects_exponents_out_of_range(self, field6):
        for block in ([0, 5], [5, 63]):
            with pytest.raises(DomainError):
                sign_transforms(field6, block)

    def test_blocks_on_other_threads(self):
        # scan's pool runs blocks at once, each on its own buffers
        from concurrent.futures import ThreadPoolExecutor
        f = make_field(12)
        ds = [d for d in range(1, f.order) if gcd(d, f.order) == 1][:160]
        blocks = _blocks(f, ds)
        serial = [sign_transforms(f, b) for b in blocks]
        with ThreadPoolExecutor(4) as pool:
            pooled = list(pool.map(lambda b: sign_transforms(f, b), blocks))
        for one, many in zip(serial, pooled):
            assert np.array_equal(one, many)


class TestInt32Result:
    @pytest.mark.parametrize("m", [10, 12, 16, 17, 20])
    def test_below_a_lowered_float32_limit(self, m, random_modulus, monkeypatch):
        # the route above q = 2^24, run here by lowering the limit: the
        # parity bytes go into the int32 result itself, several rows of one
        # block through _rotating in int32, one row or longer rows through
        # fwht in float64
        rng = random.Random(2400 + m)
        modulus = random_modulus(m, rng)
        for table_cap in (DEFAULT_TABLE_CAP, 1):
            f = make_field(m, modulus, table_cap=table_cap)
            ds = rng.sample(range(1, f.order), max(3, tables_per_block(f) // 2 + 1))
            signs = truth_table(f, ds[0])
            want = np.stack([fwht(signs.copy())] + [fwht(truth_table(f, d)) for d in ds[1:]])
            placed = np.empty_like(signs)
            placed[f.dual_indices(np.arange(f.q, dtype=np.int32))] = signs
            fwht(placed)
            values, counts = np.unique(want[0], return_counts=True)
            label = f"modulus={modulus:#x} ds={ds[:3]} tables={f.has_tables}"
            seen = []
            real = walsh_module._matmul
            with monkeypatch.context() as patch:
                patch.setattr(walsh_module, "_FLOAT32_EXACT", 1 << (m - 1))
                patch.setattr(walsh_module, "_matmul",
                              lambda a, b, out: seen.append(out.dtype) or real(a, b, out))
                assert np.array_equal(sign_transforms(f, ds), want), label
                assert np.array_equal(sign_transforms(f, ds[:1]), want[:1]), label
                assert np.array_equal(walsh_coefficients(f, ds[0]), placed), label
                assert walsh_spectrum(f, ds[0]).entries == \
                    tuple(zip(values.tolist(), counts.tolist())), label
            want_types = {np.dtype(np.float64)} | ({np.dtype(np.int32)} if m <= 16 else set())
            assert set(seen) == want_types, label


class TestInt32Exactness:
    """The int32 path where it would break first: the extreme coefficient
    2^m and the squares past 2^31."""

    def test_extreme_coefficient_at_m16(self):
        spec = walsh_spectrum(make_field(16), 1)
        assert spec.count(1 << 16) == 1
        assert spec.count(0) == (1 << 16) - 1

    def test_parseval_past_int32_at_m16(self):
        ident = subfield_identities(make_field(16), 1)
        assert ident.sum_residual == 0
        assert ident.square_sum_residual == 0

    @pytest.mark.parametrize("m", range(2, 11))
    def test_butterfly_matches_direct_sums(self, m, random_modulus):
        rng = random.Random(3000 + m)
        for modulus in (None, random_modulus(m, rng)):
            f = make_field(m, modulus)
            d = rng.randrange(1, f.q - 1)
            arr = fwht(truth_table(f, d))
            assert arr.dtype == np.int32 and truth_table(f, d).dtype == np.int32
            duals = f.dual_indices(np.arange(f.q, dtype=np.int32))
            assert np.array_equal(arr[duals], walsh_coefficients_naive(f, d)), \
                f"m={m} modulus={modulus} d={d}"


class TestMemory:
    @pytest.mark.parametrize("m", [18, 20])
    def test_spectrum_peak_on_a_warm_field(self, m):
        # the sign table is the only q-sized array: the butterfly runs on it
        # in place and the histogram sorts it in place
        f = make_field(m)
        f.antilog()  # built here, not by the traced call's walk
        d = 3 + (1 << (m // 2 + 1))
        expected = walsh_spectrum(f, d)
        tracemalloc.start()
        try:
            spec = walsh_spectrum(f, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec == expected
        assert peak <= 1.6 * 4 * f.q, f"peak {peak / (4 * f.q):.2f} x 4q"

    @pytest.mark.parametrize("table_cap", [DEFAULT_TABLE_CAP, 1], ids=["tables", "tableless"])
    @pytest.mark.parametrize("fn", [truth_table, walsh_coefficients, walsh_spectrum],
                             ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("m", [18, 19, 20])
    def test_sign_table_and_its_bytes_are_the_peak(self, m, fn, table_cap):
        # the positions stream a block at a time, from the antilog or
        # without tables as products by a constant, and walsh_coefficients
        # maps each block to dual coordinates: no q-sized position array
        f = make_field(m, table_cap=table_cap)
        if f.has_tables:
            f.antilog()  # built here, not by the traced call's walk
        d = 3 + (1 << (m // 2 + 1))
        expected = fn(f, d)
        tracemalloc.start()
        try:
            got = fn(f, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, expected) if fn is not walsh_spectrum else got == expected
        assert peak <= 1.6 * 4 * f.q, f"peak {peak / (4 * f.q):.2f} x 4q"

    @pytest.mark.parametrize("table_cap", [DEFAULT_TABLE_CAP, 1], ids=["tables", "tableless"])
    @pytest.mark.parametrize("m", [19, 20])
    def test_one_coefficient_holds_no_q_sized_index(self, m, table_cap):
        # the trace m-sequence written twice (2q bytes) and, without tables,
        # the antilog built for the call are the only arrays that grow with q
        f = make_field(m, table_cap=table_cap)
        d, a = 3 + (1 << (m // 2 + 1)), f.q - 3
        expected = walsh_coefficient(f, d, a)
        tracemalloc.start()
        try:
            got = walsh_coefficient(f, d, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak <= (2.0 if f.has_tables else 3.0) * 4 * f.q, f"peak {peak / (4 * f.q):.2f} x 4q"


class TestStreamedSignTables:
    @pytest.mark.parametrize("m", range(2, 21))
    def test_tableless_equals_tabled(self, m, random_modulus):
        # one scatter block up to m = 14, several with a last partial one
        # from m = 15 on, odd and even m; both placements, the antilog and
        # the dual coordinates
        rng = random.Random(5000 + m)
        for modulus in (PRIMITIVE_POLY[m], random_modulus(m, rng)):
            ft = make_field(m, modulus)
            fn = make_field(m, modulus, table_cap=1)
            assert ft.has_tables and not fn.has_tables
            n = ft.order
            ds = [next(d for d in iter(lambda: rng.randrange(1, n), None) if gcd(d, n) == 1)]
            p = field_module._prime_factors(n)[0]
            if p < n:
                ds.append(p * rng.randrange(1, n // p))
            duals = ft.dual_indices(np.arange(ft.q, dtype=np.int32))
            for d in ds:
                plain = walsh_module._parity_transforms(ft, (d,), dual=False)[0]
                placed = walsh_module._parity_transforms(ft, (d,), dual=True)[0]
                # entry dual_index(a) of the plain transform is W_d(a)
                assert np.array_equal(plain[duals], placed), f"d={d}"
                for dual, want in ((False, plain), (True, placed)):
                    got = walsh_module._parity_transforms(fn, (d,), dual=dual)[0]
                    assert got.dtype == np.int32
                    assert np.array_equal(got, want), f"modulus={modulus:#x} d={d} dual={dual}"


class TestColdFields:
    """Above one _POWER_BLOCK a field builds its antilog on first use: a
    one-exponent call on a fresh field streams its positions, and the
    field's second walk builds the antilog for the calls after it."""

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        built = []
        antilog = Field._antilog

        def counted(self, *args):
            built.append(self.m)
            return antilog(self, *args)

        monkeypatch.setattr(Field, "_antilog", counted)
        return built

    @pytest.mark.parametrize("fn", [truth_table, walsh_coefficients, walsh_spectrum],
                             ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("m", [18, 20])
    def test_a_cold_call_streams_and_a_second_builds_once(self, m, fn, monkeypatch,
                                                          random_modulus):
        rng = random.Random(9000 + m)
        modulus = random_modulus(m, rng)
        d = 3 + (1 << (m // 2 + 1))
        want = fn(make_field(m, modulus, table_cap=1), d)
        built = self._count_builds(monkeypatch)
        tracemalloc.start()
        try:
            f = make_field(m, modulus)
            got = fn(f, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        same = (lambda x: x == want) if fn is walsh_spectrum else \
            (lambda x: np.array_equal(x, want))
        assert same(got) and f.has_tables and f._alog is None and built == []
        # the whole call, make_field included, peaks at the result, its
        # bytes and the butterfly's buffers
        assert peak <= 1.6 * 4 * f.q, f"peak {peak / (4 * f.q):.2f} x 4q"
        # the second walk, plain or dual, builds the antilog; later calls
        # read it
        assert same(fn(f, d)) and built == [m] and f._alog is not None
        assert same(fn(f, d)) and same(fn(f, d)) and built == [m]

    @pytest.mark.parametrize("check", ["bound", "sarwate"])
    def test_check_exponents_builds_the_antilog_once(self, check, monkeypatch):
        # one exponent per block at m = 18: the second block's walk builds
        # the antilog, which the third block and the oracle read
        m = 18
        f = make_field(m)
        n = f.order
        ds = [d for d in (3, 5, 7, 11, 13) if gcd(d, n) == 1][:3]
        want = check_exponents(make_field(m, table_cap=1), ds, check)
        built = self._count_builds(monkeypatch)
        assert check_exponents(f, ds, check) == want
        assert built == [m]

    def test_threads_sharing_a_cold_field_agree(self, monkeypatch):
        # scan workers share one field: one thread builds the antilog, once,
        # while the others stream or wait for it
        m, ds = 17, [3, 5, 7, 9, 11, 13, 15, 17]
        want = [sign_transforms(make_field(m, table_cap=1), [d])[0] for d in ds]
        built = self._count_builds(monkeypatch)
        f = make_field(m)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as ex:
                futures = [ex.submit(sign_transforms, f, [d]) for d in ds]
                got = [fut.result(timeout=60)[0] for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert built == [m]
        assert f._alog is not None and np.array_equal(f._alog, f._antilog())

    @pytest.mark.parametrize("table_cap", [DEFAULT_TABLE_CAP, 1], ids=["tables", "tableless"])
    @pytest.mark.parametrize("m", [17, 19, 20])
    def test_cold_coefficients_equal_the_oracle(self, m, table_cap, random_modulus):
        rng = random.Random(9100 + m)
        f = make_field(m, random_modulus(m, rng), table_cap=table_cap)
        d = rng.randrange(1, f.order)
        got = walsh_coefficients(f, d)
        assert f._alog is None
        points = [0, 1, *(rng.randrange(f.q) for _ in range(6))]
        assert [int(got[a]) for a in points] == walsh_coefficients_at(f, [d] * 8, points), \
            f"modulus={f.modulus:#x} d={d} tables={f.has_tables}"


class TestOneExponentTransforms:
    @pytest.mark.parametrize("m", range(2, 21))
    def test_equal_the_int32_reference(self, m, random_modulus):
        # the parity bytes transformed in the float32 view of the result
        # against the int32 signs through fwht; one 2^16-entry block up to
        # m = 16, a column stage above
        rng = random.Random(7000 + m)
        modulus = random_modulus(m, rng)
        d = rng.randrange(1, (1 << m) - 1)
        for table_cap in (DEFAULT_TABLE_CAP, 1):
            f = make_field(m, modulus, table_cap=table_cap)
            signs = truth_table(f, d)
            want = fwht(signs.copy())
            placed = np.empty_like(signs)
            placed[f.dual_indices(np.arange(f.q, dtype=np.int32))] = signs
            values, counts = np.unique(want, return_counts=True)
            label = f"modulus={modulus:#x} d={d} tables={f.has_tables}"
            got = sign_transforms(f, [d])
            assert got.dtype == np.int32 and np.array_equal(got, want[None]), label
            got = walsh_coefficients(f, d)
            assert got.dtype == np.int32 and np.array_equal(got, fwht(placed)), label
            assert walsh_spectrum(f, d).entries == \
                tuple(zip(values.tolist(), counts.tolist())), label


class TestValidation:
    def test_exponent_range(self, field6):
        for bad in (0, -3, 63, 100):
            with pytest.raises(DomainError):
                walsh_spectrum(field6, bad)

    def test_element_range(self, field6):
        with pytest.raises(DomainError):
            walsh_coefficient(field6, 19, 64)


class TestSubfieldSum:
    def test_collapses_on_subfield_units(self, field6):
        for u in field6.subfield_elements():
            if u:
                assert subfield_sum_check(field6, 19, u) == 64

    def test_vanishes_outside_for_reference_exponent(self, field6):
        outs = [u for u in range(1, 64) if not field6.in_subfield(u)]
        for u in outs:
            assert subfield_sum_check(field6, 19, u) == 0

    def test_zero_rejected(self, field6):
        with pytest.raises(DomainError):
            subfield_sum_check(field6, 19, 0)
