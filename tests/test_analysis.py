"""Structural-analysis layer: exponent classification, character-sum
identities, solution-set evaluation, the sextic census, Dickson permutation
tests, and the two spectral bound checks."""

import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import walsh_lab.walsh as walsh_module
from walsh_lab import (
    Field,
    DomainError,
    UnsupportedError,
    character_sum_from_multiset,
    check_bound,
    check_exponents,
    check_no_six,
    check_sarwate,
    conjugate_power_multiset,
    coset_leaders,
    dickson_is_permutation,
    dickson_value,
    exponent_profile,
    family_spectrum,
    make_field,
    mod_inverse,
    sextic_census,
    spectrum_to_weights,
    subfield_character_sum,
    subfield_identities,
    tables_per_block,
    walsh_coefficient,
    walsh_coefficients,
    walsh_from_solutions,
    walsh_solution_set,
    walsh_spectrum,
    weight_distribution,
    weighted_walsh_identity,
)
from walsh_lab import analysis
from walsh_lab.predict import predicted_spectrum

CENSUS_T6 = {0: 21, 1: 26, 2: 16, 6: 1}
CENSUS_T10 = {0: 341, 1: 410, 2: 256, 6: 17}


class TestExponentProfile:
    def test_reference_even_exponent(self):
        p = exponent_profile(12, 131)
        assert p.gcd_q1 == 1
        assert (131 * p.inv_d) % 4095 == 1
        assert p.is_niho is False
        assert p.family_i == 1  # 131 = 1 + 2 + 2^7
        assert p.v2_ok is True

    def test_reference_odd_t_exponent(self):
        p = exponent_profile(6, 19)
        assert p.family_i == 1  # 19 = 1 + 2 + 2^4
        assert p.v2_ok is True
        assert p.is_niho is False

    def test_family_detection_up_to_conjugacy(self):
        # 2*19 mod 63 = 38 sits in the same cyclotomic class as 19
        assert exponent_profile(6, 38).family_i == 1

    def test_niho_exponent(self):
        p = exponent_profile(8, 17)  # 17 = 2 mod 15
        assert p.is_niho is True
        assert p.gcd_q1 == 17
        assert p.inv_d is None

    def test_outside_family(self):
        assert exponent_profile(6, 5).family_i is None

    def test_odd_degree_has_no_subfield_attributes(self):
        p = exponent_profile(5, 3)
        assert p.is_niho is None and p.family_i is None and p.v2_ok is None

    def test_range_validation(self):
        with pytest.raises(DomainError):
            exponent_profile(6, 0)
        with pytest.raises(DomainError):
            exponent_profile(6, 63)


class TestCharacterSums:
    def test_subfield_arguments_give_full_sum(self, field6):
        # for b in L every summand is +1: the trace vanishes on L
        for d in (5, 19, 23):
            for b in field6.subfield_elements():
                assert subfield_character_sum(field6, d, b).value == 8

    def test_gold_exponent_magnitudes(self, field6):
        # d = 1 + 2^2: |M_b| = 2^t whenever the relative trace of b is 1
        for b in range(64):
            if field6.trace_rel(b) == 1:
                assert abs(subfield_character_sum(field6, 5, b).value) == 8

    def test_exponent_range(self, field6):
        # the same [1, 2^m - 2] range walsh_spectrum enforces
        for bad in (0, 63, 100):
            with pytest.raises(DomainError):
                subfield_character_sum(field6, bad, 3)
            with pytest.raises(DomainError):
                conjugate_power_multiset(field6, bad)
            with pytest.raises(DomainError):
                subfield_identities(field6, bad)

    def test_epsilon_convention(self, field6):
        for b in (3, 17, 40, 62):
            cs = subfield_character_sum(field6, 19, b)
            if cs.value > 0:
                assert cs.epsilon == -1
            else:
                assert cs.epsilon == 1
            assert cs.epsilon * cs.value == -abs(cs.value)

    def test_weighted_identity_all_outside_elements(self, field6):
        outs = [b for b in range(64) if not field6.in_subfield(b)]
        assert len(outs) == 56
        for b in outs:
            chk = weighted_walsh_identity(field6, 19, b)
            assert chk.holds, f"b={b}: {chk.lhs} != {chk.rhs}"

    def test_weighted_identity_sample_other_exponent(self, field12):
        rng = random.Random(31)
        picked = 0
        while picked < 8:
            b = rng.randrange(4096)
            if field12.in_subfield(b):
                continue
            assert weighted_walsh_identity(field12, 131, b).holds
            picked += 1

    def test_weighted_identity_rejects_subfield_b(self, field6):
        with pytest.raises(DomainError):
            weighted_walsh_identity(field6, 19, 1)


class TestPowerMultiset:
    def test_structure(self, field6):
        mult = conjugate_power_multiset(field6, 19)
        assert mult.c_order == 9  # default: the full unit circle
        assert mult.total() == 8
        sub = set(field6.subfield_elements())
        for g, n in mult.entries:
            assert g in sub
            assert n % 2 == 0

    def test_character_reconstruction(self, field6):
        mult = conjugate_power_multiset(field6, 19)
        for u in field6.subfield_elements():
            direct = subfield_character_sum(field6, 19, field6.mul(u, mult.c)).value
            assert character_sum_from_multiset(field6, mult, u) == direct

    def test_square_sum_lower_bound(self, field6):
        mult = conjugate_power_multiset(field6, 19)
        total = sum(
            character_sum_from_multiset(field6, mult, u) ** 2
            for u in field6.subfield_elements()
        )
        assert total >= 2 ** 7

    def test_reconstruction_rejects_outsiders(self, field6):
        mult = conjugate_power_multiset(field6, 19)
        outsider = next(x for x in range(64) if not field6.in_subfield(x))
        with pytest.raises(DomainError):
            character_sum_from_multiset(field6, mult, outsider)


class TestSquareIdentities:
    @pytest.mark.parametrize("m,d", [(6, 19), (6, 5), (6, 31), (12, 131)])
    def test_both_identities_hold(self, m, d):
        f = make_field(m)
        summary = subfield_identities(f, d).square
        assert summary.total_identity
        assert summary.coset_identity
        assert summary.holds
        assert summary.boundary_count >= summary.off_subfield_boundary

    @pytest.mark.parametrize("m", [8, 10])
    def test_hold_whenever_d_permutes_subfield_units(self, m):
        # The proof substitutes b -> z*b and sums over z^d as z runs over L*,
        # which needs z -> z^d to permute L*: gcd(d, 2^t - 1) = 1.
        f = make_field(m)
        sub_order = (1 << (m // 2)) - 1
        failing = [d for d in range(1, 200)
                   if gcd(d, sub_order) == 1 and not subfield_identities(f, d).square.holds]
        assert failing == []


# (m, modulus, d): the default and one other primitive modulus per m > 2; at
# m >= 4 each d list has an exponent with gcd(d, 2^t - 1) > 1.  m = 2 and 4
# give the smallest butterflies over L, m = 12 the largest here.
ONE_PASS_CASES = [
    (m, modulus, d)
    for m, moduli, ds in (
        (2, (None,), (1, 2)),
        (4, (None, 0x19), (7, 3, 5)),
        (6, (None, 0x61), (19, 7, 21)),
        (8, (None, 0x12B), (35, 3, 5)),
        (10, (None, 0x41B), (67, 31, 93)),
        (12, (None, 0x107B), (7,)),
    )
    for modulus in moduli
    for d in ds
]


class TestSubfieldIdentities:
    """The one-pass route against the per-point oracles."""

    @pytest.mark.parametrize("m,modulus,d", ONE_PASS_CASES)
    def test_weighted_identities_match_oracle(self, m, modulus, d):
        f = make_field(m, modulus)
        rep = subfield_identities(f, d)
        assert rep.points.size == (1 << (m // 2)) - 1
        for b, lhs, rhs in zip(rep.points, rep.lhs, rep.rhs):
            chk = weighted_walsh_identity(f, d, int(b))
            assert (lhs, rhs) == (chk.lhs, chk.rhs), f"b={b}"

    @pytest.mark.parametrize("m,modulus,d", ONE_PASS_CASES)
    def test_character_sums_match_oracle(self, m, modulus, d):
        f = make_field(m, modulus)
        msums = subfield_identities(f, d).character_sums
        assert [int(v) for v in msums] == [
            subfield_character_sum(f, d, b).value for b in range(f.q)
        ]

    @pytest.mark.parametrize("m,modulus,d", ONE_PASS_CASES)
    def test_subfield_walsh_matches_oracle(self, m, modulus, d):
        f = make_field(m, modulus)
        walsh = subfield_identities(f, d).subfield_walsh
        assert [int(w) for w in walsh] == [
            walsh_coefficient(f, d, a) for a in f.subfield_elements()
        ]

    @pytest.mark.parametrize("m,modulus,d", ONE_PASS_CASES)
    def test_points_are_one_per_nonzero_coset_in_order_of_u(self, m, modulus, d):
        f = make_field(m, modulus)
        points = subfield_identities(f, d).points
        c = f.designated_generator((1 << (m // 2)) + 1)
        assert points.tolist() == [f.mul(u, c) for u in f.subfield_elements() if u]
        labels = f.coset_labels()[points]
        assert sorted(labels.tolist()) == list(range(1, 1 << (m // 2)))

    @settings(derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_drawn_points_match_oracles(self, data, random_modulus):
        m = data.draw(st.sampled_from([2, 4, 6, 8, 10]), "m")
        seed = data.draw(st.integers(0, 1 << 16), "seed")
        f = make_field(m, random_modulus(m, random.Random(seed)))
        d = data.draw(st.integers(1, f.q - 2), "d")
        rep = subfield_identities(f, d)
        i = data.draw(st.integers(0, rep.points.size - 1), "i")
        chk = weighted_walsh_identity(f, d, int(rep.points[i]))
        assert (rep.lhs[i], rep.rhs[i]) == (chk.lhs, chk.rhs)
        x = data.draw(st.integers(0, f.q - 1), "x")
        assert rep.character_sums[x] == subfield_character_sum(f, d, x).value

    @pytest.mark.parametrize("m,d", [(7, 11), (10, 67), (12, 7)])
    def test_tableless_report_matches_tables(self, m, d):
        # even m reads the signs from power_map, odd m from sign_transforms
        ft, fn = make_field(m), make_field(m, table_cap=1)
        rt, rn = subfield_identities(ft, d), subfield_identities(fn, d)
        assert (rt.sum_residual, rt.square_sum_residual) == (0, 0)
        assert (rn.sum_residual, rn.square_sum_residual) == (0, 0)
        for name in ("subfield_walsh", "character_sums", "points", "lhs", "rhs"):
            a, b = getattr(rt, name), getattr(rn, name)
            assert (a is None and b is None) or np.array_equal(a, b), name
        assert rt.square == rn.square

    def test_peak_memory_near_the_spectrum_path(self):
        # the sign table, M_b, the butterfly's transposed copy and its
        # half-size scratch are the only q-sized int32 arrays alive at once
        f = make_field(18)
        f.antilog()  # built here, not by a walk inside the traced call
        tracemalloc.start()
        try:
            subfield_identities(f, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 4 * f.q

    def test_one_power_map_per_call(self, monkeypatch):
        f = make_field(10)
        calls = []
        power_map = Field.power_map

        def counted(self, d):
            calls.append(d)
            return power_map(self, d)

        monkeypatch.setattr(Field, "power_map", counted)
        subfield_identities(f, 67)
        assert calls == [67]


class TestSolutionSets:
    def test_b_zero_gives_pair(self, field6, field12):
        assert walsh_solution_set(field6, 1, 0).elements == (0, 1)
        assert walsh_solution_set(field12, 1, 0).elements == (0, 1)

    def test_pair_exactly_when_v2_condition_holds(self, field12):
        # |S_0| = 2 iff v2(i + 1) >= v2(t); at t = 6 that means i in {1, 3}
        for i, expect_pair in ((1, True), (2, False), (3, True), (4, False)):
            size = len(walsh_solution_set(field12, i, 0).elements)
            assert (size == 2) == expect_pair, f"i={i}: |S_0| = {size}"

    def test_theta_inverse_coefficient(self, field6, field12):
        for f, t in ((field6, 3), (field12, 6)):
            ss = walsh_solution_set(f, 1, 0)
            assert walsh_from_solutions(f, 1, f.inv(ss.theta), 0) == 2 ** (t + 1)

    def test_matches_direct_coefficient_exhaustively_small(self, field6):
        ss = walsh_solution_set(field6, 1, 0)
        cbar = field6.pow(ss.c, 8)
        for a in field6.subfield_elements():
            for b in field6.subfield_elements():
                lhs = walsh_from_solutions(field6, 1, a, b)
                rhs = walsh_coefficient(field6, 19, a ^ field6.mul(b, cbar))
                assert lhs == rhs, f"(a, b) = ({a}, {b})"

    def test_matches_direct_coefficient_sampled_large(self, field12):
        ss = walsh_solution_set(field12, 1, 0)
        cbar = field12.pow(ss.c, 64)
        sub = field12.subfield_elements()
        rng = random.Random(77)
        for _ in range(40):
            a, b = rng.choice(sub), rng.choice(sub)
            lhs = walsh_from_solutions(field12, 1, a, b)
            rhs = walsh_coefficient(field12, 131, a ^ field12.mul(b, cbar))
            assert lhs == rhs

    def test_validation(self, field12):
        with pytest.raises(DomainError):
            walsh_solution_set(field12, 0, 0)
        with pytest.raises(DomainError):
            walsh_solution_set(field12, 5, 0)
        outsider = next(x for x in range(4096) if not field12.in_subfield(x))
        with pytest.raises(DomainError):
            walsh_solution_set(field12, 1, outsider)
        with pytest.raises(DomainError):
            walsh_from_solutions(field12, 1, outsider, 0)
        with pytest.raises(DomainError):
            walsh_from_solutions(field12, 2, 0, 0)  # d = 261 shares a factor with 4095


class TestSexticCensus:
    def test_frozen_t6(self):
        rep = sextic_census(make_field(6))
        assert rep.counts == CENSUS_T6
        assert rep.closed_form == CENSUS_T6
        assert rep.closed_form_match is True

    def test_frozen_t10(self):
        rep = sextic_census(make_field(10))
        assert rep.counts == CENSUS_T10
        assert rep.closed_form_match is True

    def test_conservation(self):
        for t in (4, 5, 6, 7):
            rep = sextic_census(make_field(t))
            assert sum(k * n for k, n in rep.counts.items()) == 2 ** t
            assert sum(rep.counts.values()) == 2 ** t

    def test_not_applicable_outside_regime(self):
        rep = sextic_census(make_field(5))
        assert rep.closed_form is None
        assert rep.closed_form_match is None

    def test_witnesses_are_actual_solutions(self):
        f = make_field(6)
        rep = sextic_census(f)
        for k, (w, sols) in rep.witnesses.items():
            assert len(sols) == k
            for z in sols:
                assert f.pow(z, 6) ^ z == w


FAMILY_PAIRS = [(t, i) for t in range(3, 11) for i in range(1, t - 1)] + [(11, 1), (12, 1)]


class TestFamilySpectrum:
    @pytest.mark.parametrize("t,i", FAMILY_PAIRS)
    def test_equals_the_butterfly(self, t, i):
        # invertible d or not: the identity holds for every i in [1, t - 2]
        d = 1 + (1 << i) + (1 << (i + t))
        spec = family_spectrum(make_field(t), i)
        assert (spec.m, spec.d) == (2 * t, d)
        big = make_field(2 * t)
        assert spec == walsh_spectrum(big, d)
        # and for invertible d its fold is the code's weight distribution
        if gcd(d, big.order) == 1:
            assert spectrum_to_weights(spec) == weight_distribution(big, d)

    @settings(derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_any_primitive_modulus_of_l(self, data, random_modulus):
        t = data.draw(st.integers(3, 12), "t")
        i = data.draw(st.integers(1, t - 2), "i")
        seed = data.draw(st.integers(0, 1 << 16), "seed")
        cap = data.draw(st.sampled_from([1, 1 << 22]), "table_cap")
        other = make_field(t, random_modulus(t, random.Random(seed)), table_cap=cap)
        assert family_spectrum(other, i) == family_spectrum(make_field(t), i)

    @pytest.mark.parametrize("t", range(15, 21))
    def test_parseval_sums_beyond_the_butterfly(self, t):
        spec = family_spectrum(make_field(t))
        m = 2 * t
        assert spec.total() == 1 << m
        assert spec.moment(1) == 1 << m
        assert spec.moment(2) == 1 << (2 * m)

    @pytest.mark.parametrize("t", [15, 17, 18, 19, 21])
    def test_min_distance_beyond_the_field(self, t):
        # m = 2t > 28: the fold needs no GF(2^m); d = 3 + 2^(t+1) is invertible
        m = 2 * t
        dist = spectrum_to_weights(family_spectrum(make_field(t)))
        assert dist.total() == 1 << (2 * m)
        assert dist.count(0) == 1
        extra = 0 if t % 2 else 1
        assert dist.min_distance == (1 << (m - 1)) - (1 << (t + extra))

    @pytest.mark.parametrize("t", [13, 14, 15, 17, 18, 21])
    def test_closed_form_tables(self, t):
        assert family_spectrum(make_field(t)) == predicted_spectrum(t)

    def test_no_loop_over_the_fibres(self, monkeypatch):
        # t = 18 has (2^16 - 1) / 15 = 4369 fibres of size 6 and one over w = 0;
        # each size is reduced in one block
        calls = []
        original = analysis._span_coordinates

        def counted(z):
            calls.append(z.shape)
            return original(z)

        monkeypatch.setattr(analysis, "_span_coordinates", counted)
        family_spectrum(make_field(18))
        assert sorted(calls) == [(1, 2), (4369, 6)]

    def test_i_out_of_range(self, field6):
        for i in (0, 5):
            with pytest.raises(DomainError):
                family_spectrum(field6, i)


class TestDickson:
    def test_closed_form(self, field6):
        # D_5(x) = x^5 + x^3 + x in characteristic 2
        for x in range(64):
            expected = field6.pow(x, 5) ^ field6.pow(x, 3) ^ x
            assert dickson_value(field6, x) == expected

    def test_permutation_parity(self):
        for t in range(2, 8):
            assert dickson_is_permutation(make_field(t)) == (t % 2 == 1)


def _blocks(field, ds):
    """ds cut into sign_transforms blocks, tables_per_block(field) at a time."""
    size = tables_per_block(field)
    return [ds[lo:lo + size] for lo in range(0, len(ds), size)]


class TestBoundChecks:
    def test_reference_bound(self, field6):
        chk = check_bound(field6, 19)
        assert chk.max_walsh == 16
        assert chk.bound == 10
        assert chk.holds

    def test_reference_threshold(self, field6):
        chk = check_sarwate(field6, 19)
        assert chk.holds
        assert chk.threshold == 16
        assert chk.witness is not None and chk.witness != 0
        assert walsh_coefficient(field6, 19, chk.witness) >= 16

    def test_need_coprime(self, field6):
        with pytest.raises(DomainError):
            check_bound(field6, 3)
        with pytest.raises(DomainError):
            check_sarwate(field6, 9)

    def test_need_even_degree(self):
        f = make_field(5)
        with pytest.raises(UnsupportedError):
            check_bound(f, 3)

    def test_concurrent_checks_match_a_serial_run(self):
        # scan's thread pool runs these at once, so several threads call BLAS
        # from the butterfly together; every exponent must see its own result
        f = make_field(10)
        ds = [d for d in range(1, f.order) if gcd(d, f.order) == 1]
        blocks = _blocks(f, ds)
        for name, check in (("bound", check_bound), ("sarwate", check_sarwate)):
            serial = [check(f, d) for d in ds]
            with ThreadPoolExecutor(4) as pool:
                pooled = list(pool.map(lambda d, check=check: check(f, d), ds))
                by_block = [r for part in pool.map(
                    lambda block, name=name: check_exponents(f, block, name), blocks)
                    for r in part]
            for results in (pooled, by_block):
                for d, one, many in zip(ds, serial, results, strict=True):
                    assert many.d == d
                    assert (many.max_walsh, getattr(many, "witness", None)) == \
                        (one.max_walsh, getattr(one, "witness", None)), f"{name} d={d}"

    @pytest.mark.parametrize("m", [4, 6, 8, 10, 12])
    def test_blocks_equal_one_exponent_checks(self, m):
        # blocks, the last one ragged, and all of ds in one call (as cmd_scan
        # passes it on one thread) against one call per exponent
        f = make_field(m)
        ds = [d for d in range(1, f.order) if gcd(d, f.order) == 1]
        blocks = _blocks(f, ds)
        assert sum(map(len, blocks)) == len(ds)
        for name, check in (("bound", check_bound), ("sarwate", check_sarwate)):
            want = [check(f, d) for d in ds]
            assert [r for block in blocks for r in check_exponents(f, block, name)] == want, name
            assert check_exponents(f, ds, name) == want, name

    def test_block_without_tables_and_a_ragged_end(self, random_modulus):
        rng = random.Random(4412)
        modulus = random_modulus(12, rng)
        ft, fn = make_field(12, modulus), make_field(12, modulus, table_cap=1)
        ds = [d for d in range(1, ft.order) if gcd(d, ft.order) == 1]
        block = rng.sample(ds, tables_per_block(ft) - 5)
        for name in ("bound", "sarwate"):
            want = check_exponents(ft, block, name)
            assert check_exponents(fn, block, name) == want
            assert want == [check_exponents(ft, [d], name)[0] for d in block]

    def test_one_wrong_witness_in_a_block_is_caught(self, monkeypatch, field12):
        # a full K = 16 block whose every exponent has a witness; the seventh
        # witness is replaced by a point whose coefficient is below 2^(t+1)
        block = [d for d in range(1, field12.order) if gcd(d, field12.order) == 1][:16]
        assert tables_per_block(field12) == len(block)
        results = check_exponents(field12, block, "sarwate")
        assert all(r.witness is not None for r in results)
        d = block[6]
        row = walsh_coefficients(field12, d)
        wrong = int(np.flatnonzero(row < results[6].threshold)[-1])
        assert row[results[6].witness] >= results[6].threshold
        right = Field.dual_index_inv
        calls = []

        def one_wrong(self, u):
            calls.append(u)
            return wrong if len(calls) == 7 else right(self, u)

        monkeypatch.setattr(Field, "dual_index_inv", one_wrong)
        with pytest.raises(RuntimeError, match="disagrees with the oracle"):
            check_exponents(field12, block, "sarwate")
        assert len(calls) == 16

    def test_block_checks_refuse_what_one_check_refuses(self, field6):
        assert check_exponents(field6, [], "bound") == []
        with pytest.raises(DomainError):
            check_exponents(field6, [5, 9], "bound")  # gcd(9, 63) = 9
        with pytest.raises(DomainError):
            check_exponents(field6, [5], "strict")
        with pytest.raises(UnsupportedError):
            check_exponents(make_field(7), [5], "sarwate")

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(data=st.data())
    def test_max_walsh_is_a_class_invariant(self, data, random_modulus):
        # max_{a != 0} W_d(a) is the same for d, 2d and d^-1: x -> x^2 fixes
        # the trace, and x = y^(d^-1) maps W_d(a) to W_(d^-1)(a^-d)
        m = data.draw(st.sampled_from([4, 6, 8, 10]), "m")
        seed = data.draw(st.integers(0, 1 << 16), "seed")
        f = make_field(m, random_modulus(m, random.Random(seed)))
        ds = [d for d in range(1, f.order) if gcd(d, f.order) == 1]
        d = data.draw(st.sampled_from(ds), "d")
        cls = [d, 2 * d % f.order, mod_inverse(d, f.order)]
        maxima = {r.max_walsh for r in check_exponents(f, cls, "bound")}
        assert len(maxima) == 1, (m, hex(f.modulus), cls)
        assert maxima == {check_bound(f, e).max_walsh for e in cls}


class TestCosetLeaders:
    @pytest.mark.parametrize("m", [2, 5, 8, 11, 12])
    def test_least_member_of_each_coset(self, m):
        f = make_field(m)
        ds = list(range(1, f.order))
        want = [min(d * 2**j % f.order for j in range(m)) for d in ds]
        assert coset_leaders(f, ds).tolist() == want
        assert coset_leaders(f, []).tolist() == []

    def test_refuses_what_is_not_an_exponent(self, field6):
        for bad in (0, 63, 1 << 70):
            with pytest.raises(DomainError):
                coset_leaders(field6, [5, bad])


class TestNoSix:
    def test_t6_report(self, field12):
        rep = check_no_six(field12)
        assert rep.absent
        assert bool(rep)
        assert rep.d == 131
        assert rep.theta_has_order_three
        assert rep.tr_theta_inv_is_one
        assert field12.pow(rep.c, 5) == 1 and rep.c != 1

    def test_wrong_regimes_rejected(self, field6, field8):
        with pytest.raises(DomainError):
            check_no_six(field6)  # t = 3 odd
        with pytest.raises(DomainError):
            check_no_six(field8)  # t = 4 = 0 mod 4

    def test_spectrum_from_the_subfield_alone(self, monkeypatch):
        # the spectrum comes from family_spectrum on GF(2^t): no butterfly
        # over GF(2^2t) runs, with or without tables
        def refuse(*args, **kwargs):
            raise AssertionError("check_no_six ran the GF(2^2t) butterfly")

        monkeypatch.setattr(walsh_module, "_parity_transforms", refuse)
        for field in (make_field(12), make_field(12, table_cap=1), make_field(20)):
            rep = check_no_six(field)
            assert rep.absent and rep.tr_theta_inv_is_one and rep.theta_has_order_three
            assert rep.d == 3 + (1 << (rep.t + 1))
