"""Structural-analysis layer: exponent classification, character-sum
identities, solution-set evaluation, the sextic census, Dickson permutation
tests, and the two spectral bound checks."""

import random
from math import gcd

import pytest

from walsh_lab import (
    Field,
    DomainError,
    UnsupportedError,
    character_sum_from_multiset,
    character_sum_square_identities,
    check_bound,
    check_no_six,
    check_sarwate,
    conjugate_power_multiset,
    dickson_is_permutation,
    dickson_value,
    exponent_profile,
    make_field,
    sextic_census,
    subfield_character_sum,
    subfield_identities,
    walsh_coefficient,
    walsh_from_solutions,
    walsh_solution_set,
    weighted_walsh_identity,
)

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
                character_sum_square_identities(field6, bad)

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

    def test_explicit_subgroup_order(self, field12):
        mult = conjugate_power_multiset(field12, 131, subgroup_order=5)
        assert mult.c_order == 5
        assert mult.total() == 64

    def test_c_validation(self, field6):
        with pytest.raises(DomainError):
            conjugate_power_multiset(field6, 19, c=1)
        with pytest.raises(DomainError):
            conjugate_power_multiset(field6, 19, c=field6.alpha)  # not on the unit circle
        with pytest.raises(DomainError):
            conjugate_power_multiset(field6, 19, subgroup_order=5)

    def test_reconstruction_rejects_outsiders(self, field6):
        mult = conjugate_power_multiset(field6, 19)
        outsider = next(x for x in range(64) if not field6.in_subfield(x))
        with pytest.raises(DomainError):
            character_sum_from_multiset(field6, mult, outsider)


class TestSquareIdentities:
    @pytest.mark.parametrize("m,d", [(6, 19), (6, 5), (6, 31), (12, 131)])
    def test_both_identities_hold(self, m, d):
        f = make_field(m)
        summary = character_sum_square_identities(f, d)
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
                   if gcd(d, sub_order) == 1 and not character_sum_square_identities(f, d).holds]
        assert failing == []


# (m, modulus, d): the default and one other primitive modulus per m; each d
# list has an exponent with gcd(d, 2^t - 1) > 1.
ONE_PASS_CASES = [
    (m, modulus, d)
    for m, moduli, ds in (
        (6, (None, 0x61), (19, 7, 21)),
        (8, (None, 0x12B), (35, 3, 5)),
        (10, (None, 0x41B), (67, 31, 93)),
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

    def test_one_power_map_per_call(self, monkeypatch):
        f = make_field(10)
        calls = []
        power_map = Field.power_map

        def counted(self, d):
            calls.append(d)
            return power_map(self, d)

        monkeypatch.setattr(Field, "power_map", counted)
        rep = subfield_identities(f, 67)
        assert calls == [67]
        assert rep.square == character_sum_square_identities(f, 67)


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


class TestDickson:
    def test_closed_form(self, field6):
        # D_5(x) = x^5 + x^3 + x in characteristic 2
        for x in range(64):
            expected = field6.pow(x, 5) ^ field6.pow(x, 3) ^ x
            assert dickson_value(field6, x) == expected

    def test_permutation_parity(self):
        for t in range(2, 8):
            assert dickson_is_permutation(make_field(t)) == (t % 2 == 1)

    def test_trivial_index(self, field6):
        assert all(dickson_value(field6, x, 1) == x for x in range(64))
        assert dickson_is_permutation(field6, 1)

    def test_bad_index(self, field6):
        with pytest.raises(DomainError):
            dickson_value(field6, 3, 0)


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
