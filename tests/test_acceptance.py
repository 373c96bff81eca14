"""Acceptance gate.

Twelve criteria, one test each, run in order.  Every test prints exactly one
PASS/FAIL line (visible because the suite runs with -s) and then asserts.
All comparisons are exact integer equality; the only sampled criteria state
their sample sizes inline.
"""

import random
from math import gcd

import numpy as np
import pytest

from walsh_lab import (
    character_sum_from_multiset,
    check_bound,
    check_no_six,
    check_sarwate,
    compare,
    conjugate_power_multiset,
    dickson_is_permutation,
    exhaustive_weight_histogram,
    make_field,
    min_distance,
    predicted_spectrum_t_even,
    predicted_spectrum_t_odd,
    sextic_census,
    subfield_character_sum,
    subfield_sum_check,
    walsh_coefficient,
    walsh_coefficients,
    walsh_coefficients_naive,
    walsh_from_solutions,
    walsh_solution_set,
    walsh_spectrum,
    weight_distribution,
)


def _report(num: int, name: str, failures: list) -> None:
    ok = not failures
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} ({name}) failed; first failures: {failures[:5]}"


@pytest.fixture(scope="module")
def field20():
    # shared by criteria 2 and 8; building the 2^20 log tables dominates
    return make_field(20)


@pytest.fixture(scope="module")
def _field_cache():
    cache = {}

    def get(m):
        if m not in cache:
            cache[m] = make_field(m)
        return cache[m]

    return get


def test_criterion_01_odd_t_tables(_field_cache):
    failures = []
    for t in (3, 5, 7):
        pred = predicted_spectrum_t_odd(t)
        actual = walsh_spectrum(_field_cache(2 * t), pred.d)
        cmp = compare(actual, pred)
        if not cmp.equal:
            failures.append((t, cmp.diffs))
    _report(1, "odd-t closed-form spectra, t in {3, 5, 7}", failures)


def test_criterion_02_even_t_tables(_field_cache, field20):
    failures = []
    for t, f in ((6, _field_cache(12)), (10, field20)):
        pred = predicted_spectrum_t_even(t)
        cmp = compare(walsh_spectrum(f, pred.d), pred)
        if not cmp.equal:
            failures.append((t, cmp.diffs))
    _report(2, "even-t closed-form spectra, t in {6, 10}", failures)


def test_criterion_03_moment_and_subfield_sums(_field_cache):
    failures = []
    rng = random.Random(0xC0DE)
    for _ in range(20):
        m = rng.randrange(2, 17)
        f = _field_cache(m)
        while True:
            d = rng.randrange(1, f.q - 1)
            if gcd(d, f.order) == 1:
                break
        s = walsh_spectrum(f, d)
        if s.moment(1) != f.q or s.moment(2) != f.q * f.q:
            failures.append((m, d, s.moment(1), s.moment(2)))
    for m, d in ((6, 19), (12, 131)):
        f = _field_cache(m)
        t = m // 2
        c = f.designated_generator((1 << t) + 1)
        for u in f.subfield_elements():
            if u and subfield_sum_check(f, d, u) != f.q:
                failures.append(("subfield unit", m, u))
        for k in range(1, (1 << t) + 1):
            rep = f.pow(c, k)
            if subfield_sum_check(f, d, rep) != 0:
                failures.append(("coset rep", m, rep))
    _report(3, "moment identities (20 random fields) and subfield sums", failures)


def test_criterion_04_strict_bound_sweep(_field_cache):
    failures = []
    for m in (6, 8, 10, 12):
        f = _field_cache(m)
        for d in range(1, f.q - 1):
            if gcd(d, f.order) != 1:
                continue
            chk = check_bound(f, d)
            if not chk.holds:
                failures.append((m, d, chk.max_walsh, chk.bound))
    _report(4, "max W > 2^t + 2^(t/2) for every invertible d, m in {6..12}", failures)


def test_criterion_05_threshold_sweep(_field_cache):
    failures = []
    for m in (6, 8, 10, 12):
        f = _field_cache(m)
        for d in range(1, f.q - 1):
            if gcd(d, f.order) != 1:
                continue
            if not check_sarwate(f, d).holds:
                failures.append((m, d))
    f14 = make_field(14)
    coprime = [d for d in range(1, f14.q - 1) if gcd(d, f14.order) == 1]
    rng = random.Random(1414)
    for d in rng.sample(coprime, 500):
        if not check_sarwate(f14, d).holds:
            failures.append((14, d))
    _report(5, "some W >= 2^(t+1): exhaustive m in {6..12}, 500 samples at m=14", failures)


def test_criterion_06_sextic_census(_field_cache):
    failures = []
    rep6 = sextic_census(_field_cache(6))
    if rep6.counts != {0: 21, 1: 26, 2: 16, 6: 1}:
        failures.append(("t=6 counts", rep6.counts))
    rep10 = sextic_census(_field_cache(10))
    if rep10.closed_form_match is not True:
        failures.append(("t=10 closed form", rep10.counts, rep10.closed_form))
    for rep in (rep6, rep10):
        if sum(k * n for k, n in rep.counts.items()) != 1 << rep.t:
            failures.append(("conservation", rep.t))
    _report(6, "sextic census: frozen t=6 counts, t=10 closed forms, conservation", failures)


def test_criterion_07_solution_set_equivalence(_field_cache):
    failures = []
    for t in (3, 6):
        f = _field_cache(2 * t)
        d = 1 + 2 + (1 << (t + 1))
        cbar = f.pow(walsh_solution_set(f, 1, 0).c, 1 << t)
        for a in f.subfield_elements():
            for b in f.subfield_elements():
                lhs = walsh_from_solutions(f, 1, a, b)
                rhs = walsh_coefficient(f, d, a ^ f.mul(b, cbar))
                if lhs != rhs:
                    failures.append((t, a, b, lhs, rhs))
    _report(7, "solution-set route equals direct coefficients, all 2^m pairs, t in {3, 6}", failures)


def test_criterion_08_excluded_value(_field_cache, field20):
    failures = []
    for f in (_field_cache(12), field20):
        rep = check_no_six(f)
        if not (rep.absent and rep.tr_theta_inv_is_one and rep.theta_has_order_three):
            failures.append((rep.t, rep))
    _report(8, "no +-6*2^t spectrum values at t in {6, 10}; theta structure holds", failures)


def test_criterion_09_oracle_agreement(_field_cache):
    failures = []
    rng = random.Random(909)
    for _ in range(10):
        m = rng.randrange(2, 13)
        f = _field_cache(m)
        d = rng.randrange(1, f.q - 1)
        if not np.array_equal(walsh_coefficients(f, d), walsh_coefficients_naive(f, d)):
            failures.append(("walsh", m, d))
    for m in (6, 8):
        f = _field_cache(m)
        coprime = [d for d in range(1, f.q - 1) if gcd(d, f.order) == 1]
        for d in rng.sample(coprime, 5):
            if weight_distribution(f, d).as_dict() != exhaustive_weight_histogram(f, d):
                failures.append(("weights", m, d))
    _report(9, "butterfly vs naive (10 draws) and fold vs popcount (5 draws at m=6, 8)", failures)


def test_criterion_10_dickson_parity(_field_cache):
    failures = []
    for t in range(2, 8):
        if dickson_is_permutation(_field_cache(t)) != (t % 2 == 1):
            failures.append(t)
    _report(10, "degree-5 Dickson permutes GF(2^t) iff t odd, t in {2..7}", failures)


def test_criterion_11_power_multiset(_field_cache):
    failures = []
    for m, d in ((6, 19), (12, 131)):
        f = _field_cache(m)
        t = m // 2
        mult = conjugate_power_multiset(f, d)
        if mult.total() != 1 << t:
            failures.append(("total", m))
        if any(n % 2 for _, n in mult.entries):
            failures.append(("odd coefficient", m))
        square_sum = 0
        for u in f.subfield_elements():
            direct = subfield_character_sum(f, d, f.mul(u, mult.c)).value
            if character_sum_from_multiset(f, mult, u) != direct:
                failures.append(("reconstruction", m, u))
            square_sum += direct * direct
        if square_sum < 1 << (2 * t + 1):
            failures.append(("square sum", m, square_sum))
    _report(11, "conjugate power multiset: parity, mass, reconstruction, square sum", failures)


def test_criterion_12_min_distance(_field_cache):
    failures = []
    f = _field_cache(6)
    md = min_distance(f, 19)
    if md != 24 or md != (1 << 5) - (1 << 3):
        failures.append(("min distance", md))
    dist = weight_distribution(f, 19).as_dict()
    if dist != {0: 1, 24: 630, 32: 3087, 40: 378}:
        failures.append(("distribution", dist))
    if dist != exhaustive_weight_histogram(f, 19):
        failures.append(("popcount oracle", ))
    _report(12, "min distance 24 at (m=6, d=19); distribution matches popcount oracle", failures)
