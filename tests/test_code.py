"""Cyclic-code layer: spectrum folding vs the popcount oracle, plus frozen
reference distributions."""

import random
from math import gcd

import pytest

from walsh_lab import (
    DomainError,
    NonInvertibleError,
    Spectrum,
    WeightDistribution,
    codeword,
    exhaustive_weight_histogram,
    is_degenerate_exponent,
    make_field,
    min_distance,
    spectrum_to_weights,
    walsh_spectrum,
    weight_distribution,
    weight_of_pair,
)

WEIGHTS_M6_D19 = {0: 1, 24: 630, 32: 3087, 40: 378}


class TestFrozenDistribution:
    def test_m6_d19(self, field6):
        dist = weight_distribution(field6, 19)
        assert dist.as_dict() == WEIGHTS_M6_D19
        assert not dist.degenerate
        assert dist.total() == 64 * 64

    def test_min_distance(self, field6):
        assert min_distance(field6, 19) == 24


class TestOracleAgreement:
    """Spectrum folding vs brute-force popcount over all q^2 words."""

    def test_m4_exhaustive(self, field4):
        for d in range(1, 15):
            if gcd(d, 15) != 1:
                continue
            dist = weight_distribution(field4, d)
            assert dist.as_dict() == exhaustive_weight_histogram(field4, d), f"d={d}"

    def test_m6_sample(self, field6):
        for d in (5, 11, 13, 23, 31):
            dist = weight_distribution(field6, d)
            assert dist.as_dict() == exhaustive_weight_histogram(field6, d), f"d={d}"

    def test_m8_spot_check(self, field8):
        dist = weight_distribution(field8, 19)
        assert dist.as_dict() == exhaustive_weight_histogram(field8, 19)


class TestCodewords:
    def test_weight_routes_agree_exhaustively(self):
        f = make_field(3)
        for a in range(8):
            for b in range(8):
                assert codeword(f, 3, a, b).weight() == weight_of_pair(f, 3, a, b)

    def test_cyclic_shift_stays_in_code(self, field4):
        # rotating a word by one position gives the word of (a*alpha^d, b*alpha)
        f = field4
        d = 7
        rng = random.Random(12)
        for _ in range(20):
            a, b = rng.randrange(16), rng.randrange(16)
            w = codeword(f, d, a, b)
            rotated = [w.bit((i + 1) % w.length) for i in range(w.length)]
            shifted = codeword(f, d, f.mul(a, f.pow(f.alpha, d)), f.mul(b, f.alpha))
            assert rotated == shifted.to_list()

    def test_structure(self, field4):
        w = codeword(field4, 7, 3, 5)
        assert w.length == 15
        assert w.weight() == sum(w.to_list())
        assert w.bit(0) == w.to_list()[0]

    def test_zero_pair_rules(self, field6):
        assert weight_of_pair(field6, 19, 0, 0) == 0
        assert weight_of_pair(field6, 19, 0, 7) == 32
        assert weight_of_pair(field6, 19, 7, 0) == 32


class TestDegenerateExponents:
    def test_flagging(self):
        assert is_degenerate_exponent(6, 1)
        assert is_degenerate_exponent(6, 8)
        assert is_degenerate_exponent(6, 32)
        assert not is_degenerate_exponent(6, 19)
        # powers of two mod 2^m - 1 wrap around
        assert is_degenerate_exponent(4, 8)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_flags_derive_from_m_and_d(self, m):
        for d in range(1, (1 << m) - 1):
            assert Spectrum(m, d, ()).coprime == (gcd(d, (1 << m) - 1) == 1)
            assert WeightDistribution(m, d, ()).degenerate == is_degenerate_exponent(m, d)

    def test_degenerate_distribution(self, field6):
        dist = weight_distribution(field6, 8)
        assert dist.degenerate
        assert dist.as_dict() == {0: 64, 32: 4032}
        assert min_distance(field6, 8) == 32


class TestValidation:
    def test_noncoprime_rejected(self, field6):
        with pytest.raises(DomainError):
            weight_distribution(field6, 3)
        with pytest.raises(DomainError):
            weight_of_pair(field6, 9, 1, 1)

    def test_noncoprime_spectrum_rejected(self, field6):
        s = walsh_spectrum(field6, 3)
        with pytest.raises(NonInvertibleError):
            spectrum_to_weights(s)

    @pytest.mark.parametrize("m", [4, 6])
    def test_exhaustive_without_tables(self, m):
        tables, tableless = make_field(m), make_field(m, table_cap=1)
        assert not tableless.has_tables
        for d in {4: (3, 7, 11), 6: (5, 11, 19)}[m]:
            assert exhaustive_weight_histogram(tableless, d) == \
                exhaustive_weight_histogram(tables, d), f"d={d}"
