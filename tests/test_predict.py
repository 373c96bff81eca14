"""Closed-form spectrum tables: frozen small cases, exactness guards,
and the comparison helper."""

import pytest

from walsh_lab import (
    DomainError,
    NonInvertibleError,
    compare,
    make_field,
    predicted_spectrum,
    predicted_spectrum_t_even,
    predicted_spectrum_t_odd,
    walsh_spectrum,
)
from walsh_lab.predict import _check_coprime
from walsh_lab.walsh import Spectrum


class TestOddTable:
    def test_t3(self):
        p = predicted_spectrum_t_odd(3)
        assert p.d == 19 and p.m == 6
        assert p.as_dict() == {-16: 6, 0: 48, 16: 10}

    def test_t5(self):
        p = predicted_spectrum_t_odd(5)
        assert p.d == 67
        assert p.as_dict() == {-64: 120, 0: 768, 64: 136}

    def test_mass_and_moments(self):
        for t in (3, 5, 7, 9, 11):
            p = predicted_spectrum_t_odd(t)
            q = 1 << (2 * t)
            assert p.total() == q
            assert p.moment(1) == q
            assert p.moment(2) == q * q

    def test_rejects_bad_t(self):
        for t in (1, 2, 4, 6):
            with pytest.raises(DomainError):
                predicted_spectrum_t_odd(t)


class TestEvenTable:
    def test_t6(self):
        p = predicted_spectrum_t_even(6)
        assert p.d == 131 and p.m == 12
        assert p.as_dict() == {
            -256: 12, -128: 240, -64: 832, 0: 1896, 64: 832, 128: 272, 256: 12,
        }

    def test_mass_and_moments(self):
        for t in (6, 10, 14, 18):
            p = predicted_spectrum_t_even(t)
            q = 1 << (2 * t)
            assert p.total() == q
            assert p.moment(1) == q
            assert p.moment(2) == q * q

    def test_rejects_bad_t(self):
        for t in (2, 3, 4, 8, 12):
            with pytest.raises(DomainError):
                predicted_spectrum_t_even(t)


class TestCoprimeCheck:
    def test_raises_the_field_error_type(self):
        # gcd(9, 2^6 - 1) = 9: the same error Field.check_invertible raises
        with pytest.raises(NonInvertibleError) as exc:
            _check_coprime(3, 9)
        assert (exc.value.d, exc.value.n, exc.value.gcd) == (9, 63, 9)
        with pytest.raises(NonInvertibleError) as ref:
            make_field(6).check_invertible(9)
        assert str(exc.value) == str(ref.value)
        _check_coprime(3, 19)


class TestDispatcher:
    def test_routes_by_parity_class(self):
        assert predicted_spectrum(3).family == "odd-t"
        assert predicted_spectrum(6).family == "even-t"
        with pytest.raises(DomainError):
            predicted_spectrum(4)


class TestCompare:
    def test_equal_on_reference(self, field6):
        actual = walsh_spectrum(field6, 19)
        cmp = compare(actual, predicted_spectrum(3))
        assert cmp.equal and cmp.diffs == ()

    def test_detects_differences(self, field6):
        actual = walsh_spectrum(field6, 19)
        doctored = Spectrum(
            m=6, d=19, modulus=actual.modulus,
            entries=((-16, 6), (0, 47), (8, 1), (16, 10)),
            coprime=True,
        )
        cmp = compare(doctored, predicted_spectrum(3))
        assert not cmp.equal
        assert (0, 47, 48) in cmp.diffs
        assert (8, 1, 0) in cmp.diffs

    def test_parameter_mismatch_rejected(self, field6):
        actual = walsh_spectrum(field6, 19)
        with pytest.raises(DomainError):
            compare(actual, predicted_spectrum(5))
