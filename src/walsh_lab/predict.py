"""Closed-form Walsh spectra for the exponent family d = 3 + 2^(t+1) over
GF(2^2t).  Two regimes: odd t, and t = 2 mod 4 with t >= 6.  Everything is
exact integer arithmetic; a division that does not come out even is a bug in
the caller's parameters and raises."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DomainError, NonInvertibleError
from .walsh import Histogram, Spectrum


@dataclass(frozen=True)
class PredictedSpectrum(Histogram):
    t: int
    m: int
    d: int
    family: str  # "odd-t" or "even-t"
    entries: tuple[tuple[int, int], ...]


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise DomainError(f"{num} is not divisible by {den}; table formulas do not apply")
    return q


def _check_coprime(t: int, d: int) -> None:
    order = (1 << (2 * t)) - 1
    g = gcd(d, order)
    if g != 1:
        raise NonInvertibleError(d, order, g)


def predicted_spectrum_t_odd(t: int) -> PredictedSpectrum:
    """Three-valued table for odd t >= 3: values 0 and +-2^(t+1)."""
    if t < 3 or t % 2 == 0:
        raise DomainError(f"odd-t table needs odd t >= 3, got {t}")
    d = 3 + (1 << (t + 1))
    _check_coprime(t, d)
    entries = (
        (-(1 << (t + 1)), (1 << (2 * t - 3)) - (1 << (t - 2))),
        (0, 3 << (2 * t - 2)),
        (1 << (t + 1), (1 << (2 * t - 3)) + (1 << (t - 2))),
    )
    return PredictedSpectrum(t=t, m=2 * t, d=d, family="odd-t", entries=entries)


def predicted_spectrum_t_even(t: int) -> PredictedSpectrum:
    """Seven-valued table for t = 2 mod 4, t >= 6: values 0, +-2^t, +-2^(t+1), +-2^(t+2)."""
    if t % 4 != 2 or t < 6:
        raise DomainError(f"even-t table needs t = 2 mod 4 and t >= 6, got {t}")
    d = 3 + (1 << (t + 1))
    _check_coprime(t, d)
    n_zero = (1 << (2 * t - 1)) - (1 << (2 * t - 5)) - (1 << (t - 1)) + (1 << (t - 3))
    n_single = _exact_div((1 << (2 * t)) + (1 << t), 5)
    n_double_plus = (1 << (2 * t - 4)) + (1 << (t - 2))
    n_double_minus = (1 << (2 * t - 4)) - (1 << (t - 2))
    n_quad = _exact_div((1 << (2 * t - 6)) - (1 << (t - 4)), 5)
    entries = (
        (-(1 << (t + 2)), n_quad),
        (-(1 << (t + 1)), n_double_minus),
        (-(1 << t), n_single),
        (0, n_zero),
        (1 << t, n_single),
        (1 << (t + 1), n_double_plus),
        (1 << (t + 2), n_quad),
    )
    return PredictedSpectrum(t=t, m=2 * t, d=d, family="even-t", entries=entries)


def predicted_spectrum(t: int) -> PredictedSpectrum:
    """Dispatch on the parity class of t."""
    if t % 2 == 1:
        return predicted_spectrum_t_odd(t)
    return predicted_spectrum_t_even(t)


@dataclass(frozen=True)
class SpectrumComparison:
    equal: bool
    diffs: tuple[tuple[int, int, int], ...]  # (value, actual count, predicted count)


def compare(actual: Spectrum, predicted: PredictedSpectrum) -> SpectrumComparison:
    """Exact multiset comparison; (m, d) of the two sides must agree."""
    if actual.m != predicted.m or actual.d != predicted.d:
        raise DomainError(
            f"parameter mismatch: actual (m={actual.m}, d={actual.d}) "
            f"vs predicted (m={predicted.m}, d={predicted.d})"
        )
    a = actual.as_dict()
    p = predicted.as_dict()
    diffs = tuple(
        (v, a.get(v, 0), p.get(v, 0))
        for v in sorted(set(a) | set(p))
        if a.get(v, 0) != p.get(v, 0)
    )
    return SpectrumComparison(equal=not diffs, diffs=diffs)
