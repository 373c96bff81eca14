"""Binary cyclic codes of length 2^m - 1 with the two nonzeros alpha^-d, alpha^-1.

A codeword is indexed by a pair (a, b) of field elements: bit i is
Tr(a*alpha^(d*i) + b*alpha^i).  For gcd(d, 2^m - 1) = 1 and d not a power of
two the code has dimension 2m and its weights come from the Walsh spectrum:

    wt(a, b) = (q - W_d(b * a^(-1/d))) / 2     for a, b both nonzero,
    wt       = q/2                             when exactly one of a, b is zero,
    wt       = 0                               for the zero pair,

and as (a, b) sweeps F* x F* the Walsh argument sweeps F* exactly q - 1 times.
spectrum_to_weights folds a spectrum into the histogram that way, from m, d
and the entries alone: it needs no field, so it also folds the spectra that
family_spectrum computes from GF(2^t) above the field's degree range.
weight_distribution folds walsh_spectrum; exhaustive_weight_histogram
recounts it by materializing every codeword and popcounting, which is the
independent check.

Exponents d that are powers of two modulo 2^m - 1 make the two nonzeros
conjugate: the pair map loses injectivity (all q pairs with b = a^(2^(m-j))
give the zero word) and the dimension drops to m.  Such d are accepted but
flagged degenerate; min_distance is then still the smallest positive weight.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .field import Field, check_invertible, mod_inverse
from .walsh import Histogram, Spectrum, walsh_coefficient, walsh_spectrum


def is_degenerate_exponent(m: int, d: int) -> bool:
    """True when d is congruent to a power of two mod 2^m - 1 (conjugate nonzeros)."""
    order = (1 << m) - 1
    return d % order in {(1 << j) % order for j in range(m)}


@dataclass(frozen=True)
class Codeword:
    """One codeword, bit-packed: bit i of `bits` is the coefficient at position i."""

    m: int
    d: int
    a: int
    b: int
    bits: int
    length: int

    def weight(self) -> int:
        return self.bits.bit_count()

    def bit(self, i: int) -> int:
        return (self.bits >> i) & 1

    def to_list(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.length)]


@dataclass(frozen=True)
class WeightDistribution(Histogram):
    """Weight histogram over all q^2 pairs (a, b); entries sorted by weight."""

    m: int
    d: int
    entries: tuple[tuple[int, int], ...]

    @property
    def degenerate(self) -> bool:
        return is_degenerate_exponent(self.m, self.d)

    @property
    def min_distance(self) -> int:
        """Smallest positive weight."""
        return min(w for w, _ in self.entries if w > 0)


def codeword(field: Field, d: int, a: int, b: int) -> Codeword:
    """Materialize the word for the pair (a, b) directly from traces."""
    field.check_exponent(d)
    field.check_element(a, "a")
    field.check_element(b, "b")
    n = field.order
    bits = 0
    x = 1  # alpha^i
    y = 1  # alpha^(d*i)
    ad = field.pow(field.alpha, d)
    for i in range(n):
        v = field.mul(a, y) ^ field.mul(b, x)
        bits |= field.trace(v) << i
        x = field.mul(x, field.alpha)
        y = field.mul(y, ad)
    return Codeword(m=field.m, d=d, a=a, b=b, bits=bits, length=n)


def weight_of_pair(field: Field, d: int, a: int, b: int) -> int:
    """Codeword weight through the Walsh relation instead of popcounting."""
    field.check_invertible(d)
    field.check_element(a, "a")
    field.check_element(b, "b")
    if a == 0 and b == 0:
        return 0
    if a == 0 or b == 0:
        return field.q // 2
    inv_d = mod_inverse(d, field.order)
    v = field.mul(b, field.pow(a, -inv_d))
    return (field.q - walsh_coefficient(field, d, v)) // 2


def spectrum_to_weights(spectrum: Spectrum) -> WeightDistribution:
    """Fold a full Walsh spectrum into the code's weight histogram."""
    check_invertible(spectrum.m, spectrum.d)
    q = 1 << spectrum.m
    hist: Counter[int] = Counter()
    hist[0] += 1
    hist[q // 2] += 2 * (q - 1)
    # Restrict the spectrum to a != 0: W_d(0) = 0 for invertible d, so drop
    # one zero entry before sweeping.
    for value, n in spectrum.entries:
        if value == 0:
            n -= 1
        if n:
            hist[(q - value) // 2] += n * (q - 1)
    entries = tuple(sorted((w, c) for w, c in hist.items() if c))
    return WeightDistribution(m=spectrum.m, d=spectrum.d, entries=entries)


def weight_distribution(field: Field, d: int) -> WeightDistribution:
    field.check_invertible(d)
    return spectrum_to_weights(walsh_spectrum(field, d))


def min_distance(field: Field, d: int) -> int:
    """Smallest positive codeword weight; (q - max W)/2 capped by q/2 for clean d."""
    return weight_distribution(field, d).min_distance


def exhaustive_weight_histogram(field: Field, d: int) -> dict[int, int]:
    """Popcount every one of the q^2 codewords; the oracle for weight_distribution.

    Materializes words row-block by row-block, so it stays usable up to m = 8
    or so; beyond that the quadratic blowup bites.  Word positions run over
    x in F* in ascending order rather than over alpha^i; a weight does not
    depend on the order of positions.
    """
    field.check_exponent(d)
    q = field.q
    tr = field.trace_bits()
    powers = field.power_map(d)[1:]
    # bmat[b - 1, x - 1] = b * x for b, x in F*
    bmat = np.stack([field.scalar_mul_map(b)[1:] for b in range(1, q)])
    hist: Counter[int] = Counter()
    hist[0] += 1  # the (0, 0) word
    # a = 0 row: words are b * x alone
    weights = tr[bmat].sum(axis=1)
    for w in weights:
        hist[int(w)] += 1
    for a in range(1, q):
        va = bmat[a - 1, powers - 1]  # a * x^d, x^d in F*
        hist[int(tr[va].sum())] += 1  # b = 0
        weights = tr[bmat ^ va.reshape(1, -1)].sum(axis=1)
        values, counts = np.unique(weights, return_counts=True)
        for w, c in zip(values, counts):
            hist[int(w)] += int(c)
    return dict(sorted(hist.items()))
