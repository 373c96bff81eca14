"""Walsh coefficients and spectra of the Boolean functions x -> Tr(x^d).

Two independent routes exist on purpose.  walsh_coefficient sums the
character values directly from the definition, one coefficient at a time;
it is the oracle.  truth_table + fwht computes all 2^m coefficients with the
in-place Walsh-Hadamard butterfly in O(m 2^m), in int32 throughout: every
partial sum of the butterfly is at most 2^m <= 2^28 < 2^31 in absolute value,
so int32 is exact for every supported degree.  A caller that squares or
multiplies coefficients must widen to int64 first.

Index reconciliation: the butterfly natively computes
F(u) = sum_x signs[x] * (-1)^parity(u & x), while the Walsh coefficient wants
the trace pairing (-1)^Tr(a*x).  With u = Field.dual_index(a) these agree:
W_d(a) = F(dual_index(a)), so fwht output at index u is the coefficient of
the element dual_index_inv(u).  dual_index is a bijection, hence the output
multiset of fwht equals the coefficient multiset and walsh_spectrum can
histogram the raw butterfly output.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import DomainError
from .field import Field

# Entries per gather in truth_table, so index temporaries stay this small.
_GATHER_BLOCK = 1 << 16


class Histogram:
    """A multiset of integer values, held as `entries` = ((value, count), ...)
    sorted by value.  Spectra, weight distributions, closed-form tables and
    power multisets all take their accessors from here."""

    entries: tuple[tuple[int, int], ...]

    def count(self, value: int) -> int:
        """Multiplicity of value; 0 when it does not occur."""
        return self.as_dict().get(value, 0)

    def values(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.entries)

    def total(self) -> int:
        return sum(n for _, n in self.entries)

    def moment(self, k: int) -> int:
        """sum of value^k over the multiset."""
        return sum(n * v**k for v, n in self.entries)

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


@dataclass(frozen=True)
class TruthTable:
    """Sign table of f(x) = Tr(x^d): signs[x] = +1 if Tr(x^d) = 0 else -1."""

    m: int
    d: int
    modulus: int
    signs: np.ndarray  # int32, length 2^m


@dataclass(frozen=True)
class Spectrum(Histogram):
    """Walsh value histogram: entries = ((value, multiplicity), ...) sorted by value."""

    m: int
    d: int
    modulus: int
    entries: tuple[tuple[int, int], ...]
    coprime: bool


def walsh_coefficient(field: Field, d: int, a: int) -> int:
    """W_d(a) = sum over x of (-1)^Tr(x^d + a*x), by direct summation.

    This is the reference oracle: no butterfly, no dual indexing.  Vectorized
    over x when log tables exist, else a plain scalar loop.
    """
    field.check_exponent(d)
    field.check_element(a)
    if field.has_tables:
        signs = 1 - 2 * field.trace_bits().astype(np.int64)
        powers = field.power_map(d)
        ax = field.scalar_mul_map(a)
        return int(signs[powers ^ ax].sum())
    total = 0
    for x in range(field.q):
        e = field.pow(x, d) ^ field.mul(a, x)
        total += 1 - 2 * field.trace(e)
    return total


def walsh_coefficients_naive(field: Field, d: int) -> np.ndarray:
    """All W_d(a), indexed by the element a, one direct summation per a."""
    field.check_exponent(d)
    signs = 1 - 2 * field.trace_bits().astype(np.int64)
    powers = field.power_map(d)
    out = np.empty(field.q, dtype=np.int64)
    for a in range(field.q):
        out[a] = signs[powers ^ field.scalar_mul_map(a)].sum()
    return out


def truth_table(field: Field, d: int, powers: np.ndarray | None = None) -> TruthTable:
    """Sign table of Tr(x^d) over all x, one pass of exponent arithmetic.
    powers, if given, is field.power_map(d), for callers that need it too."""
    field.check_exponent(d)
    tr = field.trace_bits()
    if powers is None:
        powers = field.power_map(d)
    # Gathered in blocks: take() widens its indices to intp, so a whole-array
    # gather would make a q-sized int64 copy of powers.
    signs = np.empty(field.q, dtype=np.int32)
    for lo in range(0, field.q, _GATHER_BLOCK):
        signs[lo:lo + _GATHER_BLOCK] = tr.take(powers[lo:lo + _GATHER_BLOCK])
    signs *= -2
    signs += 1
    return TruthTable(m=field.m, d=d, modulus=field.modulus, signs=signs)


def _stages(grid: np.ndarray, scratch: np.ndarray) -> None:
    """Butterfly stages over the row index of a C-contiguous (rows, cols) array;
    scratch holds half of grid's entries and takes each stage's differences."""
    rows, cols = grid.shape
    h = 1
    while h < rows:
        pairs = grid.reshape(-1, 2, h * cols)
        lo, hi = pairs[:, 0], pairs[:, 1]
        diff = scratch.reshape(lo.shape)
        np.subtract(lo, hi, out=diff)
        np.add(lo, hi, out=lo)
        np.copyto(hi, diff)
        h *= 2


def fwht_inplace(a: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard butterfly over the parity pairing; a must be
    C-contiguous, of length 2^k and of a signed dtype, which the result keeps.

    Index x is viewed as (row, col) with col the low k//2 bits.  The stages on
    the row bits run on a itself, those on the col bits on one transposed copy,
    so every stage works on contiguous runs of at least 2^(k//2) entries.
    """
    n = a.size
    if n == 0 or n & (n - 1):
        raise DomainError(f"fwht needs a power-of-two length, got {n}")
    if a.dtype.kind in "bu":
        raise DomainError(f"fwht needs a signed dtype, got {a.dtype}")
    if not a.flags.c_contiguous:
        raise DomainError("fwht works in place and needs a C-contiguous array")
    cols = 1 << ((n.bit_length() - 1) // 2)
    grid = a.reshape(n // cols, cols)
    scratch = np.empty(n // 2, dtype=a.dtype)
    flipped = np.ascontiguousarray(grid.T)
    _stages(flipped, scratch)
    np.copyto(grid, flipped.T)
    _stages(grid, scratch)
    return a


def fwht(table: TruthTable) -> np.ndarray:
    """All butterfly outputs as int32; entry u is W_d(dual_index_inv(u)).
    Input is not modified."""
    return fwht_inplace(table.signs.copy())


def walsh_coefficients(field: Field, d: int) -> np.ndarray:
    """All W_d(a) indexed by the element a (int32), via fwht and dual reindexing."""
    spectrum_arr = fwht(truth_table(field, d))
    return spectrum_arr[field.dual_index_all()]


def walsh_spectrum(field: Field, d: int) -> Spectrum:
    """Histogram of all 2^m Walsh coefficients, values ascending."""
    arr = fwht(truth_table(field, d))
    values, counts = np.unique(arr, return_counts=True)
    return Spectrum(
        m=field.m,
        d=d,
        modulus=field.modulus,
        entries=tuple((int(v), int(n)) for v, n in zip(values, counts)),
        coprime=gcd(d, field.order) == 1,
    )


def subfield_sum_check(field: Field, d: int, u: int) -> int:
    """sum over a in L of W_d(a*u).

    For u in L* the scaling permutes L, so the sum collapses to
    sum over a in L of W_d(a) = 2^m for every exponent d.  Outside L the
    value is a coset character sum and depends on d.
    """
    field.check_exponent(d)
    field.check_element(u, "u")
    if u == 0:
        raise DomainError("u = 0 collapses the sum; pick u in F*")
    return sum(
        walsh_coefficient(field, d, field.mul(a, u)) for a in field.subfield_elements()
    )
