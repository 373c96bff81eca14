"""Walsh coefficients and spectra of the Boolean functions x -> Tr(x^d).

Two independent routes exist on purpose.  walsh_coefficients_at sums the
character values directly from the definition, for a list of (d, a) pairs
at once, and walsh_coefficient is its one-pair case; they are the oracle,
and they share no helper with the route below (see walsh_coefficients_at).
check_exponents calls walsh_coefficients_at once, after the transforms,
on one pair per cyclotomic coset and witness: 144 pairs for the 1,728
witnesses at m = 12.
fwht(truth_table(field, d)) computes all 2^m coefficients
with the Walsh-Hadamard transform, as products by small Hadamard matrices,
into the int32 sign table: every partial sum is a signed sum of distinct
signs, at most 2^m <= 2^28 < 2^31 in absolute value, so the float products
are exact (float32 up to m = 24, float64 above) and int32 holds every
result.  A caller that squares or multiplies coefficients must widen to
int64 first.

The fast route needs no discrete logs and no power map.  The sign of
x = alpha^i is (-1)^Tr(alpha^(i*d)).  With beta = alpha^d, W = 2^ceil(m/2)
and i = r*W + j, Tr(alpha^(i*d)) = Tr(beta^(r*W) * beta^j) =
parity(v_r & b_j) with b_j = beta^j and v_r = dual_index(beta^(r*W)): two
arrays of about sqrt(q) entries from Field.power_rows give every value by
one AND and one popcount, for every d.  _parities places the values of a
block of rows at their block of Field.power_blocks(1, size), at alpha^i,
as bytes; unless the field's antilog is built, the positions come from its
row stream, rows of 64 powers each two row gathers.  Only truth_table
widens the bytes to int32 signs.
walsh_spectrum, walsh_coefficients and sign_transforms share one route,
_parity_transforms, which transforms the bytes in float32 up to q = 2^24,
where float32 is exact, and in int32 above that, and writes
q*delta_0 - 2*Hp into the int32 result one block at a time.  One row, or
rows longer than 2^16 entries, it copies into the result (its float32 view
up to q = 2^24) and transforms there by fwht, whose products run in
float64 on int32 rows.  Several rows of at most 2^16 entries keep the
(q, K) layout of the bytes: they are widened into one scratch array, and
_rotating transforms them from there into the K rows of the result.

fwht runs in place: H_(2^m) is the Kronecker product of factors H_16 (at
most 4 index bits each), applied by np.matmul through BLAS, each product at
most 64^3 multiply-adds so that OpenBLAS runs it on the calling thread.
The low 16 index bits run on one 2^16-entry block at a time, where it lies
when the array is float32 and otherwise copied into a 256 KiB float32
buffer, which stays in L2, and the remaining bits down the columns of the
array, a chunk of columns at a time through two such buffers.  The block
stage (_rotating) multiplies tall slices by the factor,
(rows x 2^b) @ H_(2^b), a form OpenBLAS runs faster than
H_(2^b) @ (2^b x rows).
walsh_spectrum histograms the butterfly output by sorting it in place, so
with or without tables the result and the parity bytes are the only
q-sized arrays that truth_table, walsh_spectrum and walsh_coefficients
make, apart from the antilog that a field's second walk builds once: each
peaks at about 1.25-1.27 times the 4q bytes of the result (tracemalloc,
m = 19 to 22, make_field included on a fresh field); the float buffers
add 0.5 MiB (1 MiB in float64).

sign_transforms(field, ds) is fwht(truth_table(field, d)) for a block of
exponents, which is what scan reads.  Up to tables_per_block(field) of
them, K tables of 2^m entries in one 2^16-entry block, share each step:
_parities keeps the K parities of a position side by side, so one gather,
one popcount and one scatter of K-byte items serve the block, and
_rotating transforms the (q, K) bytes, widened to float32 in that layout:
each Hadamard factor carries the K tables along below the index bits it
moves, and the last one leaves them as the K rows of the result.  K = 16
at m = 12 and 4 at m = 14; from m = 16 up K = 1, and fwht transforms each
row.

Index reconciliation: the butterfly natively computes
F(u) = sum_x signs[x] * (-1)^parity(u & x), while the Walsh coefficient wants
the trace pairing (-1)^Tr(a*x) = (-1)^parity(a & dual_index(x)), as the
trace form is symmetric.  So on the sign table in the polynomial basis
W_d(a) = F(dual_index(a)): dual_index is a bijection, hence the output
multiset of fwht equals the coefficient multiset and walsh_spectrum can
histogram the raw butterfly output.  walsh_coefficients places each sign at
dual_index(x) instead, and then the butterfly's entry a is W_d(a) itself.
Its positions are the dual stream of Field.power_blocks: dual_index is
GF(2)-linear, so the row stream reads the rows of dual positions from its
tables mapped through dual_index, with no pass over the elements alpha^i
themselves (unless the antilog is built, whose slices it maps) and no
inverse of the dual-index matrix, whose rows are built only on the first
Field.dual_index_inv.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .errors import DomainError
from .field import Field

# Values per block of the sign scatter, so its temporaries stay this small.
_SCATTER_BLOCK = 1 << 14

# Entries per block of the local butterfly: 256 KiB of float32, within L2.
_BUTTERFLY_BLOCK = 1 << 16

# Multiply-adds per 2-D matrix product of the butterfly: OpenBLAS runs a
# gemm of at most 64^3 on the calling thread, so no product waits on its
# thread pool.
_PRODUCT_CAP = 1 << 18

# Index bits per Hadamard factor: H_16 products ran fastest from m = 12 to 24.
_FACTOR_BITS = 4

# float32 holds every integer up to this bound exactly.
_FLOAT32_EXACT = 1 << 24


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
class Spectrum(Histogram):
    """Walsh value histogram of Tr(x^d) over GF(2^m): entries = ((value,
    multiplicity), ...) sorted by value.  The multiset does not depend on the
    primitive modulus, so every route to it, butterfly, fibres or closed
    form, gives an equal Spectrum."""

    m: int
    d: int
    entries: tuple[tuple[int, int], ...]

    @property
    def coprime(self) -> bool:
        return gcd(self.d, (1 << self.m) - 1) == 1


def walsh_coefficients_at(field: Field, ds: Sequence[int], points: Sequence[int]) -> list[int]:
    """[W_d(a) for d, a in zip(ds, points)], each by direct summation.

    This is the reference oracle: it shares no helper with the sign-table
    route (no butterfly, no dual indexing, no Field.power_rows) and needs no
    log tables.  W_d(a) is q minus twice the number of
    x = alpha^i with Tr(x^d) + Tr(a*x) = 1, and both traces come from the
    trace m-sequence s[i] = Tr(alpha^i) = trace_bits()[antilog()[i]]:
      * Tr(x^d) = s[i*d mod n], n = 2^m - 1.  For i = r*W + j, W = 2^ceil(m/2),
        the index is (r*W*d mod n) + (j*d mod n), below 2n, read from s
        written twice: no % n runs over the q-sized product.
      * Tr(a*x) = parity(u & x), where bit j of u is Tr(a * alpha^j) =
        parity(a & (t >> j)) and bit k of t is s[k], k < 2m - 1, because
        a * alpha^j is the sum of alpha^(b + j) over the bits b of a.
    Each block of rows of i holds at most _BUTTERFLY_BLOCK entries, so its
    row budget is R = _BUTTERFLY_BLOCK // W rows.  The pairs go
    k = isqrt(R) at a time, and a block takes R // k >= k rows of each
    pair of its group (k = 32 at m = 12, 16 at m = 16, 8 at m = 20): on a
    2-CPU VM groups of 8 to 32 pairs were fastest at m = 12 to 20.  The
    only arrays that grow with q are s (2q bytes) and, without tables, the
    antilog built for the call.
    """
    if len(ds) != len(points):
        raise DomainError(f"need one point per exponent, got {len(ds)} and {len(points)}")
    for d, a in zip(ds, points):
        field.check_exponent(d)
        field.check_element(a)
    if len(ds) == 0:
        return []
    m, n = field.m, field.order
    alog = field.antilog()
    s = np.empty(2 * n, dtype=np.uint8)
    for lo in range(0, n, _BUTTERFLY_BLOCK):
        block = alog[lo:lo + _BUTTERFLY_BLOCK]
        np.take(field.trace_bits(), block, out=s[lo:lo + block.size], mode="wrap")
    s[n:] = s[:n]
    t = sum(bit << k for k, bit in enumerate(s[:2 * m - 1].tolist()))
    shifts = np.arange(m, dtype=np.int64)
    parities = np.bitwise_count(np.asarray(points, dtype=np.int64)[:, None] & (t >> shifts)) & 1
    us = (parities.astype(np.int64) << shifts).sum(axis=1).astype(np.int32)
    w = 1 << ((m + 1) // 2)
    size = isqrt(_BUTTERFLY_BLOCK // w)
    out: list[int] = []
    for first in range(0, len(ds), size):
        d = np.asarray(ds[first:first + size], dtype=np.int64)[:, None] % n
        k = d.shape[0]
        ramp = (np.arange(w, dtype=np.int64) * d % n).astype(np.intp)[:, None, :]
        heads = (np.arange(field.q // w, dtype=np.int64) * (w * d % n) % n).astype(np.intp)
        u = us[first:first + size, None]
        rows = _BUTTERFLY_BLOCK // (k * w)
        ones = np.zeros(k, dtype=np.int64)
        for r in range(0, heads.shape[1], rows):
            lo = r * w
            bits = np.bitwise_count(u & alog[lo:lo + rows * w])
            # the last row runs one past i = n - 1; its entry is dropped
            bits ^= s.take(heads[:, r:r + rows, None] + ramp).reshape(k, -1)[:, :bits.shape[1]]
            bits &= 1
            ones += bits.sum(axis=1, dtype=np.int64)
        out += (field.q - 2 * ones).tolist()
    return out


def walsh_coefficient(field: Field, d: int, a: int) -> int:
    """W_d(a) = sum over x of (-1)^Tr(x^d + a*x), by direct summation: the
    one-pair case of walsh_coefficients_at, the reference oracle."""
    return walsh_coefficients_at(field, (d,), (a,))[0]


def walsh_coefficients_naive(field: Field, d: int) -> np.ndarray:
    """All W_d(a), indexed by the element a, one direct summation per a."""
    field.check_exponent(d)
    signs = 1 - 2 * field.trace_bits().astype(np.int64)
    powers = field.power_map(d)
    out = np.empty(field.q, dtype=np.int64)
    for a in range(field.q):
        out[a] = signs[powers ^ field.scalar_mul_map(a)].sum()
    return out


def _parities(field: Field, ds: Sequence[int], dual: bool) -> np.ndarray:
    """uint8 (q, K) table with row alpha^i = Tr(alpha^(i*d)) for each of the
    K exponents d of ds, 0 <= i < 2^m - 1, and row 0 = 0, or with dual the
    same rows at dual_index(alpha^i) (dual_index(0) = 0).

    Row r of the values of d, i = r*W + j for j < W, is parity(v_r & b_j).
    The rows run R*W = 2^m entries, one past the last exponent; that one is
    dropped.  Each block of rows is popcounted into bytes, the K counts of
    one i side by side, and scattered to its block of positions from
    field.power_blocks(1, rows * W, dual), the K bytes of a position as one
    item; the counts become parities in one pass at the end.
    """
    k, w = len(ds), 1 << ((field.m + 1) // 2)
    heads = field.power_rows([d * w for d in ds], field.q // w)
    v = field.dual_indices(heads.reshape(-1)).reshape(k, -1, 1)
    b = field.power_rows(ds, w)[:, None, :]
    rows = max(1, _SCATTER_BLOCK // (w * k))
    bits = np.empty(field.q * k, dtype=np.uint8)
    bits[:k] = 0
    items = bits.view(np.dtype((np.void, k)))
    counts = np.empty(min(rows, v.shape[1]) * w * k, dtype=np.uint8)
    count_items, count_rows = counts.view(items.dtype), counts.reshape(-1, k).T
    for r, pos in zip(range(0, v.shape[1], rows), field.power_blocks(1, rows * w, dual)):
        # the AND runs along the rows of b, the popcount writes across them
        block = (v[:, r:r + rows] & b).reshape(k, -1)
        np.bitwise_count(block, out=count_rows[:, :block.shape[1]])
        items[pos.astype(np.intp)] = count_items[:pos.size]
    bits &= 1
    return bits.reshape(-1, k)


def truth_table(field: Field, d: int) -> np.ndarray:
    """Sign table of Tr(x^d) over all x, int32 of length 2^m: signs[x] =
    (-1)^Tr(x^d), placed through the antilog, and signs[0] = +1."""
    field.check_exponent(d)
    signs = np.multiply(_parities(field, (d,), dual=False).reshape(-1), -2, dtype=np.int32)
    signs += 1
    return signs


def _parity_transforms(field: Field, ds: Sequence[int], dual: bool) -> np.ndarray:
    """int32 (len(ds), q) array whose row k is fwht(truth_table(field, ds[k])),
    or with dual the butterfly of the same signs placed at dual_index(x),
    straight from the parities p of _parities.

    Hp runs in float32 up to q = 2^24, where every partial sum, at most q,
    is exact, and in int32 above that.  Several rows that fit in one
    _BUTTERFLY_BLOCK keep the (q, K) layout of p: it is widened
    contiguously into a scratch array, and _rotating transforms it from
    there into the memory of the result, which it leaves as the K rows (or
    in the scratch, which the write-back then reads).  One row, or rows
    longer than a block, are copied into the result, into its float32 view
    up to q = 2^24, and run fwht one at a time, in place, in float64 on
    int32 rows (_product_type).
    Then H(1 - 2p) = q*delta_0 - 2Hp is written back one _BUTTERFLY_BLOCK
    at a time, so the cast's temporary stays that small.
    """
    bits = _parities(field, ds, dual)
    out = np.empty((len(ds), field.q), dtype=np.int32)
    hp = out.view(np.float32) if field.q <= _FLOAT32_EXACT else out
    if len(ds) > 1 and field.q <= _BUTTERFLY_BLOCK:
        x = bits.astype(hp.dtype)
        del bits
        hp = _rotating(x, hp, field.m)
    else:
        np.copyto(hp, bits.T)
        del bits
        for row in hp:
            fwht(row)
    flat, res = out.reshape(-1), hp.reshape(-1)
    for lo in range(0, flat.size, _BUTTERFLY_BLOCK):
        hi = lo + _BUTTERFLY_BLOCK
        np.multiply(res[lo:hi], -2, out=flat[lo:hi], casting="unsafe")
    out[:, 0] += field.q
    return out


@lru_cache(maxsize=None)
def _hadamard(bits: int, dtype: np.dtype) -> np.ndarray:
    """The read-only Sylvester matrix H_(2^bits) in dtype: entry (i, j) is
    (-1)^parity(i & j).  Built on first use, so importing builds nothing."""
    i = np.arange(1 << bits)
    h = 1 - 2 * (np.bitwise_count(i[:, None] & i) & 1).astype(dtype)
    h.flags.writeable = False  # shared by every caller
    return h


def _factors(k: int) -> list[int]:
    """k index bits in ceil(k / _FACTOR_BITS) near-equal factors."""
    r = -(-k // _FACTOR_BITS)
    return [k // r + (j < k % r) for j in range(r)]


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b through BLAS, the one place the butterfly multiplies.
    Callers keep each 2-D product within _PRODUCT_CAP multiply-adds."""
    np.matmul(a, b, out=out)


def _product_type(a: np.ndarray, length: int, name: str) -> np.dtype:
    """The dtype of the products of a transform of the given length on a.

    A float or complex a runs in its own dtype.  On integers the products
    are exact: every partial sum is a signed sum of distinct entries, so at
    most length * max|a| in size, and float32 holds every integer up to
    2^24, float64 up to 2^53.  DomainError above that."""
    if a.dtype.kind in "fc":
        return a.dtype
    bound = length * max(int(a.max(initial=0)), -int(a.min(initial=0)))
    if bound <= _FLOAT32_EXACT:
        return np.dtype(np.float32)
    if bound <= 1 << 53:
        return np.dtype(np.float64)
    raise DomainError(f"{name} is exact while length * max|x| <= 2^53, got {bound}")


def _rotating(x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """H_(2^k) along the top k bits of the index of x, which holds 2^k * K
    entries laid out as (2^k, K), with y of the same size as scratch;
    returns whichever of the two holds the result, laid out as (K, 2^k).

    A factor of b bits views x as (2^b, R) and writes x.T @ H_(2^b), an
    (R, 2^b) array, into y: the top b bits of the index are transformed and
    move to the bottom, and the bits below them are carried along above.
    The factors' bits sum to k, so one run of 2^k entries comes back in
    order and a (2^k, K) array as K transformed rows.  Each factor is one
    call over chunks of c rows, c = min(_PRODUCT_CAP / 4^b, the largest
    power of two dividing R), so every 2-D product (c x 2^b) @ H_(2^b) runs
    on the calling thread.  OpenBLAS runs this tall form faster than
    H_(2^b) @ (2^b x c), and it reads x where it lies.
    """
    for b in _factors(k):
        side, rows = 1 << b, x.size >> b
        c = min(_PRODUCT_CAP >> 2 * b, rows & -rows)
        _matmul(x.reshape(side, -1, c).transpose(1, 2, 0), _hadamard(b, x.dtype),
                y.reshape(-1, c, side))
        x, y = y, x
    return x


def _columns(grid: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """H down each column of the (2^k, n) grid, in place, through the buffers
    x and y of the product dtype, of equal size and at least 2^k entries.

    A chunk of w = x.size / 2^k columns at a time is copied into x as a
    (2^k, w) array.  The factor on index bits [s, s + b) views it as
    (P, 2^b, q) with q = 2^s * w, and multiplies H_(2^b) into (2^b, c) slices
    of each of the P matrices, c = min(q, _PRODUCT_CAP / 4^b).  A chunk of
    one column is one run of _rotating instead, whose products are full
    matrix products, not matrix-vector ones.  The result is cast back into
    the chunk.  The chunks of several columns keep H_(2^b) on the left:
    _rotating would leave a chunk transposed, (w, 2^k), and the transposed
    copy back into the grid costs more than the tall products save.
    """
    rows, n = grid.shape
    k = rows.bit_length() - 1
    w = max(1, x.size // rows)
    for lo in range(0, n, w):
        chunk = grid[:, lo:lo + w]
        src, dst = x[:chunk.size], y[:chunk.size]
        np.copyto(src.reshape(chunk.shape), chunk, casting="unsafe")
        if w == 1:
            src = _rotating(src, dst, k)
        else:
            q = chunk.shape[1]
            for b in _factors(k):
                h, side = _hadamard(b, x.dtype), 1 << b
                c = min(q, _PRODUCT_CAP >> 2 * b)
                src3, dst3 = src.reshape(-1, side, q), dst.reshape(-1, side, q)
                for j in range(0, q, c):
                    _matmul(h, src3[:, :, j:j + c], dst3[:, :, j:j + c])
                src, dst = dst, src
                q <<= b
        np.copyto(chunk, src.reshape(chunk.shape), casting="unsafe")


def _check_butterfly_input(a: np.ndarray, n: int, name: str) -> None:
    """DomainError unless the transform length n is a power of two and a is
    signed and C-contiguous (a reshape of anything else is a copy, and the
    result would be lost)."""
    if n == 0 or n & (n - 1):
        raise DomainError(f"{name} needs a power-of-two length, got {n}")
    if a.dtype.kind in "bu":
        raise DomainError(f"{name} needs a signed dtype, got {a.dtype}")
    if not a.flags.c_contiguous:
        raise DomainError(f"{name} works in place and needs a C-contiguous array")


def fwht(a: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard butterfly over the parity pairing, returning a;
    a must be C-contiguous, of length 2^k and of a signed dtype, which the
    result keeps.  On a sign table, entry u of the result is
    W_d(dual_index_inv(u)).

    H_(2^k) is the Kronecker product of Hadamard factors of at most
    _FACTOR_BITS bits, applied as float matrix products (see _product_type
    for their dtype; DomainError when length * max|a| passes 2^53).  The
    low min(k, 16) index bits run on one 2^16-entry block at a time, in
    place when a has the product dtype and otherwise copied into a float
    buffer that stays in L2, with a second such buffer as scratch, as tall
    products (rows x 2^b) @ H_(2^b) (_rotating).  The remaining bits then
    run down the columns of a viewed as (2^(k-16), 2^16), a chunk of
    columns at a time (_columns).  The copy buffer is allocated only for a
    copy or a column stage.  Factors commute, so their order does not
    change the result.
    """
    n = a.size
    _check_butterfly_input(a, n, "fwht")
    ftype = _product_type(a, n, "fwht")
    size = min(n, _BUTTERFLY_BLOCK)
    rows = n // size
    copy = a.dtype != ftype
    x = np.empty(max(size, rows), ftype) if copy or rows > 1 else None
    y = np.empty(max(size, rows), ftype)
    low = size.bit_length() - 1
    for block in a.reshape(-1, size):
        src = x[:size] if copy else block
        if copy:
            np.copyto(src, block, casting="unsafe")
        res = _rotating(src, y[:size], low)
        if res is not block:
            np.copyto(block, res, casting="unsafe")
    if rows > 1:
        _columns(a.reshape(rows, size), x, y)
    return a


def fwht_columns(a: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard butterfly down each column of a C-contiguous
    (2^r, n) array of a signed dtype, returning a: n transforms of 2^r
    points at once, as float matrix products over chunks of columns (see
    _product_type for their dtype)."""
    rows = a.shape[0]
    _check_butterfly_input(a, rows, "fwht_columns")
    ftype = _product_type(a, rows, "fwht_columns")
    size = min(a.size, max(_BUTTERFLY_BLOCK, rows))
    _columns(a, np.empty(size, ftype), np.empty(size, ftype))
    return a


def tables_per_block(field: Field) -> int:
    """How many exponents sign_transforms should take at once: as many
    sign tables as fill one 2^16-entry float buffer, at least one."""
    return max(1, _BUTTERFLY_BLOCK // field.q)


def sign_transforms(field: Field, ds: Sequence[int]) -> np.ndarray:
    """int32 (len(ds), q) array whose row k is fwht(truth_table(field, ds[k])).

    The rows come from the parity bytes p of the exponents (see
    _parity_transforms).  Several exponents share one pass of each step:
    one Field.power_rows call for all their row factors, one popcount and
    one scatter of len(ds) bytes per position, and, while a table fits in
    one 2^16-entry block, one matrix product per Hadamard factor over all
    their tables, which _rotating runs on the (q, len(ds)) bytes widened to
    float32 and leaves as the rows of the result; longer tables go through
    fwht one at a time.  H(1 - 2p) = H1 - 2Hp, and H1 is q at 0 and 0
    elsewhere.  Callers keep len(ds) within tables_per_block(field) so that
    the block stays in L2; more exponents give the same rows.
    """
    for d in ds:
        field.check_exponent(d)
    if len(ds) == 0:
        return np.empty((0, field.q), dtype=np.int32)
    return _parity_transforms(field, ds, dual=False)


def walsh_coefficients(field: Field, d: int) -> np.ndarray:
    """All W_d(a) indexed by the element a (int32): the sign of x is placed
    at dual_index(x), so the butterfly's entry a is W_d(a) with no gather."""
    field.check_exponent(d)
    return _parity_transforms(field, (d,), dual=True)[0]


def walsh_spectrum(field: Field, d: int) -> Spectrum:
    """Histogram of all 2^m Walsh coefficients, values ascending: the butterfly
    output is sorted in place and its runs counted."""
    field.check_exponent(d)
    arr = _parity_transforms(field, (d,), dual=False)[0]
    arr.sort()
    starts = np.r_[0, np.flatnonzero(arr[1:] != arr[:-1]) + 1]
    counts = np.diff(np.append(starts, arr.size))
    return Spectrum(
        m=field.m,
        d=d,
        entries=tuple((int(arr[i]), int(n)) for i, n in zip(starts, counts)),
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
    sub = field.subfield_elements()
    return sum(walsh_coefficients_at(field, [d] * len(sub), [field.mul(a, u) for a in sub]))
