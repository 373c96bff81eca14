"""GF(2^m) arithmetic in the polynomial basis.

Field elements are plain Python ints in [0, 2^m): bit j is the coefficient of
x^j in the residue class modulo a fixed primitive polynomial, so addition is
XOR and zero/one are the ints 0 and 1.  The generator alpha is the class of x,
i.e. the int 2.

A field with tables (2^m <= table_cap, default 2^22 entries) has the int32
antilog alog[i] = alpha^i.  While 2^m <= 2^16 (one _POWER_BLOCK)
construction builds it.  Above that a one-exponent call would read it once,
as slices, so it waits: the first mul, inv, pow, log_of or antilog(), or
the field's second walk of power_blocks(1, size), plain or dual, builds it;
the first streams.  An antilog built after construction lives in an
anonymous mapping of its own, not in the malloc heap.
Every walk over the powers of c = alpha^e that does not read a built
antilog, and the antilog's own build, reads rows of H = 64 entries: row r,
c^(rH + j) = c^j * c^(rH), is GF(2)-linear in its head c^(rH), so it is two
gathers of whole rows from the XOR spans of the m x H table
T[b][j] = alpha^b * c^j, split at bit m // 2.  For c = alpha the rows of T
are windows of the scalar chain alpha^k, k < H + m (a Hankel matrix); the
dual stream reads its rows from T mapped through dual_index, which is
linear.  The walks, and the antilog from q = 2^16 on, are one row stream
(Field._row_stream), whose heads come from geometric(c^H, rows) for the
first block and are stepped by a constant from block to block; below
q = 2^16 the antilog is one outer product, its heads a scalar chain
through one more column of T.  geometric(c, n) fills
c^k for k < n by doubling, out[k:2k] = c^k * out[:k], each product by the
constant c^k read from two small tables because it is GF(2)-linear.
The int32 log, its blocked inverse scatter, serves scalar arithmetic only:
it is built on the first mul, inv, pow or log_of, and no vector map reads
it.  Until the antilog exists, and always above the cap, exp and
power_rows work without it: exp by square-and-multiply, power_rows one
geometric sequence per row instead of a gather; above the cap the scalar
operations fall back to shift-and-reduce polynomial multiplication.
power_blocks(e, size) yields alpha^(e*i) a block at a time, or with dual
dual_index(alpha^(e*i)): with a built antilog and e = 1 its slices (with
dual, dual_indices of them), otherwise the row stream.
power_map and the sign tables read these blocks, so neither makes a
q-sized antilog.  trace_bits, scalar_mul_map, dual_indices and
coset_labels need no tables: all are GF(2)-linear maps, filled by doubling
over the polynomial basis (xor_span).  The maps to elements, power_map,
scalar_mul_map, dual_indices and the antilog, are int32 (every element is
below 2^28); trace_bits is uint8.

For m = 2t the subfield L = GF(2^t) has one coordinate system, a =
sum_i k_i gamma^i over subfield_basis(), and coset_labels() names x + L by
the bits Tr(x * gamma^i).  So Tr(a*x) = parity(k & label(x)), and a 2^t-point
butterfly over L in k order pairs L with every coset at once.

PRIMITIVE_POLY holds the lexicographically smallest primitive polynomial of
each degree 2..28 as an integer bitmask (0x43 = x^6 + x + 1).  Construction
never trusts the table: it verifies that alpha has multiplicative order
exactly 2^m - 1, which certifies irreducibility and primitivity at once, and
rejects any modulus that fails.

Additive characters are tied to bitmask indices through the trace bilinear
form: dual_index(a) is the bitmask u with Tr(a*x) = parity(u & x) for every
x, computed from the m x m bit matrix G[i][j] = Tr(alpha^(i+j)).  Its
entries Tr(alpha^k), k <= 2m - 2, are power sums of the roots of the modulus,
read off its coefficients by Newton's identities with no field arithmetic:
from k = m on these are the recurrence of the modulus, run on the bits of
one int W = sum_k Tr(alpha^k) 2^k, and row j of G is the window
(W >> j) mod 2^m.  G is invertible (the trace form is non-degenerate), so
dual_index is a bijection and dual_index_inv recovers a from u; the rows of
G^-1 are built only on the first dual_index_inv, which the spectra, the
identities and the dual stream never call.  dual_indices maps an array of
elements at once, through the XOR spans of the low and high halves of the
rows of G.  walsh.py leans on this twice: Tr(y*x) = parity(dual_index(y) & x)
gives the values of the sign table without logs, and placing the signs at
dual coordinates makes the Walsh-Hadamard butterfly, which natively uses the
parity pairing, return coefficients indexed by the element.
"""

from __future__ import annotations

import mmap
import threading
from collections.abc import Sequence
from math import gcd

import numpy as np

from .errors import DomainError, NonInvertibleError, UnsupportedError

DEFAULT_TABLE_CAP = 1 << 22

# Entries per gather or scatter in the table maps: bounds their temporaries
# to this many entries, so the only q-sized arrays are the inputs and the
# result.  Indices are widened to intp one block at a time.  Also the block
# in which the row stream writes an antilog of 2^16 entries or more.
_POWER_BLOCK = 1 << 16

# The same for the doubling steps of geometric(), smaller: they take 12
# bytes of temporaries per entry.
_ANTILOG_BLOCK = 1 << 14

# Entries geometric() takes from the scalar chain of products before
# doubling starts: a doubling step costs some tens of microseconds of numpy
# calls whatever its width, more than 64 scalar products.  A power of two,
# so the steps after it still double.  Also the row width of the row stream
# and of the antilog.
_ANTILOG_HEAD = 64

# The (m, modulus) pairs whose primitivity proof has passed in this process:
# a modulus is proved once, and one that fails is never added, so it fails
# on every construction.
_PROVEN_PRIMITIVE: set[tuple[int, int]] = set()

# Lexicographically smallest primitive polynomial per degree, as bitmask.
# Regenerable by scanning odd candidates upward and keeping the first whose
# root has multiplicative order 2^m - 1 (the same check the constructor runs).
PRIMITIVE_POLY = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x402B,
    15: 0x8003,
    16: 0x1002D,
    17: 0x20009,
    18: 0x40027,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x4000047,
    27: 0x8000027,
    28: 0x10000009,
}

MIN_DEGREE = min(PRIMITIVE_POLY)
MAX_DEGREE = max(PRIMITIVE_POLY)


def _polymul_mod(a: int, b: int, modulus: int, m: int) -> int:
    """Carryless product of a and b reduced modulo the degree-m modulus."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> m) & 1:
            a ^= modulus
    return r


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (n < 2^29 here, so this is cheap)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def xor_span(cols: Sequence[int] | np.ndarray, q: int, dtype=np.int64) -> np.ndarray:
    """Array S over [0, q) of the given dtype with S[x] = XOR of cols[j] over
    the set bits j of x, filled by doubling: S[2^j : 2^(j+1)] = S[:2^j] ^ cols[j].
    cols holds ints, or is a 2-D array whose rows are XORed whole, so that S
    has one such row per x."""
    out = np.zeros((q, *cols.shape[1:]) if isinstance(cols, np.ndarray) else q, dtype=dtype)
    for j, c in enumerate(cols):
        k = 1 << j
        np.bitwise_xor(out[:k], c, out=out[k:2 * k])
    return out


def _apply_halves(halves: tuple[np.ndarray, np.ndarray], src: np.ndarray,
                  dst: np.ndarray, ix: np.ndarray, tmp: np.ndarray) -> None:
    """dst = low[src mod 2^h] ^ high[src >> h] for the int32 array src, with
    (low, high) = halves and low of 2^h rows: a GF(2)-linear map read from
    the XOR spans of its columns below and above bit h.  Tables of 1-D rows
    map each entry of src to a row, and dst has src's shape plus the row's.
    ix (intp, src's shape) and tmp (int32, dst's shape) are scratch; the
    indices are in range, and mode="wrap" spares take the buffered copy
    that mode="raise" makes."""
    low, high = halves
    h = len(low).bit_length() - 1
    np.bitwise_and(src, (1 << h) - 1, out=ix)
    np.take(low, ix, axis=0, out=dst, mode="wrap")
    np.right_shift(src, h, out=ix)
    np.take(high, ix, axis=0, out=tmp, mode="wrap")
    dst ^= tmp


def _halves(cols: Sequence[int] | np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The int32 XOR spans of cols[:h] and cols[h:] with h = m // 2: the
    tables of _apply_halves for the linear map with these m columns."""
    h = m // 2
    return xor_span(cols[:h], 1 << h, np.int32), xor_span(cols[h:], 1 << (m - h), np.int32)


def _select(rows: Sequence[int], a: int) -> int:
    """XOR of rows[j] over the set bits j of a."""
    u = 0
    j = 0
    while a:
        if a & 1:
            u ^= rows[j]
        a >>= 1
        j += 1
    return u


def _transpose(rows: Sequence[int], n: int) -> list[int]:
    """The n columns of the bit matrix with these rows: bit i of column j
    is bit j of rows[i]."""
    bits = np.array(rows, dtype=np.int64)[:, None] >> np.arange(n) & 1
    return (bits.T @ (1 << np.arange(len(rows)))).tolist()


def _chain(low: list[int], high: list[int], n: int) -> list[int]:
    """[1, c, ..., c^n] for the product by c read, as in _apply_halves, from
    its two tables given as lists."""
    h, mask = len(low).bit_length() - 1, len(low) - 1
    out = [1]
    for _ in range(n):
        out.append(low[out[-1] & mask] ^ high[out[-1] >> h])
    return out


def _mapped(halves: tuple[np.ndarray, np.ndarray], blocks, size: int):
    """Each int32 block of at most size entries through _apply_halves with
    these tables, yielded from one reused buffer."""
    out, tmp = np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int32)
    ix = np.empty(size, dtype=np.intp)
    for block in blocks:
        k = block.size
        _apply_halves(halves, block, out[:k], ix[:k], tmp[:k])
        yield out[:k]


def _reblock(chunks, size: int, n: int):
    """The first n entries of the concatenated int32 chunks, yielded as
    blocks of size entries (the last one shorter) copied into one reused
    buffer."""
    block = np.empty(size, dtype=np.int32)
    fill = 0
    for chunk in chunks:
        chunk = chunk[:n]
        n -= chunk.size
        while chunk.size:
            k = min(size - fill, chunk.size)
            block[fill:fill + k] = chunk[:k]
            chunk, fill = chunk[k:], fill + k
            if fill == size or n == chunk.size == 0:
                yield block[:fill]
                fill = 0


def _log_from_antilog(alog: np.ndarray, q: int) -> np.ndarray:
    """int32 inverse of the antilog over [0, q): log[alog[i]] = i, log[0] = -1.
    Scattered in blocks through one reused intp index buffer and one int32
    ramp that advances by a block each pass."""
    log = np.empty(q, dtype=np.int32)
    log[0] = -1
    idx = np.empty(min(_POWER_BLOCK, alog.size), dtype=np.intp)
    ramp = np.arange(idx.size, dtype=np.int32)
    for lo in range(0, alog.size, idx.size):
        n = min(idx.size, alog.size - lo)
        idx[:n] = alog[lo:lo + n]
        np.put(log, idx[:n], ramp[:n])
        ramp += idx.size
    return log


def _trace_powers(modulus: int, m: int, n: int) -> int:
    """The window W = sum_k Tr(alpha^k) 2^k over 0 <= k < n, one bit a step.

    Tr(alpha^k) is the k-th power sum p_k of the roots of the modulus, whose
    elementary symmetric functions e_i are its coefficients: e_i is bit
    m - i.  By Newton's identities over GF(2), p_0 = m mod 2,
    p_k = sum_{0<i<k} e_i p_(k-i) + (k mod 2) e_k for k < m, and
    p_k = sum_{i<=m} e_i p_(k-i) from m on, the recurrence of the
    modulus itself (the trace sequence is an m-sequence): each sum is the
    parity of the window's last bits under the low bits of the modulus.
    """
    taps = modulus & ((1 << m) - 1)
    w = m & 1
    for k in range(1, n):
        if k < m:
            # p_(k-1) .. p_1 under e_1 .. e_(k-1), p_0 left out, and (k mod 2) e_k
            s = (((w >> 1) << (m - k + 1)) & taps).bit_count() + (k & (modulus >> (m - k)))
        else:
            s = ((w >> (k - m)) & taps).bit_count()
        w |= (s & 1) << k
    return w


def _invert_bit_matrix(rows: list[int], m: int) -> list[int]:
    """Invert an m x m GF(2) matrix given as row bitmasks (bit i of rows[j] is M[j][i])."""
    left = list(rows)
    right = [1 << j for j in range(m)]
    for col in range(m):
        piv = next((r for r in range(col, m) if (left[r] >> col) & 1), None)
        if piv is None:
            raise DomainError("trace bilinear form is singular; modulus cannot be primitive")
        left[col], left[piv] = left[piv], left[col]
        right[col], right[piv] = right[piv], right[col]
        for r in range(m):
            if r != col and (left[r] >> col) & 1:
                left[r] ^= left[col]
                right[r] ^= right[col]
    return right


def check_degree(m: int) -> None:
    """DomainError unless MIN_DEGREE <= m <= MAX_DEGREE, the degrees PRIMITIVE_POLY covers."""
    if not MIN_DEGREE <= m <= MAX_DEGREE:
        raise DomainError(f"m must be in [{MIN_DEGREE}, {MAX_DEGREE}], got {m}")


def check_even(m: int) -> int:
    """t for m = 2t; UnsupportedError for odd m."""
    if m % 2:
        raise UnsupportedError(f"operation needs m = 2t, but m = {m} is odd")
    return m // 2


def check_exponent_range(m: int, d: int) -> None:
    """DomainError unless 1 <= d <= 2^m - 2, the exponents of GF(2^m)."""
    if not 1 <= d <= (1 << m) - 2:
        raise DomainError(f"exponent d must be in [1, {(1 << m) - 2}], got {d}")


def check_invertible(m: int, d: int) -> None:
    """NonInvertibleError (a DomainError) unless gcd(d, 2^m - 1) = 1."""
    order = (1 << m) - 1
    g = gcd(d, order)
    if g != 1:
        raise NonInvertibleError(d, order, g)


def mod_inverse(d: int, n: int) -> int:
    """Inverse of d modulo n, in [0, n); NonInvertibleError carries the gcd."""
    if n < 2:
        raise DomainError(f"modulus for inversion must be at least 2, got {n}")
    g = gcd(d, n)
    if g != 1:
        raise NonInvertibleError(d, n, g)
    return pow(d, -1, n)


class Field:
    """Immutable context for one GF(2^m); see the module docstring for conventions."""

    def __init__(self, m: int, modulus: int, table_cap: int = DEFAULT_TABLE_CAP):
        """Check m and the degree of the modulus (DomainError),
        verify that alpha has order 2^m - 1, build the antilog if
        2^m <= min(table_cap, 2^16) (a larger one waits for its first use,
        and the log always does), and derive the trace mask and the
        dual-index matrix from the window of Tr(alpha^k).  The inverse of
        that matrix waits for its first use."""
        check_degree(m)
        # not bit_length: a negative modulus has the right one too, and the
        # reduction loops never end on it
        if modulus >> m != 1:
            raise DomainError(f"modulus {modulus:#x} does not have degree {m}")
        self.m = m
        self.t = m // 2 if m % 2 == 0 else None
        self.modulus = modulus
        self.alpha = 2
        self.q = 1 << m
        self.order = self.q - 1
        self.table_cap = table_cap

        if (m, modulus) not in _PROVEN_PRIMITIVE:
            self._verify_primitive()
            _PROVEN_PRIMITIVE.add((m, modulus))

        self._alog: np.ndarray | None = None
        if self.q <= min(table_cap, _POWER_BLOCK):
            self._alog = self._antilog()
        self._log: np.ndarray | None = None
        self._walked = False  # a power_blocks(1, size) walk has streamed
        self._lock = threading.RLock()  # one thread builds the late tables

        # Tr(alpha^k) for k <= 2m - 2 feeds the trace mask and the
        # dual-indexing matrix, whose row j is the window of m traces from k = j.
        tr = _trace_powers(modulus, m, 2 * m - 1)
        self.trace_mask = tr & self.order
        self._dual_rows = [(tr >> j) & self.order for j in range(m)]
        self._dual_rows_inv: list[int] | None = None

        self._subfield: tuple[int, ...] | None = None
        self._subfield_set: frozenset[int] | None = None
        self._trace_bits: np.ndarray | None = None
        self._dual_halves: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction helpers -------------------------------------------------

    def _mulx(self, x: int) -> int:
        x <<= 1
        if (x >> self.m) & 1:
            x ^= self.modulus
        return x

    def _raw_pow(self, x: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = _polymul_mod(r, x, self.modulus, self.m)
            x = _polymul_mod(x, x, self.modulus, self.m)
            e >>= 1
        return r

    def _verify_primitive(self) -> None:
        # alpha must have order exactly 2^m - 1: that single fact certifies the
        # modulus irreducible and primitive, since a ring with a unit of that
        # order has no room left for zero divisors.
        if self._raw_pow(self.alpha, self.order) != 1:
            raise DomainError(f"modulus 0x{self.modulus:x} is not primitive over GF(2)")
        for p in _prime_factors(self.order):
            if self._raw_pow(self.alpha, self.order // p) == 1:
                raise DomainError(
                    f"modulus 0x{self.modulus:x} is not primitive: alpha order divides {self.order // p}"
                )

    def _product_columns(self, c: int, n: int) -> list[int]:
        """c * alpha^j for j < n, one shift-and-reduce a step; for n = m the
        columns of the product M_c: y -> c*y."""
        cols = [c]
        for _ in range(n - 1):
            cols.append(self._mulx(cols[-1]))
        return cols

    def _product_halves(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """The two tables of M_c: y -> c*y for _apply_halves."""
        return _halves(self._product_columns(c, self.m), self.m)

    def _hankel(self, width: int) -> np.ndarray:
        """The (m, width) view whose row b is alpha^(b + j) for j < width:
        windows of the scalar chain alpha^k, k < width + m - 1."""
        seq = np.array(self._product_columns(1, width + self.m - 1), dtype=np.int32)
        return np.lib.stride_tricks.as_strided(seq, (self.m, width), seq.strides * 2,
                                               writeable=False)

    def _row_halves(self, c: int, dual: bool) -> tuple[np.ndarray, np.ndarray]:
        """The tables of _apply_halves for y -> [y * c^j for j < 64], whose
        rows are XOR spans of the rows T[b][j] = alpha^b * c^j, b < m; with
        dual, of dual_index(T[b][j]), as dual_index is GF(2)-linear.  For
        c = alpha, T is _hankel(64); otherwise T[0] = geometric(c, 64) and
        each further row is the one before times alpha, one vectorized
        shift-and-reduce."""
        m = self.m
        if c == self.alpha:
            t = self._hankel(_ANTILOG_HEAD)
        else:
            t = np.empty((m, _ANTILOG_HEAD), dtype=np.int32)
            t[0] = self.geometric(c, _ANTILOG_HEAD)
            for b in range(1, m):
                np.left_shift(t[b - 1], 1, out=t[b])
                t[b] ^= (t[b - 1] >> (m - 1)) * self.modulus
        return _halves(self.dual_indices(t) if dual else t, m)

    def _row_stream(self, e: int, rows: int, dual: bool = False, out: np.ndarray | None = None):
        """Yield c^k for c = alpha^e and k = 0, 1, ... over ceil((2^m - 1)/64)
        whole rows of 64, so past 2^m - 2 up to the end of the last row, in
        chunks of rows * 64 entries (the last one shorter); with dual the
        same entries mapped through dual_index.

        Row r is c^(64r + j) = y_r * c^j for j < 64 with the head
        y_r = c^(64r), and y -> [y * c^j] is GF(2)-linear: the row is
        low[y_r mod 2^h] ^ high[y_r >> h] from the tables of _row_halves,
        two gathers of whole rows and one XOR.  The heads of the first chunk
        are geometric(c^64, rows), and those of each next chunk the ones
        before times c^(64 rows).  Chunks are written into out (at least
        ceil((2^m - 1)/64) * 64 entries) at their offsets if it is given,
        otherwise into one reused buffer, valid only until the next chunk
        is drawn; the tables aside, no array has more than rows * 64
        entries."""
        width = _ANTILOG_HEAD
        total = -(-self.order // width)
        rows = min(rows, total)
        halves = self._row_halves(self.exp(e), dual)
        heads = self.geometric(self.exp(e * width), rows)
        ix, tmp = np.empty(rows, dtype=np.intp), np.empty((rows, width), dtype=np.int32)
        buf = np.empty_like(tmp) if out is None else None
        if rows < total:
            step = self._product_halves(self.exp(e * width * rows))
            nxt, part = np.empty_like(heads), np.empty_like(heads)
        for r in range(0, total, rows):
            k = min(rows, total - r)
            dst = buf[:k] if out is None else out[r * width:(r + k) * width].reshape(k, width)
            _apply_halves(halves, heads[:k], dst, ix[:k], tmp[:k])
            yield dst.reshape(-1)
            if r + rows < total:
                _apply_halves(step, heads, nxt, ix, part)
                heads, nxt = nxt, heads

    def geometric(self, c: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """int32 array with entry k = c^k for 0 <= k < count, written to
        out (int32, count entries) if given: power_rows reads it, and the
        row stream its first row and its first heads.

        The first min(count, 64) entries come from the scalar chain of
        products by c, each two reads from the tables of _product_halves(c),
        the rest by doubling:
        out[k:2k] = c^k * out[:k] for k = 64, 128, ..., each step through
        _product_halves(c^k) and in blocks through one reused intp index
        buffer, so the result is the only array of count entries.
        """
        if out is None:
            out = np.empty(count, dtype=np.int32)
        k = min(count, _ANTILOG_HEAD)
        head = _chain(*(half.tolist() for half in self._product_halves(c)), k)
        out[:k] = head[:k]
        ck = head[k]  # c^k
        idx = np.empty(min(_ANTILOG_BLOCK, count), dtype=np.intp)
        part = np.empty(idx.size, dtype=np.int32)
        while k < count:
            halves = self._product_halves(ck)
            width = min(k, count - k)
            for lo in range(0, width, idx.size):
                hi = min(lo + idx.size, width)
                _apply_halves(halves, out[lo:hi], out[k + lo:k + hi], idx[:hi - lo], part[:hi - lo])
            ck = _polymul_mod(ck, ck, self.modulus, self.m)
            k <<= 1
        return out

    def _antilog(self, out: np.ndarray | None = None) -> np.ndarray:
        """int32 array with entry i = alpha^i for 0 <= i < 2^m - 1: the
        first 2^m - 1 entries of out, which then has max(q, 64) entries, if
        given.

        It is written in rows of H = 64, alpha^(rH + j) = alpha^j * y_r with
        y_r = alpha^(rH), each two gathers of whole rows from the tables of
        _row_halves(alpha), whose rows are windows of the scalar chain
        alpha^k, k < H + m (a Hankel matrix).  From q = 2^16 (one
        _POWER_BLOCK) on, _row_stream writes it, a block at a time.  Below,
        it is one outer product: the tables take one more column, j = H,
        the product by alpha^H, which steps y_r to y_(r+1) in a scalar
        chain."""
        width = _ANTILOG_HEAD
        rows = max(1, self.q // width)
        if out is None:
            out = np.empty(rows * width, dtype=np.int32)
        if self.q >= _POWER_BLOCK:
            for _ in self._row_stream(1, _POWER_BLOCK // width, out=out):
                pass
        else:
            low, high = _halves(self._hankel(width + 1), self.m)
            heads = np.array(_chain(low[:, width].tolist(), high[:, width].tolist(), rows - 1),
                             dtype=np.int32)
            dst = out[:rows * width].reshape(rows, width)
            _apply_halves((low[:, :width], high[:, :width]), heads, dst,
                          np.empty(rows, dtype=np.intp), np.empty_like(dst))
        return out[:self.order]  # the entry after them is alpha^order = 1

    def _table(self) -> np.ndarray:
        """The stored antilog, built on first use by one thread while the
        others wait; only for a field with tables.

        Built here, above one block, it is written to an anonymous mapping
        of its own.  After frees of q-sized arrays have raised glibc's mmap
        threshold, a heap table would sit below the temporaries of the
        calls after it, whose frees are then trimmed from the top of the
        heap and fault in again on every call (2,274 minor faults per warm
        subfield_identities at m = 20).  tracemalloc does not see the
        mapping.  A table of one block is built with the field, on the
        heap: mapping it would add a map, an unmap and its page faults to
        every make_field."""
        if self._alog is None:
            self._once("_alog", lambda: self._antilog(
                np.frombuffer(mmap.mmap(-1, 4 * self.q), dtype=np.int32)))
        return self._alog

    def _logs(self) -> np.ndarray:
        """The int32 log table, scattered from the antilog on first use by
        one thread; only for a field with tables."""
        if self._log is None:
            self._once("_log", lambda: _log_from_antilog(self._table(), self.q))
        return self._log

    def _once(self, name: str, build) -> None:
        """Set the attribute name, if it is still None, to build(), under
        the field's lock: one thread builds a late table while the others
        wait, and a build may call another (the log reads the antilog)."""
        with self._lock:
            if getattr(self, name) is None:
                setattr(self, name, build())

    def antilog(self) -> np.ndarray:
        """int32 alpha^i for 0 <= i < 2^m - 1: with tables the stored
        antilog, built by this call if it is the first to need it, which
        callers must not modify; without tables one built for this call."""
        return self._table() if self.has_tables else self._antilog()

    def power_rows(self, es: Sequence[int], count: int) -> np.ndarray:
        """int32 (len(es), count) array with entry (k, j) = alpha^(es[k] * j):
        gathered from the antilog once it is built, otherwise one geometric
        sequence per row."""
        if self._alog is None:
            return np.stack([self.geometric(self.exp(e), count) for e in es])
        exps = np.multiply.outer(np.array([e % self.order for e in es], dtype=np.int64),
                                 np.arange(count, dtype=np.int64))
        exps %= self.order
        return self._alog[exps]

    def power_blocks(self, e: int, size: int, dual: bool = False):
        """Yield the int32 arrays [alpha^(e*lo), ..., alpha^(e*(hi - 1))] for
        lo = 0, size, 2 size, ... below 2^m - 1, with hi = min(lo + size,
        2^m - 1), or with dual the same blocks mapped through dual_index.

        Once the antilog is built, blocks read it: for e = 1 mod 2^m - 1 the
        plain blocks are its slices, which callers must not modify, and the
        dual ones dual_indices of them; one block of all 2^m - 1 entries is
        power_rows([e], 2^m - 1)[0].  With tables, the field's first walk
        with e = 1 mod 2^m - 1, plain or dual, before the antilog exists
        streams, and its second builds the antilog.  Every other walk reads
        _row_stream(e, size / 64): rows of 64 powers, two row gathers each,
        so a block is valid only until the next is drawn and, the row
        tables aside, no array has more than size entries rounded up to
        whole rows.  A size that is not a multiple of 64 takes its blocks
        from chunks of whole rows, copied through one more buffer."""
        n, width = self.order, _ANTILOG_HEAD
        if e % n == 1 and self.has_tables:
            if self._alog is None and self._walked:
                self._table()
            self._walked = True
        if self._alog is not None and e % n == 1:
            blocks = (self._alog[lo:lo + size] for lo in range(0, n, size))
            yield from _mapped(self._dual_tables(), blocks, min(size, n)) if dual else blocks
        elif self._alog is not None and size >= n:
            block = self.power_rows([e], n)[0]
            yield self.dual_indices(block) if dual else block
        elif size % width and size < n:
            yield from _reblock(self._row_stream(e, max(1, size // width), dual), size, n)
        else:
            chunks = self._row_stream(e, -(-min(size, n) // width), dual)
            for lo, chunk in zip(range(0, n, size), chunks):
                yield chunk[:n - lo]

    # -- validation -----------------------------------------------------------

    def check_exponent(self, d: int) -> None:
        """DomainError unless 1 <= d <= 2^m - 2."""
        check_exponent_range(self.m, d)

    def check_element(self, x: int, name: str = "a") -> None:
        """DomainError unless x is a field element, i.e. 0 <= x < 2^m."""
        if not 0 <= x < self.q:
            raise DomainError(f"{name} must be a field element in [0, {self.q - 1}], got {x}")

    def check_invertible(self, d: int) -> None:
        """NonInvertibleError (a DomainError) unless gcd(d, 2^m - 1) = 1."""
        check_invertible(self.m, d)

    def need_even(self) -> int:
        """t for m = 2t; UnsupportedError for odd m."""
        return check_even(self.m)

    # -- scalar arithmetic ----------------------------------------------------

    @property
    def has_tables(self) -> bool:
        """2^m <= table_cap: the field keeps an antilog and a log, each
        built when the module docstring says, and serves scalar arithmetic
        from them."""
        return self.q <= self.table_cap

    def add(self, x: int, y: int) -> int:
        return x ^ y

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        if self.has_tables:
            log = self._logs()
            return int(self._alog[(int(log[x]) + int(log[y])) % self.order])
        return _polymul_mod(x, y, self.modulus, self.m)

    def inv(self, x: int) -> int:
        if x == 0:
            raise DomainError("0 has no multiplicative inverse")
        if self.has_tables:
            log = self._logs()
            return int(self._alog[(self.order - int(log[x])) % self.order])
        return self._raw_pow(x, self.order - 1)

    def pow(self, x: int, e: int) -> int:
        """x^e with any integer e, read modulo 2^m - 1 for x != 0; pow(x, 0) = 1."""
        if x == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise DomainError("0 has no negative powers")
        e %= self.order
        if self.has_tables:
            log = self._logs()
            return int(self._alog[(int(log[x]) * e) % self.order])
        return self._raw_pow(x, e)

    def exp(self, i: int) -> int:
        """alpha^i for any integer i: read from the antilog once it is
        built, otherwise by square-and-multiply."""
        if self._alog is not None:
            return int(self._alog[i % self.order])
        return self._raw_pow(self.alpha, i % self.order)

    def log_of(self, x: int) -> int:
        if x == 0:
            raise DomainError("log of 0 is undefined")
        if not self.has_tables:
            raise UnsupportedError("discrete logs need log tables (2^m exceeds table_cap)")
        return int(self._logs()[x])

    # -- traces and subfield --------------------------------------------------

    def trace(self, x: int) -> int:
        """Absolute trace onto GF(2), via the linearity mask."""
        return (x & self.trace_mask).bit_count() & 1

    def trace_rel(self, x: int) -> int:
        """Relative trace onto the index-2 subfield L: x + x^(2^t)."""
        t = self.need_even()
        return x ^ self.pow(x, 1 << t)

    def norm_rel(self, x: int) -> int:
        """Relative norm onto L: x^(1 + 2^t)."""
        t = self.need_even()
        return self.mul(x, self.pow(x, 1 << t))

    def subfield_trace(self, y: int) -> int:
        """Absolute trace of the subfield L = GF(2^t), for y in L."""
        t = self.need_even()
        if self.pow(y, 1 << t) != y:
            raise DomainError(f"0x{y:x} is not in the index-2 subfield")
        s = y
        z = y
        for _ in range(t - 1):
            z = self.mul(z, z)
            s ^= z
        if s not in (0, 1):
            raise DomainError("subfield trace left GF(2); field internals are inconsistent")
        return s

    def subfield_basis(self) -> tuple[int, ...]:
        """gamma^i for i < t: the basis of L whose coordinates k index it,
        a = sum_i k_i gamma^i.  gamma = alpha^(2^t + 1) generates L*, the
        unique subgroup of order 2^t - 1, so its minimal polynomial has degree t."""
        step = (1 << self.need_even()) + 1
        return tuple(self.exp(i * step) for i in range(self.t))

    def subfield_elements(self) -> tuple[int, ...]:
        """The 2^t elements of L = GF(2^t) inside GF(2^m), sorted ascending."""
        t = self.need_even()
        if self._subfield is None:
            elems = np.sort(xor_span(self.subfield_basis(), 1 << t)).tolist()
            self._subfield = tuple(elems)
            self._subfield_set = frozenset(elems)
        return self._subfield

    def in_subfield(self, y: int) -> bool:
        self.subfield_elements()
        return y in self._subfield_set

    def unit_subgroup(self, n: int) -> tuple[int, ...]:
        """The order-n subgroup of F* as consecutive powers of its designated generator."""
        g = self.designated_generator(n)
        return tuple(self.pow(g, k) for k in range(n))

    def designated_generator(self, n: int) -> int:
        """alpha^((2^m - 1)/n): the canonical element of order exactly n."""
        if n < 1 or self.order % n != 0:
            raise DomainError(f"{n} does not divide the group order {self.order}")
        return self.exp(self.order // n)

    # -- dual indexing --------------------------------------------------------

    def dual_index(self, a: int) -> int:
        """Bitmask u with Tr(a*x) = parity(u & x) for all x.

        u is G.bits(a) over GF(2) with G[i][j] = Tr(alpha^(i+j)); since G is
        symmetric this is the XOR of the rows of G selected by the bits of a.
        """
        return _select(self._dual_rows, a)

    def dual_index_inv(self, u: int) -> int:
        """Inverse of dual_index, via the rows of G^-1, inverted by the first
        call by one thread: nothing else reads them."""
        if self._dual_rows_inv is None:
            self._once("_dual_rows_inv", lambda: _invert_bit_matrix(self._dual_rows, self.m))
        return _select(self._dual_rows_inv, u)

    # -- vectorized views (numpy, lazily cached) -------------------------------

    def trace_bits(self) -> np.ndarray:
        """uint8 array over all elements: trace_bits()[x] = Tr(x).  The trace
        is GF(2)-linear, so this is the XOR span of the bits of trace_mask."""
        if self._trace_bits is None:
            bits = [(self.trace_mask >> j) & 1 for j in range(self.m)]
            self._trace_bits = xor_span(bits, self.q, np.uint8)
        return self._trace_bits

    def dual_indices(self, x: np.ndarray) -> np.ndarray:
        """int32 array of dual_index(y) for each entry y of the int32 array x.
        dual_index is GF(2)-linear, so it is low[y mod 2^h] ^ high[y >> h]
        with h = m // 2, from the XOR spans of the dual rows below and above
        h (cached, 2^h entries each), through _apply_halves in blocks with one
        reused intp index buffer and one int32 scratch buffer.  Every entry
        of x must be an element, in [0, q): _apply_halves reads its tables
        with mode="wrap", so an entry out of range gives a wrong value, not
        an error."""
        halves = self._dual_tables()
        out = np.empty(x.shape, dtype=np.int32)
        src, dst = x.reshape(-1), out.reshape(-1)
        size = max(1, min(_POWER_BLOCK, src.size))
        ix, tmp = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.int32)
        for lo in range(0, src.size, size):
            n = min(size, src.size - lo)
            _apply_halves(halves, src[lo:lo + n], dst[lo:lo + n], ix[:n], tmp[:n])
        return out

    def _dual_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The tables of _apply_halves for dual_index, built on first use."""
        if self._dual_halves is None:
            self._dual_halves = _halves(self._dual_rows, self.m)
        return self._dual_halves

    def coset_labels(self) -> np.ndarray:
        """Fresh int32 array naming the coset x + L of each x: bit i of its
        label is Tr(x * gamma^i) = parity(dual_index(gamma^i) & x) over
        subfield_basis().  L is its own trace dual, so the labels are 0 exactly on L."""
        duals = [self.dual_index(g) for g in self.subfield_basis()]
        return xor_span(_transpose(duals, self.m), self.q, np.int32)

    def power_map(self, d: int) -> np.ndarray:
        """int32 array P with P[x] = x^d (values below 2^m <= 2^28): the
        blocks of power_blocks(d) scattered at those of power_blocks(1), as
        P[alpha^i] = alpha^(i*d), with P[0] = 0."""
        if d < 1:
            raise DomainError(f"exponent must be positive, got {d}")
        out = np.zeros(self.q, dtype=np.int32)
        size = min(_POWER_BLOCK, self.order)
        idx = np.empty(size, dtype=np.intp)
        for pos, vals in zip(self.power_blocks(1, size), self.power_blocks(d, size)):
            ix = idx[:pos.size]
            ix[:] = pos
            out[ix] = vals
        return out

    def scalar_mul_map(self, a: int) -> np.ndarray:
        """int32 array A with A[x] = a*x (values below 2^m <= 2^28, as in
        power_map): the XOR of a*alpha^j over the bits j of x."""
        self.check_element(a)
        return xor_span(self._product_columns(a, self.m), self.q, np.int32)

    # -- misc ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Field(m={self.m}, modulus=0x{self.modulus:x})"


def make_field(m: int, modulus: int | None = None, table_cap: int = DEFAULT_TABLE_CAP) -> Field:
    """Build GF(2^m), defaulting the modulus from PRIMITIVE_POLY.

    An explicit modulus is verified the same way as a built-in one: alpha must
    have multiplicative order exactly 2^m - 1, otherwise DomainError.
    """
    if modulus is None:
        modulus = PRIMITIVE_POLY.get(m)
    return Field(m, modulus, table_cap=table_cap)
