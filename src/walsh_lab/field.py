"""GF(2^m) arithmetic in the polynomial basis.

Field elements are plain Python ints in [0, 2^m): bit j is the coefficient of
x^j in the residue class modulo a fixed primitive polynomial, so addition is
XOR and zero/one are the ints 0 and 1.  The generator alpha is the class of x,
i.e. the int 2.

When the field is small enough (2^m <= table_cap, default 2^22 entries) a
log/antilog table pair over alpha is built once and multiplicative work
becomes exponent arithmetic modulo 2^m - 1.  Above the cap the scalar
operations fall back to shift-and-reduce polynomial multiplication, and
power_map builds a transient antilog for each call.  scalar_mul_map and
dual_index_all need no tables: both are GF(2)-linear maps, filled by doubling
over the polynomial basis.

PRIMITIVE_POLY holds the lexicographically smallest primitive polynomial of
each degree 2..28 as an integer bitmask (0x43 = x^6 + x + 1).  Construction
never trusts the table: it verifies that alpha has multiplicative order
exactly 2^m - 1, which certifies irreducibility and primitivity at once, and
rejects any modulus that fails.

Additive characters are tied to bitmask indices through the trace bilinear
form: dual_index(a) is the bitmask u with Tr(a*x) = parity(u & x) for every
x, computed from the m x m bit matrix G[i][j] = Tr(alpha^(i+j)).  G is
invertible (the trace form is non-degenerate), so dual_index is a bijection
and dual_index_inv recovers a from u.  walsh.py leans on this to reconcile
the Walsh-Hadamard butterfly, which natively uses the parity pairing, with
the field's trace pairing.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonInvertibleError, UnsupportedError

DEFAULT_TABLE_CAP = 1 << 22

# Exponents per gather in power_map: bounds its temporaries to this many
# entries, so the only q-sized arrays are the antilog and the result.
_POWER_BLOCK = 1 << 16

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


def parity(v: np.ndarray) -> np.ndarray:
    """Bit parity of each entry of a non-negative int64 array below 2^32."""
    v = v ^ (v >> 16)
    for shift in (8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


def _xor_span(cols: list[int], q: int) -> np.ndarray:
    """int64 array S over [0, q) with S[x] = XOR of cols[j] over the set bits j
    of x, filled by doubling: S[2^j : 2^(j+1)] = S[:2^j] ^ cols[j]."""
    out = np.zeros(q, dtype=np.int64)
    for j, c in enumerate(cols):
        k = 1 << j
        np.bitwise_xor(out[:k], c, out=out[k:2 * k])
    return out


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


class TraceBundle(NamedTuple):
    tr_abs: int
    tr_rel: int
    norm_rel: int


def mod_inverse(d: int, n: int) -> int:
    """Inverse of d modulo n by extended Euclid; NonInvertibleError carries the gcd."""
    if n < 2:
        raise DomainError(f"modulus for inversion must be at least 2, got {n}")
    r0, r1 = n, d % n
    s0, s1 = 0, 1
    while r1:
        qt = r0 // r1
        r0, r1 = r1, r0 - qt * r1
        s0, s1 = s1, s0 - qt * s1
    if r0 != 1:
        raise NonInvertibleError(d, n, r0)
    return s0 % n


class Field:
    """Immutable context for one GF(2^m); see the module docstring for conventions."""

    def __init__(self, m: int, modulus: int, table_cap: int = DEFAULT_TABLE_CAP):
        if not MIN_DEGREE <= m <= MAX_DEGREE:
            raise ValueError(f"m must be in [{MIN_DEGREE}, {MAX_DEGREE}], got {m}")
        if modulus.bit_length() != m + 1:
            raise DomainError(
                f"modulus 0x{modulus:x} does not have degree {m}"
            )
        self.m = m
        self.t = m // 2 if m % 2 == 0 else None
        self.modulus = modulus
        self.alpha = 2
        self.q = 1 << m
        self.order = self.q - 1
        self.table_cap = table_cap

        self._verify_primitive()

        self._alog: np.ndarray | None = None
        self._log: np.ndarray | None = None
        if self.q <= table_cap:
            self._build_tables()

        # Powers of alpha up to alpha^(2m-2) feed the trace mask and the
        # dual-indexing matrix; computed with raw arithmetic so they do not
        # depend on the tables existing.
        pw = [1]
        for _ in range(2 * m - 2):
            pw.append(self._mulx(pw[-1]))
        tr = [self._raw_trace(p) for p in pw]
        self.trace_mask = sum(tr[i] << i for i in range(m))
        self._dual_rows = [
            sum(tr[i + j] << i for i in range(m)) for j in range(m)
        ]
        self._dual_rows_inv = _invert_bit_matrix(self._dual_rows, m)

        self._subfield: tuple[int, ...] | None = None
        self._subfield_set: frozenset[int] | None = None
        self._trace_bits: np.ndarray | None = None
        self._in_subfield: np.ndarray | None = None
        self._dual_all: np.ndarray | None = None

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

    def _raw_trace(self, x: int) -> int:
        s = x
        z = x
        for _ in range(self.m - 1):
            z = _polymul_mod(z, z, self.modulus, self.m)
            s ^= z
        if s not in (0, 1):
            raise DomainError(
                f"trace of 0x{x:x} landed outside GF(2); modulus 0x{self.modulus:x} is not irreducible"
            )
        return s

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

    def _antilog(self) -> np.ndarray:
        """int32 array with entry i = alpha^i for 0 <= i < 2^m - 1.

        Laid out as rows of width B = 2^ceil(m/2): a scalar chain of products
        by alpha^B gives the row starts, then all rows advance together, one
        vector multiply-by-x per column.
        """
        m, modulus = self.m, self.modulus
        width = 1 << ((m + 1) // 2)
        jump = self._raw_pow(self.alpha, width)
        starts = [1]
        for _ in range(self.q // width - 1):
            starts.append(_polymul_mod(starts[-1], jump, modulus, m))
        cur = np.array(starts, dtype=np.int32)
        cols = np.empty((width, cur.size), dtype=np.int32)
        for j in range(width):
            cols[j] = cur
            cur <<= 1
            cur ^= (cur >> m) * modulus
        return cols.T.reshape(-1)[: self.order]

    def _build_tables(self) -> None:
        self._alog = self._antilog().astype(np.int64)
        log = np.empty(self.q, dtype=np.int64)
        log[0] = -1
        log[self._alog] = np.arange(self.order, dtype=np.int64)
        self._log = log

    # -- validation -----------------------------------------------------------

    def check_exponent(self, d: int) -> None:
        """DomainError unless 1 <= d <= 2^m - 2."""
        if not 1 <= d <= self.q - 2:
            raise DomainError(f"exponent d must be in [1, {self.q - 2}], got {d}")

    def check_element(self, x: int, name: str = "a") -> None:
        """DomainError unless x is a field element, i.e. 0 <= x < 2^m."""
        if not 0 <= x < self.q:
            raise DomainError(f"{name} must be a field element in [0, {self.q - 1}], got {x}")

    def check_invertible(self, d: int) -> None:
        """NonInvertibleError (a DomainError) unless gcd(d, 2^m - 1) = 1."""
        g = gcd(d, self.order)
        if g != 1:
            raise NonInvertibleError(d, self.order, g)

    def need_even(self) -> int:
        """t for m = 2t; UnsupportedError for odd m."""
        if self.t is None:
            raise UnsupportedError(f"operation needs m = 2t, but m = {self.m} is odd")
        return self.t

    # -- scalar arithmetic ----------------------------------------------------

    @property
    def has_tables(self) -> bool:
        return self._alog is not None

    def add(self, x: int, y: int) -> int:
        return x ^ y

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        if self._alog is not None:
            return int(self._alog[(int(self._log[x]) + int(self._log[y])) % self.order])
        return _polymul_mod(x, y, self.modulus, self.m)

    def inv(self, x: int) -> int:
        if x == 0:
            raise DomainError("0 has no multiplicative inverse")
        if self._alog is not None:
            return int(self._alog[(self.order - int(self._log[x])) % self.order])
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
        if self._alog is not None:
            return int(self._alog[(int(self._log[x]) * e) % self.order])
        return self._raw_pow(x, e)

    def exp(self, i: int) -> int:
        """alpha^i for any integer i."""
        if self._alog is not None:
            return int(self._alog[i % self.order])
        return self._raw_pow(self.alpha, i % self.order)

    def log_of(self, x: int) -> int:
        if x == 0:
            raise DomainError("log of 0 is undefined")
        if self._log is None:
            raise UnsupportedError("discrete logs need log tables (2^m exceeds table_cap)")
        return int(self._log[x])

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

    def traces(self, x: int) -> TraceBundle:
        return TraceBundle(self.trace(x), self.trace_rel(x), self.norm_rel(x))

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

    def subfield_elements(self) -> tuple[int, ...]:
        """The 2^t elements of L = GF(2^t) inside GF(2^m), sorted ascending."""
        t = self.need_even()
        if self._subfield is None:
            step = (1 << t) + 1  # L* is the unique subgroup of order 2^t - 1
            elems = [0] + [self.exp(k * step) for k in range((1 << t) - 1)]
            self._subfield = tuple(sorted(elems))
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
        u = 0
        j = 0
        while a:
            if a & 1:
                u ^= self._dual_rows[j]
            a >>= 1
            j += 1
        return u

    def dual_index_inv(self, u: int) -> int:
        """Inverse of dual_index, via the precomputed inverse of G."""
        a = 0
        j = 0
        while u:
            if u & 1:
                a ^= self._dual_rows_inv[j]
            u >>= 1
            j += 1
        return a

    # -- vectorized views (numpy, lazily cached) -------------------------------

    def trace_bits(self) -> np.ndarray:
        """uint8 array over all elements: trace_bits()[x] = Tr(x)."""
        if self._trace_bits is None:
            v = np.arange(self.q, dtype=np.int64) & self.trace_mask
            self._trace_bits = parity(v).astype(np.uint8)
        return self._trace_bits

    def in_subfield_mask(self) -> np.ndarray:
        """bool array over all elements marking membership in L."""
        if self._in_subfield is None:
            mask = np.zeros(self.q, dtype=bool)
            mask[list(self.subfield_elements())] = True
            self._in_subfield = mask
        return self._in_subfield

    def dual_index_all(self) -> np.ndarray:
        """int64 array with dual_index_all()[a] = dual_index(a)."""
        if self._dual_all is None:
            self._dual_all = _xor_span(self._dual_rows, self.q)
        return self._dual_all

    def power_map(self, d: int) -> np.ndarray:
        """int64 array P with P[x] = x^d, built by exponent arithmetic:
        P[alpha^i] = alpha^(i*d mod (2^m - 1)).  Without tables the antilog
        is built for this call and dropped after it."""
        if d < 1:
            raise DomainError(f"exponent must be positive, got {d}")
        alog = self._alog if self._alog is not None else self._antilog()
        d %= self.order
        out = np.zeros(self.q, dtype=np.int64)
        for lo in range(0, self.order, _POWER_BLOCK):
            hi = min(lo + _POWER_BLOCK, self.order)
            out[alog[lo:hi]] = alog[np.arange(lo, hi, dtype=np.int64) * d % self.order]
        return out

    def scalar_mul_map(self, a: int) -> np.ndarray:
        """int64 array A with A[x] = a*x: the XOR of a*alpha^j over the bits j of x."""
        self.check_element(a)
        cols = [a]
        for _ in range(self.m - 1):
            cols.append(self._mulx(cols[-1]))
        return _xor_span(cols, self.q)

    # -- misc ------------------------------------------------------------------

    def format_elem(self, x: int) -> str:
        """Hex bitmask, with the power-of-alpha form appended when tables exist."""
        if x == 0 or self._log is None:
            return f"0x{x:x}"
        return f"0x{x:x} (a^{int(self._log[x])})"

    def __repr__(self) -> str:
        return f"Field(m={self.m}, modulus=0x{self.modulus:x})"


def make_field(m: int, modulus: int | None = None, table_cap: int = DEFAULT_TABLE_CAP) -> Field:
    """Build GF(2^m), defaulting the modulus from PRIMITIVE_POLY.

    An explicit modulus is verified the same way as a built-in one: alpha must
    have multiplicative order exactly 2^m - 1, otherwise DomainError.
    """
    if not MIN_DEGREE <= m <= MAX_DEGREE:
        raise ValueError(f"m must be in [{MIN_DEGREE}, {MAX_DEGREE}], got {m}")
    if modulus is None:
        modulus = PRIMITIVE_POLY[m]
    return Field(m, modulus, table_cap=table_cap)
