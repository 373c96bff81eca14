"""Structural checks around the spectra: exponent classification, subfield
character sums and their square identities, solution-set evaluation of Walsh
coefficients, the sextic census, the spectrum of the family
d = 1 + 2^i + 2^(i+t) from GF(2^t) alone, Dickson permutation tests, and the
two spectral lower-bound checks used by the scan subcommand.

Conventions shared by everything here:
  * L is the index-2 subfield GF(2^t) of GF(2^m), m = 2t.
  * c is a designated element of the order-(2^t + 1) unit subgroup, c != 1,
    so c is outside L and cbar = c^(2^t) = c^-1.  Operations that only need
    c^(2^t+1) = 1 take the full subgroup generator; the ones tied to the
    sextic census take the element of order 5 when 5 divides 2^t + 1.
  * theta = c + cbar, an element of L.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import DomainError
from .field import Field, check_exponent_range, make_field, mod_inverse, xor_span
from .walsh import (Histogram, Spectrum, fwht, fwht_columns, sign_transforms,
                    tables_per_block, walsh_coefficients_at)

# Entries per block of the coset sums.
_BLOCK = 1 << 16


def _v2(n: int) -> int:
    """2-adic valuation of a positive integer."""
    return (n & -n).bit_length() - 1


def _designated_c(field: Field, prefer_five: bool) -> tuple[int, int]:
    """(c, order of c): the generator of the order-(2^t + 1) subgroup, or
    with prefer_five its order-5 element when 5 divides 2^t + 1."""
    full = (1 << field.need_even()) + 1
    order = 5 if prefer_five and full % 5 == 0 else full
    return field.designated_generator(order), order


# -- exponent classification -------------------------------------------------


@dataclass(frozen=True)
class ExponentProfile:
    m: int
    d: int
    gcd_q1: int
    inv_d: int | None
    is_niho: bool | None
    family_i: int | None
    v2_ok: bool | None


def exponent_profile(m: int, d: int) -> ExponentProfile:
    """Classify an exponent: invertibility, Niho property, membership in the
    1 + 2^i + 2^(i+t) family up to cyclotomic shift (smallest i wins)."""
    check_exponent_range(m, d)
    order = (1 << m) - 1
    g = gcd(d, order)
    inv_d = mod_inverse(d, order) if g == 1 else None
    is_niho: bool | None = None
    family_i: int | None = None
    v2_ok: bool | None = None
    if m % 2 == 0:
        t = m // 2
        sub = (1 << t) - 1
        is_niho = d % sub in {pow(2, j, sub) for j in range(t)}
        shifts = {(d << j) % order for j in range(m)}
        for i in range(1, t - 1):
            if (1 + (1 << i) + (1 << (i + t))) % order in shifts:
                family_i = i
                v2_ok = _v2(i + 1) >= _v2(t)
                break
    return ExponentProfile(m=m, d=d, gcd_q1=g, inv_d=inv_d,
                           is_niho=is_niho, family_i=family_i, v2_ok=v2_ok)


# -- subfield character sums --------------------------------------------------


@dataclass(frozen=True)
class CharacterSum:
    """M_b = sum over x in L of (-1)^Tr((x + b)^d), with the sign epsilon
    fixed so that epsilon * value = -|value| (epsilon = +1 when value = 0)."""

    b: int
    value: int
    epsilon: int


def subfield_character_sum(field: Field, d: int, b: int) -> CharacterSum:
    field.need_even()
    field.check_exponent(d)
    field.check_element(b, "b")
    total = 0
    for x in field.subfield_elements():
        total += 1 - 2 * field.trace(field.pow(x ^ b, d))
    eps = 1 if total <= 0 else -1
    return CharacterSum(b=b, value=total, epsilon=eps)


@dataclass(frozen=True)
class IdentityCheck:
    b: int
    lhs: int
    rhs: int
    character_sum: CharacterSum

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def weighted_walsh_identity(field: Field, d: int, b: int) -> IdentityCheck:
    """Check sum_{a in L} W_d(a) * p_b(a) = 2^m + 2^t |M_b| for b outside L,
    where p_b(a) = 1 - (-1)^Tr(b*a) * epsilon_b."""
    t = field.need_even()
    field.check_element(b, "b")
    if field.in_subfield(b):
        raise DomainError("b must lie outside the subfield L")
    cs = subfield_character_sum(field, d, b)
    sub = field.subfield_elements()
    lhs = 0
    for a, w in zip(sub, walsh_coefficients_at(field, [d] * len(sub), sub)):
        lhs += w * (1 - (1 - 2 * field.trace(field.mul(b, a))) * cs.epsilon)
    rhs = field.q + (1 << t) * abs(cs.value)
    return IdentityCheck(b=b, lhs=lhs, rhs=rhs, character_sum=cs)


# -- the conjugate power multiset ---------------------------------------------


@dataclass(frozen=True)
class PowerMultiset(Histogram):
    """Multiset {(x + c)^d + (x + cbar)^d : x in L}, recorded as (element, count)."""

    d: int
    c: int
    c_order: int
    entries: tuple[tuple[int, int], ...]


def conjugate_power_multiset(field: Field, d: int) -> PowerMultiset:
    t = field.need_even()
    field.check_exponent(d)
    c, order = _designated_c(field, prefer_five=False)
    cbar = field.pow(c, 1 << t)
    counts: Counter[int] = Counter()
    for x in field.subfield_elements():
        counts[field.pow(x ^ c, d) ^ field.pow(x ^ cbar, d)] += 1
    for g in counts:
        if not field.in_subfield(g):
            raise RuntimeError("multiset element escaped L; field internals are inconsistent")
    return PowerMultiset(d=d, c=c, c_order=order,
                         entries=tuple(sorted(counts.items())))


def character_sum_from_multiset(field: Field, mult: PowerMultiset, u: int) -> int:
    """Reconstruct M_(u*c) from the multiset: sum_g a_g * (-1)^Tr_t(u^d * g), u in L."""
    if not field.in_subfield(u):
        raise DomainError("u must lie in the subfield L")
    ud = field.pow(u, mult.d)
    total = 0
    for g, n in mult.entries:
        total += n * (1 - 2 * field.subfield_trace(field.mul(ud, g)))
    return total


# -- square-sum identities ----------------------------------------------------


@dataclass(frozen=True)
class SquareIdentitySummary:
    """Both square-sum identities, each side as a field:
    total = sum_b M_b^2 = 2^(2t) * #{b : (1+b)^d + b^d in L} over all b in F
    (boundary_count), and coset_total = sum_{u in L*} M_(uc)^2 =
    2^t * #{b outside L : (1+b)^d + b^d in L} (off_subfield_boundary)."""

    t: int
    total: int
    coset_total: int
    boundary_count: int
    off_subfield_boundary: int
    c: int

    @property
    def total_residual(self) -> int:
        return self.total - (1 << (2 * self.t)) * self.boundary_count

    @property
    def coset_residual(self) -> int:
        return self.coset_total - (1 << self.t) * self.off_subfield_boundary

    @property
    def total_identity(self) -> bool:
        return self.total_residual == 0

    @property
    def coset_identity(self) -> bool:
        return self.coset_residual == 0

    @property
    def holds(self) -> bool:
        return self.total_identity and self.coset_identity


def _coset_sums(field: Field, powers: np.ndarray, points: np.ndarray) -> tuple:
    """The sign table of Tr(x^d) read from powers, M_b for every b, the 2^t
    coset sums S (M_b = S[coset_labels()[b]]), the boundary counts and the
    labels of points.  b and b ^ 1 give one (b+1)^d + b^d and lie in one
    coset of L, so each adjacent pair of powers is read once and counts twice."""
    labels = field.coset_labels()
    trace = field.trace_bits()
    signs = np.empty(field.q, dtype=np.int32)
    sums = np.zeros(1 << field.t, dtype=np.int64)
    boundary = off = 0
    for lo in range(0, field.q, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        np.multiply(trace[powers[block]], -2, out=signs[block], dtype=np.int32)
        signs[block] += 1
        sums += np.bincount(labels[block], signs[block], sums.size).astype(np.int64)
        pair = powers[block].reshape(-1, 2)
        in_l = labels[pair[:, 0] ^ pair[:, 1]] == 0
        boundary += 2 * int(in_l.sum())
        off += 2 * int((in_l & (labels[block][::2] != 0)).sum())
    point_labels = labels[points]
    # the labels are overwritten with the sums they name
    for lo in range(0, field.q, _BLOCK):
        labels[lo:lo + _BLOCK] = sums[labels[lo:lo + _BLOCK]]
    return signs, labels, sums, boundary, off, point_labels


# -- all identities in one pass ------------------------------------------------


@dataclass(frozen=True)
class SubfieldIdentities:
    """Everything the identities subcommand reports for one exponent.

    The lemma residuals are sum_a W_d(a) - 2^m and sum_a W_d(a)^2 - 2^(2m).
    For even m, subfield_walsh holds W_d(a) for a over subfield_elements(),
    character_sums holds M_b (int32) indexed by the element b, lhs and rhs
    are the two sides of weighted_walsh_identity at each b in points (b = u*c
    for u in L*, c the designated generator of order 2^t + 1), and square
    checks the two square-sum identities.  All of these are None for odd m.
    """

    sum_residual: int
    square_sum_residual: int
    subfield_walsh: np.ndarray | None = None
    character_sums: np.ndarray | None = None
    points: np.ndarray | None = None
    lhs: np.ndarray | None = None
    rhs: np.ndarray | None = None
    square: SquareIdentitySummary | None = None

    @property
    def weighted_max_abs_residual(self) -> int:
        return int(np.abs(self.lhs - self.rhs).max())


def subfield_identities(field: Field, d: int) -> SubfieldIdentities:
    """Lemma moments, weighted identities and square identities from one sign
    table, one butterfly over F and one over L.  For odd m only the moments
    exist, read from sign_transforms.

    M_b and the square identities come from the sign table by coset sums,
    before the butterfly runs on it in place.  M_b is not read from the
    butterfly: L is its own trace dual, so
    M_b = 2^-t sum_{a in L} W_d(a) (-1)^Tr(a*b), and taking both sides from
    one transform would make the weighted identity hold by construction.

    W_d on L is gathered in the coordinates of field.subfield_basis(), and
    the pairing sums sum_{a in L} W_d(a) (-1)^Tr(a*b) are its 2^t-point
    butterfly read at the coset labels of the points.  L and the points
    b = u*c are reported in ascending order of a and of u.
    """
    field.check_exponent(d)
    t = field.t
    if t is None:
        arr = sign_transforms(field, [d])[0]
    else:
        basis = field.subfield_basis()
        order = np.argsort(xor_span(basis, 1 << t))
        # c = alpha^((2^m - 1)/(2^t + 1)) and gamma^i = alpha^(i (2^t + 1)), so
        # the products c * gamma^i are read off the antilog, with no log table
        c, step = _designated_c(field, prefer_five=False)
        points = xor_span([field.exp(field.order // step + i * step) for i in range(t)],
                          1 << t)[order[1:]]
        # the boundary counts need x^d itself, so the signs are read from it
        signs, msums, sums, boundary, off, point_labels = _coset_sums(
            field, field.power_map(d), points)
        arr = fwht(signs)
    # W_d(a)^2 can reach 2^(2m), past int32, so the squares are taken in
    # int64 (einsum casts in buffered chunks).  By Parseval they sum to exactly
    # 2^(2m) <= 2^56 and every partial sum is smaller, so int64 is exact.
    sum_residual = int(arr.sum(dtype=np.int64)) - field.q
    square_sum_residual = int(np.einsum("i,i->", arr, arr, dtype=np.int64)) - field.q * field.q
    if t is None:
        return SubfieldIdentities(sum_residual, square_sum_residual)
    w_k = arr[xor_span([field.dual_index(g) for g in basis], 1 << t)]
    w_sub = w_k[order]
    # each partial sum of this butterfly is at most 2^m in size, like W_d's
    paired = fwht(w_k)[point_labels]

    mb = sums[point_labels]
    eps = np.where(mb <= 0, 1, -1)
    # sum_b M_b^2 has 2^t equal terms per coset
    square = SquareIdentitySummary(t=t, total=(1 << t) * int((sums * sums).sum()),
                                   coset_total=int((mb * mb).sum()),
                                   boundary_count=boundary, off_subfield_boundary=off, c=c)
    return SubfieldIdentities(sum_residual, square_sum_residual,
                              subfield_walsh=w_sub, character_sums=msums, points=points,
                              lhs=w_sub.sum() - eps * paired,
                              rhs=field.q + (1 << t) * np.abs(mb), square=square)


# -- solution-set route to Walsh coefficients ----------------------------------


@dataclass(frozen=True)
class SolutionSet:
    """S_b: the z in L with z + z^(2 + 2^(i+1)) + (b*theta)^(2^(i+1)) = 0."""

    i: int
    b: int
    c: int
    c_order: int
    theta: int
    elements: tuple[int, ...]


def walsh_solution_set(field: Field, i: int, b: int) -> SolutionSet:
    """Exhaustive scan of L for the solution set; the contract is the set itself."""
    t = field.need_even()
    if not 1 <= i <= t - 2:
        raise DomainError(f"need 0 < i < t - 1 = {t - 1}, got i = {i}")
    if not field.in_subfield(b):
        raise DomainError("b must lie in the subfield L")
    c, order = _designated_c(field, prefer_five=True)
    theta = c ^ field.pow(c, 1 << t)
    e = 1 << (i + 1)
    shift = field.pow(field.mul(b, theta), e)
    elements = tuple(
        z for z in field.subfield_elements()
        if z ^ field.pow(z, 2 + e) ^ shift == 0
    )
    return SolutionSet(i=i, b=b, c=c, c_order=order, theta=theta, elements=elements)


def walsh_from_solutions(field: Field, i: int, a: int, b: int) -> int:
    """W_d(a + b*cbar) for d = 1 + 2^i + 2^(i+t), evaluated through the solution set:

        2^t * sum over z in S_b of (-1)^Tr_t(z^(1 + 2^(i+1)) * theta^(-2^(i+1)) + a*z)

    a and b range over L; together a + b*cbar covers every element of F once.
    """
    t = field.need_even()
    if not field.in_subfield(a):
        raise DomainError("a must lie in the subfield L")
    d = 1 + (1 << i) + (1 << (i + t))
    field.check_invertible(d)
    ss = walsh_solution_set(field, i, b)
    e = 1 << (i + 1)
    theta_inv_e = field.pow(ss.theta, -e)
    total = 0
    for z in ss.elements:
        arg = field.mul(field.pow(z, 1 + e), theta_inv_e) ^ field.mul(a, z)
        total += 1 - 2 * field.subfield_trace(arg)
    return (1 << t) * total


# -- sextic census -------------------------------------------------------------


@dataclass(frozen=True)
class CensusReport:
    """Solution-count census of z^6 + z = w over GF(2^t)."""

    t: int
    modulus: int
    counts: dict[int, int]
    closed_form: dict[int, int] | None
    closed_form_match: bool | None
    witnesses: dict[int, tuple[int, tuple[int, ...]]]


def _census_closed_form(t: int) -> dict[int, int]:
    six, r6 = divmod((1 << (t - 2)) - 1, 15)
    one, r1 = divmod((1 << (t + 1)) + 2, 5)
    zero, r0 = divmod((1 << t) - 1, 3)
    if r6 or r1 or r0:
        raise DomainError(f"closed forms do not divide evenly at t = {t}")
    return {0: zero, 1: one, 2: 1 << (t - 2), 6: six}


def _fibres(field: Field, e: int) -> tuple[np.ndarray, np.ndarray]:
    """(phi, sizes) for phi(z) = z^(2+e) + z over the field: phi[z] for every
    z (int32), and sizes[w] = #phi^-1(w), the size of the fibre over w (int64)."""
    phi = field.power_map(2 + e)
    ramp = np.arange(min(_BLOCK, field.q), dtype=np.int32)
    for lo in range(0, field.q, ramp.size):
        phi[lo:lo + ramp.size] ^= ramp
        ramp += ramp.size
    return phi, np.bincount(phi, minlength=field.q)


def sextic_census(field: Field) -> CensusReport:
    """Count, for every w, the solutions z of z^6 + z = w; the field IS GF(2^t)."""
    t = field.m
    w, per_target = _fibres(field, 4)
    class_hist = np.bincount(per_target)
    counts = {k: int(n) for k, n in enumerate(class_hist) if n}
    for k in (0, 1, 2, 6):
        counts.setdefault(k, 0)
    applicable = t % 4 == 2 and t >= 6
    closed = _census_closed_form(t) if applicable else None
    match = None
    if closed is not None:
        observed = {k: v for k, v in counts.items() if v}
        expected = {k: v for k, v in closed.items() if v}
        match = observed == expected
    witnesses: dict[int, tuple[int, tuple[int, ...]]] = {}
    for k in sorted(k for k, v in counts.items() if v and k > 0):
        w0 = int(np.argmax(per_target == k))
        sols = tuple(int(z) for z in np.nonzero(w == w0)[0])
        witnesses[k] = (w0, sols)
    return CensusReport(t=t, modulus=field.modulus, counts=dict(sorted(counts.items())),
                        closed_form=closed, closed_form_match=match, witnesses=witnesses)


# -- the family spectrum from the fibres of phi ----------------------------------


def _span_coordinates(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rank, coords) for an (n, k) int32 array of elements: the GF(2) rank of
    each row, and the coordinates of its entries over a basis of the row's
    span, as bitmasks below 2^rank.  Elimination runs one column at a time on
    all rows at once: a column is reduced by the basis vectors before it, and
    if anything is left it joins the basis with its lowest set bit as pivot."""
    n, k = z.shape
    basis = np.zeros_like(z)   # the reduced column, 0 unless it joined the basis
    pivot = np.zeros_like(z)
    bit = np.zeros_like(z)     # its coordinate bit
    coords = np.empty_like(z)
    rank = np.zeros(n, dtype=z.dtype)
    for j in range(k):
        x = z[:, j].copy()
        c = np.zeros(n, dtype=z.dtype)
        for col in range(j):
            hit = (x & pivot[:, col]) != 0
            x ^= basis[:, col] * hit
            c |= bit[:, col] * hit
        new = x != 0
        basis[:, j] = x
        pivot[:, j] = x & -x
        bit[:, j] = np.left_shift(new, rank, dtype=z.dtype)
        coords[:, j] = c | bit[:, j]
        rank += new
    return rank, coords


def family_spectrum(field: Field, i: int = 1) -> Spectrum:
    """Walsh spectrum of Tr(x^d) over GF(2^2t), d = 1 + 2^i + 2^(i+t), from
    arithmetic in field = L = GF(2^t) alone; i = 1 is the paper's 3 + 2^(t+1).
    Returns the Spectrum that walsh_spectrum gives over GF(2^2t), also where
    2t is above the field's degree range.

    With e = 2^(i+1), phi(z) = z^(2+e) + z and any theta in L with
    Tr_t(1/theta) = 1 (walsh_from_solutions is the scalar form), for a, b in L

        W_d(a + b*cbar) = 2^t * sum over z in phi^-1((b*theta)^e) of
                          eps_z (-1)^Tr_t(a*z),  eps_z = (-1)^Tr_t(z^(1+e) theta^-e).

    As b runs over L so does w = (b*theta)^e, so the spectrum is 2^t times
    the union over the fibres Z = phi^-1(w) of the multiset over a in L of
    sum_{z in Z} eps_z (-1)^Tr_t(a*z).  As a runs over L, (Tr_t(a*z))_z runs
    2^(t-r) times over a 2^r-point space, r = rank(Z); so the multiset is the
    2^r-point butterfly of the signs placed at the coordinates of Z over a
    basis of its span, each value 2^(t-r) times.

    Empty fibres give 2^t zeros.  A fibre of one or two nonzero elements has
    full rank, so its multiset does not depend on the signs: +-1 each
    2^(t-1) times, or +-2 each 2^(t-2) times and 0 2^(t-1) times.  The other
    fibres, the one over w = 0 (it holds z = 0) and those of size 3 or more,
    are taken in blocks of equal size: elimination and the butterfly run on
    every fibre of a block at once.  theta = 1/u with u = 2^j = alpha^j for
    the lowest set bit j of the trace mask, so Tr_t(u) = 1 and theta^-e =
    alpha^(j*e).  The sign is then eps_z = (-1)^parity(v & z^(1+e)) with
    v = dual_index(alpha^(j*e)) and z^(1+e) read from power_map(1 + e), so
    no discrete log is taken.
    """
    t = field.m
    if not 1 <= i <= t - 2:
        raise DomainError(f"need 0 < i < t - 1 = {t - 1}, got i = {i}")
    e = 1 << (i + 1)
    phi, sizes = _fibres(field, e)
    classes = np.bincount(sizes).tolist() + [0, 0]
    k0 = int(sizes[0])  # the fibre over 0 holds z = 0
    ones = classes[1] - (k0 == 1)
    twos = classes[2] - (k0 == 2)
    # hist[v] counts the coefficients W = v * 2^t
    hist = Counter({0: (classes[0] << t) + (twos << (t - 1)),
                    1: ones << (t - 1), -1: ones << (t - 1),
                    2: twos << (t - 2), -2: twos << (t - 2)})

    general = sizes >= 3
    general[0] = True
    z = np.concatenate([lo + np.flatnonzero(general[phi[lo:lo + _BLOCK]])
                        for lo in range(0, field.q, _BLOCK)])
    w = phi[z]
    k = sizes[w]
    del phi, sizes, general
    order = np.lexsort((w, k))  # each fibre contiguous, fibres of one size together
    z, k = z[order].astype(np.int32), k[order]
    del w, order

    j = (field.trace_mask & -field.trace_mask).bit_length() - 1
    pz = field.power_map(1 + e)[z] & field.dual_index(field.exp(j * e))
    eps = 1 - 2 * (np.bitwise_count(pz) & 1).astype(np.int32)
    del pz

    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]]).tolist() + [z.size]
    for lo, hi in zip(starts, starts[1:]):
        size = int(k[lo])
        fibres, signs = z[lo:hi].reshape(-1, size), eps[lo:hi].reshape(-1, size)
        # the butterfly input of a block stays within 2^20 entries
        step = max(1, (1 << 20) >> size)
        for b in range(0, len(fibres), step):
            rank, coords = _span_coordinates(fibres[b:b + step])
            for r in np.unique(rank).tolist():
                rows = rank == r
                # column f holds the signs of fibre f at its coordinates
                vec = np.zeros((1 << r, int(rows.sum())), dtype=np.int32)
                vec[coords[rows], np.arange(vec.shape[1])[:, None]] = signs[b:b + step][rows]
                counts = np.bincount(fwht_columns(vec).ravel() + size)
                for v in np.flatnonzero(counts).tolist():
                    hist[v - size] += int(counts[v]) << (t - r)

    d = 1 + (1 << i) + (1 << (i + t))
    return Spectrum(m=2 * t, d=d,
                    entries=tuple((v << t, n) for v, n in sorted(hist.items()) if n))


# -- Dickson polynomials -------------------------------------------------------


def dickson_value(field: Field, x: int) -> int:
    """D_5(x, 1) in characteristic 2 via the recurrence D_k = x*D_(k-1) + D_(k-2)."""
    field.check_element(x, "x")
    prev, cur = 0, x  # D_0 = 2 = 0, D_1 = x
    for _ in range(4):
        prev, cur = cur, field.mul(x, cur) ^ prev
    return cur


def dickson_is_permutation(field: Field) -> bool:
    """Permutation test of D_5 by exhaustive image and by gcd(5, 2^(2t) - 1);
    they must agree."""
    image = {dickson_value(field, x) for x in range(field.q)}
    by_image = len(image) == field.q
    by_gcd = gcd(5, field.q * field.q - 1) == 1
    if by_image != by_gcd:
        raise RuntimeError("Dickson permutation criteria disagree; implementation bug")
    return by_image


# -- spectral lower bounds -----------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    d: int
    max_walsh: int
    bound: int

    @property
    def holds(self) -> bool:
        return self.max_walsh > self.bound


def check_bound(field: Field, d: int) -> BoundCheck:
    """Does some a != 0 reach W_d(a) > 2^t + 2^(t//2)?  (Equivalent to the
    strict minimum-distance bound for the associated code.)"""
    return check_exponents(field, [d], "bound")[0]


@dataclass(frozen=True)
class SarwateCheck:
    d: int
    threshold: int
    max_walsh: int
    witness: int | None

    @property
    def holds(self) -> bool:
        return self.max_walsh >= self.threshold


def check_sarwate(field: Field, d: int) -> SarwateCheck:
    """Does some a != 0 reach W_d(a) >= 2^(t+1)?  Conjectured to always hold;
    the witness is cross-checked against the direct-summation oracle."""
    return check_exponents(field, [d], "sarwate")[0]


def coset_leaders(field: Field, ds: Sequence[int]) -> np.ndarray:
    """The least member of the cyclotomic coset {d * 2^j mod 2^m - 1} of
    each d of ds (int64).  Tr(x^(2d)) = Tr(x^d), so every exponent of a
    coset has the same sign table and the same W_d(a)."""
    for d in ds:
        field.check_exponent(d)
    doublings = np.int64(1) << np.arange(field.m, dtype=np.int64)
    return (np.asarray(ds, dtype=np.int64)[:, None] * doublings % field.order).min(axis=1)


def check_exponents(field: Field, ds: Sequence[int], check: str) -> list:
    """check_bound (check = "bound") or check_sarwate (check = "sarwate") for
    each exponent of ds, in order, from sign_transforms over blocks of
    tables_per_block(field) exponents.

    max_walsh is the largest coefficient at a != 0.  The Sarwate witness is
    the a of the first butterfly entry u >= 1 that reaches 2^(t+1),
    a = dual_index_inv(u).  Every witness is checked against the
    direct-summation oracle, and any disagreement raises RuntimeError.
    W_d(a) = W_(d')(a) for the coset leader d' of d (coset_leaders): after
    the blocks, one walsh_coefficients_at call sums each distinct (d', a)
    once, and every row's butterfly value is compared with its pair's sum.
    A scan that passes whole cosets sums one pair per coset, phi(2^m - 1)/m
    pairs (16, 60, 144 and 756 at m = 8, 10, 12 and 14); a wrong witness
    makes a pair of its own."""
    t = field.need_even()
    if check not in ("bound", "sarwate"):
        raise DomainError(f"check must be 'bound' or 'sarwate', got {check!r}")
    for d in ds:
        field.check_invertible(d)
    bound, threshold = (1 << t) + (1 << (t // 2)), 1 << (t + 1)
    size = tables_per_block(field)
    out: list = []
    rows: list = []  # (coset leader, witness, butterfly value) of each witness
    for lo in range(0, len(ds), size):
        block = ds[lo:lo + size]
        arr = sign_transforms(field, block)
        maxima = arr[:, 1:].max(axis=1).tolist()
        if check == "bound":
            out += [BoundCheck(d=d, max_walsh=mx, bound=bound) for d, mx in zip(block, maxima)]
            continue
        firsts = (1 + (arr[:, 1:] >= threshold).argmax(axis=1)).tolist()
        leaders = coset_leaders(field, block).tolist()
        witnesses = [None] * len(block)
        for k, mx in enumerate(maxima):
            if mx >= threshold:
                witnesses[k] = field.dual_index_inv(firsts[k])
                rows.append((leaders[k], witnesses[k], int(arr[k, firsts[k]])))
        out += [SarwateCheck(d=d, threshold=threshold, max_walsh=mx, witness=w)
                for d, mx, w in zip(block, maxima, witnesses)]
    pairs = list(dict.fromkeys((e, a) for e, a, _ in rows))
    oracle = dict(zip(pairs, walsh_coefficients_at(field, [e for e, _ in pairs],
                                                   [a for _, a in pairs])))
    if any(oracle[e, a] != value for e, a, value in rows):
        raise RuntimeError("dual indexing disagrees with the oracle; implementation bug")
    return out


# -- excluded-value check for the even-t family ---------------------------------


@dataclass(frozen=True)
class NoSixReport:
    t: int
    d: int
    absent: bool
    c: int
    theta: int
    tr_theta_inv_is_one: bool
    theta_has_order_three: bool

    def __bool__(self) -> bool:
        return self.absent


def check_no_six(field: Field) -> NoSixReport:
    """For t = 2 mod 4, t >= 6 and d = 3 + 2^(t+1): the spectrum must not
    contain +-6 * 2^t, and for the order-5 designated c the element
    theta = c + c^-1 has order 3 with Tr_t(theta^-1) = 1.  The spectrum
    comes from family_spectrum on GF(2^t), with the field's table cap: it
    does not depend on the modulus, so no butterfly over GF(2^2t) runs."""
    t = field.need_even()
    if t % 4 != 2 or t < 6:
        raise DomainError(f"excluded-value check needs t = 2 mod 4 and t >= 6, got t = {t}")
    d = 3 + (1 << (t + 1))
    field.check_invertible(d)
    spec = family_spectrum(make_field(t, table_cap=field.table_cap))
    banned = 6 << t
    absent = spec.count(banned) == 0 and spec.count(-banned) == 0
    c = _designated_c(field, prefer_five=True)[0]
    theta = c ^ field.pow(c, 1 << t)
    tr_one = field.subfield_trace(field.inv(theta)) == 1
    order_three = theta != 1 and field.pow(theta, 3) == 1
    if not (tr_one and order_three):
        raise RuntimeError("structural facts about theta failed; implementation bug")
    return NoSixReport(t=t, d=d, absent=absent, c=c, theta=theta,
                       tr_theta_inv_is_one=tr_one, theta_has_order_three=order_three)
