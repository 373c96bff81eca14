"""Structural checks around the spectra: exponent classification, subfield
character sums and their square identities, solution-set evaluation of Walsh
coefficients, the sextic census, Dickson permutation tests, and the two
spectral lower-bound checks used by the scan subcommand.

Conventions shared by everything here:
  * L is the index-2 subfield GF(2^t) of GF(2^m), m = 2t.
  * c is a designated element of the order-(2^t + 1) unit subgroup, c != 1,
    so c is outside L and cbar = c^(2^t) = c^-1.  Operations that only need
    c^(2^t+1) = 1 default to the full subgroup generator; the ones tied to
    the sextic census prefer order 5 when 5 divides 2^t + 1.
  * theta = c + cbar, an element of L.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import DomainError
from .field import Field, mod_inverse, parity
from .walsh import Histogram, fwht, truth_table, walsh_coefficient, walsh_spectrum


def _v2(n: int) -> int:
    """2-adic valuation of a positive integer."""
    return (n & -n).bit_length() - 1


def _resolve_c(field: Field, c: int | None, subgroup_order: int | None, prefer_five: bool) -> tuple[int, int]:
    """Pick (c, order of c).  c must satisfy c != 1 and c^(2^t + 1) = 1."""
    t = field.need_even()
    full = (1 << t) + 1
    if c is not None:
        if c == 1 or field.pow(c, full) != 1:
            raise DomainError(f"c = 0x{c:x} is not a nontrivial element of the order-{full} subgroup")
        k = c
        order = 1
        while k != 1:
            k = field.mul(k, c)
            order += 1
        return c, order
    if subgroup_order is None:
        subgroup_order = 5 if prefer_five and full % 5 == 0 else full
    if subgroup_order < 2 or full % subgroup_order != 0:
        raise DomainError(f"subgroup order {subgroup_order} must divide 2^t + 1 = {full} and exceed 1")
    return field.designated_generator(subgroup_order), subgroup_order


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
    order = (1 << m) - 1
    if not 1 <= d <= order - 1:
        raise DomainError(f"exponent d must be in [1, {order - 1}], got {d}")
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
    lhs = 0
    for a in field.subfield_elements():
        p = 1 - (1 - 2 * field.trace(field.mul(b, a))) * cs.epsilon
        lhs += walsh_coefficient(field, d, a) * p
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


def conjugate_power_multiset(field: Field, d: int, c: int | None = None,
                             subgroup_order: int | None = None) -> PowerMultiset:
    t = field.need_even()
    field.check_exponent(d)
    c, order = _resolve_c(field, c, subgroup_order, prefer_five=False)
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


def _subfield_character_sums(field: Field, signs: np.ndarray) -> np.ndarray:
    """M_b for every element b, indexed by b: 2^t shifted sums of the sign table."""
    idx = np.arange(field.q)
    msums = np.zeros(field.q, dtype=np.int64)
    for x in field.subfield_elements():
        msums += signs[idx ^ x]
    return msums


def _coset_points(field: Field, c: int) -> np.ndarray:
    """b = u*c for u in L*, u ascending: the points of the weighted identities
    and of the coset square sum."""
    return np.array([field.mul(u, c) for u in field.subfield_elements() if u], dtype=np.int64)


def _square_identities(field: Field, powers: np.ndarray, msums: np.ndarray, c: int,
                       points: np.ndarray) -> SquareIdentitySummary:
    total = int((msums * msums).sum())
    in_l = field.in_subfield_mask()
    boundary = in_l[powers[np.arange(field.q) ^ 1] ^ powers]
    coset = msums[points]
    return SquareIdentitySummary(t=field.t, total=total, coset_total=int((coset * coset).sum()),
                                 boundary_count=int(boundary.sum()),
                                 off_subfield_boundary=int((boundary & ~in_l).sum()), c=c)


def character_sum_square_identities(field: Field, d: int) -> SquareIdentitySummary:
    """Vectorized check of both square-sum identities:
    sum_b M_b^2 = 2^(2t) * #{b : (1+b)^d + b^d in L} over all b in F, and
    sum_{u in L*} M_(uc)^2 = 2^t * #{b outside L : (1+b)^d + b^d in L}."""
    field.need_even()
    field.check_exponent(d)
    powers = field.power_map(d)
    msums = _subfield_character_sums(field, truth_table(field, d, powers).signs)
    c, _ = _resolve_c(field, None, None, prefer_five=False)
    return _square_identities(field, powers, msums, c, _coset_points(field, c))


# -- all identities in one pass ------------------------------------------------


@dataclass(frozen=True)
class SubfieldIdentities:
    """Everything the identities subcommand reports for one exponent.

    The lemma residuals are sum_a W_d(a) - 2^m and sum_a W_d(a)^2 - 2^(2m).
    For even m, subfield_walsh holds W_d(a) for a over subfield_elements(),
    character_sums holds M_b indexed by the element b, lhs and rhs are the
    two sides of weighted_walsh_identity at each b in points (b = u*c for
    u in L*, c the designated generator of order 2^t + 1), and square is
    character_sum_square_identities.  All of these are None for odd m.
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
    """Lemma moments, weighted identities and square identities from one truth
    table and one butterfly.

    W_d(a) is read from the butterfly at dual_index(a).  M_b comes from the
    sign table by direct shifted sums, not from the butterfly: L is its own
    trace dual, so M_b = 2^-t sum_{a in L} W_d(a) (-1)^Tr(a*b), and taking
    both sides from one transform would make the weighted identity hold by
    construction.
    """
    field.check_exponent(d)
    powers = field.power_map(d)
    table = truth_table(field, d, powers)
    arr = fwht(table)
    # By Parseval the squares sum to exactly 2^(2m) <= 2^56 and every partial
    # sum is smaller, so int64 accumulation is exact.
    sum_residual = int(arr.sum()) - field.q
    square_sum_residual = int((arr * arr).sum()) - field.q * field.q
    if field.t is None:
        return SubfieldIdentities(sum_residual, square_sum_residual)
    elems = field.subfield_elements()
    w_sub = arr[[field.dual_index(a) for a in elems]]
    msums = _subfield_character_sums(field, table.signs)
    c, _ = _resolve_c(field, None, None, prefer_five=False)
    points = _coset_points(field, c)

    # sum_{a in L} W_d(a) (-1)^Tr(b*a) with Tr(b*a) = parity(dual_index(b) & a);
    # the (b, a) matrix has (2^t - 1) * 2^t < q entries, like the arrays above.
    sub = np.array(elems, dtype=np.int64)
    duals = np.array([field.dual_index(int(b)) for b in points], dtype=np.int64)
    paired = (1 - 2 * parity(duals[:, None] & sub[None, :])) @ w_sub

    mb = msums[points]
    eps = np.where(mb <= 0, 1, -1)
    return SubfieldIdentities(sum_residual, square_sum_residual,
                              subfield_walsh=w_sub, character_sums=msums, points=points,
                              lhs=w_sub.sum() - eps * paired,
                              rhs=field.q + (1 << field.t) * np.abs(mb),
                              square=_square_identities(field, powers, msums, c, points))


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


def walsh_solution_set(field: Field, i: int, b: int, c: int | None = None,
                       subgroup_order: int | None = None) -> SolutionSet:
    """Exhaustive scan of L for the solution set; the contract is the set itself."""
    t = field.need_even()
    if not 1 <= i <= t - 2:
        raise DomainError(f"need 0 < i < t - 1 = {t - 1}, got i = {i}")
    if not field.in_subfield(b):
        raise DomainError("b must lie in the subfield L")
    c, order = _resolve_c(field, c, subgroup_order, prefer_five=True)
    theta = c ^ field.pow(c, 1 << t)
    e = 1 << (i + 1)
    shift = field.pow(field.mul(b, theta), e)
    elements = tuple(
        z for z in field.subfield_elements()
        if z ^ field.pow(z, 2 + e) ^ shift == 0
    )
    return SolutionSet(i=i, b=b, c=c, c_order=order, theta=theta, elements=elements)


def walsh_from_solutions(field: Field, i: int, a: int, b: int, c: int | None = None,
                         subgroup_order: int | None = None) -> int:
    """W_d(a + b*cbar) for d = 1 + 2^i + 2^(i+t), evaluated through the solution set:

        2^t * sum over z in S_b of (-1)^Tr_t(z^(1 + 2^(i+1)) * theta^(-2^(i+1)) + a*z)

    a and b range over L; together a + b*cbar covers every element of F once.
    """
    t = field.need_even()
    if not field.in_subfield(a):
        raise DomainError("a must lie in the subfield L")
    d = 1 + (1 << i) + (1 << (i + t))
    field.check_invertible(d)
    ss = walsh_solution_set(field, i, b, c=c, subgroup_order=subgroup_order)
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


def sextic_census(field: Field) -> CensusReport:
    """Count, for every w, the solutions z of z^6 + z = w; the field IS GF(2^t)."""
    t = field.m
    q = field.q
    w = field.power_map(6) ^ np.arange(q, dtype=np.int64)
    per_target = np.bincount(w, minlength=q)
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
        w0 = int(np.nonzero(per_target == k)[0][0])
        sols = tuple(int(z) for z in np.nonzero(w == w0)[0])
        witnesses[k] = (w0, sols)
    return CensusReport(t=t, modulus=field.modulus, counts=dict(sorted(counts.items())),
                        closed_form=closed, closed_form_match=match, witnesses=witnesses)


# -- Dickson polynomials -------------------------------------------------------


def dickson_value(field: Field, x: int, n: int = 5) -> int:
    """D_n(x, 1) in characteristic 2 via the recurrence D_k = x*D_(k-1) + D_(k-2)."""
    if n < 1:
        raise DomainError(f"Dickson index must be positive, got {n}")
    field.check_element(x, "x")
    prev, cur = 0, x  # D_0 = 2 = 0, D_1 = x
    for _ in range(n - 1):
        prev, cur = cur, field.mul(x, cur) ^ prev
    return cur


def dickson_is_permutation(field: Field, n: int = 5) -> bool:
    """Permutation test by exhaustive image and by gcd(n, 2^(2t) - 1); they must agree."""
    image = {dickson_value(field, x, n) for x in range(field.q)}
    by_image = len(image) == field.q
    by_gcd = gcd(n, field.q * field.q - 1) == 1
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
    t = field.need_even()
    field.check_invertible(d)
    arr = fwht(truth_table(field, d))
    return BoundCheck(d=d, max_walsh=int(arr[1:].max()),
                      bound=(1 << t) + (1 << (t // 2)))


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
    t = field.need_even()
    field.check_invertible(d)
    arr = fwht(truth_table(field, d))
    threshold = 1 << (t + 1)
    mx = int(arr[1:].max())
    witness = None
    if mx >= threshold:
        u = 1 + int(np.nonzero(arr[1:] >= threshold)[0][0])
        witness = field.dual_index_inv(u)
        if walsh_coefficient(field, d, witness) != int(arr[u]):
            raise RuntimeError("dual indexing disagrees with the oracle; implementation bug")
    return SarwateCheck(d=d, threshold=threshold, max_walsh=mx, witness=witness)


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
    theta = c + c^-1 has order 3 with Tr_t(theta^-1) = 1."""
    t = field.need_even()
    if t % 4 != 2 or t < 6:
        raise DomainError(f"excluded-value check needs t = 2 mod 4 and t >= 6, got t = {t}")
    d = 3 + (1 << (t + 1))
    field.check_invertible(d)
    spec = walsh_spectrum(field, d)
    banned = 6 << t
    absent = spec.count(banned) == 0 and spec.count(-banned) == 0
    c = field.designated_generator(5)
    theta = c ^ field.pow(c, 1 << t)
    tr_one = field.subfield_trace(field.inv(theta)) == 1
    order_three = theta != 1 and field.pow(theta, 3) == 1
    if not (tr_one and order_three):
        raise RuntimeError("structural facts about theta failed; implementation bug")
    return NoSixReport(t=t, d=d, absent=absent, c=c, theta=theta,
                       tr_theta_inv_is_one=tr_one, theta_has_order_three=order_three)
