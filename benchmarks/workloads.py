"""The benchmark's workloads and the seeded inputs they hand to walsh-lab.

A workload is a list of operations that one client issues back to back (a
closed loop).  CLI operations go through ``walsh_lab.cli.main(argv)``; the
library operation calls the package's public functions.

The seed picks a primitive modulus for every field degree a workload uses
(seed 0 takes the built-in ``PRIMITIVE_POLY``) and, where an operation says
so, an exponent ``d0 * 2^j mod (2^m - 1)``.  Moving to another primitive
modulus is a field isomorphism and multiplying ``d`` by 2 leaves ``Tr(x^d)``
unchanged, so neither choice changes the multiset of values an operation
returns or the work the table paths do.  That is why one digest of
``entries`` per operation, recorded at seed 0, checks every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from walsh_lab import PRIMITIVE_POLY, make_field
from walsh_lab.errors import DomainError

# Number of seeded points at which the library operation's output is compared
# with the direct-summation oracle.
ORACLE_POINTS = 3


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``argv`` is the CLI call; it is empty for the library operation
    ``walsh_coefficients(make_field(m, modulus), d)``, whose oracle points
    are ``points``.  ``key`` names the result independently of the seed.
    """

    command: str
    m: int
    d: int | None
    modulus: int
    argv: tuple[str, ...]
    key: str
    points: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        if self.argv:
            return " ".join(a for a in self.argv if not a.startswith("0x") and a != "--poly")
        return f"walsh_coefficients(make_field({self.m}), {self.d})"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]


# Sizes of each workload: "full" is the benchmark, "small" the same
# operations at small m for the benchmark's own tests.
SIZES = {
    "full": {
        "todd_t": 9, "census_t": 18, "teven_t": 10,
        "weights": (20, 13), "coefficients": (20, 7),
        "tableless_m": 19,
        "scans": ((12, "sarwate"), (12, "bound")),
        "identities": ((12, 131), (12, 7)),
    },
    "small": {
        "todd_t": 3, "census_t": 6, "teven_t": 6,
        "weights": (8, 13), "coefficients": (10, 7),
        "tableless_m": 9,
        "scans": ((6, "sarwate"), (8, "bound")),
        "identities": ((10, 67), (12, 7)),
    },
}

WHY = {
    "table-field": "large fields with log tables: field construction, element maps, "
                   "the butterfly on 8 MB arrays and dual_index_all do the work",
    "tableless-field": "the Welch exponent above the table cap, the only input where the "
                       "field's shift-and-reduce fallback and power_map's scalar loop run",
    "exponent-sweep": "scans of every invertible exponent on one thread: thousands of small "
                      "butterflies where per-stage Python overhead dominates",
    "subfield-identities": "the per-point oracle route: thousands of walsh_coefficient calls "
                           "that rebuild power_map and scalar_mul_map, plus subfield sums",
}


def welch_exponent(m: int) -> int:
    """2^t + 3 for m = 2t + 1; its spectrum is the almost-bent three-valued one."""
    return (1 << (m // 2)) + 3


class Inputs:
    """Seeded moduli and exponents; the same seed gives the same inputs."""

    def __init__(self, seed: int):
        self.seed = seed
        self._moduli: dict[int, int] = {}

    def _rng(self, *tag) -> random.Random:
        return random.Random(":".join(str(x) for x in (self.seed, *tag)))

    def modulus(self, m: int, d_fallback: int | None = None) -> int:
        """A primitive modulus of degree m, validated by make_field.

        With ``d_fallback`` the modulus must also give alpha^d the same bit
        length as the built-in one does: the shift-and-reduce multiply by
        alpha^d loops once per bit, so this keeps the tableless cost from
        depending on the seed.
        """
        if m in self._moduli:
            return self._moduli[m]
        default = PRIMITIVE_POLY[m]
        if self.seed == 0:
            self._moduli[m] = default
            return default
        want = None
        if d_fallback is not None:
            want = make_field(m, default, table_cap=1).exp(d_fallback).bit_length()
        rng = self._rng("modulus", m)
        while True:
            cand = (1 << m) | (rng.getrandbits(m - 1) << 1) | 1
            try:
                fld = make_field(m, cand, table_cap=1)
            except DomainError:
                continue
            if want is None or fld.exp(d_fallback).bit_length() == want:
                self._moduli[m] = cand
                return cand

    def exponent(self, m: int, d0: int) -> int:
        """d0 * 2^j mod (2^m - 1): same truth table as d0, seeded j (j = 0 at seed 0)."""
        j = 0 if self.seed == 0 else self._rng("exponent", m, d0).randrange(m)
        return (d0 << j) % ((1 << m) - 1)

    def points(self, m: int) -> tuple[int, ...]:
        rng = self._rng("points", m)
        return (0,) + tuple(rng.randrange(1, 1 << m) for _ in range(ORACLE_POINTS - 1))


def _cyclotomic_min(m: int, d: int) -> int:
    n = (1 << m) - 1
    return min((d << j) % n for j in range(m))


def _cli(inputs: Inputs, command: str, m: int, d: int | None, argv: list[str],
         d_fallback: int | None = None) -> Op:
    modulus = inputs.modulus(m, d_fallback)
    full = (command, *argv, "--poly", hex(modulus))
    key = f"{command} m={m}" + (f" d~{_cyclotomic_min(m, d)}" if d is not None else "")
    if command == "scan":
        key += f" {argv[-1]}"
    return Op(command=command, m=m, d=d, modulus=modulus, argv=full, key=key)


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The operation list of one workload at one seed."""
    if name not in WHY:
        raise KeyError(name)
    s = SIZES[size]
    inp = Inputs(seed)
    ops: list[Op] = []
    if name == "table-field":
        t = s["todd_t"]
        ops.append(_cli(inp, "verify", 2 * t, 3 + (1 << (t + 1)),
                        ["--theorem", "todd", "--t", str(t)]))
        t = s["census_t"]
        ops.append(_cli(inp, "census", t, None, ["--t", str(t)]))
        t = s["teven_t"]
        ops.append(_cli(inp, "verify", 2 * t, 3 + (1 << (t + 1)),
                        ["--theorem", "teven", "--t", str(t)]))
        m, d0 = s["weights"]
        d = inp.exponent(m, d0)
        ops.append(_cli(inp, "weights", m, d, ["--m", str(m), "--d", str(d)]))
        m, d0 = s["coefficients"]
        d = inp.exponent(m, d0)
        ops.append(Op(command="walsh_coefficients", m=m, d=d, modulus=inp.modulus(m), argv=(),
                      key=f"walsh_coefficients m={m} d~{_cyclotomic_min(m, d)}",
                      points=inp.points(m)))
    elif name == "tableless-field":
        m = s["tableless_m"]
        d = welch_exponent(m)
        # A table cap below 2^m sends the field to its shift-and-reduce fallback.
        ops.append(_cli(inp, "spectrum", m, d,
                        ["--m", str(m), "--d", str(d), "--table-cap", str(1 << (m - 1))],
                        d_fallback=d))
    elif name == "exponent-sweep":
        # One worker: on a few shared cores the pool's timing follows the
        # scheduler, not the program.
        for m, check in s["scans"]:
            ops.append(_cli(inp, "scan", m, None,
                            ["--m", str(m), "--threads", "1", "--check", check]))
    else:
        for m, d in s["identities"]:
            ops.append(_cli(inp, "identities", m, d, ["--m", str(m), "--d", str(d)]))
    return Workload(name=name, why=WHY[name], ops=tuple(ops))
