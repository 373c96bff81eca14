"""Output checks, run after the timed passes.

Every operation is checked by a route that does not share the code under
test (closed forms, moment identities, the direct-summation oracle) and by a
digest of its ``entries`` recorded at the seed commit (``digests.json``).
A check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import gcd
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")


@dataclass
class Result:
    """What one execution of an operation returned.

    ``code`` is the CLI exit code (0 for the library operation, None when
    the call raised) and ``out`` its stdout.  For the library operation
    ``entries`` is the histogram of the returned array and ``samples`` its
    values at the operation's oracle points.  ``ref`` is the mean time of
    the calibration loops run just before and just after it, when the run
    calibrates.
    """

    seconds: float
    code: int | None
    out: str = ""
    err: str = ""
    entries: list | None = None
    samples: list | None = None
    ref: float | None = None


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def digest(entries) -> str:
    """Short sha256 of a histogram given as (value, count) pairs."""
    text = json.dumps([[int(v), int(n)] for v, n in entries], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pairs(payload: dict) -> list[tuple[int, int]]:
    return [(e["value"], e["count"]) for e in payload["entries"]]


def spectrum_problems(m: int, pairs) -> list[str]:
    """Parseval, the coefficient sum and the total count of a Walsh spectrum."""
    q = 1 << m
    out = []
    if sum(n for _, n in pairs) != q:
        out.append("spectrum does not count 2^m coefficients")
    if sum(n * v for v, n in pairs) != q:
        out.append("sum of coefficients is not 2^m")
    if sum(n * v * v for v, n in pairs) != q * q:
        out.append("Parseval sum is not 4^m")
    return out


def welch_spectrum(m: int) -> dict[int, int]:
    """Almost-bent spectrum of the Welch exponent over odd m (Canteaut-Charpin-Dobbertin)."""
    v = 1 << ((m + 1) // 2)
    s = 1 << ((m - 3) // 2)
    return {-v: (1 << (m - 2)) - s, 0: 1 << (m - 1), v: (1 << (m - 2)) + s}


def _cli_problems(op, payload: dict) -> list[str]:
    out = []
    m, q = op.m, 1 << op.m
    meta = payload["meta"]
    pairs = _pairs(payload)
    if op.command == "verify":
        out += spectrum_problems(m, pairs)
        if meta.get("equal") is not True:
            out.append("verify: meta.equal is not true")
    elif op.command == "spectrum":
        out += spectrum_problems(m, pairs)
        if dict(pairs) != welch_spectrum(m):
            out.append("spectrum differs from the Welch closed form")
    elif op.command == "census":
        if meta.get("closed_form_match") is not True:
            out.append("census: closed_form_match is not true")
        if sum(n for _, n in pairs) != q or sum(k * n for k, n in pairs) != q:
            out.append("census counts do not cover every w and every z once")
    elif op.command == "weights":
        # Pless's first moment for a code of length q - 1 and dimension 2m
        # with no identically-zero coordinate.
        if sum(n for _, n in pairs) != q * q or meta.get("total_codewords") != q * q:
            out.append("weights: codeword count is not 2^(2m)")
        if sum(w * n for w, n in pairs) != (q - 1) * q * q // 2:
            out.append("weights: first power moment is wrong")
    elif op.command == "scan":
        invertible = [d for d in range(1, q - 1) if gcd(d, q - 1) == 1]
        if meta.get("scanned") != len(invertible):
            out.append("scan: scanned is not phi(2^m - 1)")
        if meta.get("all_hold") is not True:
            out.append("scan: all_hold is not true")
        if pairs != [(d, 1) for d in invertible]:
            out.append("scan: entries are not every invertible d with the check holding")
    elif op.command == "identities":
        for name, section in meta.items():
            if not isinstance(section, dict) or section.get("applicable") is False:
                continue
            for k, v in section.items():
                if k.endswith("residual") and v != 0:
                    out.append(f"identities: {name}.{k} = {v}")
    return out


def scan_threads(out: str) -> int | None:
    """The thread count a scan reports in meta.threads, if its stdout says."""
    try:
        return json.loads(out)["meta"]["threads"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


def problems(op, result: Result, digests: dict[str, str], oracle=None) -> list[str]:
    """Everything wrong with one execution; ``oracle`` maps point -> W_d(point)."""
    out = []
    if result.code != 0:
        out.append(f"exit code {result.code}, expected 0: {result.err.strip()[:200]}")
    if result.code is None:
        return out
    if op.argv:
        try:
            payload = json.loads(result.out)
        except json.JSONDecodeError:
            return out + ["stdout is not JSON"]
        if json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" != result.out:
            out.append("stdout is not canonical JSON")
        if payload.get("m") != op.m or payload.get("poly") != hex(op.modulus):
            out.append("payload m or poly does not match the input")
        pairs = _pairs(payload)
        out += _cli_problems(op, payload)
    else:
        pairs = result.entries
        out += spectrum_problems(op.m, pairs)
        if oracle is not None and result.samples != [oracle[a] for a in op.points]:
            out.append("walsh_coefficients disagrees with the walsh_coefficient oracle")
    want = digests.get(op.key)
    if want is None:
        out.append(f"no recorded digest for {op.key!r}")
    elif digest(pairs) != want:
        out.append(f"entries digest differs from the seed commit's for {op.key!r}")
    return out
