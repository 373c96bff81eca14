"""Command line front end.

Subcommands: spectrum, weights, verify, census, scan, identities.
Data goes to stdout (JSON by default, CSV where --format csv is accepted);
errors are single-line JSON objects on stderr.  Exit codes: 0 success,
1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from math import gcd

import numpy as np

from . import __version__
from .analysis import (check_exponents, coset_leaders, family_spectrum, sextic_census,
                       subfield_identities)
from .code import is_degenerate_exponent, weight_distribution
from .errors import DomainError, WalshLabError
from .field import DEFAULT_TABLE_CAP, MAX_DEGREE, check_degree, check_even, make_field
from .predict import compare, predicted_spectrum_t_even, predicted_spectrum_t_odd
from .walsh import walsh_spectrum


class _Parser(argparse.ArgumentParser):
    # usage failures must come out as machine-readable JSON on stderr
    def error(self, message):
        _emit_error(message, "usage")
        raise SystemExit(2)


def _emit_error(message: str, kind: str) -> None:
    print(json.dumps({"error": message, "kind": kind}), file=sys.stderr)


def _payload(m, d, poly, kind, entries, meta) -> dict:
    meta = dict(meta)
    meta["version"] = __version__
    return {
        "m": m,
        "d": d,
        "poly": f"0x{poly:x}" if poly is not None else None,
        "kind": kind,
        "entries": [{"value": int(v), "count": int(n)} for v, n in entries],
        "meta": meta,
    }


def _to_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _to_csv(payload: dict) -> str:
    head = (f"# m={payload['m']} d={payload['d']} poly={payload['poly']} "
            f"kind={payload['kind']} version={__version__}")
    lines = [head, "value,count"]
    lines += [f"{e['value']},{e['count']}" for e in payload["entries"]]
    return "\n".join(lines) + "\n"


def _write_out(args, payload: dict) -> None:
    text = _to_csv(payload) if getattr(args, "format", "json") == "csv" else _to_json(payload)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_m(args) -> int:
    if args.m is None and args.t is None:
        raise DomainError("one of --m / --t is required")
    if args.m is not None and args.t is not None and args.m != 2 * args.t:
        raise DomainError(f"--m {args.m} and --t {args.t} disagree (need m = 2t)")
    return args.m if args.m is not None else 2 * args.t


def _thread_count(args) -> int:
    """--threads, else WALSH_LAB_THREADS, else min(8, cpu count); either
    setting must be a positive integer."""
    n, source = args.threads, "--threads"
    if n is None:
        env = os.environ.get("WALSH_LAB_THREADS")
        if not env:
            return min(8, os.cpu_count() or 1)
        try:
            n = int(env)
        except ValueError:
            raise DomainError(f"WALSH_LAB_THREADS must be an integer, got {env!r}")
        source = "WALSH_LAB_THREADS"
    if n < 1:
        raise DomainError(f"{source} must be positive, got {n}")
    return n


def _make_field(args, m: int):
    return make_field(m, modulus=args.poly, table_cap=args.table_cap)


def cmd_spectrum(args) -> int:
    m = _resolve_m(args)
    fld = _make_field(args, m)
    spec = walsh_spectrum(fld, args.d)
    meta = {
        "coprime": spec.coprime,
        "degenerate": is_degenerate_exponent(m, args.d),
    }
    _write_out(args, _payload(m, args.d, fld.modulus, "spectrum", spec.entries, meta))
    return 0


def cmd_weights(args) -> int:
    m = _resolve_m(args)
    fld = _make_field(args, m)
    dist = weight_distribution(fld, args.d)
    meta = {
        "min_distance": dist.min_distance,
        "degenerate": dist.degenerate,
        "total_codewords": dist.total(),
    }
    _write_out(args, _payload(m, args.d, fld.modulus, "weights", dist.entries, meta))
    return 0


def cmd_verify(args) -> int:
    # The spectrum needs only L = GF(2^t).  GF(2^2t) is built, without
    # tables, to check --poly and report its modulus while 2t is in the
    # field's range; above it only t is checked.  The closed forms do
    # big-integer work in 2^(2t), so the degree is checked first.
    m = 2 * args.t
    check_degree(m if m <= MAX_DEGREE else args.t)
    if args.theorem == "todd":
        pred = predicted_spectrum_t_odd(args.t)
    else:
        pred = predicted_spectrum_t_even(args.t)
    if m <= MAX_DEGREE:
        poly = make_field(m, modulus=args.poly, table_cap=1).modulus
    elif args.poly is None:
        poly = None
    else:
        raise DomainError(f"--poly names a modulus of GF(2^2t), which verify builds "
                          f"only for t <= {MAX_DEGREE // 2}; got t = {args.t}")
    actual = family_spectrum(make_field(args.t, table_cap=args.table_cap))
    cmp = compare(actual, pred)
    meta = {
        "theorem": args.theorem,
        "t": args.t,
        "equal": cmp.equal,
        "diff": [
            {"value": v, "actual": a, "predicted": p} for v, a, p in cmp.diffs
        ],
        "predicted": [{"value": v, "count": n} for v, n in pred.entries],
    }
    _write_out(args, _payload(pred.m, pred.d, poly, "spectrum", actual.entries, meta))
    return 0 if cmp.equal else 1


def cmd_census(args) -> int:
    fld = _make_field(args, args.t)
    rep = sextic_census(fld)
    entries = sorted(rep.counts.items())
    meta = {
        "t": rep.t,
        "closed_form": (
            [{"value": k, "count": n} for k, n in sorted(rep.closed_form.items())]
            if rep.closed_form is not None else None
        ),
        "closed_form_match": rep.closed_form_match,
        "witnesses": {
            str(k): {"w": w, "solutions": list(sols)}
            for k, (w, sols) in rep.witnesses.items()
        },
    }
    _write_out(args, _payload(args.t, None, fld.modulus, "census", entries, meta))
    return 1 if rep.closed_form_match is False else 0


def cmd_scan(args) -> int:
    threads = _thread_count(args)
    m = _resolve_m(args)
    # odd m is refused before the field or the exponent list is built
    check_degree(m)
    check_even(m)
    fld = _make_field(args, m)
    ds = [d for d in range(1, fld.q - 1) if gcd(d, fld.order) == 1]
    if threads == 1:
        results = check_exponents(fld, ds, args.check)
    else:
        # check_exponents sums one witness oracle pair per cyclotomic coset,
        # so each worker takes whole cosets, every N-th by rank of leader;
        # --threads caps the pool, which gets one worker per non-empty group
        ranks = np.unique(coset_leaders(fld, ds), return_inverse=True)[1] % threads
        groups: dict[int, list[int]] = {}
        for d, r in zip(ds, ranks.tolist()):
            groups.setdefault(r, []).append(d)
        chunks = list(groups.values())
        with ThreadPoolExecutor(max_workers=len(chunks)) as ex:
            by_d = {r.d: r for part in ex.map(
                lambda chunk: check_exponents(fld, chunk, args.check), chunks) for r in part}
        results = [by_d[d] for d in ds]
    entries = [(r.d, 1 if r.holds else 0) for r in results]
    failures = [r.d for r in results if not r.holds]
    meta = {
        "check": args.check,
        "scanned": len(ds),
        "failures": failures,
        "all_hold": not failures,
        "threads": threads,
    }
    _write_out(args, _payload(m, None, fld.modulus, "scan", entries, meta))
    return 0 if not failures else 1


def cmd_identities(args) -> int:
    m = _resolve_m(args)
    fld = _make_field(args, m)
    rep = subfield_identities(fld, args.d)
    meta: dict = {
        "lemma": {
            "sum_residual": rep.sum_residual,
            "square_sum_residual": rep.square_sum_residual,
        },
        "weighted": None,
        "square": None,
    }
    bad = rep.sum_residual != 0 or rep.square_sum_residual != 0
    if rep.square is not None:
        worst = rep.weighted_max_abs_residual
        meta["weighted"] = {"max_abs_residual": worst, "checked": len(rep.points)}
        meta["square"] = {
            "total_residual": rep.square.total_residual,
            "coset_residual": rep.square.coset_residual,
        }
        bad = bad or worst != 0 or not rep.square.holds
    _write_out(args, _payload(m, args.d, fld.modulus, "identities", [], meta))
    return 1 if bad else 0


def _add_common(p, with_d=False, with_m=True, with_format=False):
    if with_m:
        p.add_argument("--m", type=int, default=None, help="field degree m")
        p.add_argument("--t", type=int, default=None, help="half degree t (m = 2t)")
    if with_d:
        p.add_argument("--d", type=int, required=True, help="exponent d")
    p.add_argument("--poly", type=lambda s: int(s, 0), default=None,
                   help="field polynomial override as bitmask (e.g. 0x43)")
    p.add_argument("--table-cap", type=int, default=DEFAULT_TABLE_CAP,
                   help="max table size (entries) for log/antilog tables")
    p.add_argument("--output", default=None, help="write result to a file instead of stdout")
    if with_format:
        p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser; ``main`` builds one on its first call and reuses it."""
    parser = _Parser(prog="walsh-lab")
    parser.add_argument("--version", action="version", version=f"walsh-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="Walsh spectrum of Tr(x^d)")
    _add_common(p, with_d=True, with_format=True)

    p = sub.add_parser("weights", help="weight distribution of the two-nonzero cyclic code")
    _add_common(p, with_d=True, with_format=True)

    p = sub.add_parser("verify", help="compare a computed spectrum against its closed-form table")
    p.add_argument("--theorem", choices=("todd", "teven"), required=True)
    p.add_argument("--t", type=int, required=True)
    _add_common(p, with_m=False)

    p = sub.add_parser("census", help="solution-count census of z^6 + z = w over GF(2^t)")
    p.add_argument("--t", type=int, required=True)
    _add_common(p, with_m=False, with_format=True)

    p = sub.add_parser("scan", help="run a spectral bound check over every invertible d")
    p.add_argument("--check", choices=("sarwate", "bound"), required=True)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: WALSH_LAB_THREADS, else min(8, cpu count))")
    _add_common(p, with_format=True)

    p = sub.add_parser("identities", help="spectrum and subfield identity residuals")
    _add_common(p, with_d=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs about as much as a small command, so one
    # serves every call in the process.  It holds no command function:
    # ``main`` looks ``cmd_<command>`` up when it runs, so a replaced module
    # attribute is the one called.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (WalshLabError, ValueError, OSError) as exc:
        # OSError: an --output path that cannot be written
        _emit_error(str(exc), "usage")
        return 2


if __name__ == "__main__":
    sys.exit(main())
