"""Command line front end.

Subcommands: spectrum, weights, verify, census, scan, identities.
Data goes to stdout (JSON by default, CSV where --format csv is accepted);
errors are single-line JSON objects on stderr.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 resource guard refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from math import gcd

from . import __version__
from .analysis import check_bound, check_sarwate, sextic_census, subfield_identities
from .code import is_degenerate_exponent, weight_distribution
from .errors import DomainError, ResourceLimitError, WalshLabError
from .field import DEFAULT_TABLE_CAP, make_field
from .predict import compare, predicted_spectrum_t_even, predicted_spectrum_t_odd
from .walsh import walsh_spectrum

SPECTRUM_GUARD_M = 28
SQUARE_SUM_GUARD_M = 16


class _Parser(argparse.ArgumentParser):
    # usage failures must come out as machine-readable JSON on stderr
    def error(self, message):
        print(json.dumps({"error": message, "kind": "usage"}), file=sys.stderr)
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


def _guard(m: int, force: bool, limit: int, what: str) -> None:
    if m > limit and not force:
        raise ResourceLimitError(
            f"{what} at m = {m} exceeds the size guard m <= {limit}; pass --force to proceed"
        )


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
    _guard(m, args.force, SPECTRUM_GUARD_M, "spectrum")
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
    _guard(m, args.force, SPECTRUM_GUARD_M, "weight distribution")
    fld = _make_field(args, m)
    dist = weight_distribution(fld, args.d)
    min_dist = min(w for w, _ in dist.entries if w > 0)
    meta = {
        "min_distance": min_dist,
        "degenerate": dist.degenerate,
        "total_codewords": dist.total(),
    }
    _write_out(args, _payload(m, args.d, fld.modulus, "weights", dist.entries, meta))
    return 0


def cmd_verify(args) -> int:
    if args.theorem == "todd":
        pred = predicted_spectrum_t_odd(args.t)
    else:
        pred = predicted_spectrum_t_even(args.t)
    _guard(pred.m, args.force, SPECTRUM_GUARD_M, "verification spectrum")
    fld = _make_field(args, pred.m)
    actual = walsh_spectrum(fld, pred.d)
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
    _write_out(args, _payload(pred.m, pred.d, fld.modulus, "spectrum", actual.entries, meta))
    return 0 if cmp.equal else 1


def cmd_census(args) -> int:
    _guard(args.t, args.force, SPECTRUM_GUARD_M, "census")
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
    _guard(m, args.force, SPECTRUM_GUARD_M, "scan")
    fld = _make_field(args, m)
    checker = check_sarwate if args.check == "sarwate" else check_bound
    ds = [d for d in range(1, fld.q - 1) if gcd(d, fld.order) == 1]
    if threads == 1:
        results = [checker(fld, d) for d in ds]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(lambda d: checker(fld, d), ds))
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
    _guard(m, args.force, SPECTRUM_GUARD_M, "identities")
    if m % 2 == 0:
        # even m refuses the whole command above this guard: the subfield
        # sums M_b take 2^t passes over all q elements, q^(3/2)
        _guard(m, args.force, SQUARE_SUM_GUARD_M, "identities for even m")
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
    p.add_argument("--force", action="store_true", help="override resource guards")
    p.add_argument("--output", default=None, help="write result to a file instead of stdout")
    if with_format:
        p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="walsh-lab")
    parser.add_argument("--version", action="version", version=f"walsh-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="Walsh spectrum of Tr(x^d)")
    _add_common(p, with_d=True, with_format=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("weights", help="weight distribution of the two-nonzero cyclic code")
    _add_common(p, with_d=True, with_format=True)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("verify", help="compare a computed spectrum against its closed-form table")
    p.add_argument("--theorem", choices=("todd", "teven"), required=True)
    p.add_argument("--t", type=int, required=True)
    _add_common(p, with_m=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("census", help="solution-count census of z^6 + z = w over GF(2^t)")
    p.add_argument("--t", type=int, required=True)
    _add_common(p, with_m=False, with_format=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("scan", help="run a spectral bound check over every invertible d")
    p.add_argument("--check", choices=("sarwate", "bound"), required=True)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: WALSH_LAB_THREADS, else min(8, cpu count))")
    _add_common(p, with_format=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("identities", help="spectrum and subfield identity residuals")
    _add_common(p, with_d=True)
    p.set_defaults(func=cmd_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        _emit_error(str(exc), "resource")
        return 3
    except (WalshLabError, ValueError) as exc:
        _emit_error(str(exc), "usage")
        return 2


if __name__ == "__main__":
    sys.exit(main())
