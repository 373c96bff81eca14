"""Layer timings of the spectrum path and benchmark medians, for this checkout
against a baseline checkout, written as one BENCH_*.json.

    python3 tools/bench_layers.py --baseline ../base --out BENCH_15.json \\
        --pairs subfield-identities=10 --pairs table-field=4 --pairs tableless-field=4 \\
        --pairs exponent-sweep=4 --seconds 25

Each side runs in its own interpreters with walsh_lab imported from that
checkout's ``src``.  The layers below run in eight rounds, baseline,
change, change, baseline twice, so that a burst on a shared machine falls
on both sides: a whole interpreter's layers can read 5-10% faster or slower
than the same code's in the next, so each side records per entry the median
of its four rounds' medians and the maximum of their maxima and peaks.

* Layers: ``make_field`` (the antilog up to 2^16 entries; a larger one
  and the log wait for their first use), ``make_field_tableless``
  (``table_cap=1``), ``trace_bits`` and ``log_build`` (the first ``log_of``
  on a fresh field, which builds the log where it is lazy, and above 2^16
  entries the antilog before it), ``antilog`` at m in {16, 20, 22} (the
  first ``antilog()`` on a fresh field: the deferred build, where it is
  deferred; a deferred table is an anonymous mapping, which tracemalloc
  does not see, so its peak is the build's temporaries), ``truth_table``
  (field warm) and
  ``truth_table_cold`` (a fresh field per run), ``fwht`` (on a fresh copy
  of the signs), ``walsh_spectrum`` and ``walsh_coefficients`` (field warm)
  and their ``_cold`` variants (on a fresh ``make_field(m)``, what one CLI
  call or library op pays) at m in {12, 16, 20, 22}, each the median and
  the maximum wall time of several runs (201 at m = 12, where a call takes
  microseconds; one untimed call goes first, so a stalled run, not a first
  call, shows in the maximum; the runs of an entry take at least
  ``LAYER_SECONDS``, and at each m they are spread over ``LAYER_ROUNDS``
  rounds of all the entries) and the tracemalloc peak of one more;
  ``power_map`` and ``power_map_tableless`` (``Field.power_map(7)`` on a
  warm field with and without tables) at the same m; and at each m the
  dtypes of the sign table, the butterfly output, ``power_map``
  and ``dual_indices``; ``fwht`` alone at m in {14, 24} as well;
  ``subfield_identities`` (field warm) at m in {12, 16, 20}, with 3 runs at
  m = 20; and ``family_spectrum`` (the fibre route ``verify`` runs, on a
  warm GF(2^t)) at t in {10, 14, 18, 22}, with 201 runs at t <= 14, where
  a call takes about a millisecond, and 3 at t = 22.
* ``one_exponent``: ``walsh_spectrum``, ``walsh_coefficients`` and
  ``sign_transforms(f, [d])`` at m in {16, 18, 20, 22}, each warm and on a
  fresh ``make_field(m)`` (``_cold``), with 51, 21, 7 and 5 runs; and
  ``Field.dual_indices`` over 2^20 elements of a warm GF(2^20), 51 runs.
* ``scan``: the bound and Sarwate checks over every invertible d at
  m in {10, 12, 14}, over the 1,024 exponents of the first 64 cosets
  {d * 2^j mod 2^m - 1} at m = 16 and over the 576 of the first 32 at
  m = 18 (one table per block, where the field's second walk over the
  powers of alpha builds its antilog), each sweep one ``check_exponents`` call
  on all of them, as ``cmd_scan`` makes on one thread, after one untimed
  call on a block of ``tables_per_block`` exponents: sweeps repeat until
  a round has spent ``SCAN_SECONDS`` on them and made at least
  ``SCAN_MIN_SWEEPS``, and record their count, the median and the maximum
  time per sweep, and the median per exponent.
* ``oracle``: the direct-summation oracle on ``ORACLE_PAIRS`` random
  ``(d, a)`` pairs at m in {12, 16, 20}, one ``walsh_coefficients_at``
  call per run, after one untimed call: the median and the maximum time
  per pair over 201 runs at m = 12, 21 at m = 16 and 7 at m = 20; and the
  tracemalloc peak of one warm ``walsh_coefficient`` call at m in
  {20, 22}, with and without tables, in MiB and in units of 4q bytes.
* In process, 201 runs each: ``cli.build_parser`` and
  ``cli.main(["identities", "--m", "12", "--d", "131"])`` with stdout
  captured, the call the ``subfield-identities`` workload repeats; every run
  after the first is a later CLI call in the same interpreter.
* ``spectrum --m 24 --d 8195`` (no tables; d = 3 + 2^13 is the paper's
  exponent at t = 12, which the teven table does not cover): its
  tracemalloc peak, and 16 times that as the estimate for the same
  butterfly at m = 28, where every q-sized array is 16 times larger; and
  once per side in a fresh interpreter, its wall time and peak RSS.
* ``--pairs WORKLOAD=N`` runs N baseline/change pairs of that benchmark
  workload through each checkout's own ``benchmarks/run.py --trace 0``, one
  seed per pair from ``--seed`` up, the side that goes first alternating.
  Recorded per side: median and quartiles of every end-to-end metric and the
  failed share; and how many pairs the change won on each metric.
* ``--slow`` runs ``verify --theorem todd --t 13`` (m = 26) once per side and
  records its wall time and peak RSS.
* ``--run "ARGS"`` runs that CLI call once in this checkout only (for calls
  the baseline refuses or would take far longer on) and records the same.
  With any ``--run``, ``family_spectrum(make_field(t))`` also runs once per
  t in {22, 23, 24} in a fresh interpreter, and its peak RSS, linear in 2^t
  through t = 23 and 24 (both without log tables), gives an estimate at
  larger t.  A ``verify`` call at t > 24 whose estimate exceeds 5 GB, most
  of the 7 GB box, is recorded as skipped instead of run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYER_M = (12, 16, 20, 22)
ANTILOG_M = (16, 20, 22)
FWHT_ONLY_M = (14, 24)
IDENTITIES_M = (12, 16, 20)
LAYER_D = 7
FIBRE_T = (10, 14, 18, 22)
PEAK_T = (22, 23, 24)
MAX_ESTIMATE_MB = 5 * 1024
SLOW_ARGV = ["verify", "--theorem", "todd", "--t", "13"]
ESTIMATE_ARGV = ["spectrum", "--m", "24", "--d", str(3 + (1 << 13))]
IN_PROCESS_ARGV = ["identities", "--m", "12", "--d", "131"]
SCAN_M = (10, 12, 14, 16, 18)
SCAN_COSETS = {16: 64, 18: 32}
SCAN_SECONDS = 1.0
# A sweep at m = 14 takes 1.0-1.9 s, so SCAN_SECONDS alone would give it one
SCAN_MIN_SWEEPS = 3
ORACLE_RUNS = {12: 201, 16: 21, 20: 7}
ORACLE_PAIRS = 16
ORACLE_PEAK_M = (20, 22)
ONE_EXPONENT_RUNS = {16: 51, 18: 21, 20: 7, 22: 5}
DUAL_INDICES_M = 20
# On a shared VM the same code runs up to 2x slower for 0.1 s and more at
# a time, longer than 201 calls at m = 12 take, so one such stretch moved a
# side's m = 12 layers by 10-35%.  So each layer's runs take at least
# LAYER_SECONDS, and at each m they go in LAYER_ROUNDS rounds over all the
# layers, a share of every layer's runs in each.
LAYER_SECONDS = 0.4
LAYER_ROUNDS = 5


def _measure_oracle() -> dict:
    """Run inside a side's interpreter: per-pair times of the oracle on
    ORACLE_PAIRS pairs, and the peak of one warm walsh_coefficient call."""
    import random
    import tracemalloc

    from walsh_lab import make_field, walsh_coefficient, walsh_coefficients_at

    rng = random.Random(20)
    out = {}
    k = ORACLE_PAIRS
    for m, runs in ORACLE_RUNS.items():
        field = make_field(m)
        ds = [rng.randrange(1, field.order) for _ in range(k)]
        points = [rng.randrange(field.q) for _ in range(k)]
        walsh_coefficients_at(field, ds, points)
        per = []
        for _ in range(runs):
            start = time.perf_counter()
            walsh_coefficients_at(field, ds, points)
            per.append((time.perf_counter() - start) / k)
        out[f"m={m}"] = {"pairs": k, "median_us": round(1e6 * statistics.median(per), 2),
                         "max_us": round(1e6 * max(per), 2)}
    for m in ORACLE_PEAK_M:
        for name, cap in (("tables", 1 << m), ("tableless", 1)):
            field = make_field(m, table_cap=cap)
            d, a = 3 + (1 << (m // 2 + 1)), field.q - 3
            walsh_coefficient(field, d, a)
            tracemalloc.start()
            walsh_coefficient(field, d, a)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            out[f"m={m} {name}"] = {"peak_mb": round(peak / 2**20, 3),
                                    "peak_x_4q": round(peak / (4 * field.q), 3)}
    return out


def _measure_scan() -> dict:
    """Run inside a side's interpreter: {"m=M CHECK": {...}} for SCAN_M."""
    from math import gcd

    from walsh_lab import check_exponents, make_field, tables_per_block

    out = {}
    for m in SCAN_M:
        field = make_field(m)
        n = field.order
        ds = [d for d in range(1, n) if gcd(d, n) == 1]
        if m in SCAN_COSETS:
            # coset leaders computed here: a baseline may predate coset_leaders
            leaders = sorted({min(d * 2**j % n for j in range(m)) for d in ds})
            ds = sorted(e * 2**j % n for e in leaders[:SCAN_COSETS[m]] for j in range(m))
        for check in ("bound", "sarwate"):
            check_exponents(field, ds[:tables_per_block(field)], check)
            sweeps = []
            while len(sweeps) < SCAN_MIN_SWEEPS or sum(sweeps) < SCAN_SECONDS:
                start = time.perf_counter()
                check_exponents(field, ds, check)
                sweeps.append(time.perf_counter() - start)
            out[f"m={m} {check}"] = {
                "exponents": len(ds), "sweeps": len(sweeps),
                "median_s": round(statistics.median(sweeps), 5),
                "max_s": round(max(sweeps), 5),
                "median_us": round(1e6 * statistics.median(sweeps) / len(ds), 2)}
    return out


def _measure_layers() -> dict:
    """Run inside a side's interpreter: {m: {layer: {wall_s, peak_mb}}}."""
    import contextlib
    import io
    import tracemalloc

    import numpy as np
    from walsh_lab import (cli, family_spectrum, fwht, make_field, sign_transforms,
                           subfield_identities, truth_table, walsh_coefficients,
                           walsh_spectrum)

    def none():
        return None

    def interleaved(entries):
        """{name: {wall_s, max_s, peak_mb}} for entries {name: (call,
        setup, runs)}: the runs of all entries go in LAYER_ROUNDS rounds,
        each entry in every round, so a slow stretch of the machine falls
        on all of them, not on one entry's runs."""
        # one untimed call first: a process's first call builds module caches
        # (and BLAS its buffers), which the maximum of the runs should not show
        for call, setup, _ in entries.values():
            call(setup())
        walls = {name: [] for name in entries}
        for _ in range(LAYER_ROUNDS):
            for name, (call, setup, runs) in entries.items():
                done, end = 0, time.perf_counter() + LAYER_SECONDS / LAYER_ROUNDS
                while done < -(-runs // LAYER_ROUNDS) or time.perf_counter() < end:
                    arg = setup()
                    start = time.perf_counter()
                    call(arg)
                    walls[name].append(time.perf_counter() - start)
                    done += 1
        out = {}
        for name, (call, setup, _) in entries.items():
            arg = setup()
            tracemalloc.start()
            call(arg)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            # to 0.1 us: a call at m = 12 can take 5 us
            out[name] = {"wall_s": round(statistics.median(walls[name]), 7),
                         "max_s": round(max(walls[name]), 7), "peak_mb": round(peak / 2**20, 3)}
        return out

    def timed(call, setup=none, runs=7):
        return interleaved({"": (call, setup, runs)})[""]

    out = {}
    for m in LAYER_M:
        runs = 201 if m == 12 else 7 if m < 22 else 5
        field, tableless = make_field(m), make_field(m, table_cap=1)
        signs = truth_table(field, LAYER_D)

        def cold():
            return make_field(m)

        entries = {
            "make_field": (lambda _: make_field(m), none, runs),
            "make_field_tableless": (lambda _: make_field(m, table_cap=1), none, runs),
            "trace_bits": (lambda f: f.trace_bits(), cold, runs),
            "log_build": (lambda f: f.log_of(2), cold, runs),
            "truth_table": (lambda _: truth_table(field, LAYER_D), none, runs),
            "truth_table_cold": (lambda f: truth_table(f, LAYER_D), cold, runs),
            "fwht": (fwht, signs.copy, runs),
            "walsh_spectrum": (lambda _: walsh_spectrum(field, LAYER_D), none, runs),
            "walsh_spectrum_cold": (lambda _: walsh_spectrum(make_field(m), LAYER_D), none,
                                    runs),
            "walsh_coefficients": (lambda _: walsh_coefficients(field, LAYER_D), none, runs),
            "walsh_coefficients_cold": (lambda _: walsh_coefficients(make_field(m), LAYER_D),
                                        none, runs),
            "power_map": (lambda _: field.power_map(LAYER_D), none, runs),
            "power_map_tableless": (lambda _: tableless.power_map(LAYER_D), none, runs),
        }
        if m in ANTILOG_M:
            entries["antilog"] = (lambda f: f.antilog(), cold, runs)
        if m in IDENTITIES_M:
            entries["subfield_identities"] = (lambda _: subfield_identities(field, LAYER_D), none,
                                              3 if m >= 20 else runs)
        out[f"m={m}"] = interleaved(entries)
        out[f"m={m}"]["dtype"] = {
            "signs": str(signs.dtype), "fwht": str(fwht(signs.copy()).dtype),
            "power_map": str(field.power_map(LAYER_D).dtype),
            "dual_indices": str(field.dual_indices(field.antilog()).dtype)}
        del field, tableless, signs, entries
    for m in FWHT_ONLY_M:
        signs = truth_table(make_field(m), LAYER_D)
        out[f"m={m}"] = {"fwht": timed(fwht, signs.copy, 201 if m < 20 else 5)}
        del signs
    for t in FIBRE_T:
        half = make_field(t)
        out[f"t={t}"] = {"family_spectrum": timed(
            lambda _: family_spectrum(half), runs=3 if t >= 22 else 7 if t > 14 else 201)}
    one = {}
    for m, runs in ONE_EXPONENT_RUNS.items():
        field = make_field(m)
        row = {}
        for name, fn in (("walsh_spectrum", walsh_spectrum),
                         ("walsh_coefficients", walsh_coefficients),
                         ("sign_transforms", lambda f, d: sign_transforms(f, [d]))):
            row[name] = timed(lambda _, fn=fn: fn(field, LAYER_D), runs=runs)
            row[f"{name}_cold"] = timed(lambda _, fn=fn: fn(make_field(m), LAYER_D), runs=runs)
        one[f"m={m}"] = row
        del field
    field = make_field(DUAL_INDICES_M)
    elements = np.arange(field.q, dtype=np.int32)
    one[f"dual_indices 2^{DUAL_INDICES_M}"] = timed(lambda _: field.dual_indices(elements),
                                                    runs=51)
    out["one_exponent"] = one
    del field, elements
    with contextlib.redirect_stdout(io.StringIO()):
        out["cli"] = {"build_parser": timed(lambda _: cli.build_parser(), runs=201),
                      " ".join(IN_PROCESS_ARGV): timed(lambda _: cli.main(IN_PROCESS_ARGV),
                                                       runs=201)}
        verify = timed(lambda _: cli.main(ESTIMATE_ARGV), runs=1)
    out[" ".join(ESTIMATE_ARGV)] = {**verify, "m28_estimate_mb": round(16 * verify["peak_mb"], 1)}
    out["scan"] = _measure_scan()
    out["oracle"] = _measure_oracle()
    out["numpy"] = np.__version__
    return out


def _side_env(checkout: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(checkout / "src")}


def _commit(checkout: Path) -> str:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                         capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=checkout, capture_output=True, text=True).stdout.strip()
    return sha + ("-dirty" if dirty else "")


def layers(checkout: Path) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--measure-layers"],
                          env=_side_env(checkout), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def merge_rounds(rounds: list, key: str = "") -> object:
    """One record from several rounds of the same measurements: entry by
    entry, the maximum of maxima, peaks and estimates made from a peak, the
    median of any other number that differs between rounds, and otherwise
    the first round's value."""
    first = rounds[0]
    if isinstance(first, dict):
        return {k: merge_rounds([r[k] for r in rounds], k) for k in first}
    if all(r == first for r in rounds) or not isinstance(first, (int, float)):
        return first
    if key.startswith("max") or "peak" in key or "estimate" in key:
        return max(rounds)
    return statistics.median(rounds)


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    row = {k: v["value"] for k, v in result["metrics"].items()}
    row["fail_frac"] = result["failed"] / result["attempted"]
    return row


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def workload_pairs(base: Path, change: Path, workload: str, pairs: int, seed: int,
                   seconds: float) -> dict:
    runs = {"baseline": [], "change": []}
    for i in range(pairs):
        order = [("baseline", base), ("change", change)]
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            runs[side].append(bench_run(checkout, workload, seed + i, seconds))
    metrics = [k for k in runs["baseline"][0] if k != "fail_frac"]
    out = {"pairs": pairs, "seeds": [seed, seed + pairs - 1], "seconds": seconds}
    for side, rows in runs.items():
        out[side] = {k: _quartiles([r[k] for r in rows]) for k in metrics}
        out[side]["fail_frac"] = sorted({r["fail_frac"] for r in rows})
    out["change_wins"] = {k: sum(c[k] < b[k] for b, c in zip(runs["baseline"], runs["change"]))
                          for k in metrics}
    return out


def cli_run(checkout: Path, argv: list[str]) -> dict:
    code = f"import sys; from walsh_lab.cli import main; sys.exit(main({argv!r}))"
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=_side_env(checkout),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"argv": argv, "exit": proc.returncode,
            "wall_s": round(wall, 2), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def fibre_peaks(checkout: Path) -> dict:
    """Wall time and peak RSS of family_spectrum(make_field(t)), each t in a
    fresh interpreter, and the peak extrapolated to t = 25..28."""
    code = ("import sys; from walsh_lab import family_spectrum, make_field; "
            "family_spectrum(make_field(int(sys.argv[1])))")
    out = {}
    for t in PEAK_T:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, str(t)], env=_side_env(checkout))
        _, status, usage = os.wait4(proc.pid, 0)
        if os.waitstatus_to_exitcode(status):
            raise RuntimeError(f"family_spectrum at t = {t} failed")
        out[f"t={t}"] = {"wall_s": round(time.perf_counter() - start, 2),
                         "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}
    lo, hi = out[f"t={PEAK_T[-2]}"]["peak_rss_mb"], out[f"t={PEAK_T[-1]}"]["peak_rss_mb"]
    per_q = (hi - lo) / (1 << PEAK_T[-2])
    out["estimate_mb"] = {f"t={t}": round(hi + per_q * ((1 << t) - (1 << PEAK_T[-1])), 1)
                          for t in range(PEAK_T[-1] + 1, 29)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--measure-layers", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=N")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--slow", action="store_true")
    parser.add_argument("--run", action="append", default=[], metavar="ARGS")
    args = parser.parse_args()
    if args.measure_layers:
        print(json.dumps(_measure_layers()))
        return 0
    if args.baseline is None or args.out is None:
        parser.error("--baseline and --out are required")
    base = args.baseline.resolve()
    sides = {"baseline": base, "change": ROOT}
    rounds = {"baseline": [], "change": []}
    for side in ("baseline", "change", "change", "baseline") * 2:
        rounds[side].append(layers(sides[side]))
    measured = {side: merge_rounds(runs) for side, runs in rounds.items()}
    numpy_version = measured["change"].pop("numpy")
    measured["baseline"].pop("numpy")
    record = {
        "commit": _commit(ROOT),
        "baseline_commit": _commit(base),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "python": platform.python_version(),
        "layers": {"m": list(LAYER_M), "fwht_only_m": list(FWHT_ONLY_M), "d": LAYER_D,
                   **measured},
        "benchmark": {},
    }
    for spec in args.pairs:
        workload, _, n = spec.partition("=")
        record["benchmark"][workload] = workload_pairs(base, ROOT, workload, int(n or 1),
                                                       args.seed, args.seconds)
    record["estimate_run"] = {side: cli_run(checkout, ESTIMATE_ARGV)
                              for side, checkout in sides.items()}
    if args.slow:
        record["slow"] = {side: cli_run(checkout, SLOW_ARGV) for side, checkout in sides.items()}
    if args.run:
        peaks = fibre_peaks(ROOT)
        record["fibre_peaks"] = peaks
        record["runs"] = []
        for spec in args.run:
            argv = spec.split()
            t = int(argv[argv.index("--t") + 1]) if argv[0] == "verify" else 0
            estimate = peaks["estimate_mb"].get(f"t={t}")
            if estimate is not None and estimate > MAX_ESTIMATE_MB:
                record["runs"].append({"argv": argv, "skipped": True, "estimate_mb": estimate})
            else:
                record["runs"].append({**cli_run(ROOT, argv), "estimate_mb": estimate})
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
