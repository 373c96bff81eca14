"""walsh-lab benchmark: one workload per process, closed loop, outputs checked.

    python3 benchmarks/run.py --workload table-field --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; walsh_lab is imported from ``src``.
The workload's operation list runs back to back, pass after pass, until
``--seconds`` have passed (at least one pass).  Every output is checked after
the timed passes.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the inputs, the environment and each operation's status.

``--trace 0`` reports the end-to-end metrics: the wall time of the operation
list and the median time a fresh interpreter takes to import walsh_lab,
both at a reference machine speed (each time's ratio to a calibration loop
run next to it), and peak RSS of this process.
``--trace 1`` alternates untraced passes with traced ones, which have spans
around every public function, then makes one more traced pass under
tracemalloc, and reports the per-layer metrics per pass.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checks
import tracing
from checks import Result

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The speed of a shared machine drifts by a quarter and more within minutes,
# and every operation drifts with it.  So --trace 0 runs a fixed loop of the
# benchmark's own after every operation, and ref_wall_s is each operation's
# median ratio to the loops on either side of it, in seconds of a machine on
# which the loop takes CAL_REF_S (about what a 2-CPU cloud VM takes).
CAL_REF_S = 0.030
CAL_STEPS = 6000
CAL_M, CAL_POLY, CAL_FACTOR = 19, 0x80027, 0x5A5A5

# setup_s is the median over fresh interpreters started between operations,
# at most one every SETUP_EVERY seconds so that they spread over the run, and
# at least SETUP_SAMPLES of them.  Each is divided by a calibration loop run
# right after it, and scaled like ref_wall_s.
SETUP_EVERY = 2.5
SETUP_SAMPLES = 9

# Spans reported with .calls, .busy_s and .self_s in the traced run.
LAYER_SPANS = (
    "bench.op",
    "cli.main",
    "cli.cmd_spectrum", "cli.cmd_weights", "cli.cmd_verify",
    "cli.cmd_census", "cli.cmd_scan", "cli.cmd_identities",
    "analysis.check_bound", "analysis.check_sarwate",
    "analysis.weighted_walsh_identity", "analysis.subfield_character_sum",
    "analysis.character_sum_square_identities", "analysis.sextic_census",
    "code.weight_distribution", "code.spectrum_to_weights",
    "predict.compare",
    "walsh.walsh_spectrum", "walsh.walsh_coefficients", "walsh.walsh_coefficient",
    "walsh.truth_table", "walsh.fwht", "walsh.fwht_inplace",
    "field.make_field", "field.power_map", "field.scalar_mul_map",
    "field.trace_bits", "field.dual_index_all", "field.subfield_elements",
    "field.in_subfield_mask",
)
# Spans that also report .peak_mb (tracemalloc, main thread).
PEAK_SPANS = (
    "field.make_field", "field.power_map", "field.dual_index_all",
    "walsh.truth_table", "walsh.fwht", "walsh.walsh_coefficients",
)
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


def _fail(message: str) -> None:
    print(json.dumps({"error": message}), file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    """Import walsh_lab from this checkout's ``src``, and nothing else."""
    if not (SRC / "walsh_lab" / "__init__.py").is_file():
        _fail(f"no walsh_lab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import walsh_lab
    import walsh_lab.cli

    if Path(walsh_lab.__file__).resolve().parent != SRC / "walsh_lab":
        _fail(f"imported walsh_lab from {walsh_lab.__file__}, not from {SRC}")
    return walsh_lab


def setup_seconds() -> float:
    """Seconds from starting a fresh interpreter until ``import walsh_lab`` returns.

    The child prints perf_counter after the import; on Linux that clock is
    CLOCK_MONOTONIC, shared by every process.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import time, walsh_lab; print(time.perf_counter())"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout) - t0


def _cal_mul(a: int, b: int) -> int:
    """Shift-and-add product in GF(2^19)."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> CAL_M:
            a ^= CAL_POLY
    return r


def calibration_seconds() -> float:
    """Seconds this machine takes, now, for CAL_STEPS fixed pure-Python products.

    The loop is the benchmark's own code, so no change to walsh-lab moves it.
    """
    t0 = time.perf_counter()
    y = 1
    for _ in range(CAL_STEPS):
        y = _cal_mul(y, CAL_FACTOR)
    return time.perf_counter() - t0


def execute(op, wl, tracer=None) -> Result:
    """Run one operation; only the call into walsh-lab is timed."""
    out, err = io.StringIO(), io.StringIO()
    arr = None
    sid = tracer.enter(tracing.ROOT) if tracer else None
    t0 = time.perf_counter()
    try:
        if op.argv:
            with redirect_stdout(out), redirect_stderr(err):
                code = wl.cli.main(list(op.argv))
        else:
            arr = wl.walsh_coefficients(wl.make_field(op.m, op.modulus), op.d)
            code = 0
    except Exception as exc:  # a crash fails this operation, not the run
        code = None
        err.write(repr(exc))
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.exit(sid)
    res = Result(seconds, code, out.getvalue(), err.getvalue())
    if arr is not None:
        values, counts = np.unique(arr, return_counts=True)
        res.entries = list(zip(values.tolist(), counts.tolist()))
        res.samples = [int(arr[a]) for a in op.points]
    return res


def run_passes(ops, wl, seconds: float, tracer=None, between=None,
               calibrate=False) -> list[list]:
    """Passes over the operation list until ``seconds`` have passed; at least one.

    With ``calibrate`` the calibration loop runs before the first operation
    and after every one, and each result's ``ref`` is the mean of the two
    loops around it.  ``between`` is called after that.
    """
    passes = []
    cal = calibration_seconds() if calibrate else None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        results = []
        for op in ops:
            res = execute(op, wl, tracer)
            if calibrate:
                after = calibration_seconds()
                res.ref = (cal + after) / 2
                cal = after
            results.append(res)
            if between:
                between()
        passes.append(results)
    return passes


def pass_wall(passes) -> float:
    """Wall seconds of the operation list: the sum of each operation's median.

    Medians of each operation over the passes shed the bursts in which other
    work on a shared machine slows every instruction.
    """
    return sum(statistics.median(p[i].seconds for p in passes) for i in range(len(passes[0])))


def pass_ref_wall(passes) -> float:
    """Wall seconds of the operation list at the reference machine speed.

    Each operation's median of its time over the calibration loops around
    it, summed, times CAL_REF_S.
    """
    return CAL_REF_S * sum(statistics.median(p[i].seconds / p[i].ref for p in passes)
                           for i in range(len(passes[0])))


def end_to_end_metrics(ref_wall: float, peak_rss_mb: float, setup: float) -> dict:
    return {"ref_wall_s": (ref_wall, "s"), "peak_rss_mb": (peak_rss_mb, "MiB"),
            "setup_s": (setup, "s")}


def layer_metrics(summary: dict, n_passes: int, wall: float, untraced: float) -> dict:
    """Per-layer figures per traced pass, by the names BENCHMARK.json lists."""
    def row(name):
        return summary.get(name, {})

    out = {}
    for name in LAYER_SPANS:
        for stat, unit in STAT_UNITS.items():
            out[f"{name}.{stat}"] = (row(name).get(stat, 0) / n_passes, unit)
    for name in PEAK_SPANS:
        out[f"{name}.peak_mb"] = (row(name).get("peak_mb", 0.0), "MiB")
    # every pass repeats the same inputs, so distinct keys are counted per pass
    calls = row("field.power_map").get("calls", 0)
    out["field.power_map.distinct_ratio"] = (
        row("field.power_map").get("distinct", 0) * n_passes / calls if calls else 0.0, "ratio")
    out["walsh.fwht.ops"] = (row("walsh.fwht").get("ops", 0) / n_passes, "count")
    out["walsh.fwht.bytes"] = (row("walsh.fwht").get("bytes", 0) / n_passes, "B")
    scan = row("cli.cmd_scan").get("busy_s", 0.0)
    check_busy = row("analysis.check_bound").get("busy_s", 0.0) \
        + row("analysis.check_sarwate").get("busy_s", 0.0)
    out["cli.cmd_scan.parallelism"] = (check_busy / scan if scan else 0.0, "ratio")
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_ratio"] = (wall / untraced, "ratio")
    return out


def _commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "walsh_lab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = _import_program()
    import workloads

    if args.workload not in workloads.WHY:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WHY)}")
    workload = workloads.build(args.workload, args.seed)
    ops = workload.ops

    setup: list[tuple[float, float]] = []  # (seconds, calibration seconds)
    if args.trace:
        # Untraced and traced passes alternate, so the overhead ratio compares
        # passes made under the same load.  Span overhead is small, but
        # tracemalloc slows allocating Python loops several times over: peaks
        # come from one more pass under it and times from the passes without.
        tracer = tracing.Tracer()
        untraced, timed = [], []
        start = time.perf_counter()
        while not timed or time.perf_counter() - start < args.seconds:
            untraced += run_passes(ops, wl, 0)
            with tracing.traced(tracer):
                timed += run_passes(ops, wl, 0, tracer)
        with tracing.traced(tracing.Tracer(), memory=True) as mem:
            everything = untraced + timed + run_passes(ops, wl, 0, mem)
    else:
        due = [0.0]

        def sample_setup():
            if time.perf_counter() >= due[0]:
                setup.append((setup_seconds(), calibration_seconds()))
                due[0] = time.perf_counter() + SETUP_EVERY

        timed = run_passes(ops, wl, args.seconds, between=sample_setup, calibrate=True)
        everything = timed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setup) < SETUP_SAMPLES:
            setup.append((setup_seconds(), calibration_seconds()))

    digests = checks.load_digests()
    oracles = {}
    for op in ops:
        if not op.argv:
            fld = wl.make_field(op.m, op.modulus)
            oracles[op] = {a: wl.walsh_coefficient(fld, op.d, a) for a in op.points}
    attempted = failed = wrong = 0
    report = []
    for i, op in enumerate(ops):
        found: dict[str, int] = {}
        for p in everything:
            res = p[i]
            probs = checks.problems(op, res, digests, oracles.get(op))
            attempted += 1
            if probs:
                failed += 1
                wrong += res.code == 0
            for msg in probs:
                found[msg] = found.get(msg, 0) + 1
        report.append({
            "op": op.label,
            "median_s": round(statistics.median(p[i].seconds for p in timed), 6),
            "problems": found,
        })

    threads = sorted({checks.scan_threads(p[i].out) for p in everything
                      for i, op in enumerate(ops) if op.command == "scan"} - {None})
    context = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "scan_threads": threads or None,
        "default_table_cap": wl.DEFAULT_TABLE_CAP,
        "moduli": {str(op.m): hex(op.modulus) for op in ops},
        "passes": len(timed),
        "wall_s": {"value": pass_wall(timed), "unit": "s"},
        "fail_frac": {"value": failed / attempted, "unit": "ratio"},
        "ops": report,
    }
    if args.trace:
        summary = tracer.summary()
        for name, row in mem.summary().items():
            summary.setdefault(name, {"calls": 0})["peak_mb"] = row["peak_mb"]
        metrics = layer_metrics(summary, len(timed), pass_wall(timed), pass_wall(untraced))
        context["spans"] = summary
    else:
        context["calibration_s"] = {
            "value": statistics.median(r.ref for p in timed for r in p), "unit": "s"}
        context["raw_setup_s"] = {"value": statistics.median(t for t, _ in setup), "unit": "s"}
        ref_setup = CAL_REF_S * statistics.median(t / cal for t, cal in setup)
        metrics = end_to_end_metrics(pass_ref_wall(timed), peak_rss_mb, ref_setup)
    print(json.dumps(context, sort_keys=True, default=str))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
