"""The benchmark's own tests, on the small-m version of every workload.

    python3 -m pytest benchmarks/tests -q
"""

import functools
import inspect
import json
import math
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

WORKLOADS = sorted(workloads.WHY)
SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
# Layers from the outside in: a span's parent is never deeper than the span.
DEPTH = {"bench": 0, "cli": 1, "analysis": 2, "code": 2, "predict": 2, "walsh": 3, "field": 4}


def small(name, seed=0):
    return workloads.build(name, seed, "small")


def bindings(wl):
    owners = [wl, *(getattr(wl, m) for m in tracing.MODULES), wl.field.Field]
    return {(id(o), a): v for o in owners for a, v in vars(o).items() if inspect.isfunction(v)}


def traced_pass(wl, name):
    with tracing.traced(tracing.Tracer()) as tracer:
        results = [run.execute(op, wl, tracer) for op in small(name).ops]
    return tracer, results


def test_wrappers_are_installed_and_restored(wl):
    before = bindings(wl)
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        during = bindings(wl)
        changed = {k for k in before if during[k] is not before[k]}
        methods = {a for o, a, _ in saved if o is wl.field.Field}
    finally:
        tracing.restore(saved)
    assert bindings(wl) == before
    assert all(during[k] is before[k] for k in before if k not in changed)
    assert len(changed) == len(saved)
    assert "power_map" in methods and not methods & tracing.SCALAR_METHODS
    # cli's own import of walsh_spectrum is wrapped, not just the home module's
    assert wl.cli.walsh_spectrum is before[(id(wl.cli), "walsh_spectrum")]
    assert (id(wl.cli), "walsh_spectrum") in changed


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_nest_from_cli_inwards(wl, name):
    tracer, _ = traced_pass(wl, name)
    spans = tracer.spans
    assert spans, name
    roots = [s for s in spans if s.parent is None]
    assert roots and all(s.name == tracing.ROOT for s in roots)
    assert len(roots) == len(small(name).ops)
    for s in spans:
        if s.parent is not None:
            parent = spans[s.parent]
            assert DEPTH[parent.name.split(".")[0]] <= DEPTH[s.name.split(".")[0]], \
                (parent.name, s.name)
            assert parent.start <= s.start and s.end <= parent.end
    assert {s.name.split(".")[0] for s in spans} >= {"bench", "walsh", "field"}


def test_scan_worker_spans_attach_to_the_cli_span(wl):
    op = workloads._cli(workloads.Inputs(0), "scan", 6, None,
                        ["--m", "6", "--threads", "2", "--check", "sarwate"])
    with tracing.traced(tracing.Tracer()) as tracer:
        assert run.execute(op, wl, tracer).code == 0
    spans = tracer.spans
    checks_seen = [s for s in spans if s.name.startswith("analysis.check_")]
    assert checks_seen
    assert all(spans[s.parent].name == "cli.cmd_scan" for s in checks_seen)


@pytest.mark.parametrize("name", ["table-field", "tableless-field", "subfield-identities"])
def test_self_times_add_up_to_each_operation(wl, name):
    tracer, _ = traced_pass(wl, name)
    summary = tracer.summary()
    total_self = sum(row["self_s"] for row in summary.values())
    assert math.isclose(total_self, summary[tracing.ROOT]["busy_s"], rel_tol=1e-9)


def test_memory_pass_records_peaks(wl):
    with tracing.traced(tracing.Tracer(), memory=True) as tracer:
        for op in small("table-field").ops:
            run.execute(op, wl, tracer)
    summary = tracer.summary()
    assert summary["walsh.fwht"]["peak_mb"] > 0
    assert summary["field.make_field"]["peak_mb"] > 0


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_pass_their_checks(wl, name, seed):
    digests = checks.load_digests()
    for op in small(name, seed).ops:
        res = run.execute(op, wl)
        oracle = None
        if not op.argv:
            fld = wl.make_field(op.m, op.modulus)
            oracle = {a: wl.walsh_coefficient(fld, op.d, a) for a in op.points}
        found = checks.problems(op, res, digests, oracle)
        if (op.command, op.m, op.d) == ("identities", 12, 7):
            # the known square-sum defect: exit 1, counted as failed like any other
            assert res.code == 1 and found
        else:
            assert found == [], (op.label, found)


def test_seed_changes_inputs_not_results(wl):
    a, b = small("table-field", 0), small("table-field", 3)
    assert [op.key for op in a.ops] == [op.key for op in b.ops]
    assert [op.modulus for op in a.ops] != [op.modulus for op in b.ops]
    assert workloads.build("table-field", 3, "small") == b


def _corrupt_json(out, edit):
    payload = json.loads(out)
    edit(payload)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def test_corrupted_output_counts_as_failed(wl):
    digests = checks.load_digests()
    ops = {op.command: op for op in small("table-field").ops}
    op = ops["verify"]
    res = run.execute(op, wl)
    assert checks.problems(op, res, digests) == []

    def bump(payload):
        payload["entries"][0]["count"] += 1
        payload["entries"][-1]["count"] -= 1

    res.out = _corrupt_json(res.out, bump)
    assert checks.problems(op, res, digests)

    op = ops["walsh_coefficients"]
    res = run.execute(op, wl)
    fld = wl.make_field(op.m, op.modulus)
    oracle = {a: wl.walsh_coefficient(fld, op.d, a) for a in op.points}
    assert checks.problems(op, res, digests, oracle) == []
    res.samples[1] += 4
    assert checks.problems(op, res, digests, oracle)

    op = small("exponent-sweep").ops[0]
    res = run.execute(op, wl)
    res.out = _corrupt_json(res.out, lambda p: p["meta"].update(all_hold=False))
    assert checks.problems(op, res, digests)


def test_identity_marked_inapplicable_is_not_checked():
    op = small("subfield-identities").ops[1]
    meta = {"lemma": {"sum_residual": 0, "square_sum_residual": 0},
            "square": {"applicable": False, "total_residual": -442368}}
    assert checks._cli_problems(op, {"meta": meta, "entries": []}) == []
    meta["square"]["applicable"] = True
    assert checks._cli_problems(op, {"meta": meta, "entries": []})


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(wl, monkeypatch, capsys, trace, section):
    monkeypatch.setattr(workloads, "build", functools.partial(workloads.build, size="small"))
    assert run.main(["--workload", "exponent-sweep", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    context = json.loads(lines[-2])
    assert context["scan_threads"] and context["default_table_cap"] == wl.DEFAULT_TABLE_CAP


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WHY)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in SPEC["workloads"])
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]


def test_ref_wall_follows_the_program_not_the_machine():
    def passes(op_seconds, cal_seconds):
        return [[checks.Result(s, 0, ref=cal_seconds) for s in op_seconds]] * 3

    base = run.pass_ref_wall(passes([0.5, 1.5], 0.02))
    assert math.isclose(base, run.CAL_REF_S * 100)
    # a machine half as fast slows the operations and the loop alike
    assert math.isclose(run.pass_ref_wall(passes([1.0, 3.0], 0.04)), base)
    # a slower program on the same machine shows
    assert math.isclose(run.pass_ref_wall(passes([1.0, 3.0], 0.02)), 2 * base)
