"""CLI behavior: exit codes, canonical JSON, CSV layout, the field range, env wiring."""

import json
from pathlib import Path

import numpy as np
import pytest

from walsh_lab import analysis, cli, make_field
from walsh_lab.analysis import check_exponents
from walsh_lab.errors import DomainError
from walsh_lab.walsh import sign_transforms, walsh_coefficients_at

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    return json.loads(out)


COMMANDS = ["spectrum", "weights", "scan", "identities", "verify", "census"]

# one small call per command, in COMMANDS order
SMALL_CALLS = [
    ("spectrum", "--m", "6", "--d", "19"),
    ("weights", "--m", "6", "--d", "19"),
    ("scan", "--m", "6", "--check", "bound"),
    ("identities", "--m", "6", "--d", "19"),
    ("verify", "--theorem", "todd", "--t", "3"),
    ("census", "--t", "6"),
]


class TestSpectrumCommand:
    def test_reference_payload(self, capsys):
        code, out, err = run(capsys, "spectrum", "--m", "6", "--d", "19")
        assert code == 0 and err == ""
        payload = parse(out)
        assert payload["m"] == 6 and payload["d"] == 19
        assert payload["poly"] == "0x43"
        assert payload["kind"] == "spectrum"
        assert payload["entries"] == [
            {"count": 6, "value": -16},
            {"count": 48, "value": 0},
            {"count": 10, "value": 16},
        ]
        assert payload["meta"]["coprime"] is True
        assert payload["meta"]["degenerate"] is False

    def test_json_is_canonical(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--m", "6", "--d", "19")
        rebuilt = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
        assert out == rebuilt

    def test_csv_layout(self, capsys):
        from walsh_lab import __version__

        _, out, _ = run(capsys, "spectrum", "--m", "6", "--d", "19", "--format", "csv")
        assert out == (
            f"# m=6 d=19 poly=0x43 kind=spectrum version={__version__}\n"
            "value,count\n-16,6\n0,48\n16,10\n"
        )

    def test_t_flag_is_half_degree(self, capsys):
        _, via_m, _ = run(capsys, "spectrum", "--m", "6", "--d", "19")
        _, via_t, _ = run(capsys, "spectrum", "--t", "3", "--d", "19")
        assert via_m == via_t

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "spec.json"
        code, out, _ = run(capsys, "spectrum", "--m", "6", "--d", "19",
                           "--output", str(target))
        assert code == 0 and out == ""
        _, direct, _ = run(capsys, "spectrum", "--m", "6", "--d", "19")
        assert target.read_text() == direct

    def test_poly_override(self, capsys):
        # x^6 + x^5 + 1 is also primitive over GF(2)
        code, out, _ = run(capsys, "spectrum", "--m", "6", "--d", "19", "--poly", "0x61")
        assert code == 0
        payload = parse(out)
        assert payload["poly"] == "0x61"
        # spectrum is basis independent
        assert payload["entries"] == [
            {"count": 6, "value": -16},
            {"count": 48, "value": 0},
            {"count": 10, "value": 16},
        ]


class TestWeightsCommand:
    def test_reference_payload(self, capsys):
        code, out, _ = run(capsys, "weights", "--m", "6", "--d", "19")
        assert code == 0
        payload = parse(out)
        assert payload["entries"] == [
            {"count": 1, "value": 0},
            {"count": 630, "value": 24},
            {"count": 3087, "value": 32},
            {"count": 378, "value": 40},
        ]
        assert payload["meta"]["min_distance"] == 24
        assert payload["meta"]["total_codewords"] == 4096

    def test_degenerate_flagged(self, capsys):
        code, out, _ = run(capsys, "weights", "--m", "6", "--d", "8")
        assert code == 0
        assert parse(out)["meta"]["degenerate"] is True


class TestVerifyCommand:
    def test_odd_regime(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "todd", "--t", "3")
        assert code == 0
        payload = parse(out)
        assert payload["meta"]["equal"] is True
        assert payload["meta"]["diff"] == []
        assert payload["d"] == 19

    def test_even_regime(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "teven", "--t", "6")
        assert code == 0
        assert parse(out)["meta"]["equal"] is True

    @pytest.mark.parametrize("theorem,t", [("todd", 9), ("teven", 10)])
    def test_closed_forms_above_the_butterfly_block(self, capsys, theorem, t):
        # m = 18 and 20 take the blocked butterfly's whole-array stages
        code, out, _ = run(capsys, "verify", "--theorem", theorem, "--t", str(t))
        payload = parse(out)
        assert code == 0
        assert payload["m"] == 2 * t and payload["meta"]["equal"] is True

    def test_wrong_regime_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "teven", "--t", "3")
        assert code == 2
        assert json.loads(err)["kind"] == "usage"

    @pytest.mark.parametrize("theorem", ["todd", "teven"])
    @pytest.mark.parametrize("t", [29, 20000001])
    def test_field_range_is_checked_before_the_closed_form(self, capsys, monkeypatch,
                                                           theorem, t):
        # the closed forms compute with 2^(2t)-sized integers; above t = 14
        # the range checked is that of L = GF(2^t)
        def predicted(*args):
            raise AssertionError("verify built a closed form outside the field range")

        monkeypatch.setattr(cli, "predicted_spectrum_t_odd", predicted)
        monkeypatch.setattr(cli, "predicted_spectrum_t_even", predicted)
        code, out, err = run(capsys, "verify", "--theorem", theorem, "--t", str(t))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": f"m must be in [2, 28], got {t}",
                                   "kind": "usage"}

    @pytest.mark.parametrize("theorem,t", [("todd", 15), ("teven", 18)])
    def test_closed_forms_above_the_butterfly_range(self, capsys, theorem, t):
        # m = 30 and 36: GF(2^2t) is never built, so there is no modulus to report
        code, out, _ = run(capsys, "verify", "--theorem", theorem, "--t", str(t))
        payload = parse(out)
        assert code == 0
        assert (payload["m"], payload["poly"]) == (2 * t, None)
        assert payload["meta"]["equal"] is True and payload["meta"]["diff"] == []

    def test_poly_above_the_butterfly_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--theorem", "todd", "--t", "15",
                             "--poly", "0x40000003")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "--poly names a modulus of GF(2^2t), which verify builds only "
                     "for t <= 14; got t = 15",
            "kind": "usage"}

    def test_spectrum_is_computed_in_the_half_degree_field(self, capsys, monkeypatch):
        # GF(2^2t) is built once, without tables, only to check --poly
        built = []

        def tracked(m, modulus=None, table_cap=cli.DEFAULT_TABLE_CAP):
            built.append((m, table_cap))
            return make_field(m, modulus, table_cap)

        monkeypatch.setattr(cli, "make_field", tracked)
        code, out, _ = run(capsys, "verify", "--theorem", "teven", "--t", "10",
                           "--table-cap", "512")
        assert code == 0 and parse(out)["poly"] == "0x100009"
        assert sorted(built) == [(10, 512), (20, 1)]


class TestCensusCommand:
    def test_t6(self, capsys):
        code, out, _ = run(capsys, "census", "--t", "6")
        assert code == 0
        payload = parse(out)
        assert payload["entries"] == [
            {"count": 21, "value": 0},
            {"count": 26, "value": 1},
            {"count": 16, "value": 2},
            {"count": 1, "value": 6},
        ]
        assert payload["meta"]["closed_form_match"] is True

    def test_outside_regime_reports_without_failing(self, capsys):
        code, out, _ = run(capsys, "census", "--t", "5")
        assert code == 0
        payload = parse(out)
        assert payload["meta"]["closed_form"] is None
        assert payload["meta"]["closed_form_match"] is None


class TestScanCommand:
    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "scan", "--m", "6", "--check", "sarwate",
                           "--threads", "2")
        assert code == 0
        payload = parse(out)
        assert payload["meta"]["scanned"] == 36
        assert payload["meta"]["all_hold"] is True
        assert payload["meta"]["failures"] == []
        assert all(e["count"] == 1 for e in payload["entries"])

    def test_env_thread_default(self, capsys, monkeypatch):
        monkeypatch.setenv("WALSH_LAB_THREADS", "3")
        code, out, _ = run(capsys, "scan", "--m", "6", "--check", "bound")
        assert code == 0
        assert parse(out)["meta"]["threads"] == 3

    def test_bad_env_thread_count(self, capsys, monkeypatch):
        # every input is refused before a pool is made, so none starts a thread
        for bad in ("zero", "0", "-1"):
            monkeypatch.setenv("WALSH_LAB_THREADS", bad)
            code, _, err = run(capsys, "scan", "--m", "6", "--check", "bound")
            assert code == 2
            assert json.loads(err)["kind"] == "usage"
        monkeypatch.delenv("WALSH_LAB_THREADS")
        for bad in ("0", "-1"):
            code, _, err = run(capsys, "scan", "--m", "6", "--check", "bound", "--threads", bad)
            assert code == 2
            assert json.loads(err)["kind"] == "usage"

    def test_odd_m_is_refused_before_any_exponent_is_listed(self, capsys, monkeypatch):
        def listed(*args):
            raise AssertionError("scan listed an exponent for odd m")

        monkeypatch.setattr(cli, "gcd", listed)
        code, out, err = run(capsys, "scan", "--m", "9", "--check", "bound", "--threads", "1")
        assert (code, out) == (2, "")
        assert err == '{"error": "operation needs m = 2t, but m = 9 is odd", "kind": "usage"}\n'

    def test_odd_m_is_refused_before_the_field_is_built(self, capsys, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("scan built a field for odd m")

        monkeypatch.setattr(cli, "make_field", built)
        code, out, err = run(capsys, "scan", "--m", "21", "--check", "bound", "--threads", "1")
        assert (code, out) == (2, "")
        assert err == '{"error": "operation needs m = 2t, but m = 21 is odd", "kind": "usage"}\n'

    @pytest.mark.parametrize("check", ["bound", "sarwate"])
    @pytest.mark.parametrize("m", [8, 10, 12])
    def test_pool_and_tableless_field_print_the_same(self, capsys, m, check):
        # the blocks of exponents give one result per exponent in order,
        # whichever thread runs them and with or without log tables
        argv = ["scan", "--m", str(m), "--check", check, "--threads"]
        code, serial, _ = run(capsys, *argv, "1")
        assert code == 0
        code, pooled, _ = run(capsys, *argv, "2")
        assert code == 0
        one, two = parse(serial), parse(pooled)
        assert (one["meta"].pop("threads"), two["meta"].pop("threads")) == (1, 2)
        assert one == two
        assert run(capsys, *argv, "1", "--table-cap", "1") == (0, serial, "")

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("m, pairs", [(8, 16), (10, 60), (12, 144)])
    def test_one_oracle_pair_per_coset(self, capsys, monkeypatch, m, pairs, threads):
        # W_d(a) = W_2d(a): a full Sarwate scan sums phi(2^m - 1) / m pairs,
        # one per coset {d * 2^j}, not one per witness
        summed = []

        def counted(field, ds, points):
            summed.extend(zip(ds, points))
            return walsh_coefficients_at(field, ds, points)

        monkeypatch.setattr(analysis, "walsh_coefficients_at", counted)
        argv = ["scan", "--m", str(m), "--check", "sarwate", "--threads", threads]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and parse(out)["meta"]["scanned"] == pairs * m
        assert len(summed) == len(set(summed)) == pairs

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_workers_take_whole_cosets(self, capsys, monkeypatch, threads):
        calls = []

        def recorded(field, ds, check):
            calls.append(list(ds))
            return check_exponents(field, ds, check)

        monkeypatch.setattr(cli, "check_exponents", recorded)
        code, out, _ = run(capsys, "scan", "--m", "10", "--check", "sarwate",
                           "--threads", threads)
        assert code == 0
        ds = [e["value"] for e in parse(out)["entries"]]
        if threads == "1":
            assert calls == [ds]
            return
        # the pool stays parallel, and no coset is split between workers
        assert len(calls) == 2
        assert sorted(d for chunk in calls for d in chunk) == ds
        for chunk in calls:
            assert chunk == sorted(chunk)
            assert {2 * d % 1023 for d in chunk} == set(chunk)

    @pytest.mark.parametrize("threads", [2, 64, 10**6])
    def test_pool_is_capped_by_the_cosets(self, capsys, monkeypatch, threads):
        # m = 10 has 60 cosets: a pool of N gets min(N, 60) workers and one
        # non-empty group each.  The stand-in runs every group on the calling
        # thread, so a large N starts no thread.
        requested, calls = [], []

        class Inline:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        def recorded(field, ds, check):
            calls.append(list(ds))
            return check_exponents(field, ds, check)

        argv = ["scan", "--m", "10", "--check", "sarwate", "--threads"]
        code, serial, _ = run(capsys, *argv, "1")
        assert code == 0
        monkeypatch.setattr(cli, "ThreadPoolExecutor", Inline)
        monkeypatch.setattr(cli, "check_exponents", recorded)
        code, pooled, _ = run(capsys, *argv, str(threads))
        assert code == 0
        assert requested == [min(threads, 60)]
        assert len(calls) == min(threads, 60) and all(calls)
        one, many = parse(serial), parse(pooled)
        assert (one["meta"].pop("threads"), many["meta"].pop("threads")) == (1, threads)
        assert one == many

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_wrong_row_off_the_coset_leader_is_caught(self, monkeypatch, threads):
        # d = 14 shares its coset, and so its oracle pair, with 7; a butterfly
        # value of 14 that disagrees with 7's must still raise
        m, rep = 10, 7
        d = 2 * rep % 1023
        bumped = []

        def faulty(field, block):
            arr = sign_transforms(field, block)
            for k, e in enumerate(block):
                if e == d:
                    u = int(np.argmax(arr[k, 1:] >= 1 << (m // 2 + 1))) + 1
                    arr[k, u] += 4
                    bumped.append(u)
            return arr

        monkeypatch.setattr(analysis, "sign_transforms", faulty)
        with pytest.raises(RuntimeError, match="disagrees with the oracle"):
            cli.main(["scan", "--m", str(m), "--check", "sarwate", "--threads", threads])
        assert len(bumped) == 1

    def test_explicit_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WALSH_LAB_THREADS", "3")
        code, out, _ = run(capsys, "scan", "--m", "6", "--check", "bound",
                           "--threads", "1")
        assert code == 0
        assert parse(out)["meta"]["threads"] == 1


class TestIdentitiesCommand:
    def test_even_degree_runs_all_parts(self, capsys):
        code, out, _ = run(capsys, "identities", "--m", "6", "--d", "19")
        assert code == 0
        meta = parse(out)["meta"]
        assert meta["lemma"] == {"square_sum_residual": 0, "sum_residual": 0}
        assert meta["weighted"] == {"checked": 7, "max_abs_residual": 0}
        assert meta["square"] == {"coset_residual": 0, "total_residual": 0}

    def test_m16_runs_without_force(self, capsys):
        # gcd(259, 2^16 - 1) = gcd(259, 2^8 - 1) = 1, so the square
        # identities apply
        code, out, _ = run(capsys, "identities", "--m", "16", "--d", "259")
        assert code == 0
        meta = parse(out)["meta"]
        assert meta["lemma"] == {"square_sum_residual": 0, "sum_residual": 0}
        assert meta["weighted"] == {"checked": 255, "max_abs_residual": 0}
        assert meta["square"] == {"coset_residual": 0, "total_residual": 0}

    def test_odd_degree_runs_lemma_only(self, capsys):
        code, out, _ = run(capsys, "identities", "--m", "5", "--d", "3")
        assert code == 0
        meta = parse(out)["meta"]
        assert meta["lemma"]["sum_residual"] == 0
        assert meta["weighted"] is None and meta["square"] is None


class TestErrorsAndGuards:
    def test_conflicting_m_and_t(self, capsys):
        code, _, err = run(capsys, "spectrum", "--m", "6", "--t", "4", "--d", "19")
        assert code == 2
        assert json.loads(err)["kind"] == "usage"

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "spectrum", "--m", "6")
        assert code == 2
        assert json.loads(err)["kind"] == "usage"

    def test_noncoprime_weights(self, capsys):
        code, _, err = run(capsys, "weights", "--m", "6", "--d", "3")
        assert code == 2
        assert json.loads(err)["kind"] == "usage"

    def test_identities_m18_runs_without_force(self, capsys):
        # identities is bounded by the field's range alone, like every other command
        code, out, _ = run(capsys, "identities", "--m", "18", "--d", "5")
        assert code == 0
        meta = parse(out)["meta"]
        assert meta["lemma"] == {"square_sum_residual": 0, "sum_residual": 0}
        assert meta["weighted"] == {"checked": 511, "max_abs_residual": 0}
        assert meta["square"] == {"coset_residual": 0, "total_residual": 0}

    @pytest.mark.parametrize("argv,m", [
        (("spectrum", "--m", "30", "--d", "3"), 30),
        (("weights", "--m", "30", "--d", "3"), 30),
        (("scan", "--m", "30", "--check", "bound"), 30),
        (("identities", "--m", "30", "--d", "5"), 30),
        (("verify", "--theorem", "todd", "--t", "29"), 29),
        (("census", "--t", "29"), 29),
    ], ids=COMMANDS)
    def test_field_range_is_the_one_refusal(self, capsys, argv, m):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": f"m must be in [2, 28], got {m}",
                                   "kind": "usage"}

    @pytest.mark.parametrize("argv", SMALL_CALLS, ids=COMMANDS)
    def test_force_is_an_unknown_flag(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--force")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "unrecognized arguments: --force",
                                   "kind": "usage"}

    def test_bad_poly(self, capsys):
        # 0x45 is not primitive; -0x43 has no degree at all
        for poly in ("0x45", "-0x43"):
            code, out, err = run(capsys, "spectrum", "--m", "6", "--d", "19",
                                 f"--poly={poly}")
            assert code == 2 and out == ""
            assert json.loads(err)["kind"] == "usage"

    def test_unwritable_output(self, capsys, tmp_path):
        # exit 1 means a failed verification, so a file error is a usage error
        for target in (tmp_path, tmp_path / "missing" / "spec.json"):
            code, out, err = run(capsys, "spectrum", "--m", "6", "--d", "19",
                                 "--output", str(target))
            assert code == 2 and out == ""
            assert json.loads(err)["kind"] == "usage"

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "walsh-lab" in out


class TestParserReuse:
    """main builds its parser on the first call and reuses it for the
    process; the command function and what it calls are looked up per call."""

    def test_parser_is_built_once(self, capsys, monkeypatch):
        builds = []
        build = cli.build_parser

        def counted():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for argv in [*SMALL_CALLS, ("spectrum", "--m", "6"), ("--version",)]:
                run(capsys, *argv)
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize("first", [
        ("spectrum", "--m", "6"),
        ("identities", "--m", "12", "--d", "131", "--force"),
        ("--version",),
        ("--help",),
        ("identities", "--help"),
    ], ids=["missing-flag", "unknown-flag", "version", "help", "command-help"])
    def test_call_after_an_early_exit_matches_the_golden_file(self, capsys, first):
        # the early exit repeats byte for byte, and leaves nothing behind
        # in the parser for the next call to see
        before = run(capsys, *first)
        assert run(capsys, *first) == before
        assert before[0] == (0 if first[-1] in ("--version", "--help") else 2)
        code, out, err = run(capsys, "identities", "--m", "12", "--d", "131")
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN / "identities_m12_d131.json").read_bytes()

    @pytest.mark.parametrize("argv", SMALL_CALLS, ids=COMMANDS)
    def test_replaced_command_runs(self, capsys, monkeypatch, argv):
        run(capsys, *argv)
        seen = []

        def replaced(args):
            seen.append(args.command)
            return 7

        monkeypatch.setattr(cli, f"cmd_{argv[0]}", replaced)
        assert run(capsys, *argv) == (7, "", "")
        assert seen == [argv[0]]

    def test_replaced_make_field_runs(self, capsys, monkeypatch):
        run(capsys, "spectrum", "--m", "6", "--d", "19")

        def replaced(*args, **kwargs):
            raise DomainError("replaced make_field")

        monkeypatch.setattr(cli, "make_field", replaced)
        code, out, err = run(capsys, "spectrum", "--m", "6", "--d", "19")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "replaced make_field", "kind": "usage"}
