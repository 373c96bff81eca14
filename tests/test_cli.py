"""CLI behavior: exit codes, canonical JSON, CSV layout, guards, env wiring."""

import json

import pytest

from walsh_lab import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    return json.loads(out)


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

    def test_wrong_regime_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "teven", "--t", "3")
        assert code == 2
        assert json.loads(err)["kind"] == "usage"


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
        # gcd(259, 2^16 - 1) = gcd(259, 2^8 - 1) = 1, and m = 16 is within the
        # square-sum guard
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

    def test_resource_guard(self, capsys):
        code, _, err = run(capsys, "spectrum", "--m", "30", "--d", "3")
        assert code == 3
        assert json.loads(err)["kind"] == "resource"

    def test_guard_override_hits_hard_limit(self, capsys):
        # --force skips the guard, after which the field layer itself refuses
        code, _, err = run(capsys, "spectrum", "--m", "30", "--d", "3", "--force")
        assert code == 2

    def test_identities_square_guard(self, capsys):
        code, _, err = run(capsys, "identities", "--m", "18", "--d", "5")
        assert code == 3
        assert json.loads(err)["kind"] == "resource"

    def test_identities_guard_names_the_command(self, capsys):
        code, out, err = run(capsys, "identities", "--m", "18", "--d", "5")
        assert code == 3 and out == ""
        message = json.loads(err)["error"]
        assert message.startswith("identities for even m at m = 18")
        assert "square-sum" not in message

    def test_bad_poly(self, capsys):
        code, _, err = run(capsys, "spectrum", "--m", "6", "--d", "19",
                           "--poly", "0x45")
        assert code == 2

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "walsh-lab" in out
