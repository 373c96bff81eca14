"""Opt-in runs at the large m the field supports; run with pytest -m slow."""

import json

import pytest

from walsh_lab import cli

pytestmark = pytest.mark.slow


def test_verify_todd_t13(capsys):
    # m = 26 is above the default table cap: the tableless route end to end
    code = cli.main(["verify", "--theorem", "todd", "--t", "13"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["m"] == 26 and payload["meta"]["equal"] is True


def test_identities_m26(capsys):
    # M_b by coset sums is O(q), like the spectrum path
    code = cli.main(["identities", "--m", "26", "--d", "5"])
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert code == 0
    assert meta["lemma"] == {"square_sum_residual": 0, "sum_residual": 0}
    assert meta["weighted"] == {"checked": (1 << 13) - 1, "max_abs_residual": 0}
    assert meta["square"] == {"coset_residual": 0, "total_residual": 0}


def test_verify_teven_t14(capsys):
    # m = 28, the largest table the field supports: the seven-valued spectrum
    # at t = 14, about 30 s and 2.6 GiB
    code = cli.main(["verify", "--theorem", "teven", "--t", "14"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["m"] == 28 and payload["meta"]["equal"] is True
