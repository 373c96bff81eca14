"""Opt-in runs at the large m the guards promise; run with pytest -m slow."""

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
