"""Golden outputs: the exact stdout bytes and exit code of a fixed grid of CLI
calls, one call per subcommand at small m plus the identities cases at
m = 10 and 12.  A call with --format csv is pinned in a .csv file.

Each file under tests/golden/ was written by the CLI before the change that
needed it; any change to them is a change of the output contract.
"""

import json
from pathlib import Path

import pytest

from walsh_lab import cli

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, exit code)
CALLS = {
    "spectrum_m6_d19": (["spectrum", "--m", "6", "--d", "19"], 0),
    "spectrum_m6_d19_csv": (["spectrum", "--m", "6", "--d", "19", "--format", "csv"], 0),
    # gcd(3, 63) = 3: meta.coprime is false
    "spectrum_m6_d3": (["spectrum", "--m", "6", "--d", "3"], 0),
    "weights_m6_d19": (["weights", "--m", "6", "--d", "19"], 0),
    # 8 = 2^3: conjugate nonzeros, the degenerate code
    "weights_m6_d8": (["weights", "--m", "6", "--d", "8"], 0),
    "verify_todd_t3": (["verify", "--theorem", "todd", "--t", "3"], 0),
    "verify_teven_t6": (["verify", "--theorem", "teven", "--t", "6"], 0),
    "census_t6": (["census", "--t", "6"], 0),
    # outside the closed form's regime, with zero-count classes 1 and 6
    "census_t5": (["census", "--t", "5"], 0),
    "scan_m8_sarwate": (["scan", "--m", "8", "--check", "sarwate", "--threads", "1"], 0),
    "scan_m8_bound": (["scan", "--m", "8", "--check", "bound", "--threads", "1"], 0),
    "identities_m6_d19": (["identities", "--m", "6", "--d", "19"], 0),
    # odd m: the lemma only, square is null
    "identities_m5_d3": (["identities", "--m", "5", "--d", "3"], 0),
    "identities_m10_d67": (["identities", "--m", "10", "--d", "67"], 0),
    "identities_m12_d131": (["identities", "--m", "12", "--d", "131"], 0),
    # gcd(7, 2^6 - 1) = 7: the square identities' hypothesis fails and the
    # command reports the failure.
    "identities_m12_d7": (["identities", "--m", "12", "--d", "7"], 1),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_stdout_and_exit_code(name, capsys):
    argv, expected_code = CALLS[name]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == expected_code
    assert captured.err == ""
    suffix = "csv" if argv[-2:] == ["--format", "csv"] else "json"
    assert captured.out.encode() == (GOLDEN / f"{name}.{suffix}").read_bytes()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_second_call_in_the_process_is_identical(name, capsys):
    # main reuses one parser for the process; a second call must not differ
    argv, expected_code = CALLS[name]
    first = cli.main(argv), capsys.readouterr()
    second = cli.main(argv), capsys.readouterr()
    assert second == first
    assert first[0] == expected_code


def test_square_residuals_of_the_known_failure(capsys):
    assert cli.main(CALLS["identities_m12_d7"][0]) == 1
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert meta["square"] == {"coset_residual": -6912, "total_residual": -442368}
    assert meta["weighted"] == {"checked": 63, "max_abs_residual": 0}
    assert meta["lemma"] == {"square_sum_residual": 0, "sum_residual": 0}
