"""Opt-in runs at the large m the field supports; run with pytest -m slow."""

import json

import numpy as np
import pytest

from walsh_lab import cli, family_spectrum, make_field, predicted_spectrum, walsh_spectrum

pytestmark = pytest.mark.slow


def _three_routes_agree(t):
    # the butterfly over GF(2^2t) is the fibre route's oracle; verify runs
    # only the fibre route
    pred = predicted_spectrum(t)
    assert walsh_spectrum(make_field(2 * t), pred.d) == pred
    assert family_spectrum(make_field(t)) == pred


def test_verify_todd_t13():
    # m = 26 is above the default table cap: the tableless butterfly, about
    # 6 s and 0.4 GiB peak RSS
    _three_routes_agree(13)


def test_identities_m26(capsys):
    # M_b by coset sums is O(q), like the spectrum path
    code = cli.main(["identities", "--m", "26", "--d", "5"])
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert code == 0
    assert meta["lemma"] == {"square_sum_residual": 0, "sum_residual": 0}
    assert meta["weighted"] == {"checked": (1 << 13) - 1, "max_abs_residual": 0}
    assert meta["square"] == {"coset_residual": 0, "total_residual": 0}


def test_verify_teven_t14():
    # m = 28, the largest GF(2^m) the field supports: the seven-valued
    # spectrum at t = 14 by the butterfly, about 19 s and 1.3 GiB peak RSS
    _three_routes_agree(14)


@pytest.mark.parametrize("theorem,t", [("teven", 22), ("todd", 23)])
def test_verify_beyond_the_butterfly(capsys, theorem, t):
    # m = 44 and 46: only L = GF(2^t) is built, so there is no modulus to report
    code = cli.main(["verify", "--theorem", theorem, "--t", str(t)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (payload["m"], payload["poly"]) == (2 * t, None)
    assert payload["meta"]["equal"] is True


def _times(f, x, c):
    """x * c for the int32 array x, by vectorized shift-and-reduce."""
    acc, x = np.zeros_like(x), x.copy()
    while c:
        if c & 1:
            acc ^= x
        c >>= 1
        x = (x << 1) ^ (x >> (f.m - 1)) * f.modulus
    return acc


@pytest.mark.parametrize("m", [25, 26, 27, 28])
def test_row_stream_samples_without_tables(m):
    # the first, a middle and the last block of the walk over alpha^(7i),
    # plain and dual, against geometric(alpha^7, 2^16) times alpha^(7 lo);
    # about 1 s of walk and 8 MiB of row tables at m = 28
    f = make_field(m, table_cap=1)
    size, n = 1 << 16, f.order
    c = f.exp(7)
    last = (n - 1) // size
    picked = {0: None, last // 2: None, last: None}
    for dual in (False, True):
        for k, block in enumerate(f.power_blocks(7, size, dual)):
            if k in picked:
                want = _times(f, f.geometric(c, min(size, n - k * size)), f.exp(7 * k * size))
                assert np.array_equal(block, f.dual_indices(want) if dual else want), (m, k, dual)
                picked[k] = dual
        assert k == last and all(v is dual for v in picked.values())
