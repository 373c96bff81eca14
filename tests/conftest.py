import random

import pytest

from walsh_lab import DomainError, Field, make_field


@pytest.fixture(scope="session")
def field4():
    return make_field(4)


@pytest.fixture(scope="session")
def field6():
    return make_field(6)


@pytest.fixture(scope="session")
def field8():
    return make_field(8)


@pytest.fixture(scope="session")
def field12():
    return make_field(12)


@pytest.fixture(scope="session")
def random_modulus():
    """random_modulus(m, rng): a random degree-m modulus that Field accepts as primitive."""

    def pick(m: int, rng: random.Random) -> int:
        while True:
            cand = (1 << m) | (rng.getrandbits(m - 1) << 1) | 1
            try:
                Field(m, cand, table_cap=1)
            except DomainError:
                continue
            return cand

    return pick
