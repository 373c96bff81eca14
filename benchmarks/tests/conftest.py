import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

WALSH_LAB = run._import_program()


@pytest.fixture(scope="session")
def wl():
    return WALSH_LAB
