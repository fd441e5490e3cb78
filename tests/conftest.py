import os

import pytest

from plaid.cli import golden_dir
from plaid.params import make_param


def golden_path(name: str) -> str:
    return os.path.join(golden_dir(), name)


@pytest.fixture(scope="session")
def p12():
    return make_param(1, 2)


@pytest.fixture(scope="session")
def p25():
    return make_param(2, 5)


@pytest.fixture(scope="session")
def p38():
    return make_param(3, 8)
