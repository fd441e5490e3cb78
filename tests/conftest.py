import os

import pytest

from plaid.cli import golden_dir
from plaid.grid import STEPS
from plaid.params import make_param


def golden_path(name: str) -> str:
    return os.path.join(golden_dir(), name)


def mutant_cover_step(param, cell, edge):
    """pet.cover_step with the fold k added to the i1 shift, not subtracted:
    a planted fault that the conjugacy checks must catch."""
    w, p2 = param.omega, 2 * param.p
    dx, dy = STEPS[edge]
    rest, i2 = divmod(cell, w)
    j, i1 = divmod(rest, w)
    k, j = divmod(j + p2 * dx + w * dy, 2 * w)
    return (j * w + (i1 + p2 * (dx + k)) % w) * w + (i2 + p2 * (dx + dy - k)) % w


@pytest.fixture(scope="session")
def p12():
    return make_param(1, 2)


@pytest.fixture(scope="session")
def p25():
    return make_param(2, 5)


@pytest.fixture(scope="session")
def p38():
    return make_param(3, 8)
