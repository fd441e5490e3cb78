import os

import pytest

from plaid.cli import golden_dir
from plaid.grid import STEPS
from plaid.params import make_param
from plaid.pet import cover_step, fiber_shifts


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


def table_step(shifts, w, cell, edge):
    """The step of a cell through fiber_shifts' rows, as criterion 6's
    conjugacy half and check_mesh take it."""
    ww = w * w
    J, C1, c2 = shifts[cell // ww * 4 + edge]
    return J + (cell % ww - cell % w + C1) % ww + (cell % w + c2) % w


def check_fiber_shifts(param, cells, step=cover_step):
    """step is a fiber shift: the rows fiber_shifts reads from it at the
    cells (j, 0, 0) reproduce it at the given cells and every edge.  The
    suites read the exchange through those rows alone, so a fault of step
    at any other cell is this check's to catch."""
    w = param.omega
    shifts = fiber_shifts(param, step)
    assert len(shifts) == 8 * w
    for cell in cells:
        for edge in range(4):
            assert table_step(shifts, w, cell, edge) == step(param, cell, edge), \
                (str(param), cell, edge)


@pytest.fixture(scope="session")
def p12():
    return make_param(1, 2)


@pytest.fixture(scope="session")
def p25():
    return make_param(2, 5)


@pytest.fixture(scope="session")
def p38():
    return make_param(3, 8)
