"""Acceptance gate: every decidable headline statement, at its stated sweep
bound, with zero tolerance.  One printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
the whole gate takes a couple of minutes single-threaded, so its sweeps run
on up to two worker processes.
"""

import os
import time

from plaid.params import make_param
from plaid.pet import check_mesh
from plaid.verify import (
    MESH_EXTRAS,
    MESH_WITNESSES,
    run_suite,
    suite_irrational,
)


def _criterion(number, name, ok, detail=""):
    line = f"criterion {number:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def _sweep(number, name, suite, max_omega):
    t0 = time.time()
    records = run_suite(suite, max_omega=max_omega,
                        jobs=min(2, os.cpu_count() or 1))
    bad = [r for r in records if not r["ok"]]
    _criterion(number, name, not bad,
               f"{len(records)} parameters to omega {max_omega}, "
               f"{time.time() - t0:.0f}s"
               + (f"; first failure {bad[0]}" if bad else ""))


def test_criterion_01_coherence(capsys):
    # phrased as the CLI contract: the sweep command itself must exit 0
    from plaid.cli import main

    t0 = time.time()
    code = main(["verify", "--suite", "coherence", "--max-omega", "61",
                 "--jobs", "2"])
    out = capsys.readouterr().out
    with capsys.disabled():
        _criterion(1, "coherence", code == 0 and out.count('"ok":true') == 394,
                   f"394 parameters to omega 61 via the CLI, "
                   f"{time.time() - t0:.0f}s")


def test_criterion_02_isomorphism():
    _sweep(2, "grid = tile isomorphism", "isomorphism", 61)


def test_criterion_03_two_points_per_segment():
    _sweep(3, "two points per unit segment", "two-points", 61)


def test_criterion_04_capacity_census():
    _sweep(4, "capacity-k lines carry k light points", "hier", 61)


def test_criterion_05_bijection():
    _sweep(5, "omega^3 classifying bijection", "bijection", 61)


def test_criterion_06_pet_equivalence():
    _sweep(6, "vector dynamics redraw the polygons", "pet-equivalence", 61)


def test_criterion_07_oriented_coherence():
    witnesses = [make_param(*pq) for pq in MESH_WITNESSES]
    extras = [make_param(*pq) for pq in MESH_EXTRAS]
    r = check_mesh(witnesses)
    extra_ok = all(check_mesh([prm])["failure_count"] == 0 for prm in extras)
    _criterion(7, "oriented coherence (mesh)",
               r["ok"] and extra_ok,
               f"witnesses 3/8, 4/11 with triads {r['triad_detail']}; "
               f"{len(extras)} extra parameters")


def test_criterion_08_large_symmetric_polygon():
    _sweep(8, "large symmetric polygon", "first", 61)


def test_criterion_09_empty_rectangles():
    _sweep(9, "empty rectangle and its census", "empty-rect", 61)


def test_criterion_10_symmetries():
    _sweep(10, "reflection symmetries and conjugacies", "symmetry", 61)


def test_criterion_11_particle_geometry():
    _sweep(11, "particle image geometry", "particle-geometry", 61)


def test_criterion_12_irrational_mode():
    records = suite_irrational()
    ok = len(records) == 3 and all(r["ok"] for r in records)
    _criterion(12, "irrational limit windows", ok,
               "; ".join(f"{r['param']}: zero-offset rejected="
                         f"{r['zero_offset_rejected']}, "
                         f"100x100 coherent={r['coherent']}"
                         for r in records))
