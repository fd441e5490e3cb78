"""Machine checks for every theorem the model makes decidable at one
parameter, shared by the CLI and the acceptance tests.

Each suite function takes a parameter and returns a JSON-friendly record with
an "ok" field; sweeps run them over all even rationals up to a bound.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Set

from .params import Param, PlaidError, even_rationals, make_param
from .grid import (
    BlockGrid,
    STEPS,
    _h_walk,
    _rim,
    _v_walk,
    capacity_scaled,
    check_coherence,
    closed_point_counts,
    fill_tables,
    light_lists,
    trace_polygons,  # perfbench's tracer wraps plaid.verify.trace_polygons
)
from .classifier import (
    CODE_LABELS,
    CODE_MASKS,
    ORIENTED_CODES,
    _MASK_TABLE,
    center_cell,
    center_codes,
    image_geometry_scaled,
    label_table,
    symmetry_conjugacies,
    verify_bijection,
)
from .pet import (
    _mesh_failures,
    _worst,
    BadOffset,
    check_mesh,
    cover_bijection,
    cover_step,
    fiber_shifts,
    irrational_tiling,
)
from .analysis import (_witnesses, cut_levels, empty_rectangles, line_totals,
                       verify_first)
from .serialize import document_text, parse_polygon_document


def suite_coherence(param: Param) -> dict:
    rep = check_coherence(param)
    return {"ok": rep.ok, "squares": param.omega ** 3,
            "bad_squares": rep.bad_squares[:5]}


def suite_two_points(param: Param) -> dict:
    w = param.omega
    hc, vc = closed_point_counts(param)
    if set(hc) != {2} or set(vc) != {2}:
        return {"ok": False,
                "h_bad": [i for i, v in enumerate(hc) if v != 2][:3],
                "v_bad": [i for i, v in enumerate(vc) if v != 2][:3]}
    return {"ok": True, "segments": 2 * w * w * (w + 1) * w}


def suite_hier(param: Param) -> dict:
    """Every capacity-k line carries exactly k light points in every block:
    the light counts of a block row or column (line_totals) add up to the
    line's capacity; the first line that does not is named, row before
    column."""
    w, tables = param.omega, fill_tables(param)
    wants = [abs(capacity_scaled(param, m)) for m in range(w)]
    for bi in range(w):
        h, v = line_totals(BlockGrid(param, bi, tables))
        if h == wants == v:
            continue
        for m, want in enumerate(wants):
            for got, line in ((h[m], ("H", m)), (v[m], ("V", bi * w + m))):
                if got != want:
                    return {"ok": False, "line": line, "block": bi,
                            "got": got, "want": want}
    return {"ok": True, "lines_checked": 2 * w * w}


def suite_bijection(param: Param) -> dict:
    r = verify_bijection(param)
    if not r["ok"]:
        return r
    r2 = cover_bijection(param)
    if not r2["ok"]:
        return r2
    return {"ok": True, "classes": r["classes"],
            "cover_classes": r2["classes"]}


def suite_isomorphism(param: Param) -> dict:
    """The edge mask of every square equals the mask of its tile's code, a
    block at a time against the block's slice of center_codes; only a block
    that differs is walked square by square."""
    w, ww = param.omega, param.omega ** 2
    all_codes = center_codes(param, label_table(param))
    mismatches, tables = [], fill_tables(param)
    for bi in range(w):
        grid = BlockGrid(param, bi, tables)
        masks = grid.masks()
        codes = all_codes[bi * ww:(bi + 1) * ww]
        if codes.translate(_MASK_TABLE) == masks:
            continue
        for i, code in enumerate(codes):
            if CODE_MASKS[code] != masks[i]:
                n, m = divmod(i, w)
                mismatches.append(((bi * w + n, m), CODE_LABELS[code],
                                   sorted(grid.good_edge_set(n, m))))
                if len(mismatches) > 4:
                    return {"ok": False, "mismatches": mismatches}
    return {"ok": not mismatches, "squares": w ** 3,
            "mismatches": mismatches}


def suite_pet_equivalence(param: Param) -> dict:
    """Conjugacy and the inverse as in pet's "Fiber shifts", on one cover
    table and its fiber_shifts rows; a cover_step fault at one cell is the
    fiber-shift property's to catch.  Conjugacy is read at the starts a <
    omega, as a + omega commutes with the shifts.  Given conjugacy, the mesh
    equations make every square's cover code meet its neighbours' end to end,
    so the orbit from a connector square's center follows the square's loop
    and closes after len(loop) steps when every code also spans its mask and
    has no end on the block's border: byte compares of each block's codes,
    naming a failing block's first bad square, its good edges and code."""
    w, ww = param.omega, param.omega ** 2
    cover = label_table(param, 2)
    shifts = fiber_shifts(param, cover_step)
    # rows[b][a] is the center (a, b)'s cover cell, b = -1 .. 2, a = -1 .. w
    rows = [[center_cell(param, a, b, 2) for a in (*range(w + 1), -1)]
            for b in (0, 1, 2, -1)]
    for a in range(w):
        for b in (0, 1):
            cell = rows[b][a]
            j4, I1, i2 = cell // ww * 4, cell % ww - cell % w, cell % w
            for e, (dx, dy) in enumerate(STEPS):
                J, C1, c2 = shifts[j4 + e]
                if J + (I1 + C1) % ww + (i2 + c2) % w != rows[b + dy][a + dx]:
                    return {"ok": False, "reason": "conjugacy", "at": (a, b),
                            "edge": "NSEW"[e]}
    failures = _mesh_failures(param, cover, shifts)
    if failures:
        return {"ok": False, "reason": "inverse", "worst": _worst(failures)[1:]}
    codes = center_codes(param, cover, 2)
    # each square's edges on its block's border, as the mask bits that
    # spans gives a code's edges: no code may end there
    rim = _rim(w)
    border = int.from_bytes(rim, "big")
    steps, tables = 0, fill_tables(param)
    for bi in range(w):
        masks = BlockGrid(param, bi, tables).masks()
        block = codes[bi * ww:(bi + 1) * ww]
        spans = block.translate(_MASK_TABLE)
        if spans == masks and not int.from_bytes(spans, "big") & border:
            steps += ww - masks.count(0)
            continue
        i = next(i for i in range(ww)
                 if spans[i] != masks[i] or spans[i] & rim[i])
        record = {"ok": False, "reason": "orbit polygon differs", "block": bi}
        if not spans[i]:  # flagged, so its mask is not 0
            record = {"ok": False, "reason": "hold at nonempty square"}
        return {**record, "square": divmod(bi * ww + i, w),
                "good_edges": sorted(e for k, e in enumerate("NSEW")
                                     if masks[i] >> k & 1),
                "label": ORIENTED_CODES[block[i]]}
    # each connector square's code spans its mask: one orbit step a square
    return {"ok": True, "orbit_steps": steps, "connector_squares": steps}


def suite_mesh(param: Param) -> dict:
    r = check_mesh([param])
    record = {"ok": r["failure_count"] == 0,
              "failure_count": r["failure_count"],
              "failures": r["failures"][:3]}
    if r["worst"]:
        # (fiber, cell, count): the first failures may all be neighbours
        record["worst"] = r["worst"][1:]
    return record


def suite_first(param: Param) -> dict:
    r = verify_first(param)
    return {k: (str(v) if isinstance(v, Fraction) else v)
            for k, v in r.items()}


def suite_empty_rect(param: Param) -> dict:
    """Criterion 9 in every block at every even K, failing at the first
    (block, K) whose census is not (K+1)^2 - 1 or whose grid has no empty
    cell (_witnesses).  The census grows over K by the totals of each
    level's lines; a failing record counts the empty cells as
    empty_rectangles lists them."""
    w, tables = param.omega, fill_tables(param)
    caps = [abs(capacity_scaled(param, k)) for k in range(w + 1)]
    levels = list(cut_levels(caps))
    for bi in range(w):
        grid = BlockGrid(param, bi, tables)
        h, v = line_totals(grid, far=True)
        census = 0
        for (K, _, new, _), box in zip(levels, _witnesses(grid, caps, levels)):
            for k in new:
                census += h[k] + v[k]
            if not box or census != (K + 1) ** 2 - 1:
                empty = len(empty_rectangles(param, (bi, 0), K)["empty"])
                return {"ok": False, "block": bi, "K": K, "empty": empty,
                        "census": census, "bound": (K + 1) ** 2 - 1}
    return {"ok": True, "blocks": w, "K_values": list(range(0, w, 2))}


def _mirror_faults(w: int, c: int, lit: Set[int]) -> Set[int]:
    """The residues b of line c whose mirror 2c - b about c differs from b
    in brightness, lit the set of c's light residues: empty exactly when the
    lights are symmetric about c."""
    return lit ^ {(2 * c - r) % w for r in lit}


def _grid_symmetries(param: Param) -> dict:
    """Reflection laws of the light set, checked on all residue classes.

    Rotation through the origin preserves brightness and type on both hosts;
    reflection in the x-axis preserves brightness, keeps the type of
    horizontally hosted points and swaps it for vertically hosted ones.
    Each law is a set identity on line c's light residues; a failure names
    the least crossing b in a difference, with the first law holding it.
    """
    w = param.omega
    lights = [set(res) for res in light_lists(param)]
    for c, lit in enumerate(lights):
        mirror = lights[-c % w]
        # rotation: (H c, crossing b) -> (H -c, crossing -b); x-reflection,
        # H host: crossing intercept b - 2c; V host x=c: the type P line b
        # maps to the type Q line 2c - b through the mirror point
        faults = (("rotation-H", lit ^ {-r % w for r in mirror}),
                  ("reflect-H", lit ^ {(r + 2 * c) % w for r in mirror}),
                  ("reflect-V", _mirror_faults(w, c, lit)))
        if any(bad for _, bad in faults):
            b = min(min(bad) for _, bad in faults if bad)
            case = next(case for case, bad in faults if b in bad)
            return {"ok": False, "case": case, "at": (c, b)}
    return {"ok": True, "classes": w * w}


def suite_symmetry(param: Param) -> dict:
    g = _grid_symmetries(param)
    if not g["ok"]:
        return g
    c = symmetry_conjugacies(param)
    if not c["ok"]:
        return c
    return {"ok": True, "grid_classes": g["classes"],
            "center_classes": c["classes"]}


def suite_particle_geometry(param: Param) -> dict:
    """Criterion 11 on block 0's three walks, which stand for every block's
    (image_geometry_scaled).  On line c the horizontal particle from block
    j0 reads the residues c +- 2p*j0, that pair at each double point, and a
    vertical one a single residue, so brightness is constant on the line
    exactly when its lights are symmetric about c; else the first particle
    to fail is the horizontal one from the least j0 that meets a mirror
    fault, at its first double point."""
    w, p2 = param.omega, 2 * param.p
    walks = [(("h", 0, 0), "horizontal", _h_walk(param, 0))]
    walks += [(("v", 0, ty, 0), "vertical", _v_walk(param, 0, ty, 0)) for ty in "PQ"]
    for c, lit in enumerate(map(set, light_lists(param))):
        bad = _mirror_faults(w, c, lit)
        if bad:
            j0 = min((b - c) * pow(p2, -1, w) % w for b in bad)
            raise PlaidError(f"brightness mismatch at double point x={p2 * j0 * w}/{p2}")
        # the geometry, after line 0's brightness and before the other lines'
        for at, orientation, (squares, types, _, _) in walks if c == 0 else ():
            r = image_geometry_scaled(param, orientation, squares, types)
            if not r["ok"]:
                return {**r, "at": at}
    return {"ok": True, "particles": 3 * w * w}


SUITES: Dict[str, Callable[[Param], dict]] = {
    "coherence": suite_coherence,
    "isomorphism": suite_isomorphism,
    "bijection": suite_bijection,
    "hier": suite_hier,
    "two-points": suite_two_points,
    "symmetry": suite_symmetry,
    "mesh": suite_mesh,
    "pet-equivalence": suite_pet_equivalence,
    "first": suite_first,
    "empty-rect": suite_empty_rect,
    "particle-geometry": suite_particle_geometry,
}

# every suite's sweep bound; mesh runs its witnesses by default
DEFAULT_MAX_OMEGA = 61

MESH_WITNESSES = ((3, 8), (4, 11))
MESH_EXTRAS = ((1, 2), (2, 5), (2, 7))


def _guarded(check: Callable[..., dict], *args, **names) -> dict:
    """The record of check(*args) or, when it raises, an "ok": false record
    that gives the names of what was checked and the exception."""
    try:
        return check(*args)
    except Exception as exc:
        return {**names, "ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _run_one(job) -> dict:
    """A pool worker's record: the parameter crosses as (p, q)."""
    suite, p, q = job
    return _record(suite, make_param(p, q))


def _record(suite: str, param: Param) -> dict:
    record = _guarded(SUITES[suite], param)
    record.update({"suite": suite, "param": str(param), "omega": param.omega})
    return record


def run_suite(suite: str, max_omega: Optional[int] = None,
              params: Optional[Sequence[Param]] = None,
              jobs: int = 1) -> List[dict]:
    """Run one suite over a parameter sweep; records sorted by (omega, p)."""
    if suite not in SUITES:
        raise KeyError(suite)
    if params is None:
        if suite == "mesh" and max_omega is None:
            params = [make_param(*pq) for pq in MESH_WITNESSES + MESH_EXTRAS]
        else:
            params = even_rationals(DEFAULT_MAX_OMEGA if max_omega is None
                                    else max_omega)
    params = list(params)
    # all forked at once, one per core at most; a serial run needs no count
    jobs = min(jobs, len(params), os.cpu_count() or 1) if jobs > 1 else 1
    if jobs > 1:
        # imported here: a third of the package's import time otherwise
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_one, [(suite, prm.p, prm.q)
                                               for prm in params]))
    else:
        records = [_record(suite, prm) for prm in params]
    records.sort(key=lambda r: (r["omega"], int(r["param"].split("/")[0])))
    if suite == "mesh":
        tri = check_mesh([make_param(*pq) for pq in MESH_WITNESSES])
        records.append({"suite": "mesh", "param": "3/8+4/11", "omega": 0,
                        "ok": tri["triads_ok"] and tri["failure_count"] == 0,
                        "triad_detail": tri["triad_detail"]})
    return records


def _golden_file(golden_dir: str, name: str) -> dict:
    with open(os.path.join(golden_dir, name)) as fh:
        text = fh.read()
    doc = parse_polygon_document(text)
    param = make_param(*doc["param"])
    fresh = document_text(param, doc["blocks"])
    return {"suite": "golden", "param": str(param), "omega": param.omega,
            "file": name, "ok": fresh == text}


def suite_golden(golden_dir: str) -> List[dict]:
    """Re-trace every polygon document in the golden corpus and compare
    byte for byte, one record per file."""
    names = sorted(n for n in os.listdir(golden_dir)
                   if n.startswith("polygons_") and n.endswith(".json"))
    return [_guarded(_golden_file, golden_dir, name, suite="golden", file=name)
            for name in names]


def _irrational_window(P: Fraction, seed) -> dict:
    try:
        irrational_tiling(P, (0, 0, 0), (0, 0, 2, 2))
        rejected = False
    except BadOffset:
        rejected = True
    r = irrational_tiling(P, seed, (0, 0, 100, 100))
    return {
        "suite": "irrational", "param": f"P={P}", "omega": 0,
        "ok": rejected and r["ok"],
        "zero_offset_rejected": rejected,
        "coherent": r["ok"],
        "min_wall_distance": str(r["min_wall_distance"]),
    }


def suite_irrational() -> List[dict]:
    """The geometric-limit procedure at parameters built from convergents of
    sqrt(5) - 2, on a 100 x 100 window, plus the zero-offset rejection; one
    record per P."""
    seed = (Fraction(1, 2 ** 20 + 7), Fraction(1, 2 ** 20 + 33),
            Fraction(1, 2 ** 20 + 37))
    records = []
    for h, k in ((4, 17), (17, 72), (72, 305)):
        A = Fraction(h, k)
        P = 2 * A / (1 + A)
        records.append(_guarded(_irrational_window, P, seed,
                                suite="irrational", param=f"P={P}", omega=0))
    return records
