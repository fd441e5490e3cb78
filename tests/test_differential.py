"""The integer fast paths against their references, at random even rationals
far beyond the sweep bounds: the closed-form light lists against the light
rule, the grid paths against the Fraction reference `segment_points`, the
block fill by lanes against its former per-residue loop, also under planted
light faults, the edge masks against a per-column builder, also under single
edge toggles, with the bad squares and tracing's message against a
per-square 0-or-2 test,
tracing against its canonical form and against the exchange orbits of
`vector_polygon`, particle image geometry against a per-image reduction, the
particle walks and their suite against a walk per line and the suite against
its former body that walked every block, also under planted light and square
faults, the block-0 laws of the walks, the label table against `fiber_label`
and the per-point labels, the per-cell code and exchange step against the
Fraction path and the step through points, the center codes against the former
per-column reader and the per-class reduction, criteria 2 and 10 against
their former bodies under planted table and edge faults, the column fact
against the per-class reduction, the bijection on column starts against
marking every class, the exchange's conjugacy and inverse against the
per-class loop, the mesh equations on turned fibers against their former
per-row body, also under planted cover and shift faults, the
pet-equivalence record against the suite's walked former body and the
reference that rebuilt each orbit's polygon, also under planted faults, the
light-set laws and the classifier conjugacies against per-crossing and
whole-column references and the label laws on the table against the former
column walk, past their sweep bound and under planted light and label
faults,
the empty rectangles on lanes against a search over light edges and
against the running counts, with the suite against its former body that
read them, also under planted moved and raised light counts, the integer
irrational window against its Fraction oracle and its column walk against
the former per-center body, its coherence lanes against the per-center
loop, the integer SVG renderer against a Fraction
renderer, its light points also at large omega, its connector and arrow
layers and the column codes against one model call per square, also under
a planted zone fault, and the flat-index block
walk, also under planted mask faults, with its whole-block test against
the reference walk, and the polygon layer and polygon documents written
from it against the former walker and emitters, the document text against
the former document's emit, and criterion 8 and region
coherence on the integer grid against their former Fraction paths, also
under planted light, witness and mask faults, and criterion 4 against its
former body, also under planted count faults."""

import math
import random
from array import array
from bisect import bisect_right
from collections import Counter
from fractions import Fraction, Fraction as F
from functools import lru_cache
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import check_fiber_shifts, mutant_cover_step

from plaid.params import PlaidError, even_rationals, make_param, sym_reduce
from plaid import analysis, classifier, grid, pet, serialize, svgout, verify
from plaid.analysis import cut_offsets, empty_rectangles
from plaid.svgout import LAYERS, RenderConfig, render_svg
from plaid.classifier import (
    CODE_LABELS,
    ORIENTED_CODES,
    REVERSED,
    ClassifyingPoint,
    _BOARDS,
    _FLIP_MASKS,
    _MASK_TABLE,
    _ORDER,
    _ROT_MASKS,
    _band,
    _boards,
    _zone_spec,
    _zones_at,
    canon_frac,
    canon_scaled,
    cell_code,
    center_cell,
    center_codes,
    column_codes,
    checkerboard_label,
    fiber_label,
    grid_cell,
    image_geometry_scaled,
    label_table,
    mark_classes,
    particle_image_geometry,
    symmetry_conjugacies,
    xi_raw_scaled,
)
from plaid.pet import (
    STEPS,
    BadOffset,
    NonPeriodicOrbit,
    cover_step,
    decode_cell,
    fiber_shifts,
    irrational_tiling,
    oriented_label_scaled,
    path_polygon,
    special_orbit,
    vector_polygon,
    wall_distance,
)
from plaid.grid import (
    _h_slots,
    _h_walk,
    _light,
    _read_light,
    _v_walk,
    BlockGrid,
    GridLine,
    IncoherentInput,
    PlaidPolygon,
    UnitSegment,
    capacity_scaled,
    check_coherence,
    closed_point_counts,
    good_edges,
    horizontal_particle,
    light_count,
    light_lists,
    light_points_on_line,
    mass_scaled,
    segment_points,
    trace_polygons,
    vertical_particle,
)

MAX_OMEGA = 301


@st.composite
def params(draw, max_omega=MAX_OMEGA, min_omega=3):
    w = draw(st.integers((min_omega - 1) // 2, (max_omega - 1) // 2)) * 2 + 1
    ps = [p for p in range(1, (w + 1) // 2) if math.gcd(p, w) == 1]
    p = draw(st.sampled_from(ps))
    return make_param(p, w - p)


def reference_lights(param, line, block):
    """Union over the line's unit segments in the block of the light points
    of segment_points; a corner shared by two segments is one point.  A line
    that misses the closed block has none."""
    w = param.omega
    bi, bj = block
    across = bj if line.family == "H" else bi
    if not across * w <= line.intercept <= (across + 1) * w:
        return []
    if line.family == "H":
        segs = [UnitSegment("h", n, line.intercept)
                for n in range(bi * w, (bi + 1) * w)]
    else:
        segs = [UnitSegment("v", line.intercept, m)
                for m in range(bj * w, (bj + 1) * w)]
    axis = 0 if line.family == "H" else 1
    out = {}
    for seg in segs:
        for pt in segment_points(param, seg):
            if pt.brightness == "light":
                pos = pt.location[axis]
                assert out.setdefault(pos, pt.multiplicity) == pt.multiplicity
    return sorted(out.items())


@settings(max_examples=25, deadline=None)
@given(params(), st.sampled_from("HV"), st.integers(-2, 2), st.integers(-2, 2),
       st.data())
def test_light_points_match_segment_points(param, family, bi, bj, data):
    w = param.omega
    lo = (bj if family == "H" else bi) * w
    # half the lines cross the block, the others mostly miss it
    line = GridLine(family, data.draw(st.one_of(
        st.integers(lo, lo + w), st.integers(lo - 2 * w, lo + 3 * w))))
    want = reference_lights(param, line, (bi, bj))
    assert light_points_on_line(param, line, (bi, bj)) == want


def particle_core(param, key, c, j0, lit):
    """(squares, types, light) of one particle on line c, lit the set of
    c's light residues: the walk of key "h" (horizontal) or of type key
    (vertical) from block j0, read by _read_light."""
    walk = _h_walk(param, j0, c) if key == "h" else _v_walk(param, c, key, j0)
    return walk[0], walk[1], _read_light(param, lit, c, [(key, walk)])[0]


def check_instances(param, particle, axis, core):
    """The Fraction particle against segment_points, and the integer core's
    (squares, types, light) against the Fraction particle."""
    assert core == (list(particle.squares), particle.types,
                    particle.brightness == "light")
    assert len(particle.squares) == len(particle.instances)
    for pt, square in zip(particle.instances, particle.squares):
        x, y = pt.location
        assert square == (math.floor(x), math.floor(y))
        seg = UnitSegment(axis, *square)
        ref = [r for r in segment_points(param, seg)
               if r.location == pt.location]
        assert len(ref) == 1, (pt, seg)
        assert ref[0].brightness == pt.brightness
        assert ref[0].multiplicity == pt.multiplicity
        # on a vertical line through a block corner both families cross at
        # once, but a vertical particle follows only its own type
        if not (axis == "v" and ref[0].ptype == "both"):
            assert ref[0].ptype == pt.ptype


@settings(max_examples=15, deadline=None)
@given(params(), st.data())
def test_horizontal_particle_matches_segment_points(param, data):
    w = param.omega
    y0 = data.draw(st.integers(0, w - 1))
    j0 = data.draw(st.integers(0, w - 1))
    core = particle_core(param, "h", y0, j0, set(light_lists(param)[y0]))
    check_instances(param, horizontal_particle(param, y0, j0), "h", core)


@settings(max_examples=15, deadline=None)
@given(params(), st.sampled_from("PQ"), st.data())
def test_vertical_particle_matches_segment_points(param, ptype, data):
    w = param.omega
    x0 = data.draw(st.integers(0, w - 1))
    j0 = data.draw(st.integers(0, w - 1))
    core = particle_core(param, ptype, x0, j0, set(light_lists(param)[x0]))
    check_instances(param, vertical_particle(param, x0, ptype, j0), "v", core)


def reference_geometry(param, orientation, squares, types):
    """particle_image_geometry with one canon_scaled call per image and per
    image difference."""
    w, p = param.omega, param.p
    t1, t2 = 2 * p - w, w - 2 * p
    images = [canon_scaled(w, 2 * p, *xi_raw_scaled(param, a, b))
              for a, b in squares]
    if orientation == "vertical":
        fib = {t for t, _, _ in images}
        if len(fib) != 1:
            return {"ok": False, "case": "fiber", "fibers": sorted(fib)}
        const = {im[1 if types[0] == "P" else 2] for im in images}
        return {"ok": len(const) == 1, "case": "vertical",
                "const": sorted(const)}
    p_imgs = [im for im, ty in zip(images, types) if ty == "P"]
    q_imgs = [im for im, ty in zip(images, types) if ty == "Q"]
    for t, _, _ in p_imgs:
        if t1 < t < t2:
            return {"ok": False, "case": "P-middle-zone", "t": t}

    def step_class(d):
        return canon_scaled(w, 2 * p, 4 * p * d, 4 * p * d, 4 * p * d)

    base = param.adj * w
    for imgs, steps, case in (
            (p_imgs, {step_class(base + w // (2 * p)),
                      step_class(base + w // (2 * p) + 1)}, "P-diagonal-step"),
            (q_imgs, {step_class(base), step_class(base - 1)}, "Q-axis-step")):
        for a, b in zip(imgs, imgs[1:]):
            d = canon_scaled(w, 2 * p, *(y - x for x, y in zip(a, b)))
            if d not in steps:
                return {"ok": False, "case": case, "diff": d}
    counts = {}
    for t, _, _ in q_imgs:
        counts[t] = counts.get(t, 0) + 1
    for t, n in counts.items():
        if n != (2 if t1 <= t < t2 else 1):
            return {"ok": False, "case": "Q-fiber-count", "t": t, "count": n}
    return {"ok": True, "case": "horizontal",
            "p_fibers": len({t for t, _, _ in p_imgs}),
            "q_fibers": len(counts)}


@settings(max_examples=15, deadline=None)
@given(params(), st.sampled_from("PQ"), st.data())
def test_image_geometry_matches_reference(param, ptype, data):
    """The inline image reduction on the cores' output against the
    per-image reference and the Fraction particle, for one horizontal and
    one vertical particle."""
    w = param.omega
    c = data.draw(st.integers(0, w - 1))
    j0 = data.draw(st.integers(0, w - 1))
    lit = set(light_lists(param)[c])
    for core, part in (
            (particle_core(param, "h", c, j0, lit),
             horizontal_particle(param, c, j0)),
            (particle_core(param, ptype, c, j0, lit),
             vertical_particle(param, c, ptype, j0))):
        squares, types, _ = core
        got = image_geometry_scaled(param, part.orientation, squares, types)
        assert got["ok"], got
        assert got == reference_geometry(param, part.orientation, squares,
                                         types)
        assert got == particle_image_geometry(param, part)


@settings(max_examples=15, deadline=None)
@given(params(), st.sampled_from("PQ"), st.data())
def test_corrupted_particles_fail_geometry(param, ptype, data):
    """One square moved a unit north, or one type-P square swapped for a
    square whose image lies in the open middle zone, fails with the case the
    theorem predicts, as in the reference."""
    w = param.omega
    c = data.draw(st.integers(0, w - 1))
    j0 = data.draw(st.integers(0, w - 1))
    lit = set(light_lists(param)[c])
    h_squares, h_types, _ = particle_core(param, "h", c, j0, lit)
    v_squares, v_types, _ = particle_core(param, ptype, c, j0, lit)
    i = data.draw(st.integers(0, w - 1))
    h_i = i + data.draw(st.sampled_from((0, w)))  # a type-P or type-Q instance
    # a northward move keeps the image's fiber and moves U1 and U2 apart
    cases = [("horizontal", h_squares, h_types, h_i,
              "P-diagonal-step" if h_types[h_i] == "P" else "Q-axis-step"),
             ("vertical", v_squares, v_types, i, "vertical")]
    for orientation, squares, types, k, case in cases:
        moved = list(squares)
        moved[k] = (squares[k][0], squares[k][1] + 1)
        got = image_geometry_scaled(param, orientation, moved, types)
        assert not got["ok"] and got["case"] == case, got
        assert got == reference_geometry(param, orientation, moved, types)
    # the open middle zone holds odd fibers only when q > p + 1
    t1 = 2 * param.p - w
    middle = [a for a in range(w * w) if t1 < canon_scaled(
        w, 2 * param.p, *xi_raw_scaled(param, a, c))[0] < -t1]
    if middle:
        moved = list(h_squares)
        moved[i % (2 * param.p)] = (data.draw(st.sampled_from(middle)), c)
        got = image_geometry_scaled(param, "horizontal", moved, h_types)
        assert not got["ok"] and got["case"] == "P-middle-zone", got
        assert got == reference_geometry(param, "horizontal", moved, h_types)


@settings(max_examples=15, deadline=None)
@given(params(), st.data())
def test_period_moved_square_keeps_geometry(param, data):
    """A horizontal square moved by a period of the map, (omega^2, 0) or
    (0, omega), keeps the particle's record: the steps are read modulo the
    periods."""
    w = param.omega
    c = data.draw(st.integers(0, w - 1))
    j0 = data.draw(st.integers(0, w - 1))
    squares, types, _ = particle_core(param, "h", c, j0, set(light_lists(param)[c]))
    k = data.draw(st.integers(0, 2 * w - 1))
    da, db = data.draw(st.sampled_from(((w * w, 0), (-w * w, 0), (0, w),
                                        (0, -w))))
    moved = list(squares)
    moved[k] = (squares[k][0] + da, squares[k][1] + db)
    got = image_geometry_scaled(param, "horizontal", moved, types)
    assert got["ok"], got
    assert got == image_geometry_scaled(param, "horizontal", squares, types)


def test_moved_square_geometry_matches_reference_to_11():
    """Every particle of every even rational with omega <= 11, with one
    square moved at random, against the per-image reference.  A move is a
    unit, omega or period step in each coordinate, or none, so that every
    record case occurs, passes included."""
    rng = random.Random(11)
    for param in even_rationals(11):
        w = param.omega
        for c, lit in enumerate(map(set, light_lists(param))):
            cores = [("horizontal", particle_core(param, "h", c, j0, lit))
                     for j0 in range(w)]
            cores += [("vertical", particle_core(param, ty, c, j0, lit))
                      for ty in "PQ" for j0 in range(w)]
            for orientation, (squares, types, _) in cores:
                k = rng.randrange(len(squares))
                a, b = squares[k]
                moved = list(squares)
                moved[k] = (a + rng.randint(-1, 1) * rng.choice((1, w, w * w)),
                            b + rng.randint(-1, 1) * rng.choice((1, w)))
                assert image_geometry_scaled(param, orientation, moved, types) \
                    == reference_geometry(param, orientation, moved, types), \
                    (str(param), orientation, c, k)


def reference_h_particle(param, y0, j0, lit):
    """particle_core of a horizontal particle as one walk per line,
    brightness counted on the way, lit the set of y0's light residues."""
    w, p, q, a = param.omega, param.p, param.q, param.adj
    squares, n_lit, j = [], 0, j0 % w
    for s, rs in ((p, range(2 * p)), (q, range(2 * q, 0, -1))):
        s2, period = 2 * s, 2 * s * w * w
        for r in rs:
            k = s2 * j + r
            if r % s == 0:
                b_p, rem_p = divmod(2 * p * k, s2)
                b_q, rem_q = divmod(2 * q * k, s2)
                if rem_p or rem_q:
                    raise PlaidError(f"double point at x={k * w}/{s2} is not integral")
                if ((y0 + b_p) % w in lit) != ((y0 + b_q) % w in lit):
                    raise PlaidError(f"brightness mismatch at double point x={k * w}/{s2}")
            n_lit += (y0 + k) % w in lit
            squares.append((k * w % period // s2, y0))
            j = (j + a) % w
    if j != j0 % w:
        raise PlaidError("horizontal particle failed to close")
    if n_lit not in (0, 2 * w):
        raise PlaidError("particle brightness not constant")
    return squares, ("P",) * (2 * p) + ("Q",) * (2 * q), bool(n_lit)


def reference_v_particle(param, x0, ptype, j0, lit):
    """particle_core of a vertical particle as one walk per line: the
    scaled height starts at -2s*x0 mod omega and each instance's crossing
    is read from it."""
    w, a = param.omega, param.adj
    s2, step = (2 * param.p, w) if ptype == "P" else (2 * param.q, -w)
    squares, n_lit, j = [], 0, j0 % w
    yn = -s2 * x0 % w
    for _ in range(w):
        x_abs = x0 + j * w
        b, rem = divmod(yn + s2 * x_abs, w)
        if rem:
            raise PlaidError("vertical particle left the line family")
        n_lit += b % w in lit
        squares.append((x_abs, yn // w))
        j = (j + a) % w
        yn = (yn + step) % (w * w)
    if n_lit not in (0, w):
        raise PlaidError("particle brightness not constant")
    return squares, (ptype,) * w, bool(n_lit)


def reference_particle_geometry(param, by_line, move=None):
    """suite_particle_geometry line by line: every particle's reference core
    on every line c, lit by by_line[c], then image_geometry_scaled on each.
    move(at, squares) may plant a fault in a core's squares."""
    w = param.omega
    for c, lit in enumerate(map(set, by_line)):
        particles = [(("h", c, j0), "horizontal", 2 * w,
                      reference_h_particle(param, c, j0, lit)) for j0 in range(w)]
        particles += [(("v", c, ty, j0), "vertical", w,
                       reference_v_particle(param, c, ty, j0, lit))
                      for ty in "PQ" for j0 in range(w)]
        for at, orientation, length, (squares, types, _) in particles:
            if move:
                squares = move(at, squares)
            if len(squares) != length:
                return {"ok": False, "case": at[0] + "-length", "at": at[1:]}
            r = image_geometry_scaled(param, orientation, squares, types)
            if not r["ok"]:
                r["at"] = at
                return r
    return {"ok": True, "particles": 3 * w * w}


def test_particle_cores_match_reference_to_11():
    """The walk-and-read cores against the per-line walks on every particle
    of every even rational with omega <= 11, on the lines -1 .. omega and
    from the blocks j0 = -1 .. omega."""
    for param in even_rationals(11):
        w = param.omega
        by_line = light_lists(param)
        for c in range(-1, w + 1):
            lit = set(by_line[c % w])
            for j0 in range(-1, w + 1):
                assert particle_core(param, "h", c, j0, lit) == \
                    reference_h_particle(param, c, j0, lit), (str(param), c, j0)
                for ty in "PQ":
                    assert particle_core(param, ty, c, j0, lit) == \
                        reference_v_particle(param, c, ty, j0, lit), \
                        (str(param), c, ty, j0)


def check_particle_geometry(param):
    assert verify.suite_particle_geometry(param) == \
        reference_particle_geometry(param, light_lists(param)), str(param)


def test_particle_geometry_matches_reference_to_11():
    for param in even_rationals(11):
        check_particle_geometry(param)


@settings(max_examples=3, deadline=None)
@given(params(61))
def test_particle_geometry_matches_reference(param):
    check_particle_geometry(param)


def test_vertical_geometry_moves_with_the_line_to_13():
    """The line-0 argument of suite_particle_geometry: a vertical particle's
    squares on line c are its line-0 squares moved by (c, 0), and its record
    there is line 0's with every "const" (or, with a square moved east,
    every fiber) moved by one value mod 2*omega; with one square moved north
    the record fails alike on every line."""
    for param in even_rationals(13):
        w = param.omega
        for ty in "PQ":
            for j0 in range(w):
                line = [particle_core(param, ty, c, j0, set())[0]
                        for c in range(w)]
                for c, squares in enumerate(line):
                    assert squares == [(a + c, b) for a, b in line[0]]
                for da, db in ((0, 0), (0, 1), (1, 0)):
                    records = []
                    for squares in line:
                        moved = list(squares)
                        moved[1] = (moved[1][0] + da, moved[1][1] + db)
                        records.append(image_geometry_scaled(
                            param, "vertical", moved, (ty,) * w))
                    key = "fibers" if records[0]["case"] == "fiber" else "const"
                    assert records[0]["ok"] == (da == db == 0)
                    assert len(records[0][key]) == 1 + (da or db)
                    for c, r in enumerate(records):
                        assert (r["ok"], r["case"]) == \
                            (records[0]["ok"], records[0]["case"])
                        assert any({(v + d) % (2 * w) for v in records[0][key]}
                                   == {v % (2 * w) for v in r[key]}
                                   for d in range(2 * w)), \
                            (str(param), ty, j0, da, db, c)


@pytest.mark.parametrize("pq, drop_error, add_error", [
    ((2, 5), "x=28/4", "x=56/4"),
    ((3, 8), "x=330/6", "x=132/6"),
    ((4, 11), "x=720/8", "x=240/8"),
])
def test_light_faults_fail_particle_geometry(pq, drop_error, add_error):
    """One light residue dropped from line 1, or one added there, breaks a
    double point of a horizontal particle on line 1, in the suite's record
    and in the per-line reference's."""
    param = make_param(*pq)
    w = param.omega
    real = light_lists(param)
    first_dark = min(set(range(w)) - set(real[1]))
    for lights, error in ((real[1][1:], drop_error),
                          (real[1] + [first_dark], add_error)):
        by_line = [list(res) for res in real]
        by_line[1] = lights
        want = {"ok": False,
                "error": f"PlaidError: brightness mismatch at double point {error}"}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "light_lists", lambda prm: by_line)
            got = verify.run_suite("particle-geometry", params=[param])
        assert got == [{**want, "suite": "particle-geometry",
                        "param": str(param), "omega": w}]
        assert verify._guarded(reference_particle_geometry, param,
                               by_line) == want


@pytest.mark.parametrize("pq", [(2, 5), (3, 8), (4, 11)])
def test_light_faults_match_reference_on_every_line(pq):
    """Every line's least light residue dropped, and its least dark residue
    added, one at a time: the suite gives the reference's record.  Three of
    these flips keep line c's lights symmetric about c (b light with
    2c - b), residue 0 added on line 0 and the one light dropped from each
    line of capacity +-2, and particles see only asymmetries; every other
    flip fails."""
    param = make_param(*pq)
    w = param.omega
    real = light_lists(param)
    failed = 0
    for c in range(w):
        for flip in real[c][:1] + [min(set(range(w)) - set(real[c]))]:
            by_line = [list(res) for res in real]
            by_line[c] = sorted(set(real[c]) ^ {flip})
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verify, "light_lists", lambda prm: by_line)
                got = verify._guarded(verify.suite_particle_geometry, param)
            assert got == verify._guarded(reference_particle_geometry, param,
                                          by_line), (c, flip)
            failed += not got["ok"]
    assert failed == 2 * w - 4  # line 0 has no light to drop


def moved_square(squares, i, step):
    squares = list(squares)
    squares[i] = (squares[i][0] + step[0], squares[i][1] + step[1])
    return squares


@pytest.mark.parametrize("key, i, step, want", [
    ("h", 5, (1, 0), {"ok": False, "case": "P-middle-zone", "t": 3,
                      "at": ("h", 0, 0)}),
    ("h", 12, (1, 0), {"ok": False, "case": "Q-axis-step",
                       "diff": (-14, -14, -14), "at": ("h", 0, 0)}),
    ("v", 2, (0, 1), {"ok": False, "case": "vertical", "const": [-8, 0],
                      "at": ("v", 0, "P", 0)}),
])
def test_moved_walk_square_fails_particle_geometry(key, i, step, want,
                                                   monkeypatch):
    """Square i of block 0's walks at 4/11 moved by one unit, east (H, a
    type-P or a type-Q square) or north (V, both types), fails the first
    such walk's geometry on line 0, with the reference's record: the square
    moves on every line.  The suite reads block 0's walks alone, which
    stand for every block's (test_walk_laws_to_15)."""
    param = make_param(4, 11)
    name = "_h_walk" if key == "h" else "_v_walk"
    walk = getattr(grid, name)

    def moved_walk(param, *args):
        squares, *rest = walk(param, *args)
        if args[-1] == 0:
            squares = moved_square(squares, i, step)
        return (squares, *rest)

    def move(at, squares):
        return moved_square(squares, i, step) \
            if at[0] == key and at[-1] == 0 else squares

    monkeypatch.setattr(verify, name, moved_walk)
    got = verify.suite_particle_geometry(param)
    assert got == reference_particle_geometry(param, light_lists(param), move)
    assert got == want


def walked_suite_particle_geometry(param):
    """The former suite_particle_geometry, which walked every particle from
    every block and read each one's brightness on every line; the walks and
    the light lists are looked up on verify, so a plant there reaches both."""
    w = param.omega
    lights = [set(res) for res in verify.light_lists(param)]
    walks = []
    for key, j0 in [(key, j0) for key in "hPQ" for j0 in range(w)]:
        walks.append((key, verify._h_walk(param, j0) if key == "h" else
                      verify._v_walk(param, 0, key, j0)))
        _read_light(param, lights[0], 0, walks[-1:])
    for i, (key, (squares, types, _, _)) in enumerate(walks):
        h = key == "h"
        r = image_geometry_scaled(param, "horizontal" if h else "vertical",
                                  squares, types)
        if not r["ok"]:
            r["at"] = ("h", 0, i) if h else ("v", 0, key, i % w)
            return r
    for c in range(1, w):
        _read_light(param, lights[c], c, walks)
    return {"ok": True, "particles": 3 * w * w}


def check_particle_geometry_walked(param):
    got = verify._guarded(verify.suite_particle_geometry, param)
    assert got == verify._guarded(walked_suite_particle_geometry, param), \
        str(param)
    return got


def test_particle_geometry_matches_walked_to_31():
    for param in even_rationals(31):
        assert check_particle_geometry_walked(param)["ok"]


@settings(max_examples=3, deadline=None)
@given(params(151, 101))
def test_particle_geometry_matches_walked(param):
    assert check_particle_geometry_walked(param)["ok"]


def test_light_flips_match_walked_to_11(monkeypatch):
    """Every light residue of every line flipped, one at a time, at every
    even rational with omega <= 11: the suite's record is the walked
    suite's, a pass where the flip keeps the line symmetric about itself.
    The walks, which no flip changes, are built once per parameter."""
    monkeypatch.setattr(verify, "_h_walk", lru_cache(None)(_h_walk))
    monkeypatch.setattr(verify, "_v_walk", lru_cache(None)(_v_walk))
    for param in even_rationals(11):
        w = param.omega
        real = light_lists(param)
        for c in range(w):
            for flip in range(w):
                by_line = [list(res) for res in real]
                by_line[c] = sorted(set(real[c]) ^ {flip})
                monkeypatch.setattr(verify, "light_lists", lambda prm: by_line)
                got = check_particle_geometry_walked(param)
                assert got["ok"] == (flip == c), (str(param), c, flip)


def test_light_and_square_faults_match_walked():
    """Seeded plants of up to four light flips on random lines, line 0
    among them half the time, each with or without one square of one walk
    (horizontal, type P or type Q) moved a unit at the same instance in
    every block: the suite's record is the walked suite's, so line 0's
    brightness is read before the geometry, the other lines' after it, and
    the geometry of all three walks is read."""
    rng = random.Random(38)
    seen = Counter()
    for param in even_rationals(31)[::7]:
        w = param.omega
        real = light_lists(param)
        for _ in range(12):
            lines = rng.sample(range(1, w), min(w - 1, rng.randint(0, 3)))
            by_line = [set(res) for res in real]
            for c in lines + [0] * (rng.random() < 0.5):
                by_line[c] ^= {rng.randrange(w)}
            by_line = [sorted(res) for res in by_line]
            key = rng.choice(("h", "P", "Q", None))
            name = "_h_walk" if key == "h" else "_v_walk"
            walk, i = getattr(grid, name), rng.randrange(w)
            step = rng.choice(((1, 0), (0, 1)))

            def moved_walk(param, *args, key=key, walk=walk, i=i, step=step):
                squares, *rest = walk(param, *args)
                if key == "h" or args[1] == key:
                    squares = moved_square(squares, i, step)
                return (squares, *rest)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verify, "light_lists", lambda prm: by_line)
                if key:
                    mp.setattr(verify, name, moved_walk)
                got = check_particle_geometry_walked(param)
            if "at" in got:  # the walk whose geometry failed
                outcome = got["at"][2] if got["at"][0] == "v" else "h"
            else:
                outcome = "error" if "error" in got else "ok"
            seen[bool(key), outcome] += 1
    assert {(True, "error"), (True, "h"), (True, "P"), (True, "Q"),
            (False, "error"), (False, "ok")} <= seen.keys(), seen


def test_walk_laws_to_15():
    for param in even_rationals(15):
        check_walk_laws(param)


@settings(max_examples=2, deadline=None)
@given(params(301, 101))
def test_walk_laws(param):
    check_walk_laws(param)


def check_walk_laws(param):
    """The laws suite_particle_geometry reads in place of every block's walk:
    the walks from block j0 are block 0's moved by (j0*omega, 0) mod
    omega^2; the horizontal one counts 2p residues 2p*j0 and 2q residues
    2q*j0, its double points read that pair, the first at x = 2p*j0*omega/2p,
    and a vertical one counts omega residues 2s*j0; and the geometry records
    are block 0's, a vertical "const" moved by -4p^2*j0 mod 2*omega, also
    with one square moved a unit at the same instance in every block."""
    w, p2, q2 = param.omega, 2 * param.p, 2 * param.q
    ww = w * w

    def shifted(record, j0):
        if record.get("case") != "vertical":
            return record
        const = sorted((v - p2 * p2 * j0 + w) % (2 * w) - w
                       for v in record["const"])
        return {**record, "const": const}

    def records(key, squares, types):
        orientation = "horizontal" if key == "h" else "vertical"
        # east and north, on a type-P and a type-Q square of a horizontal walk
        moves = [moved_square(squares, 1, (1, 0)),
                 moved_square(squares, len(squares) - 2, (0, 1))]
        return [image_geometry_scaled(param, orientation, moved, types)
                for moved in [squares] + moves]

    zero = {key: _h_walk(param, 0) if key == "h" else _v_walk(param, 0, key, 0)
            for key in "hPQ"}
    block0 = {key: records(key, *walk[:2]) for key, walk in zero.items()}
    for j0 in range(w):
        for key, s2 in (("h", None), ("P", p2), ("Q", q2)):
            squares, types, counts, doubles = \
                _h_walk(param, j0) if key == "h" else _v_walk(param, 0, key, j0)
            assert squares == [((a + j0 * w) % ww, b) for a, b in zero[key][0]]
            if key == "h":
                want = Counter()
                want[p2 * j0 % w] += p2
                want[q2 * j0 % w] += q2
                assert dict(counts) == want
                assert {d[:2] for d in doubles} == {(p2 * j0 % w, q2 * j0 % w)}
                assert doubles[0][2] == f"x={p2 * j0 * w}/{p2}"
            else:
                assert counts == ((s2 * j0 % w, w),) and not doubles
            assert records(key, squares, types) == \
                [shifted(r, j0) for r in block0[key]], (str(param), key, j0)


def check_light_lists(param):
    """The closed-form lights of every line against the light rule _light
    on every crossing residue."""
    w = param.omega
    by_line = light_lists(param)
    mass = [mass_scaled(param, b) for b in range(w)]
    for c in range(w):
        cap = capacity_scaled(param, c)
        want = [_light(cap, mass[b]) for b in range(w)]
        assert sorted(by_line[c]) == [b for b in range(w) if want[b]], \
            (str(param), c)


def test_light_lists_match_light_rule_to_61():
    for param in even_rationals(61):
        check_light_lists(param)


@settings(max_examples=30, deadline=None)
@given(params())
def test_light_lists_match_light_rule(param):
    check_light_lists(param)


@settings(max_examples=10, deadline=None)
@given(params(), st.integers(-MAX_OMEGA, MAX_OMEGA), st.integers(-1, 1))
def test_traced_polygons_come_out_canonical_and_sorted(param, bi, bj):
    """The walk order of trace_polygons is the canonical vertex order, and
    the scan order is the sorted polygon order."""
    polys = trace_polygons(param, (bi, bj))
    assert all(pg == PlaidPolygon.from_centers(pg.verts2) for pg in polys)
    assert polys == sorted(polys, key=lambda pg: pg.verts2)


@st.composite
def block_edges(draw, w):
    """40 unit edges of a block as (axis, n, m), indexing BlockGrid's arrays:
    the horizontal edge from (n, m) has n < w, m <= w, the vertical one
    n <= w, m < w."""
    edges = []
    for _ in range(40):
        axis = draw(st.sampled_from("hv"))
        i, j = draw(st.integers(0, w - 1)), draw(st.integers(0, w))
        edges.append((axis, i, j) if axis == "h" else (axis, j, i))
    return edges


@settings(max_examples=15, deadline=None)
@given(params(), st.integers(-2 * MAX_OMEGA, 2 * MAX_OMEGA), st.data())
def test_block_counts_match_segment_points(param, bi, data):
    """BlockGrid light counts and the closed two-point census of a block,
    edge by edge, against the reference on the block's true segments."""
    w = param.omega
    grid = BlockGrid(param, bi)
    hc, vc = closed_point_counts(param)
    for axis, n, m in data.draw(block_edges(w)):
        k, e = (m, n) if axis == "h" else (n, m)
        seg = UnitSegment(axis, bi * w + n, m)
        lights, points = (grid.hl, hc) if axis == "h" else (grid.vl, vc)
        i = edge_index(w, axis, k, e)
        assert lights[i] == light_count(param, seg), (axis, n, m)
        assert points[i] == sum(pt.multiplicity
                                for pt in segment_points(param, seg))


def edge_index(w, axis, k, e):
    """The index of edge e of the block's row k (axis "h") in BlockGrid.hl,
    or of edge e of its column k (axis "v") in vl: both keep line k at
    a[k::w+1], the same index on either axis."""
    return e * (w + 1) + k


def reference_fill(self, tables):
    """BlockGrid._fill's former body: every light residue placed on its
    crossings, one Python step per residue and crossing; the parameter's
    tables go unread."""
    param, bi = self.param, self.bi
    w, p, q = param.omega, param.p, param.q
    hl, vl = self.hl, self.vl
    # row c and column c of a block lie on lines of one capacity
    by_line = light_lists(param)
    families = ((2 * p, _h_slots(w, p, True)),
                (2 * q, _h_slots(w, q, False)))
    for m, res in enumerate(by_line):
        for s2, slots in families:
            base = (m + s2 * bi) % w
            for rho in res:
                # the crossing windows are longer than w for the steep
                # family, so step residues by w
                r = (rho - base) % w
                while r <= s2:
                    edge, weight = slots[r]
                    hl[edge_index(w, "h", m, edge)] += weight
                    r += w
    for n, res in enumerate(by_line):
        x_abs = bi * w + n
        for s in (p, q):
            # closed_point_counts' crossing rule: line lo + e meets edge e
            lo = -(-2 * s * x_abs // w)
            for rho in res:
                vl[edge_index(w, "v", n, (rho - lo) % w)] += 1


class ReferenceGrid(BlockGrid):
    _fill = reference_fill


def check_fill(param, bi, tables=None):
    """hl, vl and masks() of one block, filled by lanes from the parameter's
    tables (built for the block when tables is None), against the former
    fill, byte for byte."""
    got, want = BlockGrid(param, bi, tables), ReferenceGrid(param, bi)
    assert type(got.hl) is bytearray and type(got.vl) is bytearray
    assert got.hl == want.hl and got.vl == want.vl, (str(param), bi)
    assert got.masks() == want.masks(), (str(param), bi)
    return got.hl + got.vl


def test_fill_matches_reference_to_31():
    """Every block (bi, 0) of every even rational with omega <= 31, all
    filled from one set of tables per parameter."""
    for param in even_rationals(31):
        tables = grid.fill_tables(param)
        for bi in range(param.omega):
            # the fill's big-endian sums carry no byte: no count exceeds 4
            assert max(check_fill(param, bi, tables)) <= 4, (str(param), bi)


@settings(max_examples=10, deadline=None)
@given(params(min_omega=101), st.integers(-2 * MAX_OMEGA, 2 * MAX_OMEGA))
def test_fill_matches_reference(param, bi):
    check_fill(param, bi)


def free_residue(res, w):
    return next(r for r in range(w) if r not in res)


@pytest.mark.parametrize("change", [
    lambda res, w: res[1:],
    lambda res, w: [free_residue(res, w)] + res[1:],
    lambda res, w: res + [free_residue(res, w)],
], ids=["dropped", "moved", "added"])
def test_light_faults_reach_fill_as_reference(change, monkeypatch):
    """One residue of one line dropped, moved to a free residue or added,
    through the same patched light_lists on both sides, for every line in
    turn and every block: the fault reaches every block, through column c0.
    Between two faults a block is built from the true lights, and two
    parameters share omega 21, so any table that outlived the lists it came
    from would show the previous fault."""
    real, planted = grid.light_lists, {}

    def faulty(param):
        by_line = real(param)
        if param in planted:
            c0 = planted[param]
            by_line[c0] = change(by_line[c0], param.omega)
        return by_line

    monkeypatch.setattr(grid, "light_lists", faulty)
    monkeypatch.setitem(globals(), "light_lists", faulty)
    for param in map(make_param, (1, 2, 4, 8, 10), (2, 5, 11, 13, 11)):
        w = param.omega
        tables = grid.fill_tables(param)
        true = [check_fill(param, bi, tables) for bi in range(w)]
        for c0, res in enumerate(real(param)):
            if change(res, w) == res:
                continue
            planted[param] = c0
            tables = grid.fill_tables(param)
            for bi in range(w):
                assert check_fill(param, bi, tables) != true[bi], (
                    str(param), c0, bi)
            del planted[param]
            assert check_fill(param, c0) == true[c0]


GOOD = [bytes((count == 1) << e for count in range(256)) for e in range(4)]


def reference_masks(grid):
    """The edge masks built one column at a time, as bytes."""
    hl, vl, w = grid.hl, grid.vl, grid.param.omega
    out = b""
    for n in range(w):
        col = hl[n * (w + 1):(n + 1) * (w + 1)]  # its edges m = 0..w
        lanes = (col[1:], col[:-1], vl[n + 1::w + 1], vl[n::w + 1])
        out += sum(int.from_bytes(lane.translate(GOOD[e]), "big")
                   for e, lane in enumerate(lanes)).to_bytes(w, "big")
    return out


def check_masks(grid):
    masks = grid.masks()
    assert type(masks) is bytes
    assert grid.masks() is masks
    assert masks == reference_masks(grid)


def test_masks_match_column_reference_to_15():
    for param in even_rationals(15):
        for bi in range(param.omega):
            check_masks(BlockGrid(param, bi))


@settings(max_examples=10, deadline=None)
@given(params(), st.integers(-2 * MAX_OMEGA, 2 * MAX_OMEGA))
def test_masks_match_column_reference(param, bi):
    check_masks(BlockGrid(param, bi))


def check_bad_squares(grid):
    """masks() against reference_masks, and incoherent_squares() against a
    per-square 0-or-2 test; returns the reference masks and the bad squares
    (n, m) in row order."""
    w = grid.param.omega
    check_masks(grid)
    ref = reference_masks(grid)
    bad = [(n, m) for m in range(w) for n in range(w)
           if ref[n * w + m].bit_count() not in (0, 2)]
    assert grid.incoherent_squares() == [(grid.bi * w + n, m) for n, m in bad]
    return ref, bad


def check_toggle(param, bi, axis, k, e):
    """Edge e of row or column k, its count toggled between 1 and not 1
    before the first masks() call: the masks, the bad squares in row order
    and the square that tracing names, against a per-square 0-or-2 test."""
    w = param.omega
    grid = BlockGrid(param, bi)
    counts = grid.hl if axis == "h" else grid.vl
    i = edge_index(w, axis, k, e)
    counts[i] = 0 if counts[i] == 1 else 1
    ref, bad = check_bad_squares(grid)
    # a toggled edge changes its squares' good-edge counts by one
    n, m = min(bad)
    with pytest.raises(IncoherentInput) as err:
        trace_polygons(param, (bi, 0), grid)
    assert str(err.value) == (f"square {(bi * w + n, m)} has "
                              f"{ref[n * w + m].bit_count()} good edges")


@pytest.mark.parametrize("pq", [(1, 2), (2, 5), (4, 11)])
def test_edge_toggles_match_per_square_reference(pq):
    """Every edge of blocks 0 and 1, rows 0 and omega of hl and columns 0
    and omega of vl among them, where the lanes meet."""
    param = make_param(*pq)
    for bi in (0, 1):
        for axis in "hv":
            for k in range(param.omega + 1):
                for e in range(param.omega):
                    check_toggle(param, bi, axis, k, e)


@settings(max_examples=15, deadline=None)
@given(params(101), st.integers(-101, 101), st.sampled_from("hv"), st.data())
def test_edge_toggle_matches_per_square_reference(param, bi, axis, data):
    """A toggle on a random line, or on the block's first or last one."""
    w = param.omega
    line = data.draw(st.sampled_from([0, w]) | st.integers(0, w))
    check_toggle(param, bi, axis, line, data.draw(st.integers(0, w - 1)))


def check_end_lines(param, bi, axis):
    """The edges 0 and omega - 1 of lines 0 and omega of one axis, toggled
    after the fill and before the first masks() call: each of the four
    alone and every set of them together.  Rows 0 and omega are the rows
    masks() cuts out of hl's columns; columns 0 and omega are the ends of
    the columns masks() puts in square order for the E and W lanes."""
    w = param.omega
    corners = [edge_index(w, axis, k, e) for k in (0, w) for e in (0, w - 1)]
    for picks in range(1, 16):
        grid = BlockGrid(param, bi)
        counts = grid.hl if axis == "h" else grid.vl
        for bit, i in enumerate(corners):
            if picks >> bit & 1:
                counts[i] = 0 if counts[i] == 1 else 1
        check_bad_squares(grid)


def test_end_rows_toggled_match_reference_at_omega_3():
    for bi in range(3):
        check_end_lines(make_param(1, 2), bi, "h")


@settings(max_examples=5, deadline=None)
@given(params(min_omega=101), st.integers(-2 * MAX_OMEGA, 2 * MAX_OMEGA))
def test_end_rows_toggled_match_reference(param, bi):
    check_end_lines(param, bi, "h")


def test_end_columns_toggled_match_reference_at_omega_3():
    for bi in range(3):
        check_end_lines(make_param(1, 2), bi, "v")


@settings(max_examples=5, deadline=None)
@given(params(min_omega=101), st.integers(-2 * MAX_OMEGA, 2 * MAX_OMEGA))
def test_end_columns_toggled_match_reference(param, bi):
    check_end_lines(param, bi, "v")


def test_count_255_reads_as_not_good():
    """A count of 255 planted in hl (4/11, block 2, edge (5, 7)): masks()
    reads it as any other count that is not 1, however its rows are cut."""
    param = make_param(4, 11)
    grid = BlockGrid(param, 2)
    grid.hl[edge_index(param.omega, "h", 7, 5)] = 255
    check_bad_squares(grid)


def reference_grid_symmetries(param, by_line):
    """_grid_symmetries crossing by crossing on light flags, line c's lights
    being by_line[c] (light_lists)."""
    w = param.omega
    flags = [[r in lit for r in range(w)] for lit in map(set, by_line)]
    for c in range(w):
        lit, mirror = flags[c], flags[-c % w]
        for b in range(w):
            # rotation: (H c, crossing b) -> (H -c, crossing -b)
            if lit[b] != mirror[-b % w]:
                return {"ok": False, "case": "rotation-H", "at": (c, b)}
            # x-reflection, horizontal host: crossing intercept b - 2c
            if lit[b] != mirror[(b - 2 * c) % w]:
                return {"ok": False, "case": "reflect-H", "at": (c, b)}
            # x-reflection, vertical host x=c: type P line b maps to the
            # type Q line 2c - b through the mirror point
            if lit[b] != lit[(2 * c - b) % w]:
                return {"ok": False, "case": "reflect-V", "at": (c, b)}
    return {"ok": True, "classes": w * w}


def reference_symmetry_conjugacies(param, table):
    """symmetry_conjugacies on whole columns of the label table table: the
    cells of every rotated and reflected class against the negated and
    swapped cells of its column, and the label permutations."""
    w, p = param.omega, param.p
    ww = w * w
    for a in range(ww):
        column = point_column(param, a, 1)
        rot, flip = point_column(param, -a - 1, 1)[::-1], column[::-1]
        # -Xi of a cell (j, i1, i2) is (omega - j, omega-1 - i1, omega-1 - i2),
        # but j = 0 is its own negative up to (2*omega, 2p, 2p)
        neg = [w * ww + ww - 1 - c if c >= ww else
               (-1 - p - c // w) % w * w + (-1 - p - c) % w for c in column]
        swap = [c + (w - 1) * (c % w - c // w % w) for c in column]
        mask = bytes(itemgetter(*column)(table)).translate(_MASK_TABLE)
        rot_mask = bytes(itemgetter(*rot)(table)).translate(_MASK_TABLE)
        checks = (("rotation-map", rot, neg), ("reflection-map", flip, swap),
                  ("rotation-label", rot_mask, mask.translate(_ROT_MASKS)),
                  ("reflection-label", mask[::-1], mask.translate(_FLIP_MASKS)))
        if any(got != want for _, got, want in checks):
            b, case = next((b, case) for b in range(w)
                           for case, got, want in checks if got[b] != want[b])
            return {"ok": False, "case": case, "at": (a, b)}
    return {"ok": True, "classes": w ** 3}


def check_symmetry_references(param):
    assert verify._grid_symmetries(param) == \
        reference_grid_symmetries(param, light_lists(param)), str(param)
    assert symmetry_conjugacies(param) == \
        reference_symmetry_conjugacies(param, label_table(param)), str(param)


def test_symmetry_matches_references_to_15():
    """Both halves of the symmetry suite, on light-residue sets and column
    starts, against the per-crossing and whole-column references at every
    even rational with omega <= 15."""
    for param in even_rationals(15):
        check_symmetry_references(param)


@settings(max_examples=3, deadline=None)
@given(params(45))
def test_symmetry_matches_references(param):
    check_symmetry_references(param)


@pytest.mark.parametrize("pq, stride", [((2, 5), 1), ((4, 11), 41)])
def test_label_faults_match_symmetry_reference(pq, stride):
    """Every single-byte label fault at 2/5, and every stride-th cell's at
    4/11, gives the whole-column reference's record: a hold code given the
    mask of the code 1 (N, S), any other code the hold mask."""
    param = make_param(*pq)
    real = label_table(param)
    failed = 0
    for cell in range(0, len(real), stride):
        table = bytearray(real)
        table[cell] = 0 if table[cell] % 5 else 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifier, "label_table",
                       lambda prm, sheets=1: bytearray(table))
            got = symmetry_conjugacies(param)
        assert got == reference_symmetry_conjugacies(param, table), cell
        failed += not got["ok"]
    assert failed > len(real) // stride * 9 // 10


def paired_label_fault(param, table, cell, law):
    """table with the mask of cell changed and its image under the law's
    cell map, the negative for "rotation" and the transpose for
    "reflection", given the mask that law wants there: that law still
    holds on the table, and the other fails at the cell unless by
    coincidence."""
    w, p, ww = param.omega, param.p, param.omega ** 2
    j, i1, i2 = cell // ww, cell // w % w, cell % w
    if law == "rotation":
        image, turn = ((w - j) * ww + (w - 1 - i1) * w + w - 1 - i2 if j else
                       (-1 - p - i1) % w * w + (-1 - p - i2) % w), _ROT_MASKS
    else:
        image, turn = j * ww + i2 * w + i1, _FLIP_MASKS
    code_of = {classifier.CODE_MASKS[c]: c for c in range(16)}
    old = classifier.CODE_MASKS[table[cell]]
    # a mask its own image where the map fixes the cell, else any other one
    mask = next(m for m in code_of if m != old and
                (image != cell or turn[m] == m))
    table[cell], table[image] = code_of[mask], code_of[turn[mask]]
    return table


@pytest.mark.parametrize("pq, stride", [((2, 5), 3), ((4, 11), 29)])
def test_paired_label_faults_match_former_symmetry(pq, stride):
    """Two-cell label faults that keep one label law and break the other,
    at every stride-th cell, fiber 0 among them: the table laws must each
    be read, since neither stands for the other, and the column walk names
    the former body's center."""
    param = make_param(*pq)
    real = label_table(param)
    failed = Counter()
    for cell in range(0, len(real), stride):
        for law in ("rotation", "reflection"):
            table = paired_label_fault(param, bytearray(real), cell, law)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(classifier, "label_table",
                           lambda prm, sheets=1: bytearray(table))
                got = symmetry_conjugacies(param)
                assert got == former_symmetry_conjugacies(param), (cell, law)
            failed[law] += not got["ok"]
    assert min(failed.values()) > len(real) // stride * 3 // 4, failed


@settings(max_examples=5, deadline=None)
@given(params(61), st.data())
def test_label_fault_matches_former_symmetry(param, data):
    """One planted label fault at a random cell, past the sweep bound: the
    table laws fail and the column walk names the former body's center."""
    real = label_table(param)
    table = bytearray(real)
    cell = data.draw(st.integers(0, len(real) - 1))
    table[cell] = 0 if table[cell] % 5 else 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifier, "label_table", lambda prm, sheets=1: bytearray(table))
        got = symmetry_conjugacies(param)
        assert got == former_symmetry_conjugacies(param), (str(param), cell)
    assert not got["ok"], (str(param), cell)


@settings(max_examples=10, deadline=None)
@given(params(), st.data())
def test_grid_symmetries_beyond_sweep_bound(param, data):
    """The light set's rotation and reflection laws hold past the symmetry
    suite's bound, and flipping one light residue breaks one of them, with
    the reference's record.  (0, 0) is fixed by all three maps, so the flip
    is drawn elsewhere."""
    w = param.omega
    assert verify._grid_symmetries(param) == {"ok": True, "classes": w * w}
    c0, b0 = divmod(data.draw(st.integers(1, w * w - 1)), w)
    by_line = [list(res) for res in light_lists(param)]
    by_line[c0] = sorted(set(by_line[c0]) ^ {b0})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "light_lists", lambda prm: by_line)
        got = verify._grid_symmetries(param)
    assert not got["ok"], (c0, b0)
    assert got["case"] in ("rotation-H", "reflect-H", "reflect-V"), got
    assert got == reference_grid_symmetries(param, by_line)


def reference_empty_rectangles(param, block, K):
    """empty_rectangles by search: each light unit edge of a cut line, in
    absolute coordinates, is placed by bisect in the one cut interval it
    lies in and marks the cells on both sides of its line."""
    w = param.omega
    bi, bj = block
    cuts = [k for k in range(w + 1) if abs(capacity_scaled(param, k)) <= K]
    xc, yc = [bi * w + k for k in cuts], [bj * w + k for k in cuts]
    nx, ny = len(xc) - 1, len(yc) - 1
    grid = BlockGrid(param, bi)
    marked = [[False] * ny for _ in range(nx)]
    census = 0
    for j_line, k in enumerate(cuts):
        rows = [j for j in (j_line - 1, j_line) if 0 <= j < ny]
        for e, count in enumerate(grid.hl[k::w + 1], bi * w):
            if count:
                census += count
                i = bisect_right(xc, e) - 1
                for j in rows:
                    marked[i][j] = True
    for i_line, k in enumerate(cuts):
        cols = [i for i in (i_line - 1, i_line) if 0 <= i < nx]
        for e, count in enumerate(grid.vl[k::w + 1], bj * w):
            if count:
                census += count
                j = bisect_right(yc, e) - 1
                for i in cols:
                    marked[i][j] = True
    empty = [(i, j) for i in range(nx) for j in range(ny) if not marked[i][j]]
    return {
        "ok": bool(empty) and census == (K + 1) ** 2 - 1,
        "cells": (nx, ny),
        "empty": empty,
        "light_census": census,
        "census_bound": (K + 1) ** 2 - 1,
    }


def test_empty_rectangles_match_reference_to_15():
    """Whole records, blocks (bi, 0) and (bi, 1), every even K."""
    for param in even_rationals(15):
        w = param.omega
        for block in [(bi, bj) for bi in range(w) for bj in (0, 1)]:
            for K in range(0, w, 2):
                assert empty_rectangles(param, block, K) == \
                    reference_empty_rectangles(param, block, K), \
                    (str(param), block, K)


@settings(max_examples=8, deadline=None)
@given(params(), st.data())
def test_empty_rectangles_match_reference(param, data):
    """Blocks off the fundamental domain on both axes, random even K."""
    w = param.omega
    bi = data.draw(st.one_of(st.integers(-3 * w, -1), st.integers(w, 3 * w)))
    bj = data.draw(st.integers(-3, 3).filter(bool))
    for K in data.draw(st.lists(st.integers(0, (w - 1) // 2), min_size=1,
                                max_size=3)):
        assert empty_rectangles(param, (bi, bj), 2 * K) == \
            reference_empty_rectangles(param, (bi, bj), 2 * K), (bi, bj, K)


def reference_suite_empty_rect(param):
    """suite_empty_rect on whole empty_rectangles records: every cell of
    every (block, K) listed, the first record that fails reported."""
    w = param.omega
    for bi in range(w):
        for K in range(0, w, 2):
            r = empty_rectangles(param, (bi, 0), K)
            if not r["ok"]:
                return {"ok": False, "block": bi, "K": K,
                        "empty": len(r["empty"]),
                        "census": r["light_census"],
                        "bound": r["census_bound"]}
    return {"ok": True, "blocks": w, "K_values": list(range(0, w, 2))}


def test_suite_empty_rect_matches_reference_to_15():
    for param in even_rationals(15):
        assert verify.suite_empty_rect(param) == \
            reference_suite_empty_rect(param), str(param)


@settings(max_examples=3, deadline=None)
@given(params(45))
def test_suite_empty_rect_matches_reference(param):
    assert verify.suite_empty_rect(param) == reference_suite_empty_rect(param)


@pytest.mark.parametrize("pq", [(2, 5), (3, 8), (4, 11)])
def test_dropped_lights_fail_empty_rect_as_reference(pq):
    """The first light residue of one line dropped, for each line that has
    one: the suite fails with the reference's record."""
    param = make_param(*pq)
    real = grid.light_lists
    for c0, res in enumerate(real(param)):
        if not res:
            continue
        by_line = real(param)
        by_line[c0] = res[1:]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid, "light_lists", lambda prm: by_line)
            got = verify.suite_empty_rect(param)
            assert not got["ok"], (pq, c0)
            assert got == reference_suite_empty_rect(param), (pq, c0)


def test_lit_cell_boundaries_fail_empty_rect(monkeypatch):
    """Block 0 of 2/5 with a light point on the boundary of every cell of
    the K = 2 grid: its two inner rows carry one on each of the three spans
    and its two inner columns one each, so the census keeps its bound 8 and
    only the missing empty cell fails, at K = 2 after K = 0 passes.  The
    same fault in block 4 alone fails there, after blocks 0 to 3 pass."""
    param = make_param(2, 5)
    assert cut_offsets(param, 2) == [0, 2, 5, 7]
    fill = BlockGrid._fill

    def lit_fill(self, tables):
        fill(self, tables)
        if self.bi == lit_block:
            for k in (2, 5):
                self.hl[k::8] = bytes((1, 0, 1, 0, 0, 1, 0))
                self.vl[k::8] = bytes((1, 0, 0, 0, 0, 0, 0))

    monkeypatch.setattr(BlockGrid, "_fill", lit_fill)
    for lit_block in (0, 4):
        assert verify.suite_empty_rect(param) == {
            "ok": False, "block": lit_block, "K": 2, "empty": 0, "census": 8,
            "bound": 8}
        assert reference_suite_empty_rect(param) == \
            verify.suite_empty_rect(param)
        assert reference_empty_rectangles(param, (lit_block, 0), 2) == {
            "ok": False, "cells": (3, 3), "empty": [], "light_census": 8,
            "census_bound": 8}


def former_cell_empty(rows, cols, a, b, c, d):
    """The cell [a, b] x [c, d] has no light on its sides, read from the
    running counts of block_light_cache."""
    return (cols[a][c] == cols[a][d] and cols[b][c] == cols[b][d]
            and rows[c][a] == rows[c][b] and rows[d][a] == rows[d][b])


def former_empty_cells(rows, cols, cuts):
    """analysis._empty_cells as it read the running counts of
    block_light_cache, kept as the lane test's oracle."""
    spans = list(enumerate(zip(cuts, cuts[1:])))
    for i, (a, b) in spans:
        for j, (c, d) in spans:
            if former_cell_empty(rows, cols, a, b, c, d):
                yield i, j


def reference_suite_empty_rect_counts(param):
    """verify.suite_empty_rect as it built every block's running counts and
    summed the census and searched the first empty cell anew at every K,
    kept as its oracle."""
    w, tables = param.omega, grid.fill_tables(param)
    grids = [(K, cut_offsets(param, K)) for K in range(0, w, 2)]
    for bi in range(w):
        rows, cols = analysis.block_light_cache(BlockGrid(param, bi, tables))
        for K, cuts in grids:
            census = sum(rows[k][-1] + cols[k][-1] for k in cuts)
            if (census != (K + 1) ** 2 - 1
                    or next(former_empty_cells(rows, cols, cuts), None) is None):
                return {"ok": False, "block": bi, "K": K,
                        "empty": sum(1 for _ in former_empty_cells(rows, cols,
                                                                   cuts)),
                        "census": census, "bound": (K + 1) ** 2 - 1}
    return {"ok": True, "blocks": w, "K_values": list(range(0, w, 2))}


def caps_of(param):
    return [abs(capacity_scaled(param, k)) for k in range(param.omega + 1)]


def test_suite_empty_rect_matches_counts_to_31():
    for param in even_rationals(31):
        assert verify.suite_empty_rect(param) == \
            reference_suite_empty_rect_counts(param), str(param)


def test_witnesses_are_empty_cells_to_31():
    """Every block's witness at every K is a cell of the capacity-K grid
    with no light on its sides by the running counts."""
    for param in even_rationals(31):
        levels = list(analysis.cut_levels(caps_of(param)))
        for bi in range(param.omega):
            block = BlockGrid(param, bi)
            rows, cols = analysis.block_light_cache(block)
            for (K, cuts, _, _), box in zip(levels, analysis._witnesses(
                    block, caps_of(param), levels)):
                i, j = cuts.index(box[0]), cuts.index(box[2])
                assert box == (*cuts[i:i + 2], *cuts[j:j + 2]), (K, box)
                assert former_cell_empty(rows, cols, *box), (bi, K, box)


@settings(max_examples=3, deadline=None)
@given(params(101, 33))
def test_suite_empty_rect_matches_counts(param):
    assert verify.suite_empty_rect(param) == \
        reference_suite_empty_rect_counts(param)


@settings(max_examples=5, deadline=None)
@given(params(), st.data())
def test_lanes_match_running_counts(param, data):
    """At a random block and random K: the nested cuts against cut_offsets,
    every empty cell of the lane test in order (so the first one and the
    count), the census from line totals, and the suite's witness at K
    against block_light_cache's running counts; the witness at every K is
    a cell with no light on its sides."""
    w = param.omega
    block = BlockGrid(param, data.draw(st.integers(0, w - 1)))
    rows, cols = analysis.block_light_cache(block)
    h, v = analysis.line_totals(block, far=True)
    lanes = analysis._block_lanes(block)
    levels = list(analysis.cut_levels(caps_of(param)))
    boxes = list(analysis._witnesses(block, caps_of(param), levels))
    for half in data.draw(st.lists(st.integers(0, (w - 1) // 2), min_size=1,
                                   max_size=2)):
        K, cuts, new, masks = levels[half]
        assert K == 2 * half and cuts == cut_offsets(param, K)
        assert new == [k for k in cuts if caps_of(param)[k] == K]
        empty = list(former_empty_cells(rows, cols, cuts))
        assert list(analysis._empty_cells(*lanes, cuts, masks)) == empty
        assert sum(h[k] + v[k] for k in cuts) == \
            sum(rows[k][-1] + cols[k][-1] for k in cuts)
        assert boxes[half] in [(cuts[i], cuts[i + 1], cuts[j], cuts[j + 1])
                               for i, j in empty]
    for (K, cuts, _, _), box in zip(levels, boxes):
        i, j = cuts.index(box[0]), cuts.index(box[2])
        assert box == (*cuts[i:i + 2], *cuts[j:j + 2]), (K, box)
        assert former_cell_empty(rows, cols, *box), (K, box)


def planted_empty_rect_faults(param, monkeypatch, plants):
    """Run the suite and its running-count reference with each plant, a
    block index and a change to its hl and vl after the fill; returns how
    many records fail, asserting that each equals the reference's."""
    real_fill = BlockGrid._fill
    plant = {"bi": None}

    def fill(self, tables):
        real_fill(self, tables)
        if self.bi == plant["bi"]:
            plant["change"](self.hl, self.vl)

    monkeypatch.setattr(BlockGrid, "_fill", fill)
    failed = 0
    for bi, change in plants:
        plant.update(bi=bi, change=change)
        got = verify.suite_empty_rect(param)
        assert got == reference_suite_empty_rect_counts(param), (bi, got)
        failed += not got["ok"]
    return failed


@pytest.mark.parametrize("pq", [(2, 5), (8, 13), (10, 21), (7, 24)])
def test_moved_lights_fail_empty_rect_as_reference(pq, monkeypatch):
    """One light of one block moved onto a side of the first empty cell of
    the block's level with the fewest, from an edge of the same offset k's
    row or column, so that every line total, and so every census, stays:
    only a cell's emptiness changes.  The records equal the reference's,
    and some fail."""
    param = make_param(*pq)
    w, rng = param.omega, random.Random(sum(pq))
    plants = []
    for trial in range(8):
        bi = rng.randrange(w)
        block = BlockGrid(param, bi)
        rows, cols = analysis.block_light_cache(block)
        cuts, cells = min(((cuts, list(former_empty_cells(rows, cols, cuts)))
                           for cuts in map(cut_offsets, [param] * w,
                                           range(2, w, 2))),
                          key=lambda level: len(level[1]))
        i, j = cells[0]
        name, k, lo, hi = rng.choice(
            [("hl", cuts[j + d], cuts[i], cuts[i + 1]) for d in (0, 1)]
            + [("vl", cuts[i + d], cuts[j], cuts[j + 1]) for d in (0, 1)])
        dst = (name, edge_index(w, name[0], k, rng.randrange(lo, hi)))
        src = [(n, i) for n in ("hl", "vl") for e in range(w)
               for i in [edge_index(w, n[0], k, e)]
               if getattr(block, n)[i] and (n, i) != dst]
        if not src:  # lines 0 and omega carry no light
            continue

        def change(hl, vl, src=rng.choice(src), dst=dst):
            lanes = {"hl": hl, "vl": vl}
            lanes[src[0]][src[1]] -= 1
            lanes[dst[0]][dst[1]] += 1

        plants.append((bi, change))
    assert planted_empty_rect_faults(param, monkeypatch, plants)


@pytest.mark.parametrize("pq", [(2, 5), (4, 11), (8, 13), (10, 21)])
def test_raised_counts_fail_empty_rect_as_reference(pq, monkeypatch):
    """One edge count of one block raised by one, on random rows and
    columns and on row omega and column omega: the census is one over from
    that line's level on, and every record fails there as the reference's
    does."""
    param = make_param(*pq)
    w, rng = param.omega, random.Random(sum(pq))
    plants = []
    edges = [(rng.choice(("hl", "vl")), rng.randrange((w + 1) * w))
             for trial in range(6)] + [("hl", w * w), ("vl", w * w + w - 1)]
    for name, i in edges:

        def change(hl, vl, name=name, i=i):
            lane = hl if name == "hl" else vl
            lane[edge_index(w, name[0], *divmod(i, w))] += 1

        plants.append((rng.randrange(w), change))
    assert planted_empty_rect_faults(param, monkeypatch, plants) == 8


@settings(max_examples=30, deadline=None)
@given(params(101), st.data())
def test_traced_polygons_match_vector_polygon(param, data):
    """The traced polygon through a connector square against the polygon
    drawn by the exchange orbit of the square's center, and the edge masks
    of the drawn squares, plus one square anywhere in the block, against
    the Fraction reference good_edges."""
    w = param.omega
    bi = data.draw(st.integers(-w, 2 * w))
    bj = data.draw(st.integers(-1, 1))
    grid = BlockGrid(param, bi)
    polys = trace_polygons(param, (bi, bj), grid)
    masks = grid.masks()
    connectors = [(n, m) for n in range(w) for m in range(w)
                  if masks[n * w + m]]
    assert len(connectors) == sum(len(pg) for pg in polys)
    # a block without connectors (block 1 of 1/2) has no polygons
    squares = data.draw(st.lists(st.sampled_from(connectors), min_size=1,
                                 max_size=3)) if connectors else []
    for n, m in squares:
        c2 = (2 * (bi * w + n) + 1, 2 * (bj * w + m) + 1)
        (traced,) = [pg for pg in polys if c2 in pg.verts2]
        assert vector_polygon(param, (F(c2[0], 2), F(c2[1], 2))) == traced
    anywhere = divmod(data.draw(st.integers(0, w * w - 1)), w)
    for n, m in squares + [anywhere]:
        mask = masks[n * w + m]
        assert {e for i, e in enumerate("NSEW") if mask >> i & 1} == \
            good_edges(param, (bi * w + n, bj * w + m)), (n, m)


def cell_index(w, t, u1, u2):
    """The table index of a canonical scaled point (classifier docstring)."""
    return ((t + w) // 2 * w + (u1 + w - 1) // 2) * w + (u2 + w - 1) // 2


@settings(max_examples=10, deadline=None)
@given(params(), st.data())
def test_label_table_matches_fiber_label(param, data):
    """Table cells against the Fraction oracle on random fibers and on both
    zone-boundary fibers."""
    w = param.omega
    table = label_table(param)
    t1 = 2 * param.p - w
    odd, even = st.integers(0, w - 1).map(lambda i: 2 * i - w), \
        st.integers(0, w - 1).map(lambda i: 2 * i - w + 1)
    for _ in range(40):
        t = data.draw(st.one_of(odd, st.sampled_from((t1, -t1))))
        u1, u2 = data.draw(even), data.draw(even)
        code = table[cell_index(w, t, u1, u2)]
        diag = _ORDER[code >> 2] if code >> 2 == code & 3 else None
        point = ClassifyingPoint(F(t, w), F(u1, w), F(u2, w))
        assert fiber_label(param.bigP, point) == (CODE_LABELS[code], diag)


@pytest.mark.parametrize("max_omega, sheets", [(25, 1), (15, 2)])
def test_whole_table_matches_per_point_labels(max_omega, sheets):
    """Every cell of the base table against cell_code, and of the cover
    table against oriented_label_scaled."""
    for param in even_rationals(max_omega):
        w = param.omega
        table = label_table(param, sheets)
        assert len(table) == sheets * w ** 3
        evens = range(1 - w, w, 2)
        for t in range(1 - 2 * w, 2 * w, 2) if sheets == 2 else \
                range(-w, w, 2):
            for u1 in evens:
                got = [table[grid_cell(param, t, u1, u2, sheets)]
                       for u2 in evens]
                if sheets == 1:
                    want = [cell_code(param, grid_cell(param, t, u1, u2))
                            for u2 in evens]
                else:
                    got = [ORIENTED_CODES[c] for c in got]
                    want = [oriented_label_scaled(param, t, u1, u2)
                            for u2 in evens]
                assert got == want, (str(param), t, u1)


def test_label_table_rejects_zone_disagreement(monkeypatch):
    """Two swapped rows of the middle zone's board (U2 bands 3 and 2, the
    top two rows) show on the first boundary fiber, where that zone's fiber
    is built next to zone 1's, in the table and in cell_code of that fiber's
    top left cell (j = 2, i1 = 0, i2 = omega - 1), whose row is one of the
    two."""
    monkeypatch.setitem(_BOARDS, 2, tuple(col[:2] + col[3:1:-1] + col[4:]
                                          for col in _BOARDS[2]))
    param = make_param(2, 5)
    fault = r"zone disagreement on the fiber t=-3/7"
    with pytest.raises(PlaidError, match=fault):
        label_table(param)
    with pytest.raises(PlaidError, match=fault):
        cell_code(param, 2 * 7 * 7 + 6)


def check_boards(P, w, t):
    """_boards over the fiber t/w against the Fraction reference: its zones
    are _zones_at's, its cuts w times _zone_spec's, and each board entry of a
    nonempty band pair codes the label of checkerboard_label at the pair's
    middle."""
    T = F(t, w)
    got = _boards(w, int(P * w), t)
    assert tuple(zone for zone, _, _ in got) == _zones_at(P, T), (P, w, t)
    for zone, cuts, board in got:
        spec = _zone_spec(P, zone, T)
        assert cuts == tuple(w * u for u in spec.u), (P, w, t, zone)
        ends = (-w, *cuts, w)
        mids = [F(lo + hi, 2 * w) if lo < hi else None
                for lo, hi in zip(ends, ends[1:])]
        for b1, m1 in enumerate(mids):
            for b2, m2 in enumerate(mids):
                if m1 is not None and m2 is not None:
                    want = checkerboard_label(spec, m1, m2)[0]
                    assert CODE_LABELS[board[b1][b2]] == want, (P, w, t, b1, b2)


def test_boards_match_zone_spec():
    """Every integer fiber t in [-omega, omega), odd and even, at every even
    rational with omega <= 15."""
    for param in even_rationals(15):
        w = param.omega
        for t in range(-w, w):
            check_boards(param.bigP, w, t)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10 ** 6), st.data())
def test_boards_match_zone_spec_at_any_denominator(D, data):
    """Irrational windows read the boards over the lcm D of their
    denominators, odd or even, with any p2 = P*D in (0, D)."""
    p2 = data.draw(st.integers(1, D - 1))
    t1 = p2 - D
    for t in (-D, t1 - 1, t1, t1 + 1, 0, -t1 - 1, -t1, -t1 + 1, D - 1,
              data.draw(st.integers(-D, D - 1))):
        if -D <= t < D:
            check_boards(F(p2, D), D, t)


def cover_oracle(param, t, u1, u2):
    """The canonical scaled cover point by the Fraction reduction: the cover
    reduction is canon_frac with P doubled and T halved."""
    w = param.omega
    pt = canon_frac(2 * param.bigP, F(t, 2 * w), F(u1, w), F(u2, w))
    return 2 * w * pt.T, w * pt.U1, w * pt.U2


@settings(max_examples=25, deadline=None)
@given(params(), st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
def test_grid_cell_matches_canonical_reduction(param, a, b):
    """grid_cell against canon_scaled and the cover oracle, on images of
    centers and their negatives and swaps."""
    w = param.omega
    t, u1, u2 = xi_raw_scaled(param, a, b)
    for point in ((t, u1, u2), (-t, -u1, -u2), (t, u2, u1)):
        assert grid_cell(param, *point) == \
            cell_index(w, *canon_scaled(param.omega, 2 * param.p, *point))
        ct, cu1, cu2 = cover_oracle(param, *point)
        # the cover index runs t over [-w, 3w), canonical t over [-2w, 2w)
        if ct < -w:
            ct, cu1, cu2 = (ct + 4 * w, sym_reduce(cu1 + 4 * param.p, 2 * w),
                            sym_reduce(cu2 + 4 * param.p, 2 * w))
        assert grid_cell(param, *point, 2) == cell_index(w, ct, cu1, cu2)


@settings(max_examples=25, deadline=None)
@given(params(), st.data())
def test_decoded_cover_cells_match_oracle(param, data):
    """grid_cell(..., 2) then decode_cell against the cover oracle on random
    points of the image lattice (t odd, u1 and u2 even)."""
    w = param.omega
    big = st.integers(-10 ** 6, 10 ** 6)
    for _ in range(20):
        t, u1, u2 = (2 * data.draw(big) + 1, 2 * data.draw(big),
                     2 * data.draw(big))
        cell = grid_cell(param, t, u1, u2, 2)
        assert 0 <= cell < 2 * w ** 3
        assert decode_cell(param, cell) == cover_oracle(param, t, u1, u2)


@settings(max_examples=10, deadline=None)
@given(params(101), st.data())
def test_cover_table_codes_match_special_orbit(param, data):
    """The cover table's code at every state of the per-point orbit is the
    orbit's label there."""
    w = param.omega
    cover = label_table(param, 2)
    for _ in range(5):
        a = data.draw(st.integers(0, w * w - 1))
        b = data.draw(st.integers(0, 2 * w - 1))
        orbit = special_orbit(param, (F(2 * a + 1, 2), F(2 * b + 1, 2)))
        for state, label in zip(orbit.states, orbit.labels):
            t, u1, u2 = (int(v * w) for v in state.as_tuple())
            assert ORIENTED_CODES[cover[grid_cell(param, t, u1, u2, 2)]] \
                == label


def test_cell_code_matches_cover_table():
    """cell_code on every cell of the cover table, at every omega <= 15."""
    for param in even_rationals(15):
        table = label_table(param, 2)
        assert bytes(cell_code(param, cell) for cell in range(len(table))) \
            == table, str(param)


def oracle_code(param, cell):
    """The directed code of a cover cell through the Fraction path: the
    cell's point from the layout in the classifier docstring, canon_frac onto
    the base torus, the row and column symbols of its checkerboard cell, and
    the code reversed on the outer half of the cover (t >= omega)."""
    w, P = param.omega, param.bigP
    rest, i2 = divmod(cell, w)
    j, i1 = divmod(rest, w)
    pt = canon_frac(P, F(2 * j - w, w), F(2 * i1 - w + 1, w),
                    F(2 * i2 - w + 1, w))
    spec = _zone_spec(P, _zones_at(P, pt.T)[0], pt.T)
    row = spec.rows[3 - _band(pt.U2, spec.u)]
    col = spec.cols[_band(pt.U1, spec.u)]
    code = 4 * _ORDER.index(row) + _ORDER.index(col)
    label, diag = fiber_label(P, pt)
    assert (CODE_LABELS[code], row if row == col else None) == (label, diag)
    return REVERSED[code] if j >= w else code


@settings(max_examples=25, deadline=None)
@given(params(), st.data())
def test_cell_code_matches_fiber_label(param, data):
    """cell_code against the Fraction path on random cells of both halves of
    the cover."""
    w = param.omega
    for _ in range(20):
        cell = data.draw(st.integers(0, 2 * w ** 3 - 1))
        assert cell_code(param, cell) == oracle_code(param, cell), cell


def reference_cover_step(param, cell, edge):
    """The exchange step through points: decode the cell to its canonical
    point, add the image of the unit step across the edge, and reduce."""
    dx, dy = STEPS[edge]
    t, u1, u2 = decode_cell(param, cell)
    du = 4 * param.p * dx
    return grid_cell(param, t + du + 2 * param.omega * dy, u1 + du,
                     u2 + du + 4 * param.p * dy, 2)


def cell_point(param, cell):
    """The scaled point the table reads for the cell, t in [-omega, 3*omega)."""
    w = param.omega
    rest, i2 = divmod(cell, w)
    j, i1 = divmod(rest, w)
    return 2 * j - w, 2 * i1 - w + 1, 2 * i2 - w + 1


def point_cover_step(param, cell, edge):
    """The exchange step through the cell's table point, plus the image of
    the unit step, reduced by grid_cell."""
    dx, dy = STEPS[edge]
    t, u1, u2 = cell_point(param, cell)
    du = 4 * param.p * dx
    return grid_cell(param, t + du + 2 * param.omega * dy, u1 + du,
                     u2 + du + 4 * param.p * dy, 2)


@settings(max_examples=25, deadline=None)
@given(params(), st.data())
def test_cover_step_matches_decoded_step(param, data):
    """cover_step, a fiber shift, against the step from the table point and
    from the decoded point, across all four edges of random cells."""
    w = param.omega
    for _ in range(10):
        cell = data.draw(st.integers(0, 2 * w ** 3 - 1))
        for edge in range(4):
            assert cover_step(param, cell, edge) == \
                point_cover_step(param, cell, edge) == \
                reference_cover_step(param, cell, edge), (cell, edge)


def test_cover_step_matches_point_step_to_15():
    """cover_step against the step through the table point at every cell and
    edge of every even rational with omega <= 15."""
    for param in even_rationals(15):
        for cell in range(2 * param.omega ** 3):
            for edge in range(4):
                assert cover_step(param, cell, edge) == \
                    point_cover_step(param, cell, edge), (str(param), cell, edge)


def point_column(param, a, sheets):
    """The cells of the centers (a, 0 .. sheets*omega - 1), each reduced on
    its own: grid_cell of its image."""
    return [grid_cell(param, *xi_raw_scaled(param, a, b), sheets)
            for b in range(sheets * param.omega)]


@lru_cache(maxsize=1)
def reference_diagonals(w: int, p: int):
    """The fiber indices i1*w + i2 of each diagonal i1 + i2 = d mod w, twice
    round in steps of p in i2 from i2 = 0, as int arrays to stay small; and
    1/p mod w."""
    return tuple(array("i", [(d - p * k) % w * w + p * k % w for k in range(2 * w)])
                 for d in range(w)), pow(p, -1, w)


def reference_center_column(param, table, a):
    """table[center_cell(param, a, b)] for b = 0 .. omega - 1, table being
    label_table(param) or a translate of it: by the column fact of the module
    docstring one diagonal of one fiber, read in steps of p from b = 0."""
    w = param.omega
    diagonals, inverse = reference_diagonals(w, param.p)
    rest, i2 = divmod(classifier.center_cell(param, a, 0), w)
    j, i1 = divmod(rest, w)
    k = i2 * inverse % w
    fiber = memoryview(table)[j * w * w:(j + 1) * w * w]
    return bytes(itemgetter(*diagonals[(i1 + i2) % w][k:k + w])(fiber))


SHIFT = bytes(range(1, 256)) + b"\0"


def check_center_codes(param, table, columns=None):
    """center_codes on table, and on a translate of it, against the table
    read at the per-class reduction of every center (a, b), b < omega, of
    the columns (all of them by default), and against the former per-column
    reader."""
    w = param.omega
    got = center_codes(param, table)
    assert type(got) is bytearray and len(got) == w ** 3, str(param)
    shifted = center_codes(param, table.translate(SHIFT))
    for a in range(w * w) if columns is None else columns:
        want = bytes(table[grid_cell(param, *xi_raw_scaled(param, a, b))]
                     for b in range(w))
        assert reference_center_column(param, table, a) == want
        assert got[a * w:(a + 1) * w] == want, (str(param), a)
        assert shifted[a * w:(a + 1) * w] == want.translate(SHIFT), \
            (str(param), a)


def test_center_codes_match_references_to_31():
    """center_codes against the former columns and the per-class reduction
    at every class of every even rational with omega <= 31, on a random
    table."""
    for param in even_rationals(31):
        w = param.omega
        rng = random.Random(w * w + param.p)
        check_center_codes(param, rng.randbytes(w ** 3))


@settings(max_examples=10, deadline=None)
@given(params(min_omega=101), st.lists(st.integers(0, 10 ** 6), min_size=1,
                                       max_size=3), st.integers(0, 2 ** 32))
def test_center_codes_match_references(param, columns, seed):
    """The same at omega 101 .. MAX_OMEGA for a few columns, on a table that
    is random on the fibers of their starts (a, 0) only, so that no example
    draws omega^3 random bytes; a column a = a0 + m*omega with m > 0 reads
    its fiber through the residue law."""
    w = param.omega
    columns = [a % (w * w) for a in columns]
    table = bytearray(w ** 3)
    rng = random.Random(seed)
    for a in columns:
        j = center_cell(param, a, 0) // (w * w)
        table[j * w * w:(j + 1) * w * w] = rng.randbytes(w * w)
    check_center_codes(param, table, columns)


def former_suite_isomorphism(param):
    """suite_isomorphism's body before center_codes: each block's codes
    joined from reference_center_column, table from verify.label_table and
    blocks from verify.BlockGrid, so that both see the same planted faults."""
    w = param.omega
    table = verify.label_table(param)
    mismatches = []
    for bi in range(w):
        grid = verify.BlockGrid(param, bi)
        masks = grid.masks()
        codes = b"".join(reference_center_column(param, table, bi * w + n)
                         for n in range(w))
        if codes.translate(_MASK_TABLE) == masks:
            continue
        for i, code in enumerate(codes):
            if classifier.CODE_MASKS[code] != masks[i]:
                n, m = divmod(i, w)
                mismatches.append(((bi * w + n, m), CODE_LABELS[code],
                                   sorted(grid.good_edge_set(n, m))))
                if len(mismatches) > 4:
                    return {"ok": False, "mismatches": mismatches}
    return {"ok": not mismatches, "squares": w ** 3,
            "mismatches": mismatches}


def former_symmetry_conjugacies(param):
    """symmetry_conjugacies' body before center_codes and before the map
    checks read the starts alone: the masks as reference_center_column of
    every column of classifier.label_table, and the map checks at every
    column on a classifier.center_cell call per center."""
    w, p = param.omega, param.p
    ww = w * w
    center_cell = classifier.center_cell
    table = classifier.label_table(param).translate(_MASK_TABLE)
    masks = [reference_center_column(param, table, a) for a in range(ww)]
    for a, mask in enumerate(masks):
        c = center_cell(param, a, 0)
        neg = w * ww + ww - 1 - c if c >= ww else \
            (-1 - p - c // w) % w * w + (-1 - p - c) % w
        swap = c + (w - 1) * (c % w - c // w % w)
        checks = (("rotation-map", [center_cell(param, -a - 1, -1)], [neg]),
                  ("reflection-map", [center_cell(param, a, -1)], [swap]),
                  ("rotation-label", masks[-a - 1][::-1], mask.translate(_ROT_MASKS)),
                  ("reflection-label", mask[::-1], mask.translate(_FLIP_MASKS)))
        if any(got != want for _, got, want in checks):
            b, case = next((b, case) for b in range(w) for case, got, want in checks
                           if got[b:b + 1] != want[b:b + 1])
            return {"ok": False, "case": case, "at": (a, b)}
    return {"ok": True, "classes": w ** 3}


def former_suite_symmetry(param):
    g = verify._grid_symmetries(param)
    if not g["ok"]:
        return g
    c = former_symmetry_conjugacies(param)
    if not c["ok"]:
        return c
    return {"ok": True, "grid_classes": g["classes"],
            "center_classes": c["classes"]}


def check_former_suites(param):
    got = (verify.suite_isomorphism(param), verify.suite_symmetry(param))
    assert got == (former_suite_isomorphism(param),
                   former_suite_symmetry(param)), str(param)
    return got


FAULT_PARAMS = [(2, 5), (4, 11), (8, 13), (10, 21)]


@pytest.mark.parametrize("pq", FAULT_PARAMS)
def test_table_faults_match_former_suites(pq, monkeypatch):
    """Criteria 2 and 10 against their former bodies on the true table and
    with label_table patched in both modules: one cell given another edge
    mask, for 12 random cells and for one group of 6 (the record stops at
    the fifth mismatch), and the whole table turned by one byte."""
    param = make_param(*pq)
    real = label_table(param)
    assert all(r["ok"] for r in check_former_suites(param))
    rng = random.Random(sum(pq))
    faults = [[c] for c in rng.sample(range(len(real)), 12)]
    faults += [rng.sample(range(len(real)), 6), None]
    failed = Counter()
    for cells in faults:
        table = bytearray(real[1:] + real[:1]) if cells is None else bytearray(real)
        for c in cells or ():
            # a hold code has mask 0, the code 1 (N, S) mask 3
            table[c] = 0 if table[c] % 5 else 1
        for module in (verify, classifier):
            monkeypatch.setattr(module, "label_table",
                                lambda prm, sheets=1: bytearray(table))
        iso, sym = check_former_suites(param)
        failed["isomorphism"] += not iso["ok"]
        failed["symmetry"] += not sym["ok"]
    assert failed["isomorphism"] == len(faults), failed
    assert failed["symmetry"] > len(faults) // 2, failed


@pytest.mark.parametrize("pq", FAULT_PARAMS)
def test_flipped_edges_match_former_isomorphism(pq, monkeypatch):
    """Criterion 2 against its former body with hl edges of three blocks
    flipped, one, two and three at a time."""
    param = make_param(*pq)
    w = param.omega
    rng = random.Random(w)
    flips = {bi: rng.sample(range(w * w), k) for bi, k in ((0, 1), (1, 2), (w - 1, 3))}

    class Flipped(BlockGrid):
        def _fill(self, tables):
            super()._fill(tables)
            for i in flips.get(self.bi, ()):
                self.hl[edge_index(w, "h", *divmod(i, w))] ^= 1

    monkeypatch.setattr(verify, "BlockGrid", Flipped)
    got = verify.suite_isomorphism(param)
    assert not got["ok"] and got == former_suite_isomorphism(param), got


def step_cell(param, cell, k, sheets):
    """The cell moved k steps of (0, -sheets*p, +sheets*p) in (i1, i2)."""
    w, s = param.omega, sheets * param.p
    rest, i2 = divmod(cell, w)
    j, i1 = divmod(rest, w)
    return (j * w + (i1 - s * k) % w) * w + (i2 + s * k) % w


def test_column_fact_to_15():
    """The column fact the bijection and pet-equivalence rest on: from the
    center (a, b) to (a, b + sheets) the cell moves by (0, -sheets*p,
    +sheets*p), at every class on both sheets of every even rational with
    omega <= 15."""
    for param in even_rationals(15):
        for sheets in (1, 2):
            for a in range(param.omega ** 2):
                for b in range(sheets * param.omega):
                    assert center_cell(param, a, b + sheets, sheets) == \
                        step_cell(param, center_cell(param, a, b, sheets), 1,
                                  sheets), (str(param), a, b, sheets)


@settings(max_examples=50, deadline=None)
@given(params(), st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.sampled_from((1, 2)))
def test_column_fact(param, a, b, sheets):
    assert center_cell(param, a, b + sheets, sheets) == \
        step_cell(param, center_cell(param, a, b, sheets), 1, sheets)


def omega_step(param, cell, k):
    """The cell moved k steps of -2p^2 in i1 and i2, as from the center
    (a, b) to (a + k*omega, b) on either sheet."""
    w, s = param.omega, 2 * param.p ** 2 * k
    rest, i2 = divmod(cell, w)
    j, i1 = divmod(rest, w)
    return (j * w + (i1 - s) % w) * w + (i2 - s) % w


def test_omega_step_law_to_15():
    """The law by which criteria 5, 6 and 10 read the starts a < omega
    alone: from the center (a, b) to (a + omega, b) the cell moves by
    -2p^2 in i1 and i2, at every class on both sheets of every even
    rational with omega <= 15."""
    for param in even_rationals(15):
        w = param.omega
        for sheets in (1, 2):
            for a in range(w * w):
                for b in range(sheets * w):
                    assert center_cell(param, a + w, b, sheets) == \
                        omega_step(param, center_cell(param, a, b, sheets), 1), \
                        (str(param), a, b, sheets)


@settings(max_examples=50, deadline=None)
@given(params(min_omega=101), st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 6, 10 ** 6), st.sampled_from((1, 2)))
def test_omega_step_law(param, a, b, sheets):
    assert center_cell(param, a + param.omega, b, sheets) == \
        omega_step(param, center_cell(param, a, b, sheets), 1)


@pytest.mark.parametrize("pq", [(2, 5), (8, 13), (10, 21)])
def test_center_cell_calls_per_suite(pq, monkeypatch):
    """center_cell calls, in classifier and verify: omega per center_codes
    and sheets*omega per mark_classes, so omega + 2*omega for bijection;
    3*omega for symmetry's map checks, three at each start a < omega, as
    its label laws read the table and center_codes runs only when a law
    fails; and 4*(omega + 2) for
    pet-equivalence's conjugacy cells, b = -1 .. 2 at a = -1 .. omega, and
    omega for the starts of its codes, which are the base table's.  No
    suite reads omega^2 cells."""
    param = make_param(*pq)
    w = param.omega
    calls = Counter()
    real = classifier.center_cell

    def center_cell(prm, a, b, sheets=1):
        calls[sheets] += 1
        return real(prm, a, b, sheets)

    monkeypatch.setattr(classifier, "center_cell", center_cell)
    monkeypatch.setattr(verify, "center_cell", center_cell)
    for suite, want in (("bijection", {1: w, 2: 2 * w}),
                        ("symmetry", {1: 3 * w}),
                        ("pet-equivalence", {1: w, 2: 4 * (w + 2)})):
        calls.clear()
        assert verify.SUITES[suite](param)["ok"], suite
        assert calls == want, (suite, calls)


def former_mark_classes(param, sheets):
    """mark_classes' body before it read the starts a < omega alone: a
    classifier.center_cell call per column start (a, r), a < omega^2, and a
    key dict walk over all of them."""
    w = param.omega
    starts = {}
    for a in range(w * w):
        t, u1, u2 = xi_raw_scaled(param, a, 0)
        if sheets == 1 and (t % 2 == 0 or u1 % 2 or u2 % 2):
            return {"ok": False, "reason": f"parity at {(a, 0)}"}
        for r in range(sheets):
            cell = classifier.center_cell(param, a, r, sheets)
            rest, i2 = divmod(cell, w)
            j, i1 = divmod(rest, w)
            a0, r0, i2_0 = starts.setdefault(j * w + (i1 + i2) % w, (a, r, i2))
            if (a0, r0) != (a, r):
                k = (i2 - i2_0) * pow(sheets * param.p, -1, w) % w
                return {"ok": False, "reason": "two classes mark one cell",
                        "sheets": sheets, "cell": cell,
                        "first": (a0, r0 + sheets * k), "second": (a, r)}
    classes = sheets * w ** 3
    return {"ok": True, "classes": classes, "expected": classes}


def reference_mark_classes(param, sheets, column=point_column):
    """mark_classes by marking the cell of every class, then rescanning for
    the first cell marked twice and the two classes there.  column(param, a,
    sheets) gives the cells of the centers (a, 0 .. sheets*omega - 1)."""
    w = param.omega
    classes = sheets * w ** 3
    seen = bytearray(classes)
    for a in range(w * w):
        t, u1, u2 = xi_raw_scaled(param, a, 0)
        if sheets == 1 and (t % 2 == 0 or u1 % 2 or u2 % 2):
            return {"ok": False, "reason": f"parity at {(a, 0)}"}
        for cell in column(param, a, sheets):
            seen[cell] = 1
    marked = sum(seen)
    if marked != classes:
        first = {}
        for a in range(w * w):
            for b, cell in enumerate(column(param, a, sheets)):
                if first.setdefault(cell, (a, b)) != (a, b):
                    return {"ok": False, "reason": "two classes mark one cell",
                            "sheets": sheets, "cell": cell,
                            "first": first[cell], "second": (a, b)}
    return {"ok": marked == classes, "classes": marked, "expected": classes}


def test_mark_classes_matches_reference_to_15():
    """The column starts against marking every class, on both sheets of
    every even rational with omega <= 15."""
    for param in even_rationals(15):
        for sheets in (1, 2):
            assert mark_classes(param, sheets) == \
                reference_mark_classes(param, sheets), (str(param), sheets)


@settings(max_examples=4, deadline=None)
@given(params(61), st.sampled_from((1, 2)))
def test_mark_classes_matches_reference(param, sheets):
    assert mark_classes(param, sheets) == reference_mark_classes(param, sheets)


@pytest.mark.parametrize("pq", FAULT_PARAMS)
def test_planted_parity_fault_at_start_column(pq, monkeypatch):
    """The base side reads the parity of the start columns a < omega alone:
    a step of omega in a adds 4p*omega, an even number, to t, u1 and u2, so
    every column has its start's parity.  A parity fault planted at a start
    column, an even t or an odd u1, fails mark_classes there, and the
    cover side, which has no parity check, passes."""
    param = make_param(*pq)
    w = param.omega
    for a in range(w * w):
        assert [v % 2 for v in xi_raw_scaled(param, a, 0)] == \
            [v % 2 for v in xi_raw_scaled(param, a % w, 0)], a
    real = classifier.xi_raw_scaled
    for a0, change in ((0, (1, 0, 0)), (w - 1, (0, 1, 0)), (w // 2, (1, 0, 0))):
        def faulty(prm, a, b, a0=a0, change=change):
            point = real(prm, a, b)
            if (a, b) != (a0, 0):
                return point
            return tuple(v + d for v, d in zip(point, change))

        monkeypatch.setattr(classifier, "xi_raw_scaled", faulty)
        assert mark_classes(param, 1) == {"ok": False,
                                          "reason": f"parity at {(a0, 0)}"}
        assert mark_classes(param, 2)["ok"]


@settings(max_examples=15, deadline=None)
@given(params(31), st.sampled_from((1, 2)), st.data())
def test_planted_start_fault_matches_reference(param, sheets, data):
    """A column start (a, r), a < omega, sent to the cell of a class of a
    column a0 of another residue mod omega fails mark_classes with the
    reference's record.  mark_classes reads only the starts a < omega and
    moves the fault to the starts a + k*omega by k steps of -2p^2, so the
    reference's columns a + k*omega carry the classes b = r mod sheets
    along the diagonal of the planted cell so moved, as the column fact
    and the residue law would."""
    w = param.omega
    a = data.draw(st.integers(0, w - 1))
    r = data.draw(st.integers(0, sheets - 1))
    a0 = data.draw(st.integers(0, w - 2))
    a0 += (a0 >= a) + w * data.draw(st.integers(0, w - 1))
    planted = center_cell(param, a0, data.draw(st.integers(0, sheets * w - 1)),
                          sheets)
    real = classifier.center_cell

    def faulty_cell(prm, x, y, n=1):
        return planted if (x, y, n) == (a, r, sheets) else real(prm, x, y, n)

    def faulty_column(prm, x, n):
        column = point_column(prm, x, n)
        k, x0 = divmod(x, w)
        if x0 == a:
            start = omega_step(prm, planted, k)
            column[r::n] = [step_cell(prm, start, i, n) for i in range(w)]
        return column

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifier, "center_cell", faulty_cell)
        got = mark_classes(param, sheets)
    assert not got["ok"]
    assert got == reference_mark_classes(param, sheets, faulty_column)


# the entry edge of each directed code, 4 (no edge) for hold
ENTRY = bytes(4 if c % 5 == 0 else c >> 2 for c in range(16))


def reference_conjugacy_inverse(param, step=cover_step):
    """suite_pet_equivalence's conjugacy and inverse checks class by class:
    each connector's exit step lands on the neighbouring center's cell, the
    next connector enters across the opposite edge, and stepping back
    returns to the cell.  step stands for cover_step."""
    w = param.omega
    cover = label_table(param, 2)
    # the cover cells of the center columns a - 1, a and a + 1
    columns = [point_column(param, -1, 2), point_column(param, 0, 2)]
    for a in range(w * w):
        columns = columns[-2:] + [point_column(param, a + 1, 2)]
        for b, cell in enumerate(columns[1]):
            code = cover[cell]
            if code % 5 == 0:
                continue
            out = code & 3
            dx, dy = STEPS[out]
            cnext = step(param, cell, out)
            if cnext != columns[1 + dx][(b + dy) % (2 * w)]:
                return {"ok": False, "reason": "conjugacy", "at": (a, b)}
            # the next connector enters across the opposite edge, back to cell
            if ENTRY[cover[cnext]] != out ^ 1 or \
                    step(param, cnext, out ^ 1) != cell:
                return {"ok": False, "reason": "inverse", "at": (a, b)}
    return {"ok": True}


def reference_table_orbit(param, cover, a, b):
    """The vectors of the exchange orbit of the center (a+1/2, b+1/2), codes
    read from the cover table, to its first return; empty for hold."""
    start = center_cell(param, a, b, 2)
    cells, codes = [start], [cover[start]]
    if codes[0] % 5 == 0:
        return []
    limit = 4 * param.omega ** 2
    for _ in range(limit):
        cell = pet.cover_step(param, cells[-1], codes[-1] & 3)
        if cell == start:
            return [STEPS[c & 3] for c in codes if c % 5]
        cells.append(cell)
        codes.append(cover[cell])
    raise NonPeriodicOrbit(f"orbit of center {(a, b)} did not close in {limit}")


def reference_suite_pet_equivalence(param):
    """suite_pet_equivalence as it traced polygons, walked each orbit into a
    vector list and compared the vector path's polygon with the traced one;
    it reads what the suite reads through verify, so faults planted there
    reach both."""
    w = param.omega
    for a in range(w * w):
        for b in (0, 1):
            cell = classifier.center_cell(param, a, b, 2)
            for e, (dx, dy) in enumerate(STEPS):
                if verify.cover_step(param, cell, e) != \
                        classifier.center_cell(param, a + dx, b + dy, 2):
                    return {"ok": False, "reason": "conjugacy", "at": (a, b),
                            "edge": "NSEW"[e]}
    r = verify.check_mesh([param])
    if r["failure_count"]:
        return {"ok": False, "reason": "inverse", "worst": r["worst"][1:]}
    cover = verify.label_table(param, 2)
    orbit_total = 0
    nonempty = 0
    for bi in range(w):
        grid = verify.BlockGrid(param, bi)
        nonempty += w * w - grid.masks().count(0)
        for pg in verify.trace_polygons(param, (bi, 0), grid):
            a, m = pg.verts2[0][0] // 2, pg.verts2[0][1] // 2
            vectors = reference_table_orbit(param, cover, a, m)
            if not vectors:
                return {"ok": False, "reason": "hold at nonempty square",
                        "square": (a, m)}
            orbit_total += len(vectors)
            if path_polygon(a, m, vectors) != pg:
                return {"ok": False, "reason": "orbit polygon differs",
                        "block": bi, "square": (a, m)}
    return {"ok": orbit_total == nonempty, "orbit_steps": orbit_total,
            "connector_squares": nonempty}


def per_center_row(param, b, sheets):
    """The cells of the centers (a, b), a < omega^2, from a
    classifier.center_cell call per center, as criterion 6 read its
    conjugacy rows before it read the starts a < omega alone."""
    return [classifier.center_cell(param, a, b, sheets)
            for a in range(param.omega ** 2)]


def walked_suite_pet_equivalence(param):
    """suite_pet_equivalence's body before its byte compares, kept as their
    oracle: the orbit from each traced loop's first square follows the loop
    step by step, in either direction, through fiber_shifts' rows, and one
    cover_step call closes it.  Its conjugacy half checks every center (a,
    b), a < omega^2, b = 0, 1, on per_center_row's rows.  It reads what the
    suite reads through verify, and center_cell and _block_loops through
    classifier and grid, so faults planted there reach it.  fiber_shifts'
    rows no longer name the next fiber's rows, so 4*j' is read off
    j'*omega^2.  When the orbits close, base_code_failure reads the codes
    that the suite's span and border compares read, from the base table."""
    w, ww = param.omega, param.omega ** 2
    shifts = [(J, J // ww * 4, C1, c2)
              for J, C1, c2 in verify.fiber_shifts(param, verify.cover_step)]
    # rows[b][a] is the center (a, b)'s cover cell, b = -1 .. 2, a = -1 .. ww
    rows = [[*r, r[0], r[-1]] for r in (per_center_row(param, b, 2)
                                        for b in (0, 1, 2, -1))]
    for a in range(ww):
        for b in (0, 1):
            cell = rows[b][a]
            j4, I1, i2 = cell // ww * 4, cell % ww - cell % w, cell % w
            for e, (dx, dy) in enumerate(STEPS):
                J, _, C1, c2 = shifts[j4 + e]
                if J + (I1 + C1) % ww + (i2 + c2) % w != rows[b + dy][a + dx]:
                    return {"ok": False, "reason": "conjugacy", "at": (a, b),
                            "edge": "NSEW"[e]}
    r = verify.check_mesh([param])
    if r["failure_count"]:
        return {"ok": False, "reason": "inverse", "worst": r["worst"][1:]}
    cover = verify.label_table(param, 2)
    move = [w * dx + dy for dx, dy in STEPS]  # in flat indices n*w + m
    orbit_total = 0
    nonempty = 0
    for bi in range(w):
        grid_ = verify.BlockGrid(param, bi)
        # counted from the masks, not from the loops, so that a loop the
        # walker drops still fails orbit_total == nonempty
        nonempty += ww - grid_.masks().count(0)
        for loop in grid._block_loops(param, (bi, 0), grid_):
            a, m = divmod(bi * ww + loop[0], w)
            start = cell = classifier.center_cell(param, a, m, 2)
            if cover[cell] % 5 == 0:
                return {"ok": False, "reason": "hold at nonempty square",
                        "square": (a, m)}
            if move[cover[cell] & 3] == loop[-1] - loop[0]:
                loop = loop[:1] + loop[:0:-1]  # the orbit leaves east
            J, I1, i2 = cell - cell % ww, cell % ww - cell % w, cell % w
            j4 = cell // ww * 4
            for i, j in zip(loop, loop[1:] + loop[:1]):
                cell = J + I1 + i2
                code = cover[cell]
                if code % 5 == 0 or move[code & 3] != j - i:
                    break
                J, j4, C1, c2 = shifts[j4 + (code & 3)]
                I1, i2 = (I1 + C1) % ww, (i2 + c2) % w
            else:  # no break: the orbit followed the loop, cover_step closes it
                if verify.cover_step(param, cell, code & 3) == start:
                    orbit_total += len(loop)
                    continue
            return {"ok": False, "reason": "orbit polygon differs",
                    "block": bi, "square": (a, m)}
    return base_code_failure(param) or {
        "ok": orbit_total == nonempty, "orbit_steps": orbit_total,
        "connector_squares": nonempty}


def base_code_failure(param):
    """The first square, in block order, whose base code does not span its
    mask or ends on its block's border, as criterion 6 names it, or None.
    Each column's codes come from reference_center_column, one
    classifier.center_cell call per column a at (a, 0), so a fault planted
    at a start moves its whole column, as in center_codes.  The label is
    the cover code: the base code, reversed where the square's cover cell
    is outer."""
    w, ww = param.omega, param.omega ** 2
    base = verify.label_table(param)
    for bi in range(w):
        masks = verify.BlockGrid(param, bi).masks()
        for n in range(w):
            a = bi * w + n
            for m, code in enumerate(reference_center_column(param, base, a)):
                span, mask = _MASK_TABLE[code], masks[n * w + m]
                # the block's border: N at m = w - 1, S at m = 0, E at n = w
                # - 1, W at n = 0, as NSEW mask bits
                rim = ((m == w - 1) | (m == 0) << 1 | (n == w - 1) << 2
                       | (n == 0) << 3)
                if span == mask and not span & rim:
                    continue
                record = {"ok": False, "reason": "orbit polygon differs",
                          "block": bi}
                if not span:
                    record = {"ok": False, "reason": "hold at nonempty square"}
                outer = classifier.center_cell(param, a, m, 2) >= w * ww
                return {**record, "square": (a, m),
                        "good_edges": sorted(e for k, e in enumerate("NSEW")
                                             if mask >> k & 1),
                        "label": ORIENTED_CODES[REVERSED[code] if outer
                                                else code]}
    return None


@pytest.mark.parametrize("pq", FAULT_PARAMS)
def test_residue_faults_match_former_suites(pq, monkeypatch):
    """mark_classes on both sheets, the center conjugacies of criterion 10
    and criterion 6 against their bodies before they read the starts a <
    omega alone, whole records, with center_cell patched in classifier and
    verify: the centers (a, b0) with a = a0 mod omega read the cells of (a
    + da, b0 + db).  True cells obey the residue law, so the fault moves
    along a = a0 as it would from its start a0, and the former per-center
    calls see the same cells.  da is not a multiple of omega, so every
    check that reads the row b0 on its sheet fails.  Criterion 6 reads its
    codes from the base starts (a, 0), and the walked suite its codes per
    column at (a, 0): there the fault moves the codes of the columns a = a0
    mod omega, and both name the same first bad square."""
    param = make_param(*pq)
    w = param.omega
    real = classifier.center_cell
    rng = random.Random(w)
    checks = [(lambda: mark_classes(param, 1), lambda: former_mark_classes(param, 1)),
              (lambda: mark_classes(param, 2), lambda: former_mark_classes(param, 2)),
              (lambda: symmetry_conjugacies(param),
               lambda: former_symmetry_conjugacies(param)),
              (lambda: verify.suite_pet_equivalence(param),
               lambda: walked_suite_pet_equivalence(param))]
    assert all(got() == want() for got, want in checks)
    failed = Counter()
    for sheets in (1, 2):
        for b0 in (0, 1, 2, -1):
            # da != 0 mod omega: the fault leaves the residue class
            a0, da = rng.randrange(w), rng.randrange(1, w) + w * rng.randrange(w)
            db = rng.randrange(2 * w)

            def center_cell(prm, x, y, n=1, fault=(a0, b0, sheets, da, db)):
                if (x % w, y, n) == fault[:3]:
                    return real(prm, x + fault[3], y + fault[4], n)
                return real(prm, x, y, n)

            monkeypatch.setattr(classifier, "center_cell", center_cell)
            monkeypatch.setattr(verify, "center_cell", center_cell)
            for k, (got, want) in enumerate(checks):
                record = got()
                assert record == want(), (sheets, b0, a0, da, db, k)
                failed[k] += not record["ok"]
    monkeypatch.undo()
    assert failed == {0: 1, 1: 2, 2: 2, 3: 5}, failed  # rows each check reads


def check_pet_equivalence_record(param):
    """suite_pet_equivalence's whole record equals the walked suite's and
    the reference's."""
    got = verify.suite_pet_equivalence(param)
    assert got == walked_suite_pet_equivalence(param) == \
        reference_suite_pet_equivalence(param), str(param)
    return got


def test_pet_equivalence_matches_per_class_reference_to_15():
    """The fiber-shift conjugacy and mesh inverse of the suite against the
    per-class loop, and its whole record against the walked suite and the
    reference suite, at every even rational with omega <= 15."""
    for param in even_rationals(15):
        assert check_pet_equivalence_record(param)["ok"], str(param)
        assert reference_conjugacy_inverse(param)["ok"], str(param)


@settings(max_examples=3, deadline=None)
@given(params(61))
def test_pet_equivalence_matches_per_class_reference(param):
    assert check_pet_equivalence_record(param)["ok"]
    assert reference_conjugacy_inverse(param)["ok"]


@pytest.mark.parametrize("pq", [(2, 5), (3, 8), (4, 11)])
def test_cover_step_mutant_fails_suite_and_reference(pq, monkeypatch):
    param = make_param(*pq)
    assert not reference_conjugacy_inverse(param, mutant_cover_step)["ok"]
    monkeypatch.setattr(verify, "cover_step", mutant_cover_step)
    monkeypatch.setattr(pet, "cover_step", mutant_cover_step)
    assert check_pet_equivalence_record(param) == {
        "ok": False, "reason": "conjugacy", "at": (0, 0), "edge": "N"}


def plant_cover_code(monkeypatch, cell, change):
    """One code of the cover table that suite_pet_equivalence reads through
    verify.label_table changed, for its mesh equations and its block
    compares alike.  The walked suite's orbit half reads it too, but its
    check_mesh reads pet.label_table, which stays whole."""
    real = verify.label_table

    def table(prm, sheets=1):
        codes = real(prm, sheets)
        if sheets == 2:
            codes[cell] = change(codes[cell])
        return codes

    monkeypatch.setattr(verify, "label_table", table)


@pytest.mark.parametrize("pq", [(2, 5), (4, 11)])
def test_pet_equivalence_reversed_code_matches_reference(pq, monkeypatch):
    """One cover code reversed at each cell of one loop of block 1.  Its
    ends no longer meet its two loop neighbours', so the suite's mesh
    equations fail at the cell in 4 cases and at each neighbour in 2; the
    walked suite, whose mesh reads the whole table, fails the loop at its
    start, where a reversed start runs back and forth to a neighbour and a
    reversed cell past it leaves the loop."""
    param = make_param(*pq)
    w = param.omega
    loop = next(grid._block_loops(param, (1, 0)))
    for k, i in enumerate(loop):
        monkeypatch.undo()
        cell = center_cell(param, *divmod(w * w + i, w), 2)
        plant_cover_code(monkeypatch, cell, REVERSED.__getitem__)
        t, *planted = decode_cell(param, cell)
        assert verify.suite_pet_equivalence(param) == {
            "ok": False, "reason": "inverse", "worst": (t, tuple(planted), 4)}, k
        assert walked_suite_pet_equivalence(param) == {
            "ok": False, "reason": "orbit polygon differs", "block": 1,
            "square": divmod(w * w + loop[0], w)}, k


@pytest.mark.parametrize("pq", [(2, 5), (4, 11), (10, 21), (8, 19)])
def test_reversed_codes_caught_as_walked(pq, monkeypatch):
    """One cover code reversed at each of 60 sampled connector cells: the
    suite fails at every one, naming the cell, as its mesh equations run
    on the table it reads.  The walked suite fails only at the cells of
    the centers (a, b), b < omega, that the blocks (bi, 0) read: its orbit
    half never reads the others, and its check_mesh reads pet.label_table."""
    param = make_param(*pq)
    w = param.omega
    cover = label_table(param, 2)
    read = {c for b in range(w) for c in per_center_row(param, b, 2)}
    cells = random.Random(w).sample([c for c, code in enumerate(cover)
                                     if code % 5], 60)
    for cell in cells:
        monkeypatch.undo()
        plant_cover_code(monkeypatch, cell, REVERSED.__getitem__)
        t, *planted = decode_cell(param, cell)
        assert verify.suite_pet_equivalence(param) == {
            "ok": False, "reason": "inverse", "worst": (t, tuple(planted), 4)}
        assert walked_suite_pet_equivalence(param)["ok"] == (cell not in read), \
            cell


@pytest.mark.parametrize("pq", [(2, 5), (4, 11)])
def test_pet_equivalence_toggled_edge_matches_reference(pq, monkeypatch):
    """One edge's goodness toggled in one block's light counts.  The walked
    suite's walker stops at the incoherent square; the suite's codes stay
    whole, so only the masks of the squares the edge bounds change, and it
    fails at the lower of them: "hold at nonempty square" where that
    square's mask was 0, so that its code is a hold, else "orbit polygon
    differs".  The record names both sides: the square's good edges after
    the toggle and its cover code's directed label, EMPTY for a hold; the
    walked suite's base_code_failure names the same."""
    param = make_param(*pq)
    w = param.omega
    cover = label_table(param, 2)
    for bi, i in ((1, 2 * w + 3), (w - 1, 0), (2, w * w + w - 1)):
        def faulty(prm, b, tables=None, bi=bi, i=i):
            g = BlockGrid(prm, b, tables)
            if b == bi:
                j = edge_index(w, "h", *divmod(i, w))
                g.hl[j] = 0 if g.hl[j] == 1 else 1
            return g

        # edge n of row m is the S edge of the square (n, m), the N edge of
        # (n, m - 1)
        m, n = divmod(i, w)
        square = n * w + max(m - 1, 0)
        held = BlockGrid(param, bi).masks()[square] == 0
        mask = faulty(param, bi).masks()[square]
        monkeypatch.setattr(verify, "BlockGrid", faulty)
        with pytest.raises(IncoherentInput):
            walked_suite_pet_equivalence(param)
        square = divmod(bi * w * w + square, w)
        sides = {"square": square,
                 "good_edges": sorted(e for k, e in enumerate("NSEW")
                                      if mask >> k & 1),
                 "label": ORIENTED_CODES[cover[center_cell(param, *square, 2)]]}
        record = verify.suite_pet_equivalence(param)
        assert record == (
            {"ok": False, "reason": "hold at nonempty square", **sides}
            if held else {"ok": False, "reason": "orbit polygon differs",
                          "block": bi, **sides}), (bi, i)
        assert base_code_failure(param) == record, (bi, i)
        assert (sides["label"] == "EMPTY") == held, (bi, i)


def test_fiber_shifts_match_cover_step_to_15():
    for param in even_rationals(15):
        check_fiber_shifts(param, range(2 * param.omega ** 3))


@settings(max_examples=15, deadline=None)
@given(params(min_omega=101), st.data())
def test_fiber_shifts_match_cover_step(param, data):
    cells = st.integers(0, 2 * param.omega ** 3 - 1)
    check_fiber_shifts(param, [data.draw(cells) for _ in range(50)])


def plant_shift_row(monkeypatch, row, field, change):
    """One field of one fiber_shifts row changed, wherever the suite and
    check_mesh read the table."""
    real = pet.fiber_shifts

    def shifts(prm, step):
        rows = real(prm, step)
        values = list(rows[row])
        values[field] = change(values[field])
        rows[row] = tuple(values)
        return rows

    monkeypatch.setattr(pet, "fiber_shifts", shifts)
    monkeypatch.setattr(verify, "fiber_shifts", shifts)


def orbit_rows(param):
    """Per loop the walked suite walks, in its order: its block, first
    square, and the table rows its orbit reads at every step but the last."""
    w = param.omega
    cover, move = pet.label_table(param, 2), [w * dx + dy for dx, dy in STEPS]
    for bi in range(w):
        for loop in grid._block_loops(param, (bi, 0)):
            square = divmod(bi * w * w + loop[0], w)
            cell = center_cell(param, *square, 2)
            if move[cover[cell] & 3] == loop[-1] - loop[0]:
                loop = loop[:1] + loop[:0:-1]
            rows = []
            for _ in loop[1:]:
                rows.append(cell // (w * w) * 4 + (cover[cell] & 3))
                cell = cover_step(param, cell, cover[cell] & 3)
            yield bi, square, rows


def check_corrupt_shift_row(param, row, monkeypatch):
    """The c2 shift of one fiber_shifts row off by one fails the suite's
    conjugacy half at the least center (a, b), b = 0, 1, on the row's
    fiber, which is a start: a < omega."""
    w = param.omega
    plant_shift_row(monkeypatch, row, 2, lambda c2: (c2 + 1) % w)
    j, e = divmod(row, 4)
    a, b = next((a, b) for a in range(w * w) for b in (0, 1)
                if center_cell(param, a, b, 2) // (w * w) == j)
    assert a < w, (str(param), row)
    assert verify.suite_pet_equivalence(param) == {
        "ok": False, "reason": "conjugacy", "at": (a, b), "edge": "NSEW"[e]}, \
        (str(param), row)
    return j


@pytest.mark.parametrize("pq", [(2, 5), (4, 11), (10, 21)])
def test_corrupt_shift_row_fails_conjugacy_and_mesh(pq, monkeypatch):
    """The c2 shift of one row off by one: in the fiber of the center (0, 0)
    across N, and in a fiber an orbit of block 1 crosses.  The conjugacy
    half reads every row, since every fiber holds a start of rows 0 and 1,
    so the suite fails there at the least such start; check_mesh fails on
    that fiber alone."""
    param = make_param(*pq)
    w = param.omega
    _, _, rows = next(t for t in orbit_rows(param) if t[0] == 1)
    for row in (center_cell(param, 0, 0, 2) // (w * w) * 4, rows[len(rows) // 2]):
        j = check_corrupt_shift_row(param, row, monkeypatch)
        r = pet.check_mesh([param])
        assert r["failure_count"], row
        assert {(f["fiber"] + w) // 2 % (2 * w) for f in r["failures"]} == {j}
        monkeypatch.undo()


def test_every_shift_row_fails_conjugacy_at_a_start(monkeypatch):
    """Each of the 8*omega fiber_shifts rows in turn, at every even rational
    with omega <= 11: the conjugacy half, which reads the starts a < omega
    alone, reaches every row."""
    for param in even_rationals(11):
        for row in range(8 * param.omega):
            check_corrupt_shift_row(param, row, monkeypatch)
            monkeypatch.undo()


def former_mesh_failures(param, cover, shifts):
    """pet._mesh_failures' body before turn_fiber: each neighbour fiber
    joined row by row, each row turned by c2, then the whole by C1."""
    w, ww = param.omega, param.omega ** 2
    failures = []
    for t in range(-2 * w + 1, 2 * w, 2):
        j = (t + w) // 2 % (2 * w)
        fiber = cover[j * ww:(j + 1) * ww]
        for edge in (1, 0, 2, 3):
            J2, C1, c2 = shifts[4 * j + edge]
            rows = b"".join(cover[r + c2:r + w] + cover[r:r + c2]
                            for r in range(J2, J2 + ww, w))
            here = fiber.translate(pet._ENDS[edge])
            there = (rows[C1:] + rows[:C1]).translate(pet._MEETS[edge])
            if here == there:
                continue
            e, o = _ORDER[edge], _ORDER[edge ^ 1]
            for i, (x, y) in enumerate(zip(here, there)):
                for bit, case in ((1, f"into-{e}->out-{o}"),
                                  (2, f"out-{e}->into-{o}")):
                    if (x ^ y) & bit:
                        failures.append({
                            "param": str(param), "fiber": t,
                            "cell": decode_cell(param, j * ww + i)[1:],
                            "case": case})
    return failures


@pytest.mark.parametrize("w", [3, 5, 21])
def test_turn_fiber_matches_row_rotation(w):
    """Every turn (c1, c2) of a random fiber equals the rows rotated one by
    one by c2 and then the fiber by c1 rows."""
    ww = w * w
    fiber = bytearray(random.Random(w).randbytes(ww))
    for C1 in range(0, ww, w):
        for c2 in range(w):
            rows = b"".join(fiber[r + c2:r + w] + fiber[r:r + c2]
                            for r in range(0, ww, w))
            assert classifier.turn_fiber(fiber, w, C1, c2) == \
                rows[C1:] + rows[:C1], (C1, c2)


def check_mesh_failures(param, cover=None, shifts=None):
    """The failure list, order included, against the former body."""
    cover = label_table(param, 2) if cover is None else cover
    shifts = fiber_shifts(param, cover_step) if shifts is None else shifts
    got = pet._mesh_failures(param, cover, shifts)
    assert got == former_mesh_failures(param, cover, shifts), str(param)
    return got


def planted_cover(param, cell):
    """The cover table with one code changed: a connector reversed, a hold
    given the code 1 (N, S)."""
    cover = label_table(param, 2)
    cover[cell] = REVERSED[cover[cell]] if cover[cell] % 5 else 1
    return cover


def test_mesh_failures_match_former_to_25():
    """At every even rational with omega <= 25, clean and with one code
    planted at a random cell."""
    rng = random.Random(25)
    for param in even_rationals(25):
        assert check_mesh_failures(param) == [], str(param)
        cell = rng.randrange(2 * param.omega ** 3)
        assert check_mesh_failures(param, planted_cover(param, cell)), \
            (str(param), cell)


@settings(max_examples=3, deadline=None)
@given(params(151), st.data())
def test_mesh_failures_match_former(param, data):
    assert check_mesh_failures(param) == []
    cell = data.draw(st.integers(0, 2 * param.omega ** 3 - 1))
    assert check_mesh_failures(param, planted_cover(param, cell))


@pytest.mark.parametrize("pq, stride", [((2, 5), 1), ((4, 11), 41)])
def test_cover_faults_match_former_mesh(pq, stride):
    """Every single-code cover fault at 2/5, and every stride-th cell's at
    4/11: the same failure list, order included, and never an empty one."""
    param = make_param(*pq)
    shifts = fiber_shifts(param, cover_step)
    for cell in range(0, 2 * param.omega ** 3, stride):
        assert check_mesh_failures(param, planted_cover(param, cell), shifts), cell


def test_shift_faults_match_former_mesh():
    """Each fiber_shifts row at 2/5 with its c1 or its c2 turn off by one:
    any turn, not only the exchange's, reads as in the former body.  A
    fiber whose rows or columns repeat can hide a turn off by one, so only
    most of the faults must fail."""
    param = make_param(2, 5)
    w = param.omega
    cover, real = label_table(param, 2), fiber_shifts(param, cover_step)
    failed = Counter()
    for row in range(8 * w):
        for change in ((0, w, 0), (0, 0, 1)):
            shifts = list(real)
            J, C1, c2 = (x + d for x, d in zip(real[row], change))
            shifts[row] = (J, C1 % (w * w), c2 % w)
            failed[change] += bool(check_mesh_failures(param, cover, shifts))
            assert not pet._inverse_law(param, shifts), (row, change)
    assert min(failed.values()) > 4 * w, failed


def test_inverse_law_holds():
    """The exchange's fiber shifts obey the inverse law at every even
    rational with omega <= 31 and at three larger ones."""
    large = [make_param(*pq) for pq in ((50, 51), (41, 60), (100, 101))]
    for param in [*even_rationals(31), *large]:
        assert pet._inverse_law(param, fiber_shifts(param, cover_step)), \
            str(param)


def test_reversal_swaps_end_bits():
    """The fact that lets the S and E equations answer for all four: on the
    codes 0..15 reversing a code swaps the leave and enter bits of its
    _ENDS on every edge."""
    for ends in pet._ENDS:
        for c in range(16):
            x = ends[c]
            assert ends[REVERSED[c]] == (x & 1) << 1 | x >> 1, c


@pytest.mark.parametrize("plants", [{5: 138, 41: 84}, {14: 56, 28: 198},
                                    {14: 204, 28: 22}])
def test_out_of_range_pairs_match_former_mesh(plants):
    """Two bytes past 15 at 1/2 whose S and E equations, read through
    _ENDS, hold while the four edges fail: the check must not stop at S and
    E on bytes out of the end tables' range."""
    param = make_param(1, 2)
    cover = label_table(param, 2)
    for cell, byte in plants.items():
        cover[cell] = byte
    assert check_mesh_failures(param, cover)


def test_every_byte_planted_matches_former_mesh():
    """Every byte value 0..255 planted alone at every cover cell of 1/2: the
    same failure list, order included, as the former body."""
    param = make_param(1, 2)
    clean, shifts = label_table(param, 2), fiber_shifts(param, cover_step)
    for cell in range(len(clean)):
        for byte in range(256):
            cover = bytearray(clean)
            cover[cell] = byte
            check_mesh_failures(param, cover, shifts)


def oracle_tiling(P, offset, window, eps):
    """irrational_tiling center by center in Fraction arithmetic: canon_frac
    of each image, wall_distance and fiber_label, and the same four bumps
    of the offset checked the same way.  Returns the result's labels,
    minimum distance, closest center and mismatches, or the BadOffset
    detail and suggestion."""
    x0, y0, x1, y1 = window

    def images(v):
        for n in range(x0, x1):
            x = P * (2 * n + 1)
            for m in range(y0, y1):
                y = 2 * m + 1
                yield (n, m), canon_frac(P, x + y + v[0], x + v[1],
                                         x + P * y + v[2])

    labels, best = {}, None
    for (n, m), pt in images(offset):
        d = wall_distance(P, pt)
        if best is None or d < best[0]:
            best = d, (n, m)
        if d < eps:
            bump = F(1, 2 ** 21 + 17)
            bumps = (tuple(v + j * k * bump for k, v in enumerate(offset, 1))
                     for j in range(1, 5))
            suggestion = next((v for v in bumps if all(
                wall_distance(P, q) >= eps for _, q in images(v))), None)
            return (f"center ({n}+1/2, {m}+1/2) is {d} from a wall (< {eps})",
                    suggestion)
        labels[(n, m)] = fiber_label(P, pt)[0]
    edges = {c: set() if lab == "EMPTY" else set(lab)
             for c, lab in labels.items()}
    mismatches = [((n, m), nb) for (n, m), e in edges.items()
                  for nb, side, opposite in (((n + 1, m), "E", "W"),
                                             ((n, m + 1), "N", "S"))
                  if nb in edges and (side in e) != (opposite in edges[nb])]
    return labels, best[0], best[1], mismatches


@st.composite
def irrational_ps(draw):
    """An even rational 2p/omega, or a convergent of a random continued
    fraction [0; a1, a2, ...] with a1 >= 2, so in (0, 1)."""
    if draw(st.booleans()):
        return draw(params()).bigP
    terms = draw(st.lists(st.integers(1, 6), min_size=0, max_size=12))
    P = F(0)
    for a in reversed([draw(st.integers(2, 6))] + terms):
        P = 1 / (a + P)
    return P


offsets = st.one_of(st.just((F(0),) * 3), st.tuples(*[st.builds(
    lambda den, num: F(num % (2 * den) - den, den),
    st.integers(1, 2 ** 22), st.integers(0, 2 ** 23))] * 3))


@settings(max_examples=60, deadline=None)
@given(irrational_ps(), offsets, st.integers(-6, 6), st.integers(-6, 6),
       st.integers(1, 6), st.integers(1, 6),
       st.sampled_from((F(1, 2 ** 40), F(1, 2 ** 12), F(1, 2))))
def test_irrational_window_matches_fraction_oracle(P, offset, x0, y0, dx, dy,
                                                   eps):
    """The integer window against the Fraction oracle: labels, the exact
    minimum wall distance, the closest center and the mismatches, or the
    BadOffset detail and suggestion."""
    window = (x0, y0, x0 + dx, y0 + dy)
    want = oracle_tiling(P, offset, window, eps)
    try:
        r = irrational_tiling(P, offset, window, eps)
    except BadOffset as exc:
        assert (str(exc), exc.suggestion) == want
    else:
        assert (r["labels"], r["min_wall_distance"], r["closest_center"],
                r["mismatches"]) == want
        assert r["ok"] == (not want[3])


# ---------------------------------------------------------------------------
# The SVG renderer against a Fraction renderer
# ---------------------------------------------------------------------------

def reference_svg(param, cfg):
    """render_svg with every coordinate a Fraction, floored once per pixel:
    each block's light points through light_points_on_line, duplicates
    dropped by their Fraction coordinates."""
    w = param.omega
    x0, y0, x1, y1 = cfg.window

    def px(x):
        x = F(x) - x0
        return x.numerator * cfg.scale // x.denominator

    def py(y):
        y = F(y1) - F(y)
        return y.numerator * cfg.scale // y.denominator

    def line(ax, ay, bx, by, color, width=1):
        return (f'<line x1="{px(ax)}" y1="{py(ay)}" x2="{px(bx)}" '
                f'y2="{py(by)}" stroke="{color}" stroke-width="{width}"/>')

    def clip_diag(b, s):
        pts = [(F(x), b - F(s, w) * x) for x in (x0, x1)
               if y0 <= b - F(s, w) * x <= y1]
        pts += [((b - y) / F(s, w), F(y)) for y in (y0, y1)
                if x0 <= (b - y) / F(s, w) <= x1]
        pts = sorted(set(pts))
        return (pts[0], pts[-1]) if len(pts) >= 2 else None

    blocks = [(bi, bj) for bi in range(x0 // w, (x1 - 1) // w + 1)
              for bj in range(y0 // w, (y1 - 1) // w + 1)]
    grids = {bi: BlockGrid(param, bi) for bi, _ in blocks}
    half = F(1, 2)

    def connectors(arrows):
        color = cfg.color("orientation-arrows" if arrows else "connectors")
        out = []
        for bi, bj in blocks:
            for gx in range(max(x0, bi * w), min(x1, (bi + 1) * w)):
                for gy in range(max(y0, bj * w), min(y1, (bj + 1) * w)):
                    cx, cy = gx + half, gy + half
                    if arrows:
                        code = cell_code(param, center_cell(param, gx, gy, 2))
                        edges = [code >> 2, code & 3] if code % 5 else []
                    else:
                        mask = grids[bi].edge_mask(gx - bi * w, gy - bj * w)
                        edges = [e for e in (2, 0, 1, 3) if mask >> e & 1]
                    for i, e in enumerate(edges):
                        ex, ey = cx + half * STEPS[e][0], cy + half * STEPS[e][1]
                        out.append(line(cx, cy, ex, ey, color, 2))
                        if arrows and i == 1:
                            out.append(f'<circle cx="{px(ex)}" cy="{py(ey)}" '
                                       f'r="3" fill="{color}"/>')
        return out

    body = []
    if "grid-lines" in cfg.layers:
        body += [line(x0, m, x1, m, cfg.color("H")) for m in range(y0, y1 + 1)]
        body += [line(n, y0, n, y1, cfg.color("V")) for n in range(x0, x1 + 1)]
        for fam, s in (("P", 2 * param.p), ("Q", 2 * param.q)):
            for b in range(y0 + s * x0 // w, y1 + s * x1 // w + 2):
                seg = clip_diag(b, s)
                if seg:
                    body.append(line(*seg[0], *seg[1], cfg.color(fam)))
    if "light-points" in cfg.layers:
        seen = set()
        for bi, bj in blocks:
            for family, lo, hi, v0, v1 in (
                    ("H", max(bj * w, y0), min((bj + 1) * w, y1), x0, x1),
                    ("V", max(bi * w, x0), min((bi + 1) * w, x1), y0, y1)):
                for c in range(lo, hi + 1):
                    for v, mult in light_points_on_line(
                            param, GridLine(family, c), (bi, bj)):
                        xy = (v, c) if family == "H" else (c, v)
                        if v0 <= v <= v1 and xy not in seen:
                            seen.add(xy)
                            body.append(
                                f'<circle cx="{px(xy[0])}" cy="{py(xy[1])}" '
                                f'r="{2 * mult}" '
                                f'fill="{cfg.color("light-points")}"/>')
    if "connectors" in cfg.layers:
        body += connectors(False)
    if "polygons" in cfg.layers:
        for bi, bj in blocks:
            for pg in trace_polygons(param, (bi, bj), grids[bi]):
                pts = " ".join(f"{px(x)},{py(y)}" for x, y in pg.vertices)
                body.append(f'<polygon points="{pts}" fill="none" '
                            f'stroke="{cfg.color("polygons")}" '
                            f'stroke-width="2"/>')
    if "orientation-arrows" in cfg.layers:
        body += connectors(True)
    width, height = (x1 - x0) * cfg.scale, (y1 - y0) * cfg.scale
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


@settings(max_examples=15, deadline=None)
@given(params(61), st.data())
def test_render_matches_fraction_renderer(param, data):
    """All five layers, byte for byte, on windows of up to 2 x 2 blocks
    anywhere within two blocks of the origin, negative corners included, at
    odd and even scales."""
    w = param.omega
    x0 = data.draw(st.integers(-2 * w, 2 * w))
    y0 = data.draw(st.integers(-2 * w, 2 * w))
    window = (x0, y0, x0 + data.draw(st.integers(1, w)),
              y0 + data.draw(st.integers(1, w)))
    cfg = RenderConfig(window=window, scale=data.draw(st.integers(1, 31)),
                       layers=LAYERS)
    assert render_svg(param, cfg) == reference_svg(param, cfg)


@st.composite
def crossing_windows(draw, w):
    """A window of up to 13 x 13 by the block corner (kx*w, ky*w), kx in
    -2..1 and ky in -1..1, often with an edge on the corner's lines, whose
    only crossings at integer points sit at block corners; or a window
    inside one block, possibly far from its corners."""
    kx, ky = draw(st.integers(-2, 1)) * w, draw(st.integers(-1, 1)) * w
    if draw(st.booleans()):
        kx += draw(st.integers(7, w - 7))
        ky += draw(st.integers(7, w - 7))
    x0, y0 = kx - draw(st.integers(0, 6)), ky - draw(st.integers(0, 6))
    return (x0, y0, max(kx + draw(st.integers(0, 7)), x0 + 1),
            max(ky + draw(st.integers(0, 7)), y0 + 1))


@settings(max_examples=8, deadline=None)
@given(params(201, 101), st.data())
def test_light_points_match_fraction_renderer_large(param, data):
    """The light-point layer, past the Fraction renderer test's bound:
    each line's stretch within the window gives the points the Fraction
    renderer keeps from the whole block's."""
    cfg = RenderConfig(window=data.draw(crossing_windows(param.omega)),
                       scale=data.draw(st.integers(1, 31)),
                       layers=("light-points",))
    assert render_svg(param, cfg) == reference_svg(param, cfg)


def reference_connectors(param, cfg, grids):
    """svgout._connectors before it read mask bytes, column codes and the
    axes, kept as its oracle: with grids, one edge_mask call per square;
    with grids None, the arrows, one center_cell and one cell_code call
    per square; every point through its own floor division."""
    w, scale = param.omega, cfg.scale
    x0, y0, x1, y1 = cfg.window
    arrows = grids is None
    color = cfg.color("orientation-arrows" if arrows else "connectors")

    def pixel(x, y):  # of the doubled point (x/2, y/2)
        return (x - 2 * x0) * scale // 2, (2 * y1 - y) * scale // 2

    out = []
    for bi, bj in svgout._blocks_of_window(param, cfg):
        for gx in range(max(x0, bi * w), min(x1, (bi + 1) * w)):
            for gy in range(max(y0, bj * w), min(y1, (bj + 1) * w)):
                cx, cy = 2 * gx + 1, 2 * gy + 1
                if arrows:
                    code = cell_code(param, center_cell(param, gx, gy, 2))
                    edges = [code >> 2, code & 3] if code % 5 else []
                else:
                    # in the order of the sorted letters: E, N, S, W
                    mask = grids[bi].edge_mask(gx - bi * w, gy - bj * w)
                    edges = [e for e in (2, 0, 1, 3) if mask >> e & 1]
                for i, e in enumerate(edges):
                    (ax, ay), (hx, hy) = pixel(cx, cy), pixel(
                        cx + STEPS[e][0], cy + STEPS[e][1])
                    out.append(f'<line x1="{ax}" y1="{ay}" x2="{hx}" '
                               f'y2="{hy}" stroke="{color}" stroke-width="2"/>')
                    if arrows and i == 1:
                        # head marker on the exit edge
                        out.append(f'<circle cx="{hx}" cy="{hy}" r="3" '
                                   f'fill="{color}"/>')
    return out


def layer_svg(param, cfg, lines):
    """A render of no layer, with the given body lines."""
    head = render_svg(param, RenderConfig(window=cfg.window, scale=cfg.scale,
                                          layers=()))
    return head[:-len("</svg>\n")] + "".join(x + "\n" for x in lines) + \
        "</svg>\n"


@settings(max_examples=12, deadline=None)
@given(params(201, 15), st.data())
def test_connector_layers_match_per_square_reference(param, data):
    """The connector and arrow layers, byte for byte, against one model call
    per square, on windows by a block corner or inside a block, up to
    omega 201, at odd and even scales, with a palette colour or not."""
    cfg = RenderConfig(window=data.draw(crossing_windows(param.omega)),
                       scale=data.draw(st.integers(1, 31)),
                       palette=data.draw(st.sampled_from(
                           [{}, {"connectors": "#0a0", "orientation-arrows":
                                 "teal"}])))
    grids = {bi: BlockGrid(param, bi)
             for bi, _ in svgout._blocks_of_window(param, cfg)}
    for layer, want in (("connectors", reference_connectors(param, cfg, grids)),
                        ("orientation-arrows",
                         reference_connectors(param, cfg, None))):
        got = render_svg(param, RenderConfig(
            window=cfg.window, scale=cfg.scale, layers=(layer,),
            palette=cfg.palette))
        assert got == layer_svg(param, cfg, want), layer


def check_column_codes(param, a, b, n):
    want = bytes(cell_code(param, center_cell(param, a, b + k, 2))
                 for k in range(n))
    assert bytes(column_codes(param, a, b, n)) == want, (str(param), a, b, n)


def test_column_codes_match_cell_code_to_15():
    """Whole columns of every even rational with omega <= 15, from both
    parities, at negative a and b, over two block corners (b = 0 and
    omega), and runs of one and two centers."""
    for param in even_rationals(15):
        w = param.omega
        for a in (*range(-w - 1, w + 2), w * w - 1, -w * w, 3 * w * w + 5):
            for b in (-w - 1, -w, -2, -1, 0, 1):
                check_column_codes(param, a, b, 2 * w + 3)
            for n in (0, 1, 2):
                check_column_codes(param, a, 3 - w, n)


@settings(max_examples=25, deadline=None)
@given(params(201), st.data())
def test_column_codes_match_cell_code(param, data):
    """Runs from either parity at random a and b, negative ones included,
    each ending past the block corner above its start."""
    w = param.omega
    a = data.draw(st.integers(-2 * w * w, 2 * w * w))
    corner = data.draw(st.integers(-2, 2)) * w
    b = corner - data.draw(st.integers(1, w))
    check_column_codes(param, a, b, corner - b + data.draw(st.integers(1, w)))


def test_planted_zone_disagreement_raises_as_reference(monkeypatch):
    """The boards of test_label_table_rejects_zone_disagreement: every
    column of 2/5 runs into the fault exactly when one of its centers
    does, with cell_code's error, and arrow renders raise the reference's
    error, whichever of the two boundary fibers comes first."""
    monkeypatch.setitem(_BOARDS, 2, tuple(col[:2] + col[3:1:-1] + col[4:]
                                          for col in _BOARDS[2]))
    param = make_param(2, 5)
    w = param.omega

    def outcome(f, *args):
        try:
            return bytes(f(*args))
        except PlaidError as exc:
            return str(exc)

    faults = set()
    for a in range(-w, w * w + w):
        cells = [outcome(lambda c: [cell_code(param, c)],
                         center_cell(param, a, b, 2)) for b in range(-3, w + 3)]
        errors = [c for c in cells if isinstance(c, str)]
        got = outcome(column_codes, param, a, -3, w + 6)
        assert got == (errors[0] if errors else b"".join(cells)), a
        faults.update(errors)
    assert faults == {"zone disagreement on the fiber t=-3/7",
                      "zone disagreement on the fiber t=3/7"}
    for window in ((0, 0, w * w, w), (-9, -4, 12, 9), (20, -3, 30, 5)):
        cfg = RenderConfig(window=window, layers=("orientation-arrows",))
        want = outcome(lambda: reference_connectors(param, cfg, None) and b"")
        assert isinstance(want, str)
        assert outcome(lambda: render_svg(param, cfg) and b"") == want


def reference_window_codes(P, offset, window, eps):
    """pet._window_codes before it walked the window by columns, kept as its
    oracle: each center reduced by canon_scaled and read on _boards on its
    own, its wall distance the least of eight gaps round the circle and the
    two seams.  (codes n-major, min wall distance, its center) as integers
    over the lcm D of all denominators, or (None, d, center) at a center
    closer than eps."""
    D = P.denominator
    for v in offset:
        D *= v.denominator // math.gcd(D, v.denominator)
    p2, limit = int(P * D), -math.floor(-eps * D)  # d/D < eps iff d < limit
    v0, v1, v2 = (int(v * D) for v in offset)
    x0, y0, x1, y1 = window
    codes, best, closest = bytearray(), 2 * D, None
    for n in range(x0, x1):
        s = p2 * (2 * n + 1)
        for m in range(y0, y1):
            t, u1, u2 = canon_scaled(D, p2, s + D * (2 * m + 1) + v0, s + v1,
                                     s + p2 * (2 * m + 1) + v2)
            _, (c1, c2, c3), board = _boards(D, p2, t)[0]
            # the zone-boundary fibers T = ±(1 - P) stay walls, for
            # wall_distance's reason; on one d is 0 whichever zone is read
            gaps = [abs(u - c) for u in (u1, u2) for c in (c1, c2, c3)]
            gaps += abs(t + D - p2), abs(t - D + p2)
            # gaps are <= 2D: min(g, 2D - g) round the circle; seam D - |u|
            d = min(min(gaps), 2 * D - max(gaps), D - abs(u1), D - abs(u2))
            if d < best:
                best, closest = d, (n, m)
            if d < limit:
                return None, Fraction(d, D), (n, m)
            # d >= eps > 0: the center lies in one zone and on no cut or
            # seam, so its bands need no OnWall branch
            column = board[(u1 > c1) + (u1 > c2) + (u1 > c3)]
            codes.append(column[(u2 > c1) + (u2 > c2) + (u2 > c3)])
    return codes, Fraction(best, D), closest


def reference_window_mismatches(codes, window):
    """irrational_tiling's coherence loop before the lanes: each center's E
    bit against the W bit of its east neighbour and its N bit against the S
    bit of the one above, read from the masks center by center."""
    x0, y0, x1, y1 = window
    centers = [(n, m) for n in range(x0, x1) for m in range(y0, y1)]
    # edge bits: E (4) against W (8) of the east neighbour, h on; N (1), S (2)
    masks, h = codes.translate(_MASK_TABLE), y1 - y0
    mismatches = []
    for i, (n, m) in enumerate(centers):
        if n + 1 < x1 and (masks[i] >> 2 ^ masks[i + h] >> 3) & 1:
            mismatches.append(((n, m), (n + 1, m)))
        if m + 1 < y1 and (masks[i] ^ masks[i + 1] >> 1) & 1:
            mismatches.append(((n, m), (n, m + 1)))
    return mismatches


@st.composite
def boundary_windows(draw):
    """(P, offset, window, eps).  P as in irrational_ps, or a convergent of
    up to 40 terms, so D runs past 2^64.  The offset is zero, or puts the T
    of one window column on a zone-boundary fiber T = +-(1 - P), near one
    or anywhere; its denominators reach 2^64.  Column n's T is
    P(2n + 1) + 1 + V0 mod 2, the same at every m."""
    if draw(st.booleans()):
        P = draw(irrational_ps())
    else:
        P = F(0)
        for a in reversed([2] + draw(st.lists(st.integers(1, 9), min_size=20,
                                              max_size=40))):
            P = 1 / (a + P)
    x0, y0 = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    window = (x0, y0, x0 + draw(st.integers(1, 9)),
              y0 + draw(st.integers(1, 9)))
    den = draw(st.sampled_from((1, 2 ** 21 + 17, 2 ** 64 + 13)))
    v1, v2 = (F(draw(st.integers(-den, den - 1)), den) for _ in range(2))
    kind = draw(st.sampled_from(("zero", "on", "near", "any")))
    if kind == "zero":
        offset = (F(0),) * 3
    elif kind == "any":
        offset = (F(draw(st.integers(-den, den - 1)), den), v1, v2)
    else:
        n = draw(st.integers(x0, window[2] - 1))
        fiber = draw(st.sampled_from((1 - P, P - 1)))
        gap = F(0) if kind == "on" else F(
            draw(st.integers(-2 ** 12, 2 ** 12)), 2 ** 40 * den)
        offset = (fiber - P * (2 * n + 1) - 1 + gap, v1, v2)
    eps = draw(st.sampled_from((F(1, 2 ** 100), F(1, 2 ** 40), F(1, 2 ** 12),
                                F(1, 2))))
    return P, offset, window, eps


@settings(max_examples=150, deadline=None)
@given(boundary_windows())
def test_window_columns_match_reference(case):
    """The column walk against the per-center reduction: whole (codes, min
    distance, closest center) triples, the early BadOffset returns and
    the zone-boundary fibers included."""
    assert pet._window_codes(*case) == reference_window_codes(*case)


@pytest.mark.parametrize("P", ["34/89", "55/144", "89/233", "8/21", "13/34",
                               "21/55"])
def test_explore_windows_match_reference(P):
    """The explore workload's P values with README's offset on a 100 x 100
    window."""
    case = (F(P), (F(1, 1048583), F(1, 1048609), F(1, 1048613)),
            (0, 0, 100, 100), F(1, 2 ** 40))
    got = pet._window_codes(*case)
    assert got[0] is not None and got == reference_window_codes(*case)


@settings(max_examples=150, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 8),
       st.integers(1, 8), st.data())
def test_window_lanes_match_reference(x0, y0, dx, dy, data):
    """Coherence by lanes against the per-center loop, on a coherent window
    at 34/89 with up to three codes overwritten, or on random codes: the
    same mismatches in the same order."""
    window = (x0, y0, x0 + dx, y0 + dy)
    seed = (F(1, 1048583), F(1, 1048609), F(1, 1048613))
    codes = pet._window_codes(F(34, 89), seed, window, F(1, 2 ** 40))[0]
    if data.draw(st.booleans()):
        for _ in range(data.draw(st.integers(0, 3))):
            codes[data.draw(st.integers(0, dx * dy - 1))] = data.draw(
                st.integers(0, 15))
    else:
        codes = bytearray(data.draw(st.binary(min_size=dx * dy,
                                              max_size=dx * dy)).translate(
            bytes(range(16)) * 16))
    want = reference_window_mismatches(codes, window)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pet, "_window_codes",
                   lambda *args: (codes, F(1, 2), (x0, y0)))
        r = irrational_tiling(F(34, 89), seed, window)
    assert r["mismatches"] == want and r["ok"] is not bool(want)


# ---------------------------------------------------------------------------
# The flat-index block walk, and the pictures and polygon documents written
# straight from it, against the former walker and emitters
# ---------------------------------------------------------------------------

# an edge mask's exit bit 1 << e -> (dx, dy, the next square's entry bit)
REFERENCE_MOVES = {1 << e: (*grid.STEPS[e], 1 << (e ^ 1)) for e in range(4)}


def reference_block_loops(param, block, block_grid=None):
    """grid._block_loops before it stepped flat indices, kept as its oracle:
    the walk on (n, m) pairs, one move per exit bit, bounds tested on n and
    m after every step."""
    w = param.omega
    bi, bj = block
    if block_grid is None:
        block_grid = BlockGrid(param, bi)
    masks = block_grid.masks()
    i = masks.translate(grid._INCOHERENT).find(1)
    if i >= 0:
        raise IncoherentInput(f"square {(bi * w + i // w, bj * w + i % w)} has "
                              f"{masks[i].bit_count()} good edges")
    seen = bytearray(w * w)
    for start, mask in enumerate(masks):
        if not mask or seen[start]:
            continue
        loop = []
        n, m = divmod(start, w)
        exit_bit = mask & -mask
        while not loop or n * w + m != start:
            if seen[n * w + m]:
                raise PlaidError("polygon is not embedded")
            seen[n * w + m] = 1
            loop.append(n * w + m)
            dx, dy, entry = REFERENCE_MOVES[exit_bit]
            n, m = n + dx, m + dy
            if not (0 <= n < w and 0 <= m < w):
                raise PlaidError(f"polygon escaped block at {(n, m)}")
            here = masks[n * w + m]
            if not here & entry:
                raise PlaidError(f"connector mismatch entering {(n, m)}")
            exit_bit = here ^ entry
        yield loop


def reference_polygons(param, cfg, grids):
    """svgout._polygons before it read the block walk: each vertex of
    trace_polygons formatted by its own f-string."""
    scale, left, top = cfg.scale, 2 * cfg.window[0], 2 * cfg.window[3]
    out = []
    for bi, bj in svgout._blocks_of_window(param, cfg):
        for pg in trace_polygons(param, (bi, bj), grids[bi]):
            pts = " ".join(f"{(x - left) * scale // 2},"
                           f"{(top - y) * scale // 2}"
                           for x, y in pg.verts2)
            out.append(f'<polygon points="{pts}" fill="none" '
                       f'stroke="{cfg.color("polygons")}" stroke-width="2"/>')
    return out


def reference_polygon_document(param, blocks):
    """serialize.polygon_document before it walked the blocks itself: the
    traced polygons of each block, two Fractions per vertex."""
    polygons = {b: trace_polygons(param, b) for b in blocks}
    return {
        "format": serialize.FORMAT_VERSION,
        "param": [param.p, param.q],
        "blocks": [list(b) for b in blocks],
        "polygons": [
            {
                "block": list(block),
                "vertices": [[str(F(x, 2)), str(F(y, 2))]
                             for x, y in pg.verts2],
            }
            for block in blocks
            for pg in polygons[block]
        ],
    }


def walk_outcome(walker, param, block, block_grid=None):
    """The loops a walker yields, then the type and text of what it raised,
    or None."""
    loops = []
    try:
        for loop in walker(param, block, block_grid):
            loops.append(loop)
    except PlaidError as exc:
        return loops, type(exc), str(exc)
    return loops, None


def test_block_loops_match_reference_to_21():
    """Every block (bi, 0) and (bi, 1) of every even rational to 21."""
    for param in even_rationals(21):
        for bi in range(param.omega):
            for bj in (0, 1):
                block_grid = BlockGrid(param, bi)
                assert list(grid._block_loops(param, (bi, bj), block_grid)) \
                    == list(reference_block_loops(param, (bi, bj),
                                                  block_grid))


@settings(max_examples=6, deadline=None)
@given(params(301, 101), st.integers(-2 * MAX_OMEGA, 2 * MAX_OMEGA),
       st.integers(-1, 1))
def test_block_loops_match_reference(param, bi, bj):
    block_grid = BlockGrid(param, bi)
    assert list(grid._block_loops(param, (bi, bj), block_grid)) == \
        list(reference_block_loops(param, (bi, bj), block_grid))


class PlantedMasks:
    """A grid whose masks() are given bytes."""

    def __init__(self, masks):
        self._masks = bytes(masks)

    def masks(self):
        return self._masks


@pytest.mark.parametrize("pq", [(1, 2), (2, 5), (4, 11), (10, 11), (8, 23)])
def test_planted_mask_faults_match_reference(pq):
    """Random squares of a block given other masks: a two-bit mask pointing
    out of the block on its border, any two-bit mask, or any mask.  Both
    walkers yield the same loops and then raise the same error with the
    same text; across the parameters every error shows."""
    param = make_param(*pq)
    w = param.omega
    rng = random.Random(w)
    border = [i for i in range(w * w) if i < w or i >= w * w - w
              or i % w in (0, w - 1)]
    two_bits = [a | b for a in (1, 2, 4, 8) for b in (1, 2, 4, 8) if a < b]
    kinds = ("good edges", "escaped block", "connector mismatch")
    seen = set()
    for trial in range(120):
        bi, bj = rng.randrange(-w, 2 * w), rng.randrange(-1, 2)
        masks = bytearray(BlockGrid(param, bi).masks())
        kind = trial % 3
        for _ in range(rng.randint(1, 3)):
            i = rng.choice(border) if kind == 0 else rng.randrange(w * w)
            masks[i] = rng.choice(two_bits) if kind < 2 else rng.randrange(16)
        planted = PlantedMasks(masks)
        got = walk_outcome(grid._block_loops, param, (bi, bj), planted)
        assert got == walk_outcome(reference_block_loops, param, (bi, bj),
                                   planted)
        if got[1] is not None:
            seen.update(k for k in kinds if k in got[2])
    assert seen == set(kinds)


@pytest.mark.parametrize("pq", [(1, 2), (2, 3), (3, 4)])
def test_coherent_walks_revisit_only_their_start(pq):
    """With 0 or 2 good edges on every square, and each step checking the
    entry edge of the square it enters, the first square a walk revisits is
    its start: a revisit through either of a square's two edges would need
    an earlier revisit of the neighbour across it.  So the reference walker,
    which raises "polygon is not embedded" at any other revisit, never does,
    on random two-bit masks (omega 3, 5, 7) and on true blocks with squares
    replanted, and the walker yields the same loops and errors."""
    param = make_param(*pq)
    w = param.omega
    rng = random.Random(w)
    two_bits = [a | b for a in (1, 2, 4, 8) for b in (1, 2, 4, 8) if a < b]
    outcomes = Counter()
    for trial in range(3000):
        if trial % 2:
            masks = [rng.choice(two_bits) if rng.random() < 0.8 else 0
                     for _ in range(w * w)]
        else:
            masks = bytearray(BlockGrid(param, rng.randrange(w)).masks())
            for _ in range(rng.randint(1, 3)):
                masks[rng.randrange(w * w)] = rng.choice(two_bits + [0])
        planted = PlantedMasks(masks)
        want = walk_outcome(reference_block_loops, param, (0, 0), planted)
        assert want[1] is None or "not embedded" not in want[2], masks
        assert walk_outcome(grid._block_loops, param, (0, 0), planted) == want
        outcomes[want[2].split(" ")[1] if want[1] else "closed"] += 1
    # loops closed, and walks stopped at both errors a coherent mask allows
    assert set(outcomes) == {"closed", "escaped", "mismatch"}, outcomes


@pytest.mark.parametrize("pq", [(1, 2), (2, 3), (3, 4)])
def test_sealed_exactly_when_reference_walks(pq):
    """The walker's whole-block test passes on coherent masks exactly when
    the reference walker, testing every step, raises nothing: on random
    two-bit masks (omega 3, 5, 7) and on true blocks, as they are or with
    one to three squares replanted."""
    param = make_param(*pq)
    w = param.omega
    rng = random.Random(w)
    two_bits = [a | b for a in (1, 2, 4, 8) for b in (1, 2, 4, 8) if a < b]
    outcomes = Counter()
    for trial in range(3000):
        if trial % 2:
            masks = [rng.choice(two_bits) if rng.random() < 0.8 else 0
                     for _ in range(w * w)]
        else:
            masks = bytearray(BlockGrid(param, rng.randrange(w)).masks())
            for _ in range(rng.randint(0, 3)):
                masks[rng.randrange(w * w)] = rng.choice(two_bits + [0])
        want = walk_outcome(reference_block_loops, param, (0, 0),
                            PlantedMasks(masks))
        sealed = grid._sealed(bytes(masks), grid._rim(w), w)
        assert sealed == (want[1] is None), masks
        outcomes[sealed] += 1
    assert set(outcomes) == {True, False}, outcomes


@st.composite
def edge_windows(draw, w):
    """A window of up to 13 x 13 round the block corner (kx*w, ky*w), kx
    and ky in {-1, 0}: it spans four blocks, and its southwest corner is
    negative."""
    kx, ky = draw(st.integers(-1, 0)) * w, draw(st.integers(-1, 0)) * w
    return (kx - draw(st.integers(1, 6)), ky - draw(st.integers(1, 6)),
            kx + draw(st.integers(1, 7)), ky + draw(st.integers(1, 7)))


@settings(max_examples=8, deadline=None)
@given(params(151), st.data())
def test_polygon_layer_matches_reference(param, data):
    """The polygon layer, byte for byte, at odd and even scales, on windows
    across four blocks."""
    cfg = RenderConfig(window=data.draw(edge_windows(param.omega)),
                       scale=data.draw(st.integers(1, 31)),
                       layers=("polygons",))
    grids = {bi: BlockGrid(param, bi)
             for bi, _ in svgout._blocks_of_window(param, cfg)}
    polygons = reference_polygons(param, cfg, grids)
    head = render_svg(param, RenderConfig(window=cfg.window, scale=cfg.scale,
                                          layers=()))
    want = head[:-len("</svg>\n")] + "".join(p + "\n" for p in polygons) + \
        "</svg>\n"
    assert render_svg(param, cfg) == want


@settings(max_examples=10, deadline=None)
@given(params(151), st.lists(st.tuples(st.integers(-2 * MAX_OMEGA,
                                                   2 * MAX_OMEGA),
                                       st.integers(-1, 1)),
                             min_size=1, max_size=3), st.data())
def test_polygon_document_matches_reference(param, blocks, data):
    """Document bytes over block lists with negative blocks, and with a
    block repeated or not."""
    if data.draw(st.booleans()):
        blocks.append(blocks[0])
    assert serialize.emit(serialize.polygon_document(param, blocks)) == \
        serialize.emit(reference_polygon_document(param, blocks))


def check_document_text(param, blocks):
    text = serialize.document_text(param, blocks)
    assert text == serialize.emit(reference_polygon_document(param, blocks)), \
        (str(param), blocks)
    assert serialize.emit(serialize.parse_polygon_document(text)) == text


def test_document_text_matches_reference_to_17():
    """The writer's text against the former document's emit, at every even
    rational with omega <= 17, over all blocks (bi, 0), over the --blocks
    list 1,-1,1,0 as given (a repeated and a negative block) and as the CLI
    passes it (sorted, once each), and over no block; and one block at
    50/51."""
    for param in even_rationals(17):
        listed = [(1, 0), (-1, 0), (1, 0), (0, 0)]
        for blocks in ([(bi, 0) for bi in range(param.omega)], listed,
                       sorted(set(listed)), []):
            check_document_text(param, blocks)
    check_document_text(make_param(50, 51), [(37, 0)])


# Criterion 8 and region coherence on the integer grid, against their former
# Fraction paths
# ---------------------------------------------------------------------------

def reference_verify_first(param, trace_polygons=trace_polygons):
    """analysis.verify_first as it read the witness line through the
    Fraction view light_points_on_line, kept as its oracle."""
    w, p, q = param.omega, param.p, param.q
    y0 = next(y for y in range(1, w) if capacity_scaled(param, y) == 2)
    lights = light_points_on_line(param, GridLine("H", y0), (0, 0))
    expected_x2 = Fraction(w * w, 2 * q)
    xs = [x for x, _ in lights]
    if Fraction(0) not in xs or expected_x2 not in xs:
        return {"ok": False, "reason": "witness light points missing",
                "line": y0, "lights": [str(x) for x in xs]}
    polys = trace_polygons(param, (0, 0))
    witness = None
    for pg in polys:
        pairs = set(zip(pg.verts2, pg.verts2[1:] + pg.verts2[:1]))
        # the polygon crossing [0,1] x {y0} joins the centers below and above
        lowc, highc = (1, 2 * y0 - 1), (1, 2 * y0 + 1)
        if (lowc, highc) in pairs or (highc, lowc) in pairs:
            witness = pg
            break
    if witness is None:
        return {"ok": False, "reason": "no polygon crosses the witness segment",
                "line": y0}
    bound = Fraction(w * w, 2 * q) - 1
    x_diam = Fraction(witness.x_diameter2(), 2)
    symmetric = witness.reflected_y2(w).verts2 == witness.verts2
    return {
        "ok": x_diam >= bound and symmetric,
        "line": y0,
        "x_diameter": x_diam,
        "bound": bound,
        "symmetric": symmetric,
        "perimeter": len(witness),
    }


def reference_region_coherence(param, region, good_edges=good_edges):
    """check_coherence's former region path, kept as its oracle: every
    square of the region through good_edges, in n-major order."""
    bad = []
    x0, y0, x1, y1 = region
    for n in range(x0, x1):
        for m in range(y0, y1):
            if len(good_edges(param, (n, m))) not in (0, 2):
                bad.append((n, m))
    return bad


def witness_line(param):
    return next(y for y in range(1, param.omega)
                if capacity_scaled(param, y) == 2)


def outcome(check, *args):
    """check(*args), or the type and text of what it raised."""
    try:
        return check(*args)
    except PlaidError as exc:
        return type(exc), str(exc)


def test_verify_first_matches_reference_to_61():
    for param in even_rationals(61):
        assert analysis.verify_first(param) == reference_verify_first(param)


@settings(max_examples=4, deadline=None)
@given(params(301, 101))
def test_verify_first_matches_reference(param):
    assert analysis.verify_first(param) == reference_verify_first(param)


def former_suite_hier(param):
    """verify.suite_hier as it read each line's capacity once per block,
    kept as its oracle."""
    w, tables = param.omega, grid.fill_tables(param)
    for bi in range(w):
        block_grid = BlockGrid(param, bi, tables)
        for m in range(w):
            want = abs(capacity_scaled(param, m))
            got = sum(block_grid.hl[m::w + 1])
            if got != want:
                return {"ok": False, "line": ("H", m), "block": bi,
                        "got": got, "want": want}
            got = sum(block_grid.vl[m::w + 1])
            if got != want:
                return {"ok": False, "line": ("V", bi * w + m), "block": bi,
                        "got": got, "want": want}
    return {"ok": True, "lines_checked": 2 * w * w}


def test_suite_hier_matches_former_to_31():
    for param in even_rationals(31):
        assert verify.suite_hier(param) == former_suite_hier(param)


@pytest.mark.parametrize("pq", [(1, 2), (2, 5), (4, 11), (8, 13), (10, 21)])
def test_planted_count_faults_match_former_hier(pq, monkeypatch):
    """One byte of one block's hl or vl changed, row omega of hl and the
    unused column omega of vl included: the same record, naming the same
    line."""
    param = make_param(*pq)
    w = param.omega
    rng = random.Random(w)
    real_fill = BlockGrid._fill
    plant = {}

    def fill(self, tables):
        real_fill(self, tables)
        if self.bi == plant["bi"]:
            lane = getattr(self, plant["lane"])
            lane[plant["i"]] = (lane[plant["i"]] + plant["change"]) % 256

    monkeypatch.setattr(BlockGrid, "_fill", fill)
    failed = 0
    for trial in range(16):
        bi, lane, i = (rng.randrange(w), rng.choice(("hl", "vl")),
                       rng.randrange((w + 1) * w))
        plant.update(bi=bi, lane=lane, i=edge_index(w, lane[0], *divmod(i, w)),
                     change=rng.choice((-1, 1, 2)))
        got = verify.suite_hier(param)
        assert got == former_suite_hier(param), plant
        failed += not got["ok"]
    assert failed


@pytest.mark.parametrize("change, reason", [
    (lambda res, w: res[1:], "witness light points missing"),
    (lambda res, w: [(r + 1) % w for r in res], "witness light points missing"),
    (lambda res, w: res + [(res[0] + 1) % w], None),
])
def test_light_faults_on_witness_line_match_first_reference(change, reason,
                                                            monkeypatch):
    """The witness line's light residues removed, moved or joined by
    another: the same record, or the same error when the changed lights
    break the block's coherence."""
    real = grid.light_lists

    def light_lists(param):
        by_line = list(real(param))
        y0 = witness_line(param)
        by_line[y0] = change(by_line[y0], param.omega)
        return by_line

    monkeypatch.setattr(grid, "light_lists", light_lists)
    monkeypatch.setattr(analysis, "light_lists", light_lists)
    for param in even_rationals(31):
        got = outcome(analysis.verify_first, param)
        assert got == outcome(reference_verify_first, param), param
        if reason is not None:
            assert got["reason"] == reason and got["line"] == witness_line(param)


def test_dropped_witness_matches_first_reference(monkeypatch):
    """The walk and the traced polygons without the loop through square
    (0, y0), the witness line's, whose center is (1, 2*y0 + 1) doubled."""
    def dropped(param, block=(0, 0), block_grid=None):
        highc = (1, 2 * witness_line(param) + 1)
        return [pg for pg in trace_polygons(param, block, block_grid)
                if highc not in pg.verts2]

    def dropped_loops(param, block, block_grid=None):
        return [loop for loop in grid._block_loops(param, block, block_grid)
                if witness_line(param) not in loop]

    monkeypatch.setattr(analysis, "_block_loops", dropped_loops)
    for param in even_rationals(31):
        got = analysis.verify_first(param)
        assert got == reference_verify_first(param, dropped), param
        assert got["reason"] == "no polygon crosses the witness segment"


def coherence_regions(rng, w):
    """A region round a block corner, negative or not, crossing a block row
    and a block column; a strip wider than omega^2 across a block row; and
    an empty region."""
    kx, ky = rng.randrange(-w, w + 1) * w, rng.randrange(-2, 3) * w
    corner = (kx - rng.randint(1, w), ky - rng.randint(1, w),
              kx + rng.randint(1, w), ky + rng.randint(1, w))
    x0 = rng.randrange(-2 * w * w, w * w)
    strip = (x0, ky - 1, x0 + w * w + rng.randint(1, 2 * w), ky + 1)
    return corner, strip, (kx, ky, kx, ky + w)


COHERENCE_PARAMS = [(1, 2), (2, 5), (4, 11), (8, 13), (10, 11)]


@pytest.mark.parametrize("pq", COHERENCE_PARAMS)
def test_region_coherence_matches_reference(pq):
    param = make_param(*pq)
    for region in coherence_regions(random.Random(param.omega), param.omega):
        rep = check_coherence(param, region)
        assert rep.ok and rep.bad_squares == []
        assert reference_region_coherence(param, region) == []


@pytest.mark.parametrize("pq", COHERENCE_PARAMS)
def test_planted_mask_faults_match_region_reference(pq, monkeypatch):
    """One to three squares of the fundamental domain given other masks,
    which every copy of a square shares: the same bad squares, in block
    order, as the reference's n-major order; and the default sweep lists
    them as the block sweep does."""
    param = make_param(*pq)
    w = param.omega
    rng = random.Random(w)
    planted = {}
    real_masks = BlockGrid.masks

    def masks(self):
        out = bytearray(real_masks(self))
        for (x, y), mask in planted.items():
            if x // w == self.bi:
                out[x % w * w + y] = mask
        return bytes(out)

    known = {}

    def planted_good_edges(param, square):
        key = (square[0] % (w * w), square[1] % w)
        if key in planted:
            return {e for i, e in enumerate("NSEW") if planted[key] >> i & 1}
        if square not in known:
            known[square] = good_edges(param, square)
        return known[square]

    monkeypatch.setattr(BlockGrid, "masks", masks)
    regions = coherence_regions(rng, w)[:2]
    found = 0
    for trial in range(12):
        x0, y0, x1, y1 = region = regions[trial % 2]
        planted.clear()
        for _ in range(rng.randint(1, 3)):
            n, m = rng.randrange(x0, x1), rng.randrange(y0, y1)
            planted[n % (w * w), m % w] = rng.randrange(16)
        got = check_coherence(param, region).bad_squares
        assert sorted(got) == \
            reference_region_coherence(param, region, planted_good_edges)
        assert check_coherence(param).bad_squares == [
            sq for bi in range(w) for sq in BlockGrid(param, bi).incoherent_squares()]
        found += len(got)
    assert found
