import dataclasses
from fractions import Fraction as F

import pytest

from plaid import analysis, grid, verify
from plaid.params import PlaidError, even_rationals, make_param
from plaid.grid import (
    BlockGrid,
    GridLine,
    IncoherentInput,
    IntersectionPoint,
    PlaidPolygon,
    UnitSegment,
    anchor_lines,
    capacity_scaled,
    check_coherence,
    closed_point_counts,
    f_H,
    f_P,
    f_Q,
    f_V,
    good_edges,
    horizontal_particle,
    light_count,
    light_points_on_line,
    line_invariants,
    mass_scaled,
    segment_points,
    trace_particle,
    trace_polygons,
    vertical_particle,
)

# good-edge sets of the full (1,2) fundamental domain, derived by hand from
# the light/dark rule and frozen as an independent oracle
HAND_1_2 = {
    (0, 0): {"N", "E"}, (1, 0): {"W", "E"}, (2, 0): {"N", "W"},
    (0, 1): {"S", "N"}, (1, 1): set(), (2, 1): {"S", "N"},
    (0, 2): {"S", "E"}, (1, 2): {"W", "E"}, (2, 2): {"S", "W"},
    (3, 0): set(), (4, 0): set(), (5, 0): set(),
    (3, 1): set(), (4, 1): set(), (5, 1): set(),
    (3, 2): set(), (4, 2): set(), (5, 2): set(),
    (6, 0): {"N", "E"}, (7, 0): {"W", "E"}, (8, 0): {"N", "W"},
    (6, 1): {"S", "N"}, (7, 1): set(), (8, 1): {"S", "N"},
    (6, 2): {"S", "E"}, (7, 2): {"W", "E"}, (8, 2): {"S", "W"},
}


class TestAdaptedFunctions:
    def test_values_2_5(self, p25):
        assert f_V(p25, (2, 0)) == F(2, 7)
        assert f_H(p25, (0, 0)) == 0
        assert f_P(p25, (0, 2)) == F(1, 7)

    def test_preimages(self, p25):
        from plaid.params import OddIntegerClass

        # capacity values land in the even class exactly on H/V lines, mass
        # values in the odd class on the diagonal lines (the mass-omega
        # intercepts fall in the unrepresentable odd-integer class)
        for n in range(-3, 10):
            assert (p25.omega * f_V(p25, (n, F(1, 3)))) % 2 == 0
            assert (p25.omega * f_H(p25, (F(1, 3), n))) % 2 == 0
        for b in range(-3, 10):
            x = F(5, 3)
            for fn, slope in ((f_P, p25.bigP), (f_Q, p25.bigQ)):
                try:
                    val = fn(p25, (x, b - slope * x))
                except OddIntegerClass:
                    assert b % p25.omega == 0
                    continue
                assert (p25.omega * val) % 2 == 1

    def test_lattice_invariance(self, p25):
        w = p25.omega
        pt = (F(5, 3), F(7, 11))
        for fn in (f_H, f_V, f_P, f_Q):
            assert fn(p25, pt) == fn(p25, (pt[0] + w * w, pt[1]))
            assert fn(p25, pt) == fn(p25, (pt[0], pt[1] + w))


class TestLineInvariants:
    def test_examples(self, p25):
        assert line_invariants(p25, GridLine("V", 2)) == \
            line_invariants(p25, GridLine("V", 2))
        inv = line_invariants(p25, GridLine("V", 2))
        assert (inv.magnitude, inv.sign) == (2, 1)
        inv = line_invariants(p25, GridLine("H", 0))
        assert (inv.magnitude, inv.sign) == (0, 0)
        inv = line_invariants(p25, GridLine("P", 2))
        assert (inv.magnitude, inv.sign) == (1, 1)

    def test_parity_ranges(self):
        for prm in even_rationals(20):
            w = prm.omega
            for c in range(w):
                cap = line_invariants(prm, GridLine("H", c))
                assert cap.magnitude % 2 == 0 and 0 <= cap.magnitude < w
                mass = line_invariants(prm, GridLine("P", c))
                assert mass.magnitude % 2 == 1 and 1 <= mass.magnitude <= w
                assert mass == line_invariants(prm, GridLine("Q", c))

    def test_mass_omega_lines_through_corners(self, p25):
        # the mass-omega class occupies exactly the intercepts divisible
        # by omega, and its sign is unassigned
        inv = line_invariants(p25, GridLine("P", 0))
        assert (inv.magnitude, inv.sign) == (7, 0)
        assert mass_scaled(p25, 7) == 0


class TestAnchor:
    def test_2_5(self, p25):
        assert anchor_lines(p25, 1)["x"] == {2, 5}
        assert anchor_lines(p25, 0)["x"] == {0}

    def test_census_agreement(self):
        for prm in even_rationals(25):
            w = prm.omega
            for k in range((w + 1) // 2):
                want = anchor_lines(prm, k)["x"]
                got = {c for c in range(w)
                       if abs(capacity_scaled(prm, c)) == 2 * k}
                assert got == want, (prm, k)
            for k in range(1, w, 2):
                # the mass-k diagonals sit at intercepts +-k*alpha mod omega
                want = {k * prm.alpha % w, -k * prm.alpha % w}
                got = {b for b in range(w)
                       if line_invariants(prm, GridLine("P", b)).magnitude == k}
                assert got == want, (prm, k)


class TestSegmentPoints:
    def test_central_south_edge(self, p25):
        # triple point at the middle of the south boundary, counted twice
        pts = segment_points(p25, UnitSegment("h", 3, 0))
        mids = [pt for pt in pts if pt.location == (F(7, 2), F(0))]
        assert len(mids) == 1
        assert mids[0].multiplicity == 2
        assert mids[0].ptype == "both"

    def test_westernmost_south_edge(self, p25):
        pts = segment_points(p25, UnitSegment("h", 0, 0))
        locs = sorted(pt.location[0] for pt in pts)
        assert locs == [F(0), F(7, 10)]

    def test_interior_vertical_edges(self, p25):
        w = p25.omega
        for n in range(1, w):
            for m in range(w):
                pts = segment_points(p25, UnitSegment("v", n, m))
                assert sorted(pt.ptype for pt in pts) == ["P", "Q"]

    def test_two_point_census(self):
        for prm in even_rationals(11):
            hc, vc = closed_point_counts(prm)
            assert set(hc) == {2} and set(vc) == {2}, prm


class TestLightCount:
    def test_block_boundary_dark(self, p25):
        for n in range(7):
            assert light_count(p25, UnitSegment("h", n, 0)) == 0
            assert light_count(p25, UnitSegment("h", n, 7)) == 0
            assert light_count(p25, UnitSegment("v", 0, n)) == 0
            assert light_count(p25, UnitSegment("v", 7, n)) == 0

    def test_capacity2_witness(self, p25):
        # the corner light point of the positive capacity-2 line is shared
        # by the segments on both sides
        assert light_count(p25, UnitSegment("h", 0, 2)) == 1
        assert light_count(p25, UnitSegment("h", -1, 2)) == 1

    def test_full_census_against_raw_rule(self, p25):
        # independent reimplementation from the raw function values
        from plaid.params import OddIntegerClass, normalize_open

        def brute(seg):
            total = 0
            for pt in segment_points(p25, seg):
                x, y = pt.location
                host_val = (f_H if seg.axis == "h" else f_V)(p25, (x, y))
                vals = []
                for fam, fn in (("P", f_P), ("Q", f_Q)):
                    try:
                        vals.append((fam, fn(p25, (x, y))))
                    except OddIntegerClass:
                        vals.append((fam, None))
                light = {fam: v is not None and v * host_val > 0
                         and abs(v) < abs(host_val) for fam, v in vals}
                if pt.ptype == "both":
                    assert light["P"] == light["Q"], pt
                    if light["P"]:
                        total += pt.multiplicity
                elif light[pt.ptype]:
                    total += pt.multiplicity
            return total

        for n in range(0, 14):
            for m in range(8):
                assert brute(UnitSegment("h", n, m)) == \
                    light_count(p25, UnitSegment("h", n, m))
        for n in range(0, 8):
            for m in range(7):
                assert brute(UnitSegment("v", n, m)) == \
                    light_count(p25, UnitSegment("v", n, m))


class TestGoodEdgesAndCoherence:
    def test_hand_oracle_slow(self, p12):
        for sq, want in HAND_1_2.items():
            assert good_edges(p12, sq) == want, sq

    def test_hand_oracle_fast(self, p12):
        for bi in range(3):
            grid = BlockGrid(p12, bi)
            for n in range(3):
                for m in range(3):
                    assert grid.good_edge_set(n, m) == \
                        HAND_1_2[(3 * bi + n, m)]

    def test_fast_matches_slow(self):
        for prm in even_rationals(9):
            w = prm.omega
            for bi in range(w):
                grid = BlockGrid(prm, bi)
                for n in range(w):
                    for m in range(w):
                        assert grid.good_edge_set(n, m) == \
                            good_edges(prm, (bi * w + n, m)), (prm, bi, n, m)

    def test_coherence_small(self):
        for prm in even_rationals(15):
            assert check_coherence(prm).ok, prm

    def test_region_form(self, p25):
        rep = check_coherence(p25, region=(0, 0, 7, 7))
        assert rep.ok

    def test_dropping_double_count_breaks_coherence(self, p25):
        # regression witness: counting a light midpoint once instead of
        # twice flips some edges to good and breaks the 0-or-2 rule
        w = p25.omega

        def broken_count(seg):
            return sum(1 for pt in segment_points(p25, seg)
                       if pt.brightness == "light")

        bad = 0
        flipped = 0
        for bi in range(w):
            for n in range(bi * w, (bi + 1) * w):
                for m in range(w):
                    edges = [broken_count(UnitSegment("h", n, m)),
                             broken_count(UnitSegment("h", n, m + 1)),
                             broken_count(UnitSegment("v", n, m)),
                             broken_count(UnitSegment("v", n + 1, m))]
                    good = sum(1 for c in edges if c == 1)
                    if good not in (0, 2):
                        bad += 1
                    if good != len(good_edges(p25, (n, m))):
                        flipped += 1
        assert flipped > 0
        assert bad > 0


class TestPolygons:
    def test_1_2_rings(self, p12):
        polys = [pg for bi in range(3) for pg in trace_polygons(p12, (bi, 0))]
        assert [len(pg) for pg in polys] == [8, 8]
        ring0 = polys[0].verts2
        assert ring0[0] == (1, 1)
        assert set(ring0) == {(1, 1), (1, 3), (1, 5), (3, 5), (5, 5),
                              (5, 3), (5, 1), (3, 1)}

    def test_2_5_block0(self, p25):
        polys = trace_polygons(p25, (0, 0))
        assert sorted(len(pg) for pg in polys) == [4, 4, 26]

    def test_polygons_stay_in_block(self):
        for prm in even_rationals(11):
            w = prm.omega
            for bi in range(w):
                for pg in trace_polygons(prm, (bi, 0)):
                    for x2, y2 in pg.verts2:
                        assert 2 * bi * w < x2 < 2 * (bi + 1) * w
                        assert 0 < y2 < 2 * w

    def test_connector_double_counting(self, p25):
        # every good edge is shared by exactly the two squares beside it
        w = p25.omega
        for bi in range(w):
            grid = BlockGrid(p25, bi)
            two_edge = sum(1 for n in range(w) for m in range(w)
                           if len(grid.good_edge_set(n, m)) == 2)
            perim = sum(len(pg) for pg in trace_polygons(p25, (bi, 0), grid))
            assert perim == two_edge

    def test_translation_invariance(self, p25):
        a = trace_polygons(p25, (0, 0))
        b = trace_polygons(p25, (p25.omega, 0))  # same block mod omega^2
        shift = 2 * p25.omega * p25.omega
        assert [PlaidPolygon.from_centers([(x + shift, y) for x, y in pg.verts2])
                for pg in a] == b

    def test_incoherent_squares_in_row_order(self, p25):
        """Toggling one edge's goodness breaks both squares beside it; the
        bulk mask read still lists bad squares row by row."""
        w = p25.omega
        grid = BlockGrid(p25, 1)
        for counts, i in ((grid.hl, 2 * w + 3), (grid.vl, 5 * w)):
            counts[i] = 0 if counts[i] == 1 else 1
        assert grid.incoherent_squares() == [
            (w + n, m) for n, m in ((4, 0), (5, 0), (3, 1), (3, 2))]

    def test_incoherent_input_raises(self, p25):
        grid = BlockGrid(p25, 0)
        grid.hl[2 * p25.omega + 3] += 1  # corrupt one edge count
        with pytest.raises(IncoherentInput,
                           match=r"square \(3, 1\) has [13] good edges"):
            trace_polygons(p25, (0, 0), grid)

    def test_walk_checks_name_the_square(self, p25):
        """Edge masks no BlockGrid produces: a connector out of the block,
        one into an empty square, and a ring whose last step re-enters the
        start square through an edge it lacks."""

        class Masks:
            def __init__(self, by_square):
                self.by_square = by_square

            def masks(self):
                w = p25.omega
                return bytes(self.by_square.get((n, m), 0)
                             for n in range(w) for m in range(w))

        N, S, E, W = 1, 2, 4, 8
        cases = [
            ({(0, 0): S | W}, r"polygon escaped block at \(0, -1\)"),
            ({(3, 3): E | W}, r"connector mismatch entering \(4, 3\)"),
            ({(0, 0): N | S, (0, 1): S | E, (1, 1): W | S, (1, 0): N | W},
             r"connector mismatch entering \(0, 0\)"),
        ]
        for masks, message in cases:
            with pytest.raises(PlaidError, match=message):
                trace_polygons(p25, (0, 0), Masks(masks))


class TestParticles:
    def test_horizontal_structure(self, p25):
        part = horizontal_particle(p25, 2, 0)
        assert part.orientation == "horizontal"
        assert len(part.instances) == 2 * p25.omega
        assert part.types == tuple("P" * 4 + "Q" * 10)
        assert len({pt.brightness for pt in part.instances}) == 1

    def test_corner_and_midpoint_double_pass(self, p25):
        part = horizontal_particle(p25, 2, 0)
        locs = [pt.location for pt in part.instances]
        from collections import Counter
        c = Counter(locs)
        doubles = {loc for loc, k in c.items() if k == 2}
        assert len(doubles) == 2  # one block corner, one midpoint
        assert all(k <= 2 for k in c.values())

    def test_vertical_structure(self, p25):
        part = vertical_particle(p25, 3, "P", 0)
        assert len(part.instances) == p25.omega
        assert set(part.types) == {"P"}
        ys = sorted(pt.location[1] % 1 for pt in part.instances)
        assert len(set(ys)) == 1  # same fractional height on every line

    def test_vertical_motion_direction(self, p25):
        w = p25.omega
        pP = vertical_particle(p25, 3, "P", 0)
        y0, y1 = pP.instances[0].location[1], pP.instances[1].location[1]
        assert (y1 - y0) % w == 1
        pQ = vertical_particle(p25, 3, "Q", 0)
        y0, y1 = pQ.instances[0].location[1], pQ.instances[1].location[1]
        assert (y0 - y1) % w == 1

    def test_brightness_constant_everywhere(self):
        for prm in (make_param(2, 5), make_param(3, 8)):
            w = prm.omega
            for y0 in range(w):
                for j0 in range(w):
                    horizontal_particle(prm, y0, j0)  # raises on violation
            for x0 in range(w):
                for ty in "PQ":
                    for j0 in range(w):
                        vertical_particle(prm, x0, ty, j0)

    def test_wrong_adjacency_trips_brightness_check(self, p25):
        """Remote adjacency keeps a particle on one mass class; a wrong one
        walks across classes and the constant-brightness check stops it."""
        bad = dataclasses.replace(p25, adj=(p25.adj + 1) % p25.omega)
        with pytest.raises(PlaidError, match="brightness not constant"):
            for y0 in range(p25.omega):
                horizontal_particle(bad, y0, 0)
        with pytest.raises(PlaidError, match="brightness not constant"):
            for x0 in range(p25.omega):
                vertical_particle(bad, x0, "P", 0)

    def test_trace_particle_dispatch(self, p25):
        part = horizontal_particle(p25, 2, 0)
        inner = part.instances[2]
        again = trace_particle(p25, inner)
        assert {pt.location for pt in again.instances} == \
            {pt.location for pt in part.instances}
        vpart = vertical_particle(p25, 3, "Q", 2)
        again = trace_particle(p25, vpart.instances[0])
        assert {pt.location for pt in again.instances} == \
            {pt.location for pt in vpart.instances}

    def test_trace_particle_finds_own_particle(self, monkeypatch):
        """Every instance of every particle traces back to the arguments of
        its own particle; the builders are stubbed to return those."""
        import plaid.grid as grid

        for prm in even_rationals(13):
            w = prm.omega
            parts = {("H", y0, j0): horizontal_particle(prm, y0, j0)
                     for y0 in range(w) for j0 in range(w)}
            parts.update({("V", x0, ty, j0): vertical_particle(prm, x0, ty, j0)
                          for x0 in range(w) for ty in "PQ" for j0 in range(w)})
            with monkeypatch.context() as m:
                m.setattr(grid, "horizontal_particle",
                          lambda param, y0, j0: ("H", y0, j0))
                m.setattr(grid, "vertical_particle",
                          lambda param, x0, ty, j0: ("V", x0, ty, j0))
                for key, part in parts.items():
                    for inst in part.instances:
                        assert trace_particle(prm, inst) == key, (prm, inst)

    def test_trace_particle_contains_its_start_off_the_first_block(self):
        """An instance on a line outside [0, omega), a horizontal one at
        height y0 or a vertical one on x = x0 + j*omega, traces to a
        particle that holds it."""
        for prm in even_rationals(7):
            w = prm.omega
            for c in [*range(-w, 0), *range(w, 2 * w)]:
                for j0 in range(w):
                    for part in (horizontal_particle(prm, c, j0),
                                 vertical_particle(prm, c, "P", j0),
                                 vertical_particle(prm, c, "Q", j0)):
                        for inst in part.instances:
                            assert inst in trace_particle(prm, inst).instances, \
                                (prm, inst)

    def test_trace_particle_takes_horizontal_instances_mod_omega_squared(
            self, p25):
        """A horizontal particle is given mod omega^2 in x: its instances
        shifted by +-omega^2 trace to the particle itself."""
        part = horizontal_particle(p25, 2, 0)
        ww = p25.omega ** 2
        shifted = [dataclasses.replace(inst, location=(x + dx, y))
                   for inst in part.instances for (x, y) in [inst.location]
                   for dx in (-ww, ww)]
        assert len(shifted) == 4 * p25.omega
        for inst in shifted:
            assert trace_particle(p25, inst) == part, inst

    def test_trace_particle_rejects_made_up_points(self, p25):
        def point(location, host, ptype):
            return IntersectionPoint(location, host, GridLine(ptype, 0),
                                     "dark", ptype, 1)

        with pytest.raises(PlaidError, match="no vertical particle"):
            trace_particle(p25, point((F(3), F(1, 3)), GridLine("V", 3), "P"))
        with pytest.raises(PlaidError, match="no horizontal particle"):
            trace_particle(p25, point((F(1, 3), F(2)), GridLine("H", 2), "P"))


class TestHier:
    def test_census_matches_capacity(self):
        for prm in even_rationals(13):
            w = prm.omega
            for bi in range(w):
                for m in range(w):
                    want = abs(capacity_scaled(prm, m))
                    got = sum(mult for _, mult in light_points_on_line(
                        prm, GridLine("H", m), (bi, 0)))
                    assert got == want, ("H", prm, bi, m)
                    got = sum(mult for _, mult in light_points_on_line(
                        prm, GridLine("V", bi * w + m), (bi, 0)))
                    assert got == want, ("V", prm, bi, m)


def drop_one_light(monkeypatch, c0):
    """Plant a fault: the lights of the capacity line c0 (and its translates
    by omega) lose their first residue, in every module that reads them."""
    real = grid.light_lists

    def light_lists(param):
        by_line = real(param)
        by_line[c0] = by_line[c0][1:]
        return by_line

    for module in (grid, analysis, verify):
        monkeypatch.setattr(module, "light_lists", light_lists)


class TestPlantedFaults:
    """Each grid suite fails, and names the fault, when one light of one
    line is dropped from the light lists."""

    @pytest.mark.parametrize("pq, c0", [((2, 5), 3), ((4, 11), 6)])
    def test_coherence(self, monkeypatch, pq, c0):
        drop_one_light(monkeypatch, c0)
        r = verify.suite_coherence(make_param(*pq))
        assert not r["ok"] and r["bad_squares"]

    @pytest.mark.parametrize("pq, c0, family", [((2, 5), 2, "H"),
                                                ((4, 11), 6, "V")])
    def test_hier(self, monkeypatch, pq, c0, family):
        """A column loses exactly one crossing per family, so 2 lights; a
        row loses the slot weights of the dropped intercept in the block,
        which are 2 at 2/5 line 2 (1 to 4 elsewhere)."""
        drop_one_light(monkeypatch, c0)
        prm = make_param(*pq)
        r = verify.suite_hier(prm)
        assert not r["ok"]
        assert r["line"] == (family, c0) and r["block"] == 0
        assert r["got"] == r["want"] - 2

    @pytest.mark.parametrize("pq, c0", [((2, 5), 3), ((4, 11), 6)])
    def test_empty_rect(self, monkeypatch, pq, c0):
        """The census falls short at the first K whose grid takes line c0,
        while empty cells remain."""
        drop_one_light(monkeypatch, c0)
        want = {(2, 5): {"ok": False, "block": 0, "K": 4, "empty": 5,
                         "census": 18, "bound": 24},
                (4, 11): {"ok": False, "block": 0, "K": 6, "empty": 10,
                          "census": 46, "bound": 48}}
        assert verify.suite_empty_rect(make_param(*pq)) == want[pq]

    @pytest.mark.parametrize("pq", [(2, 5), (4, 11)])
    def test_two_points(self, monkeypatch, pq):
        """The second crossing of the slope -P family weighted 2: its edge
        counts 3 in every row, and the record names the first three."""
        prm = make_param(*pq)
        w = prm.omega
        real = grid._h_slots

        def h_slots(w, s, primary):
            slots = real(w, s, primary)
            if primary:
                slots[1] = (slots[1][0], 2)
            return slots

        monkeypatch.setattr(grid, "_h_slots", h_slots)
        edge = w // (2 * prm.p)
        assert verify.suite_two_points(prm) == {
            "ok": False, "h_bad": [edge, edge + w, edge + 2 * w], "v_bad": []}

    @pytest.mark.parametrize("pq", [(2, 5), (4, 11)])
    def test_first(self, monkeypatch, pq):
        """The capacity-2 witness line has one light residue; without it the
        line has no light points in the first block."""
        prm = make_param(*pq)
        y0 = next(y for y in range(1, prm.omega)
                  if capacity_scaled(prm, y) == 2)
        drop_one_light(monkeypatch, y0)
        assert verify.suite_first(prm) == {
            "ok": False, "reason": "witness light points missing",
            "line": y0, "lights": []}


def test_blockgrid_reads_the_light_lists_it_is_built_under(monkeypatch):
    """No table outlives its light lists: a light dropped between two
    builds of the same block changes the second build's row and column c0
    and nothing else, and the second build equals a build from tables made
    under the fault."""
    prm, c0 = make_param(4, 11), 6
    w = prm.omega
    before = BlockGrid(prm, 3)
    drop_one_light(monkeypatch, c0)
    after = BlockGrid(prm, 3)
    for k in range(w):
        lane = slice(k * w, (k + 1) * w)
        assert (after.hl[lane] != before.hl[lane]) == (k == c0), k
        assert (after.vl[lane] != before.vl[lane]) == (k == c0), k
    shared = BlockGrid(prm, 3, grid.fill_tables(prm))
    assert (after.hl, after.vl) == (shared.hl, shared.vl)


@pytest.mark.parametrize("suite", ["coherence", "hier", "isomorphism",
                                   "empty-rect", "pet-equivalence"])
def test_one_light_lists_call_per_parameter(monkeypatch, suite):
    """Each block-level suite builds its fill tables once per parameter,
    so it reads the light lists once per parameter, not once per block."""
    real, calls = grid.light_lists, []

    def light_lists(param):
        calls.append((param.p, param.q))
        return real(param)

    for module in (grid, analysis, verify):
        monkeypatch.setattr(module, "light_lists", light_lists)
    params = [make_param(2, 5), make_param(4, 11), make_param(8, 13)]
    records = verify.run_suite(suite, params=params)
    assert all(r["ok"] for r in records), records
    assert calls == [(2, 5), (4, 11), (8, 13)]
