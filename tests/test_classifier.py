from fractions import Fraction as F

import pytest

from plaid import classifier, verify
from plaid.params import even_rationals, make_param
from plaid.grid import BlockGrid, horizontal_particle, vertical_particle
from plaid.classifier import (
    BoundaryFiber,
    CheckerboardSpec,
    ClassifyingPoint,
    OnWall,
    canon_frac,
    canon_scaled,
    center_cell,
    checkerboard_label,
    fiber_label,
    particle_image_geometry,
    symmetry_conjugacies,
    tile_label_scaled,
    tile_of,
    verify_bijection,
    xi,
    xi_local,
    xi_raw_scaled,
    zone_of,
    _ZONES,
    _zone_spec,
)

FIG31 = CheckerboardSpec((F(-2, 3), F(0), F(1, 3)), *_ZONES[1])


class TestXi:
    def test_base_center_identity(self):
        # the image of the first center is (-1+P, 0, P) at every parameter
        for prm in even_rationals(20):
            pt = xi(prm, (F(1, 2), F(1, 2)))
            assert pt.as_tuple() == (-1 + prm.bigP, F(0), prm.bigP), prm

    def test_2_5_value(self, p25):
        assert xi(p25, (F(1, 2), F(1, 2))) == \
            ClassifyingPoint(F(-3, 7), F(0), F(4, 7))

    def test_lattice_invariance(self, p25):
        w = p25.omega
        c = (F(9, 2), F(5, 2))
        assert xi(p25, c) == xi(p25, (c[0] + w * w, c[1]))
        assert xi(p25, c) == xi(p25, (c[0], c[1] + w))

    def test_image_grid(self, p25):
        w = p25.omega
        pt = xi(p25, (F(11, 2), F(3, 2)))
        assert (pt.T * w).denominator == 1 and (pt.T * w).numerator % 2 == 1
        for u in (pt.U1, pt.U2):
            assert (u * w).denominator == 1 and (u * w).numerator % 2 == 0

    def test_rejects_non_centers(self, p25):
        with pytest.raises(Exception):
            xi(p25, (F(1, 3), F(1, 2)))

    def test_canonical_reduction_idempotent(self, p25):
        P = p25.bigP
        pt = canon_frac(P, F(37, 7), F(-15, 7), F(99, 7))
        again = canon_frac(P, *pt.as_tuple())
        assert pt == again
        assert -1 <= pt.T < 1 and -1 <= pt.U1 < 1 and -1 <= pt.U2 < 1


class TestXiLocal:
    def test_raw_branch_value(self, p25):
        # the local formulas give (P+1, P, 2P) at the first center before
        # canonical reduction; after reduction they agree with the map
        from plaid.params import mod2_reduce

        P = p25.bigP
        assert mod2_reduce(2 * P * F(1, 2) + 1) == P + 1
        assert xi_local(p25, (F(1, 2), F(1, 2))) == xi(p25, (F(1, 2), F(1, 2)))

    @pytest.mark.parametrize("pq", [(2, 5), (3, 8), (4, 11)])
    def test_exhaustive_agreement(self, pq):
        prm = make_param(*pq)
        w = prm.omega
        for a in range(w * w):
            for b in range(w):
                c = (F(2 * a + 1, 2), F(2 * b + 1, 2))
                assert xi_local(prm, c) == xi(prm, c), (prm, c)


class TestZones:
    def test_zone_assignment(self):
        P = F(1, 2)
        zd = zone_of(P, F(-3, 4))
        assert zd.zone == 1
        assert zd.spec.u == (F(-3, 4), F(1, 2), F(3, 4))
        zd = zone_of(P, F(0))
        assert zd.zone == 2
        assert zd.spec.u == (F(-1, 2), F(0), F(1, 2))
        with pytest.raises(BoundaryFiber):
            zone_of(P, F(1, 2))
        with pytest.raises(BoundaryFiber):
            zone_of(P, F(-1, 2))

    def test_checkerboard_compatibility_everywhere(self):
        for prm in even_rationals(15):
            P = prm.bigP
            w = prm.omega
            for t in range(-w, w + 1):
                T = F(t, w)
                for z in (1, 2, 3):
                    lo, hi = {1: (-1, -1 + P), 2: (-1 + P, 1 - P),
                              3: (1 - P, 1)}[z]
                    if lo <= T <= hi:
                        _zone_spec(P, z, T).validate()

    def test_zone_polytope_vertices_are_integral(self):
        # over the corner points of each base triangle the cut positions are
        # integers, so every lifted partition piece has integer vertices
        corners = {1: [(0, -1), (1, -1), (1, 0)],
                   2: [(0, -1), (0, 1), (1, 0)],
                   3: [(0, 1), (1, 0), (1, 1)]}
        for z, pts in corners.items():
            for Pv, Tv in pts:
                spec = _zone_spec(F(Pv), z, F(Tv))
                assert all(u.denominator == 1 for u in spec.u), (z, Pv, Tv)

    def test_boundary_fibers_are_hit_and_agree(self):
        # images of centers do land on the two zone-boundary fibers, where
        # both zones' checkerboards assign identical labels
        for prm in even_rationals(13):
            w = prm.omega
            boundary_ts = {2 * prm.p - w, w - 2 * prm.p}
            hit = 0
            for a in range(w * w):
                for b in range(w):
                    t, u1, u2 = canon_scaled(prm.omega, 2 * prm.p,
                                             *xi_raw_scaled(prm, a, b))
                    if t in boundary_ts:
                        hit += 1
                        tile_label_scaled(prm, a, b)  # raises on disagreement
            assert hit == 2 * w * w, prm


class TestCheckerboard:
    def test_figure_data_compatibility(self):
        u1, u2, u3 = FIG31.u
        assert -u1 - u2 + u3 == 1
        FIG31.validate()

    def test_pair_cell(self):
        # the cell in the row of N and the column of W
        assert checkerboard_label(FIG31, F(1, 2), F(1, 6)) == ("NW", None)

    def test_special_cell_diagnostic(self):
        # column 2, row 3 is the special E cell
        lab, diag = checkerboard_label(FIG31, F(-1, 3), F(-1, 3))
        assert lab == "EMPTY" and diag == "E"

    def test_on_wall(self):
        with pytest.raises(OnWall):
            checkerboard_label(FIG31, F(0), F(1, 6))
        with pytest.raises(OnWall):
            checkerboard_label(FIG31, F(1, 2), F(1, 3))
        with pytest.raises(OnWall):
            checkerboard_label(FIG31, F(-1), F(1, 6))

    def test_special_cells_are_where_symbols_agree(self):
        # the cell codes of the label table rely on this
        for rows, cols, specials in _ZONES.values():
            for r in range(4):
                for c in range(4):
                    assert (specials[r] == c) == (rows[r] == cols[c])

    def test_matrix_rendering(self):
        m = FIG31.matrix()
        assert m[0][3] == "W" and m[1][0] == "N"
        assert m[2][1] == "E" and m[3][2] == "S"


class TestTileOf:
    def test_hand_labels(self, p12, p25):
        assert tile_of(p12, (F(1, 2), F(1, 2))) == "NE"
        assert tile_of(p12, (F(17, 2), F(1, 2))) == "NW"
        assert tile_of(p25, (F(-1, 2), F(5, 2))) == "SW"
        assert tile_of(p25, (F(1, 2), F(5, 2))) == "SE"

    def test_empty_squares(self, p25):
        # squares with no good edges get the empty label
        grid = BlockGrid(p25, 0)
        for n in range(7):
            for m in range(7):
                if not grid.good_edge_set(n, m):
                    assert tile_of(p25, (F(2 * n + 1, 2), F(2 * m + 1, 2))) \
                        == "EMPTY"

    def test_wall_avoidance(self):
        # no center image touches a wall: every label evaluates cleanly
        for prm in even_rationals(13):
            w = prm.omega
            for a in range(w * w):
                for b in range(w):
                    tile_label_scaled(prm, a, b)

    def test_isomorphism_small(self):
        for prm in even_rationals(13):
            w = prm.omega
            for bi in range(w):
                grid = BlockGrid(prm, bi)
                for n in range(w):
                    for m in range(w):
                        lab = tile_label_scaled(prm, bi * w + n, m)
                        edges = set() if lab == "EMPTY" else set(lab)
                        assert edges == grid.good_edge_set(n, m), \
                            (prm, bi * w + n, m)


class TestBijection:
    def test_2_5(self, p25):
        r = verify_bijection(p25)
        assert r["ok"] and r["classes"] == 343

    def test_1_2(self, p12):
        r = verify_bijection(p12)
        assert r["ok"] and r["classes"] == 27

    @pytest.mark.parametrize("pq", [(2, 5), (4, 11)])
    @pytest.mark.parametrize("sheets", [1, 2])
    def test_collision_names_both_classes(self, monkeypatch, pq, sheets):
        """A center_cell that sends the column start (3, sheets-1) onto the
        cell of (1, 2) fails the suite, and the record names the cell and
        both classes: (1, 2), read down the diagonal of the start (1, 0).
        The start is one of the a < omega that mark_classes reads, and its
        walk moves the columns a = 3 mod omega after it with it."""
        prm = make_param(*pq)
        first, second = (1, 2), (3, sheets - 1)
        real = classifier.center_cell
        cell = real(prm, *first, sheets)

        def center_cell(param, a, b, n_sheets=1):
            if (a, b, n_sheets) == (*second, sheets):
                return cell
            return real(param, a, b, n_sheets)

        monkeypatch.setattr(classifier, "center_cell", center_cell)
        r = verify.suite_bijection(prm)
        assert r == {"ok": False, "reason": "two classes mark one cell",
                     "sheets": sheets, "cell": cell,
                     "first": first, "second": second}


class TestSymmetries:
    @pytest.mark.parametrize("pq", [(1, 2), (2, 5), (3, 8)])
    def test_conjugacies(self, pq):
        assert symmetry_conjugacies(make_param(*pq))["ok"]


@pytest.mark.parametrize("pq", [(2, 5), (4, 11)])
class TestPlantedFaults:
    """The tile-side suites that read the base table or the block masks
    fail, and name the fault, when one byte is changed."""

    def test_symmetry(self, monkeypatch, pq):
        """One base-table byte given another edge mask fails a label case
        at a class whose cell, rotated cell or reflected cell it is."""
        prm = make_param(*pq)
        cell = center_cell(prm, 1, 1)
        real = classifier.label_table

        def label_table(param, sheets=1):
            table = real(param, sheets)
            # a hold code has mask 0, the code 1 (N, S) mask 3
            table[cell] = 0 if table[cell] % 5 else 1
            return table

        monkeypatch.setattr(classifier, "label_table", label_table)
        r = verify.suite_symmetry(prm)
        assert not r["ok"] and r["case"].endswith("-label"), r
        a, b = r["at"]
        assert cell in (center_cell(prm, a, b),
                        center_cell(prm, -a - 1, -b - 1),
                        center_cell(prm, a, -b - 1))

    @pytest.mark.parametrize("first", [True, False])
    def test_symmetry_map(self, monkeypatch, pq, first):
        """The center (2, b0) moved a step down its column fails a map check
        at column 2.  center_codes reads the starts a < omega only, so the
        fault moves the codes of every column a = 2 mod omega, and the map
        checks read the starts alone.  The start b0 = 0 reaches the codes
        and the starts, and the rotation map check fails first; the center
        (2, -1) reaches the map checks alone, and the reflection map check
        fails first."""
        prm = make_param(*pq)
        b0 = 0 if first else -1
        real = classifier.center_cell

        def center_cell(param, a, b, sheets=1):
            return real(param, a, b + ((a, b) == (2, b0)), sheets)

        monkeypatch.setattr(classifier, "center_cell", center_cell)
        r = verify.suite_symmetry(prm)
        case = "rotation-map" if first else "reflection-map"
        assert r == {"ok": False, "case": case, "at": (2, 0)}, r

    def test_isomorphism(self, monkeypatch, pq):
        """One hl byte of block 1 flipped: the two squares beside that edge,
        and only they, are mismatches."""
        prm = make_param(*pq)
        w = prm.omega
        n0, m0 = 2, 1  # the edge [w + 2, w + 3] x {1}

        class Flipped(BlockGrid):
            def _fill(self, tables):
                super()._fill(tables)
                if self.bi == 1:
                    self.hl[m0 * w + n0] ^= 1

        monkeypatch.setattr(verify, "BlockGrid", Flipped)
        r = verify.suite_isomorphism(prm)
        assert not r["ok"]
        assert {sq for sq, _, _ in r["mismatches"]} == \
            {(w + n0, m0), (w + n0, m0 - 1)}

    def test_isomorphism_record(self, monkeypatch, pq):
        """hl edges (n, m) flipped in blocks 1 and 2, each count 0 or 1 so
        that a flip toggles the edge: the record lists the squares beside
        them in (block, n, m) order and stops at the fifth mismatch, inside
        block 2."""
        prm = make_param(*pq)
        w = prm.omega
        flips, tail = {
            (2, 5): ({1: [(1, 1), (5, 2)], 2: [(2, 2)]},
                     [((8, 0), "EMPTY", ["N"]), ((8, 1), "EMPTY", ["S"]),
                      ((12, 1), "NW", ["W"]), ((12, 2), "SE", ["E"]),
                      ((16, 1), "SE", ["E", "N", "S"])]),
            (4, 11): ({1: [(1, 1), (12, 2)], 2: [(4, 2)]},
                      [((27, 2), "NW", ["N", "S", "W"]),
                       ((34, 1), "EW", ["E", "N", "W"])]),
        }[pq]

        class Flipped(BlockGrid):
            def _fill(self, tables):
                super()._fill(tables)
                for n, m in flips.get(self.bi, ()):
                    assert self.hl[m * w + n] in (0, 1)
                    self.hl[m * w + n] ^= 1

        monkeypatch.setattr(verify, "BlockGrid", Flipped)
        r = verify.suite_isomorphism(prm)
        assert r["ok"] is False and len(r["mismatches"]) == 5, r
        assert r["mismatches"][-len(tail):] == tail, r
        assert r["mismatches"][-1][0][0] // w == 2, r


class TestParticleImages:
    def test_vertical_fiber_constancy(self, p25):
        for x0 in range(7):
            for ty in "PQ":
                r = particle_image_geometry(
                    p25, vertical_particle(p25, x0, ty, 0))
                assert r["ok"], (x0, ty, r)

    def test_horizontal_segments(self, p25):
        for y0 in range(7):
            for j0 in range(7):
                r = particle_image_geometry(
                    p25, horizontal_particle(p25, y0, j0))
                assert r["ok"], (y0, j0, r)
