from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import check_fiber_shifts, mutant_cover_step
from plaid import pet, verify
from plaid.params import PlaidError, even_rationals, make_param
from plaid.grid import BlockGrid, _block_loops, trace_polygons
from plaid.pet import (
    BadOffset,
    CoverPoint,
    NonPeriodicOrbit,
    check_mesh,
    cover_bijection,
    cover_step,
    decode_cell,
    irrational_tiling,
    lift_label,
    oriented_label,
    pet_back,
    pet_region,
    pet_step,
    special_orbit,
    vector_polygon,
    wall_distance,
    xi_hat,
    STEPS,
)
from plaid.classifier import (CODE_MASKS, REVERSED, _MASK_TABLE, canon_frac,
                              center_cell, fiber_label, grid_cell, tile_of,
                              turn_fiber, unordered_label, xi_raw_scaled)


class TestLiftLabel:
    def test_middle_half_keeps_order(self, p25):
        assert lift_label(p25, 0, "NW") == "NW"

    def test_outer_half_reverses(self, p25):
        assert lift_label(p25, F(3, 2), "NW") == "WN"
        assert lift_label(p25, F(-3, 2), "NW", "WN") == "NW"

    def test_empty(self, p25):
        assert lift_label(p25, F(3, 2), "EMPTY") == "EMPTY"

    def test_validates(self, p25):
        with pytest.raises(Exception):
            lift_label(p25, 0, "NW", "NE")


class TestOrientedLabels:
    def test_hand_cases_1_2(self, p12):
        cases = {
            (F(1, 2), F(1, 2)): "EN",
            (F(1, 2), F(3, 2)): "SN",
            (F(1, 2), F(5, 2)): "SE",
            (F(3, 2), F(5, 2)): "WE",
            (F(5, 2), F(3, 2)): "NS",
            (F(5, 2), F(1, 2)): "NW",
        }
        for c, want in cases.items():
            assert oriented_label(p12, xi_hat(p12, c)) == want, c

    def test_projects_to_unoriented(self, p25):
        w = p25.omega
        for a in range(w * w):
            for b in range(2 * w):
                c = (F(2 * a + 1, 2), F(2 * b + 1, 2))
                lab = oriented_label(p25, xi_hat(p25, c))
                want = tile_of(p25, c)
                got = "EMPTY" if lab == "EMPTY" else unordered_label(*lab)
                assert got == want, c

    def test_deck_transformation_reverses(self, p25):
        # translating a center by (0, omega) flips the cover half and
        # reverses the arrow
        w = p25.omega
        for a in range(0, w * w, 5):
            for b in range(w):
                lab = oriented_label(p25, xi_hat(p25, (a + F(1, 2), b + F(1, 2))))
                flipped = oriented_label(
                    p25, xi_hat(p25, (a + F(1, 2), b + w + F(1, 2))))
                assert flipped == (lab if lab == "EMPTY" else lab[::-1])


class TestPetStep:
    def test_south_translation_formula(self, p25):
        # the southward map sends (T, U1, U2) to (T-2, U1, U2-2P)
        z = xi_hat(p25, (F(1, 2), F(3, 2)))
        w = p25.omega
        cell = grid_cell(p25, int(z.That * w) - 2 * w, int(z.U1 * w),
                         int(z.U2 * w) - 4 * p25.p, 2)
        assert xi_hat(p25, (F(1, 2), F(1, 2))) == CoverPoint(
            *[F(v, w) for v in decode_cell(p25, cell)])
        start = grid_cell(p25, *xi_raw_scaled(p25, 0, 1), 2)
        assert cover_step(p25, start, 1) == cell  # edge S

    @pytest.mark.parametrize("pq", [(1, 2), (2, 5), (3, 8)])
    def test_conjugacy_exhaustive(self, pq):
        """Across every edge of every center, hold centers included, the step
        lands on the neighbouring center's cell."""
        prm = make_param(*pq)
        w = prm.omega
        for a in range(w * w):
            for b in range(2 * w):
                cell = grid_cell(prm, *xi_raw_scaled(prm, a, b), 2)
                for edge, (dx, dy) in enumerate(STEPS):
                    assert cover_step(prm, cell, edge) == grid_cell(
                        prm, *xi_raw_scaled(prm, a + dx, b + dy), 2), \
                        (pq, a, b, edge)

    def test_hold_is_identity(self, p25):
        z = xi_hat(p25, (F(3, 2), F(3, 2)))  # empty tile at (2,5)
        assert oriented_label(p25, z) == "EMPTY"
        assert pet_step(p25, z) == z
        assert pet_region(p25, z).name == "hold"
        assert pet_region(p25, z).vector == (0, 0)

    def test_back_inverts_step(self, p25):
        w = p25.omega
        for a in range(0, w * w, 3):
            for b in range(2 * w):
                z = xi_hat(p25, (F(2 * a + 1, 2), F(2 * b + 1, 2)))
                assert pet_back(p25, pet_step(p25, z)) == z

    def test_regions_and_vectors(self, p12):
        z = xi_hat(p12, (F(1, 2), F(1, 2)))  # label EN: out of E, into N
        r = pet_region(p12, z)
        assert r.name == "N↑" and r.vector == (0, 1)

    def test_off_lattice_points_raise(self, p25):
        # the exchange acts on the image lattice: omega*T odd, omega*U even
        w = p25.omega
        z = xi_hat(p25, (F(1, 2), F(1, 2)))
        for bad in (CoverPoint(z.That + F(1, w), z.U1, z.U2),
                    CoverPoint(z.That, z.U1 + F(1, w), z.U2),
                    CoverPoint(z.That, z.U1, z.U2 + F(1, 2 * w))):
            for fn in (pet_step, pet_back, pet_region, oriented_label):
                with pytest.raises(PlaidError):
                    fn(p25, bad)

    def test_es_label_is_south_region(self, p25):
        # any point labelled ES points into its south edge
        w = p25.omega
        found = 0
        for a in range(w * w):
            for b in range(2 * w):
                z = xi_hat(p25, (F(2 * a + 1, 2), F(2 * b + 1, 2)))
                if oriented_label(p25, z) == "ES":
                    r = pet_region(p25, z)
                    assert r.name == "S↓" and r.vector == (0, -1)
                    found += 1
        assert found > 0


class TestOrbits:
    def test_orbit_length_equals_perimeter(self, p25):
        orbit = special_orbit(p25, (F(1, 2), F(1, 2)))
        assert len(orbit.vectors) == 26  # the big symmetric polygon

    def test_hold_orbit(self, p25):
        orbit = special_orbit(p25, (F(3, 2), F(3, 2)))
        assert len(orbit.states) == 1 and orbit.labels == ("EMPTY",)
        assert vector_polygon(p25, (F(3, 2), F(3, 2))) is None

    def test_vector_polygon_matches_trace(self, p12):
        ring = vector_polygon(p12, (F(1, 2), F(1, 2)))
        traced = trace_polygons(p12, (0, 0))
        assert ring.verts2 == traced[0].verts2

    @pytest.mark.parametrize("pq", [(1, 2), (2, 5), (4, 11)])
    def test_full_equivalence(self, pq):
        from plaid.verify import suite_pet_equivalence

        rec = suite_pet_equivalence(make_param(*pq))
        assert rec["ok"], rec


def _fault_target(param):
    """The first block past block 0 with polygons, and the least vertex of
    its first polygon: that loop's least square in flat order."""
    bi = next(b for b in range(1, param.omega) if trace_polygons(param, (b, 0)))
    x2, y2 = trace_polygons(param, (bi, 0))[0].verts2[0]
    return bi, (x2 // 2, y2 // 2)


def _orbit_starts(param):
    """(block, first square, its cover cell, the code there) of every loop
    of the blocks (bi, 0), in walker order."""
    w, cover = param.omega, pet.label_table(param, 2)
    for bi in range(w):
        for loop in _block_loops(param, (bi, 0)):
            square = divmod(bi * w * w + loop[0], w)
            cell = center_cell(param, *square, 2)
            yield bi, square, cell, cover[cell]


def _plant_code(monkeypatch, cell, code):
    """Set one code of the cover table that suite_pet_equivalence reads
    through verify.label_table: the one table whose fibers the mesh
    equations compare and whose codes the block compares read."""
    real = verify.label_table

    def table(prm, sheets=1):
        codes = real(prm, sheets)
        if sheets == 2:
            codes[cell] = code
        return codes

    monkeypatch.setattr(verify, "label_table", table)


def _inverse_at(param, cell, count):
    """The suite's "inverse" record naming the cover cell as the one that
    fails most, with count failing cases."""
    t, *planted = decode_cell(param, cell)
    return {"ok": False, "reason": "inverse", "worst": (t, tuple(planted), count)}


@pytest.mark.parametrize("pq", [(2, 5), (4, 11)])
class TestPetEquivalenceFaults:
    """suite_pet_equivalence with one fault injected into what it reads.  A
    code planted in its cover table breaks the mesh equations at that cell:
    it fails in 2 cases where it loses or gains one end (its neighbour
    across that edge in 1) and in 4 where it is reversed, so the "inverse"
    record names it.  Codes and masks planted past the table fail at the
    first square in flat order where a block compare fails.  A fault of
    cover_step at one cell is read by no suite: the suites read the
    exchange through fiber_shifts' rows alone, so the fiber-shift property,
    run over every cell, must catch it."""

    def test_hold_orbit_at_connector(self, pq, monkeypatch):
        """A hold at a loop's least square: the code loses its entry and
        its exit, each an end its neighbour's code still meets."""
        param = make_param(*pq)
        _, square = _fault_target(param)
        cell = center_cell(param, *square, 2)
        _plant_code(monkeypatch, cell, 0)
        assert verify.suite_pet_equivalence(param) == _inverse_at(param, cell, 2)

    def test_swapped_orbit_vectors(self, pq, monkeypatch):
        """One orbit cell past the start given another exit, its entry kept:
        the old exit's neighbour still enters from it, and the new exit's
        neighbour has no end there."""
        param = make_param(*pq)
        _, square = _fault_target(param)
        cover = pet.label_table(param, 2)
        start = center_cell(param, *square, 2)
        cell = cover_step(param, start, cover[start] & 3)
        # keep the entry, take the next edge that is neither it nor the exit
        entry = cover[cell] >> 2
        out = next(e for e in range(4) if e not in (entry, cover[cell] & 3))
        _plant_code(monkeypatch, cell, 4 * entry + out)
        assert verify.suite_pet_equivalence(param) == _inverse_at(param, cell, 2)

    def test_hold_inside_orbit(self, pq, monkeypatch):
        """A hold code with the exit bits of the connector it replaces, one
        cell past the start: the step it would take is right, but the
        exchange holds there, so neither of its ends is left."""
        param = make_param(*pq)
        _, square = _fault_target(param)
        cover = pet.label_table(param, 2)
        start = center_cell(param, *square, 2)
        cell = cover_step(param, start, cover[start] & 3)
        _plant_code(monkeypatch, cell, 5 * (cover[cell] & 3))
        assert verify.suite_pet_equivalence(param) == _inverse_at(param, cell, 2)

    def test_first_step_checked(self, pq, monkeypatch):
        """A loop's first connector that leaves north, planted to leave
        south: the square above still enters from it.  The exchange that
        steps north from that cell anyway, whatever the edge, is a
        cover_step fault at one cell: it fails the fiber-shift property."""
        param = make_param(*pq)
        _, _, start, code = next(
            t for t in _orbit_starts(param) if t[1][1] >= 2 and t[3] & 3 == 0)
        _plant_code(monkeypatch, start, code & 12 | 1)
        assert verify.suite_pet_equivalence(param) == _inverse_at(param, start, 2)

        def step(prm, cell, edge):
            return cover_step(prm, cell, 0 if cell == start else edge)

        with pytest.raises(AssertionError):
            check_fiber_shifts(param, range(2 * param.omega ** 3), step)

    def test_orbit_misses_start(self, pq):
        """The exchange's last step round one loop lands beside its start
        cell: a cover_step fault at the cells that step to the start, which
        the fiber-shift property over every cell catches."""
        param = make_param(*pq)
        _, _, start, _ = next(t for t in _orbit_starts(param) if t[1][1] >= 3)

        def step(prm, cell, edge):
            nxt = cover_step(prm, cell, edge)
            return nxt ^ 1 if nxt == start else nxt

        with pytest.raises(AssertionError):
            check_fiber_shifts(param, range(2 * param.omega ** 3), step)

    def test_connector_across_block(self, pq, monkeypatch):
        """Block 0 planted as one connector from border to border, holds
        elsewhere, with masks to match: a column of codes that enter S and
        leave N, a row of codes that enter W and leave E, and two bent ones.
        Every code spans its mask and meets its neighbours, so only the
        border lanes fail, at the connector's first square in flat order:
        for the bent ones, a square with one end on the border, so that the
        lane it is on must be read as that end's (S for (2, 0), W for
        (0, 3))."""
        param = make_param(*pq)
        w = param.omega
        real_codes = verify.center_codes
        # square index n*w + m -> code 4*entry + exit, edges indexed NSEW
        column, row = range(2 * w, 3 * w), range(3, w * w, w)
        for plant, square, edges, label in (
                (dict.fromkeys(column, 4 * 1 + 0), (2, 0), ["N", "S"], "SN"),
                (dict.fromkeys(row, 4 * 3 + 2), (0, 3), ["E", "W"], "WE"),
                ({2 * w: 4 * 1 + 2, **dict.fromkeys(range(3 * w, w * w, w),
                                                    4 * 3 + 2)},
                 (2, 0), ["E", "S"], "SE"),
                ({3: 4 * 3 + 0, **dict.fromkeys(range(4, w), 4 * 1 + 0)},
                 (0, 3), ["N", "W"], "WN")):
            block = bytearray(w * w)
            for i, code in plant.items():
                block[i] = code

            def codes(prm, table, block=bytes(block)):
                out = real_codes(prm, table)
                out[:w * w] = block
                return out

            def grid(prm, bi, tables=None, block=bytes(block)):
                g = BlockGrid(prm, bi, tables)
                if bi == 0:
                    g._masks = block.translate(_MASK_TABLE)
                return g

            monkeypatch.setattr(verify, "center_codes", codes)
            monkeypatch.setattr(verify, "BlockGrid", grid)
            assert verify.suite_pet_equivalence(param) == {
                "ok": False, "reason": "orbit polygon differs", "block": 0,
                "square": square, "good_edges": edges, "label": label}, label

    def test_cover_step_mutant(self, pq, monkeypatch):
        """A wrong fiber shift fails conjugacy at the first center."""
        monkeypatch.setattr(verify, "cover_step", mutant_cover_step)
        assert verify.suite_pet_equivalence(make_param(*pq)) == {
            "ok": False, "reason": "conjugacy", "at": (0, 0), "edge": "N"}

    def test_reversed_connector_breaks_inverse(self, pq, monkeypatch):
        """The first connector of the cover table reversed: its next
        connector no longer enters across the opposite edge.  Both of the
        cell's edges fail in both directions; a neighbour fails in two."""
        param = make_param(*pq)
        cover = pet.label_table(param, 2)
        cell = next(i for i, c in enumerate(cover) if c % 5)
        _plant_code(monkeypatch, cell, REVERSED[cover[cell]])
        assert verify.suite_pet_equivalence(param) == _inverse_at(param, cell, 4)


@pytest.mark.parametrize("pq", [(2, 5), (4, 11), (10, 21)])
def test_pet_equivalence_reads_one_cover_table(pq, monkeypatch):
    """One suite_pet_equivalence run builds the cover table once, the base
    table once for the lift law, and the fiber shifts once, and runs the
    mesh equations on them itself, with no check_mesh call to build them
    again."""
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(prm, *args):
            calls[name, args[:1] if name == "label_table" else ()] += 1
            return real(prm, *args)

        monkeypatch.setattr(module, name, wrapper)

    for module in (verify, pet):
        for name in ("label_table", "fiber_shifts", "check_mesh"):
            counted(module, name)
    assert verify.suite_pet_equivalence(make_param(*pq))["ok"]
    assert calls == {("label_table", (2,)): 1, ("label_table", ()): 1,
                     ("fiber_shifts", ()): 1}


@pytest.mark.parametrize("pq", [(2, 5), (4, 11), (10, 21), (50, 51)])
def test_reversed_cover_fails_lift(pq, monkeypatch):
    """Every code of the cover table reversed, the base table kept.  The
    mesh equations, the span compare and the border test are all blind to
    a global reversal; the lift law pins the cover's middle half to the
    base table, so the suite fails at the first fiber there."""
    param = make_param(*pq)
    real = verify.label_table

    def table(prm, sheets=1):
        codes = real(prm, sheets)
        return codes.translate(REVERSED) if sheets == 2 else codes

    monkeypatch.setattr(verify, "label_table", table)
    assert verify.suite_pet_equivalence(param) == {
        "ok": False, "reason": "lift", "fiber": -param.omega, "half": "middle"}


@pytest.mark.parametrize("pq", [(2, 5), (4, 11), (10, 21)])
def test_outer_half_turned_the_wrong_way_fails_lift(pq, monkeypatch):
    """The lift law read with each base fiber turned by +p in place of -p:
    the middle half still passes, and the suite names the first base fiber
    whose two turns differ, on the outer half."""
    param = make_param(*pq)
    w, p = param.omega, param.p
    base = pet.label_table(param)
    fibers = [base[j * w * w:(j + 1) * w * w] for j in range(w)]
    j = next(j for j, f in enumerate(fibers) if turn_fiber(f, w, p * w, p)
             != turn_fiber(f, w, (w - p) * w, w - p))
    monkeypatch.setattr(verify, "turn_fiber",
                        lambda f, w, C1, c2: turn_fiber(f, w, p * w, p))
    assert verify.suite_pet_equivalence(param) == {
        "ok": False, "reason": "lift", "fiber": 2 * j - w, "half": "outer"}


class TestCoverBijection:
    def test_counts(self, p25, p12):
        assert cover_bijection(p12) == {"ok": True, "classes": 54,
                                        "expected": 54}
        assert cover_bijection(p25)["ok"]


class TestMesh:
    def test_witness_pair(self):
        r = check_mesh([make_param(3, 8), make_param(4, 11)])
        assert r["ok"], r
        assert r["triads_ok"]
        assert all(v >= 3 for v in r["triad_detail"].values())

    def test_triad_detail(self):
        """The interior fibers counted per zone and half: zones 1 and 3 get
        5 per half from the pair, the middle zone 10; 2/5 alone has too few
        for any triad."""
        r = check_mesh([make_param(3, 8), make_param(4, 11)])
        assert r["triad_detail"] == {
            "zone1-half0": 5, "zone1-half1": 5, "zone2-half0": 10,
            "zone2-half1": 10, "zone3-half0": 5, "zone3-half1": 5}
        r = check_mesh([make_param(2, 5)])
        assert list(r["triad_detail"].values()) == [1, 1, 2, 2, 1, 1]
        assert not r["triads_ok"]

    def test_extra_parameters(self):
        r = check_mesh([make_param(1, 2), make_param(2, 5), make_param(2, 7)])
        assert r["failure_count"] == 0

    @pytest.mark.parametrize("pq", [(2, 5), (4, 11)])
    def test_reversed_connector_is_named(self, monkeypatch, pq):
        """The first connector of each table fiber reversed in turn (a hold
        code would not change): the record's worst cell is that cell, with
        its 4 failing cases against 2 at each of its two neighbours.  On the
        first fiber the check walks, t = 1 - 2w, whose neighbours are on
        other fibers, it is also the first failure."""
        param = make_param(*pq)
        w = param.omega
        real = pet.label_table
        cover = real(param, 2)
        for j in range(2 * w):
            cell = next(c for c in range(j * w * w, (j + 1) * w * w)
                        if cover[c] % 5)

            def label_table(prm, sheets=1, cell=cell):
                table = real(prm, sheets)
                if sheets == 2:
                    table[cell] = REVERSED[table[cell]]
                return table

            monkeypatch.setattr(pet, "label_table", label_table)
            r = verify.suite_mesh(param)
            t, *rest = decode_cell(param, cell)
            assert not r["ok"] and r["failure_count"] == 8
            assert r["worst"] == (t, tuple(rest), 4), j
            if t == 1 - 2 * w:
                first = r["failures"][0]
                assert (first["fiber"], first["cell"]) == (t, tuple(rest))


class TestIrrational:
    def test_zero_offset_rejected(self):
        A = F(4, 17)
        P = 2 * A / (1 + A)
        with pytest.raises(BadOffset) as err:
            irrational_tiling(P, (0, 0, 0), (0, 0, 4, 4))
        assert err.value.suggestion is not None
        # the first center maps onto the zone boundary fiber exactly
        pt = canon_frac(P, 2 * P * F(1, 2) + 1, 2 * P * F(1, 2),
                        2 * P * F(1, 2) + P)
        assert pt.as_tuple() == (-1 + P, F(0), P)
        assert wall_distance(P, pt) == 0

    def test_good_offset_coherent(self):
        A = F(4, 17)
        P = 2 * A / (1 + A)
        V = (F(1, 2 ** 20 + 7), F(1, 2 ** 20 + 33), F(1, 2 ** 20 + 37))
        r = irrational_tiling(P, V, (0, 0, 21, 21))
        assert r["ok"]
        assert r["min_wall_distance"] >= F(1, 2 ** 40)

    def test_rational_zero_offset_degenerates_to_tiles(self, p25):
        # on a window clear of the boundary-fiber columns the offset-free
        # run reproduces the tile assignment exactly
        r = irrational_tiling(p25.bigP, (0, 0, 0), (1, 0, 4, 3))
        for (n, m), lab in r["labels"].items():
            assert lab == tile_of(p25, (F(2 * n + 1, 2), F(2 * m + 1, 2)))
        assert r["ok"]

    def test_eps_threshold(self):
        A = F(4, 17)
        P = 2 * A / (1 + A)
        V = (F(1, 2 ** 20 + 7), F(1, 2 ** 20 + 33), F(1, 2 ** 20 + 37))
        with pytest.raises(BadOffset) as err:
            irrational_tiling(P, V, (0, 0, 5, 5), eps=F(1, 2))
        # no offset keeps a center half a unit from every wall
        assert err.value.suggestion is None

    def test_float_eps_is_exact(self):
        """A float eps is the Fraction it equals: this window's least wall
        distance lies just below 6.938893903907223e-17, which the check once
        compared in floats and passed."""
        P = F(8, 21)
        V = (F(5, 72057594037927993), F(3, 5864062014806),
             F(1, 70368744178457))
        eps = 6.938893903907223e-17
        assert F(5, 72057594037927993) < F(eps)
        errors = []
        for e in (eps, F(eps)):
            with pytest.raises(BadOffset) as err:
                irrational_tiling(P, V, (0, 0, 2, 2), eps=e)
            errors.append((str(err.value), err.value.suggestion))
        assert errors[0] == errors[1] and errors[0][1] is not None

    def test_flipped_label_is_named(self, monkeypatch):
        """One window label turned into the label of the other two edges:
        the window is not coherent, its mismatches are the four pairs of
        that center and its neighbours, and the suite's record at that P
        says so (its windows cut to 6 x 6 to stay fast)."""
        P = F(8, 21)
        seed = (F(1, 2 ** 20 + 7), F(1, 2 ** 20 + 33), F(1, 2 ** 20 + 37))
        window = (0, 0, 6, 6)
        labels = irrational_tiling(P, seed, window)["labels"]
        n, m = center = next(c for c in ((2, 2), (2, 3), (3, 2), (3, 3))
                             if labels[c] != "EMPTY")
        # the Fraction oracle labels the center's image alike
        x, y = P * (2 * n + 1), 2 * m + 1
        point = canon_frac(P, x + y + seed[0], x + seed[1],
                           x + P * y + seed[2])
        assert fiber_label(P, point)[0] == labels[center]
        real = pet._window_codes

        def window_codes(P_, offset, win, eps):
            # the code of the other two edges at the center, on this window
            codes, *rest = real(P_, offset, win, eps)
            if (P_, offset, win) == (P, seed, window):
                i = n * window[3] + m
                codes[i] = CODE_MASKS.index(15 ^ CODE_MASKS[codes[i]])
            return (codes, *rest)

        monkeypatch.setattr(pet, "_window_codes", window_codes)
        r = irrational_tiling(P, seed, window)
        assert not r["ok"]
        assert sorted(r["mismatches"]) == [
            ((n - 1, m), center), ((n, m - 1), center),
            (center, (n, m + 1)), (center, (n + 1, m))]
        real_tiling = verify.irrational_tiling

        def tiling(P_, offset, win, *rest):
            return real_tiling(P_, offset, window if win[2] > 6 else win,
                               *rest)

        monkeypatch.setattr(verify, "irrational_tiling", tiling)
        records = {r["param"]: r for r in verify.suite_irrational()}
        assert records["P=8/21"]["coherent"] is False
        assert not records["P=8/21"]["ok"]
        assert records["P=8/21"]["zero_offset_rejected"]
        assert records["P=34/89"]["ok"] and records["P=144/377"]["ok"]

    @pytest.mark.parametrize("eps", [F(1, 2 ** 40), F(2, 2 ** 21 + 17)])
    @pytest.mark.parametrize("P, window", [(F(8, 21), (0, 0, 5, 5)),
                                           (F(4, 7), (0, 0, 7, 3))])
    def test_suggestion_passes_the_check(self, P, window, eps):
        # the larger eps is twice the first bump, so that bump falls short
        with pytest.raises(BadOffset) as err:
            irrational_tiling(P, (0, 0, 0), window, eps)
        assert err.value.suggestion is not None
        assert irrational_tiling(P, err.value.suggestion, window, eps)["ok"]
