import json
from fractions import Fraction as F

import pytest

from conftest import golden_path
from plaid.params import PlaidError, even_rationals, make_param
from plaid.grid import BlockGrid
from plaid.analysis import (
    cut_offsets,
    empty_rectangles,
    gap_radius,
    polygon_stats,
    verify_first,
)


class TestPolygonStats:
    def test_golden_2_5(self, p25):
        with open(golden_path("stats.json")) as fh:
            want = json.load(fh)["2/5"]
        st = polygon_stats(p25)
        assert st.count == want["count"]
        assert str(st.max_diameter) == want["max_diameter"]
        assert str(st.max_x_diameter) == want["max_x_diameter"]
        assert {str(k[0]): v for k, v in st.per_block.items()} == \
            want["per_block"]

    def test_block_translation_invariance(self, p25):
        a = polygon_stats(p25, [(1, 0)])
        b = polygon_stats(p25, [(1, 3)])
        c = polygon_stats(p25, [(1 + p25.omega, 0)])
        assert a.count == b.count == c.count
        assert a.max_diameter == b.max_diameter == c.max_diameter

    def test_repeated_block_counted_once(self, p25):
        once = polygon_stats(p25, [(1, 0)])
        twice = polygon_stats(p25, [(1, 0), (1, 0)])
        assert twice == once
        assert twice.count == sum(twice.per_block.values())

    def test_diameter_growth_along_convergents(self):
        # desk-scale echo of the growth statements, not a proof of them
        d1 = polygon_stats(make_param(4, 17), [(0, 0)]).max_diameter
        d2 = polygon_stats(make_param(17, 72), [(0, 0)]).max_diameter
        assert d2 > d1


class TestVerifyFirst:
    def test_2_5_bound(self, p25):
        r = verify_first(p25)
        assert r["ok"]
        assert r["bound"] == F(39, 10)
        assert r["x_diameter"] >= F(39, 10)
        assert r["symmetric"]

    def test_3_8_bound(self, p38):
        r = verify_first(p38)
        assert r["ok"] and r["bound"] == F(121, 16) - 1

    def test_1_2_degenerate(self, p12):
        r = verify_first(p12)
        assert r["ok"] and r["x_diameter"] == 2 and r["bound"] == F(5, 4)

    def test_small_sweep(self):
        for prm in even_rationals(20):
            assert verify_first(prm)["ok"], prm


class TestEmptyRectangles:
    def test_2_5_k2(self, p25):
        r = empty_rectangles(p25, (0, 0), 2)
        assert r["cells"] == (3, 3)
        assert len(r["empty"]) >= 1
        assert r["ok"]

    def test_3_8_k4(self, p38):
        r = empty_rectangles(p38, (0, 0), 4)
        assert r["cells"] == (5, 5)
        assert r["ok"]

    def test_census_identity(self, p25):
        # the lines of capacity <= K carry exactly (K+1)^2 - 1 light points
        for K in (0, 2, 4, 6):
            r = empty_rectangles(p25, (0, 0), K)
            assert r["light_census"] == (K + 1) ** 2 - 1 == r["census_bound"]

    def test_all_blocks_small(self):
        for prm in even_rationals(11):
            for bi in range(prm.omega):
                for K in range(0, prm.omega, 2):
                    assert empty_rectangles(prm, (bi, 0), K)["ok"], \
                        (prm, bi, K)

    def test_grid_shape(self, p25):
        assert len(cut_offsets(p25, 2)) == 4
        with pytest.raises(Exception):
            cut_offsets(p25, 3)
        with pytest.raises(Exception):
            cut_offsets(p25, 8)


class TestGapRadius:
    def test_2_5(self, p25):
        assert gap_radius(p25, (0, 0, 7, 7)) <= 2

    def test_one_grid_per_block(self, p25, monkeypatch):
        built = []
        init = BlockGrid.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[1])
            init(self, *args, **kwargs)

        monkeypatch.setattr(BlockGrid, "__init__", counting_init)
        gap_radius(p25, (0, 0, 7, 7))
        assert built == [0]

    @pytest.mark.parametrize("window", [(3, 3, 0, 0), (0, 0, 0, 7),
                                        (0, 5, 7, 5)])
    def test_empty_window_rejected(self, p25, window):
        with pytest.raises(PlaidError, match="window must be nonempty"):
            gap_radius(p25, window)

    def test_bounded_along_convergents(self):
        r1 = gap_radius(make_param(4, 17), (0, 0, 21, 21))
        r2 = gap_radius(make_param(17, 72), (0, 0, 89, 89))
        assert r1 <= 3 and r2 <= 3
