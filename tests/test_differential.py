"""The integer grid paths against the Fraction reference `segment_points`,
at random even rationals far beyond the sweep bounds."""

import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from plaid.params import make_param
from plaid.grid import (
    BlockGrid,
    GridLine,
    UnitSegment,
    closed_point_counts,
    horizontal_particle,
    light_count,
    light_points_on_line,
    light_points_scaled,
    light_scale,
    segment_points,
    vertical_particle,
)

MAX_OMEGA = 301


@st.composite
def params(draw):
    w = draw(st.integers(1, (MAX_OMEGA - 1) // 2)) * 2 + 1
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
    den = light_scale(param, family)
    assert [(F(v, den), mult) for v, mult in
            light_points_scaled(param, line, (bi, bj))] == want


def check_instances(param, particle, axis):
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
    check_instances(param, horizontal_particle(param, y0, j0), "h")


@settings(max_examples=15, deadline=None)
@given(params(), st.sampled_from("PQ"), st.data())
def test_vertical_particle_matches_segment_points(param, ptype, data):
    w = param.omega
    x0 = data.draw(st.integers(0, w - 1))
    j0 = data.draw(st.integers(0, w - 1))
    check_instances(param, vertical_particle(param, x0, ptype, j0), "v")


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
    hc, vc = closed_point_counts(param, bi)
    for axis, n, m in data.draw(block_edges(w)):
        i = m * w + n if axis == "h" else n * w + m
        seg = UnitSegment(axis, bi * w + n, m)
        lights = grid.hl if axis == "h" else grid.vl
        assert lights[i] == light_count(param, seg), (axis, n, m)
        points = hc if axis == "h" else vc
        assert points[i] == sum(pt.multiplicity
                                for pt in segment_points(param, seg))
