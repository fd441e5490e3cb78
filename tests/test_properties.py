"""Law-style checks over randomized inputs."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from plaid.params import even_rationals, make_param, sym_reduce
from plaid.grid import PlaidPolygon
from plaid.classifier import canon_frac, canon_scaled, grid_cell, xi_raw_scaled
from plaid.pet import decode_cell

PARAMS = even_rationals(15)
param_st = st.sampled_from(PARAMS)
frac_st = st.fractions(max_denominator=400)


@given(param_st, frac_st, frac_st, frac_st)
def test_canon_frac_idempotent_and_in_domain(prm, t, u1, u2):
    pt = canon_frac(prm.bigP, t, u1, u2)
    assert -1 <= pt.T < 1 and -1 <= pt.U1 < 1 and -1 <= pt.U2 < 1
    assert canon_frac(prm.bigP, *pt.as_tuple()) == pt


@given(param_st, frac_st, frac_st, frac_st,
       st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_canon_frac_lattice_invariant(prm, t, u1, u2, k1, k2, k3):
    P = prm.bigP
    shifted = canon_frac(P, t + 2 * k1, u1 + k1 * P + 2 * k2,
                         u2 + k1 * P + 2 * k3)
    assert shifted == canon_frac(P, t, u1, u2)


@given(param_st, st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 6, 10 ** 6), st.integers(-40, 40),
       st.integers(-40, 40), st.integers(-40, 40))
def test_canon_scaled_matches_fraction_path(prm, t, u1, u2, k1, k2, k3):
    w, p = prm.omega, prm.p
    ts, us1, us2 = canon_scaled(w, 2 * p, t + 2 * w * k1,
                                u1 + 2 * p * k1 + 2 * w * k2,
                                u2 + 2 * p * k1 + 2 * w * k3)
    pt = canon_frac(prm.bigP, F(t, w), F(u1, w), F(u2, w))
    assert (pt.T, pt.U1, pt.U2) == (F(ts, w), F(us1, w), F(us2, w))


@given(param_st, st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 6, 10 ** 6), st.integers(-10, 10),
       st.integers(-10, 10), st.integers(-10, 10))
def test_canon_cover_invariant(prm, t, u1, u2, k1, k2, k3):
    """The decoded cover cell of an image-lattice point (t odd, u even) is
    invariant under the cover lattice, canonical and a fixed point."""
    w, p = prm.omega, prm.p
    t, u1, u2 = 2 * t + 1, 2 * u1, 2 * u2
    a = decode_cell(prm, grid_cell(prm, t, u1, u2, 2))
    b = decode_cell(prm, grid_cell(prm, t + 4 * w * k1,
                                   u1 + 4 * p * k1 + 2 * w * k2,
                                   u2 + 4 * p * k1 + 2 * w * k3, 2))
    assert a == b
    assert decode_cell(prm, grid_cell(prm, *a, 2)) == a
    assert -2 * w <= a[0] < 2 * w and -w < a[1] < w and -w < a[2] < w


@given(param_st, st.integers(-50, 50), st.integers(-50, 50))
def test_xi_respects_translation_lattice(prm, a, b):
    w = prm.omega
    p2 = 2 * prm.p
    base = canon_scaled(w, p2, *xi_raw_scaled(prm, a, b))
    assert canon_scaled(w, p2, *xi_raw_scaled(prm, a + w * w, b)) == base
    assert canon_scaled(w, p2, *xi_raw_scaled(prm, a, b + w)) == base


@given(st.integers(2, 60), st.integers(-10 ** 9, 10 ** 9))
def test_sym_reduce_window(half, t):
    r = sym_reduce(t, 2 * half)
    assert -half <= r < half
    assert (t - r) % (2 * half) == 0


@st.composite
def lattice_loops(draw):
    """A random embedded rectilinear loop of tile centers (a rectangle)."""
    x0 = draw(st.integers(-20, 20))
    y0 = draw(st.integers(-20, 20))
    dx = draw(st.integers(1, 8))
    dy = draw(st.integers(1, 8))
    top = [(x0 + i, y0) for i in range(dx)]
    right = [(x0 + dx, y0 + j) for j in range(dy)]
    bottom = [(x0 + dx - i, y0 + dy) for i in range(dx)]
    left = [(x0, y0 + dy - j) for j in range(dy)]
    loop = [(2 * x + 1, 2 * y + 1) for x, y in top + right + bottom + left]
    rot = draw(st.integers(0, len(loop) - 1))
    if draw(st.booleans()):
        loop = loop[::-1]
    return loop[rot:] + loop[:rot]


@given(lattice_loops())
def test_polygon_canonical_form_is_representation_invariant(loop):
    pg = PlaidPolygon.from_centers(loop)
    assert set(pg.verts2) == set(loop)
    assert pg == PlaidPolygon.from_centers(list(reversed(loop)))
    assert pg.verts2[0] == min(loop)
    assert PlaidPolygon.from_centers(list(pg.verts2)) == pg
