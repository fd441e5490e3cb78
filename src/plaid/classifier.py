"""The tile description of the model.

Tile centers map into a flat 3-torus (coordinates T, U1, U2) through an
affine map; the torus carries a partition into seven labelled regions, and
the label of the image is the connector drawn in the tile.  Fibers over fixed
T carry a 4x4 checkerboard whose cut positions and symbol matrix change over
three T-zones.

The conventions, fixed once here and validated against the grid model:

* matrix rows run top to bottom in the fiber's U2 direction (row 1 covers
  U2 in [u3, 1]), columns left to right in U1;
* a non-special cell is labelled by (row symbol, col symbol), special cells
  assign the empty tile and keep their symbol as a diagnostic;
* canonical torus representatives live in [-1, 1)^3, reducing U1, U2 mod 2
  first, then T with the skew generator (2, P, P), then U1, U2 again.

Images of tile centers land on fibers whose T is an odd multiple of 1/omega,
including the two zone-boundary fibers; there the checkerboards of both
adjacent zones agree cell by cell, and labels are computed from both sides
and compared.

The label table.  At one parameter the canonical images of tile centers are
the omega^3 points (t, u1, u2)/omega with t odd in [-omega, omega) and u1, u2
even in (-omega, omega); label_table holds one byte per point, at index

    ((t + omega)/2 * omega + (u1 + omega - 1)/2) * omega + (u2 + omega - 1)/2.

An edge of the unit square is an index e into "NSEW", e ^ 1 its opposite
and 1 << e its bit in an edge mask, as in BlockGrid.edge_mask.  The byte is
the cell code 4*i + j, i and j the edges of the row and column symbols:
twelve codes for the ordered pairs and the four multiples of 5 for the
special cells (in every zone, the cells whose two symbols agree), the symbol
being the diagnostic.  _boards is the one owner of zone dispatch, cuts and
codes: it gives each zone over a fiber, both over a zone-boundary fiber,
where the two byte strings built must be equal.  The table of the double
cover continues t over [omega, 3*omega) with reversed codes, each read as
4*entry + exit; its index, the cell, is the state of the exchange in pet.
grid_cell is the one reduction of a scaled grid point to its cell, and
cell_codes computes cells' bytes from their indices as label_table does,
along one diagonal of a fiber; cell_code is its one-cell case.

Center columns.  From the center (a, b) to (a, b+1) the cell (j, i1, i2)
moves to (j, i1 - p, i2 + p) mod omega: the image gains (2*omega, 0, 4p),
the lattice vector (2*omega, 2p, 2p) plus (0, -2p, 2p).  On the cover, with
(4*omega, 4p, 4p), b + 2 moves it by (0, -2p, 2p), even and odd b on two
fibers.  So the classes b = r mod sheets of a column run along one diagonal
i1 + i2 = const of one fiber from the column start (a, r).  From (a, b) to
(a + omega, b) the image gains 2p(2*omega, 2p, 2p) plus 4p(omega - p) in u1
and u2, so columns a = a0 mod omega share a fiber and a step of omega moves
a start by -2p^2 in i1 and i2, on the cover too.  The move commutes with
every fiber shift and with the maps of symmetry_conjugacies, so the starts
a < omega stand for their columns: criteria 5 and 6 and the maps of 10
check them alone, and center_codes reads every code from them.
column_codes reads a run of one column without a table, as two runs of
cell_codes from the run's first two centers.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .params import Param, PlaidError, Rat, RatLike, sym_reduce
from .grid import Particle

class OnWall(PlaidError):
    """A queried point lies exactly on a partition wall.  Impossible for tile
    centers; reaching this from one is a bug detector."""


class BoundaryFiber(PlaidError):
    """T sits exactly over a zone boundary, where the checkerboard data of
    two zones both apply."""


_ORDER = "NSEW"


def unordered_label(a: str, b: str) -> str:
    return a + b if _ORDER.index(a) < _ORDER.index(b) else b + a


# (row symbols top->bottom, col symbols left->right, special col per row)
_ZONES = {
    1: ("WNES", "NESW", (3, 0, 1, 2)),
    2: ("NEWS", "NWES", (0, 2, 1, 3)),
    3: ("NWSE", "ENWS", (1, 2, 3, 0)),
}


@dataclass(frozen=True)
class CheckerboardSpec:
    """Cut positions u1 <= u2 <= u3 in [-1, 1] and the symbol matrix."""

    u: Tuple[Rat, Rat, Rat]
    rows: str
    cols: str
    specials: Tuple[int, int, int, int]

    def matrix(self) -> List[List[str]]:
        m = [["0"] * 4 for _ in range(4)]
        for r, c in enumerate(self.specials):
            m[r][c] = self.rows[r]
        return m

    def validate(self) -> None:
        """The four special rectangles must be squares."""
        u1, u2, u3 = self.u
        if not (-1 <= u1 <= u2 <= u3 <= 1):
            raise PlaidError(f"cuts out of order: {self.u}")
        widths = (u1 + 1, u2 - u1, u3 - u2, 1 - u3)
        heights = (1 - u3, u3 - u2, u2 - u1, u1 + 1)  # rows top to bottom
        for r, c in enumerate(self.specials):
            if widths[c] != heights[r]:
                raise PlaidError(
                    f"special cell ({r + 1},{c + 1}) is {widths[c]} x {heights[r]}")


@dataclass(frozen=True)
class ZoneData:
    zone: int
    spec: CheckerboardSpec


def _zone_spec(P: Rat, zone: int, T: Rat) -> CheckerboardSpec:
    rows, cols, spec = _ZONES[zone]
    if zone == 1:
        u = (T, 1 - P, 2 - P + T)
    elif zone == 2:
        u = (-1 + P, T, 1 - P)
    else:
        u = (-2 + P + T, -1 + P, T)
    return CheckerboardSpec(u, rows, cols, spec)


def _zones_at(P: Rat, T: Rat) -> Tuple[int, ...]:
    """The zones whose checkerboard applies over the fiber T in [-1, 1]: both
    neighbours on the zone boundaries T = -1+P and T = 1-P, one elsewhere."""
    if not -1 <= T <= 1:
        raise PlaidError(f"T={T} outside [-1, 1]")
    t1, t2 = P - 1, 1 - P
    if T == t1:
        return (1, 2)
    if T == t2:
        return (2, 3)
    return (1,) if T < t1 else (2,) if T < t2 else (3,)


def zone_of(param_or_P, T: RatLike) -> ZoneData:
    """Zone and checkerboard data of the fiber over T.

    Raises BoundaryFiber at T = -1+P and T = 1-P exactly; both neighbouring
    zones apply there (and agree), so callers that can see those fibers must
    resolve them explicitly.
    """
    P = param_or_P.bigP if isinstance(param_or_P, Param) else Fraction(param_or_P)
    T = Fraction(T)
    zones = _zones_at(P, T)
    if len(zones) == 2:
        raise BoundaryFiber(f"T={T} lies over a zone boundary")
    return ZoneData(zones[0], _zone_spec(P, zones[0], T))


def _band(coord: Rat, u: Sequence[Rat]) -> int:
    """0..3, increasing with coord; exact hits on a cut are walls."""
    if coord == -1 or coord == 1:
        raise OnWall(f"{coord} on the fiber seam")
    k = 0
    for ui in u:
        if coord == ui:
            raise OnWall(f"{coord} on cut {ui}")
        if coord > ui:
            k += 1
    return k


def checkerboard_label(spec: CheckerboardSpec, u1coord: RatLike, u2coord: RatLike
                       ) -> Tuple[str, Optional[str]]:
    """(connector label, diagnostic symbol) of the cell containing the point.

    Pair cells return (pair, None); the four special cells assign the empty
    tile and return ('EMPTY', their symbol).  Points on any cut line (or the
    fiber seam) raise OnWall.
    """
    col = _band(Fraction(u1coord), spec.u)
    row = 3 - _band(Fraction(u2coord), spec.u)
    if spec.specials[row] == col:
        return "EMPTY", spec.rows[row]
    return unordered_label(spec.rows[row], spec.cols[col]), None


# ---------------------------------------------------------------------------
# The classifying map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassifyingPoint:
    """Canonical representative in [-1, 1)^3 of a point of the fiber torus."""

    T: Rat
    U1: Rat
    U2: Rat

    def as_tuple(self) -> Tuple[Rat, Rat, Rat]:
        return (self.T, self.U1, self.U2)


def canon_frac(P: Rat, T: Rat, U1: Rat, U2: Rat) -> ClassifyingPoint:
    """Canonical reduction modulo the lattice <(2,P,P), (0,2,0), (0,0,2)>."""
    U1 -= 2 * ((U1 + 1) // 2)
    U2 -= 2 * ((U2 + 1) // 2)
    k = (T + 1) // 2
    T -= 2 * k
    if k:
        U1 -= k * P
        U2 -= k * P
        U1 -= 2 * ((U1 + 1) // 2)
        U2 -= 2 * ((U2 + 1) // 2)
    return ClassifyingPoint(T, U1, U2)


def xi_raw_scaled(param: Param, a: int, b: int) -> Tuple[int, int, int]:
    """omega * (2Px + 2y, 2Px, 2Px + 2Py) at the center ((2a+1)/2, (2b+1)/2)."""
    p, w = param.p, param.omega
    s = 2 * p * (2 * a + 1)
    return s + w * (2 * b + 1), s, s + 2 * p * (2 * b + 1)


def canon_scaled(w: int, p2: int, t: int, u1: int, u2: int) -> Tuple[int, int, int]:
    """Canonical reduction, all coordinates scaled by w, with p2 = P*w."""
    w2 = 2 * w
    ts = sym_reduce(t, w2)
    k = (t - ts) // w2
    if k:
        d = p2 * k
        return ts, sym_reduce(u1 - d, w2), sym_reduce(u2 - d, w2)
    return ts, sym_reduce(u1, w2), sym_reduce(u2, w2)


def _center_indices(center: Tuple[RatLike, RatLike]) -> Tuple[int, int]:
    x, y = Fraction(center[0]), Fraction(center[1])
    if x.denominator != 2 or y.denominator != 2:
        raise PlaidError(f"{center} is not a tile center")
    return (x.numerator - 1) // 2, (y.numerator - 1) // 2


def xi(param: Param, center: Tuple[RatLike, RatLike]) -> ClassifyingPoint:
    """The classifying map at a tile center, canonical form."""
    a, b = _center_indices(center)
    w = param.omega
    t, u1, u2 = canon_scaled(w, 2 * param.p, *xi_raw_scaled(param, a, b))
    return ClassifyingPoint(Fraction(t, w), Fraction(u1, w), Fraction(u2, w))


def xi_local(param: Param, point: Tuple[RatLike, RatLike]) -> ClassifyingPoint:
    """The fiber coordinates through the local branch formulas, canonically
    reduced.  Agrees with xi on tile centers."""
    from .params import mod2_reduce

    x, y = Fraction(point[0]), Fraction(point[1])
    if (2 * y).denominator != 1 or (2 * y).numerator % 2 == 0:
        raise PlaidError("local formulas apply at half-integer y")
    P, Q = param.bigP, param.bigQ
    T = mod2_reduce(2 * P * x + 1)
    bb = P * T / 2
    U1 = mod2_reduce(P * Q * x + bb - P * y)
    U2 = mod2_reduce(P * Q * x + bb + P * y)
    return canon_frac(P, T, U1, U2)


# ---------------------------------------------------------------------------
# Tile assignment
# ---------------------------------------------------------------------------

# board[b1][b2], the code of a zone's cell in U1 band b1 and U2 band b2
# (bands count the cuts below, so rows run top down), read at 0..3 only
_BOARDS = {zone: tuple(bytes(4 * _ORDER.index(r) + _ORDER.index(c)
                             for r in rows[::-1]) + bytes(252) for c in cols)
           for zone, (rows, cols, _) in _ZONES.items()}


def _boards(w: int, p2: int, t: int) -> List[tuple]:
    """(zone, w times its cuts, board) of each zone of _zones_at and
    _zone_spec over the fiber t/w, t in [-w, w) and p2 = P*w: both
    neighbours on the boundary fibers t = +-(p2 - w), one elsewhere."""
    t1 = p2 - w
    out = []
    if t <= t1:
        out.append((1, (t, -t1, w - t1 + t), _BOARDS[1]))
    if t1 <= t <= -t1:
        out.append((2, (t1, t, -t1), _BOARDS[2]))
    if t >= -t1:
        out.append((3, (t1 - w + t, t1, t), _BOARDS[3]))
    return out


# the connector label, edge mask and directed label of each code
CODE_LABELS = tuple("EMPTY" if r == c else unordered_label(r, c)
                    for r in _ORDER for c in _ORDER)
CODE_MASKS = tuple(0 if i == j else 1 << i | 1 << j
                   for i in range(4) for j in range(4))
ORIENTED_CODES = tuple("EMPTY" if r == c else r + c
                       for r in _ORDER for c in _ORDER)
REVERSED = bytes.maketrans(bytes(range(16)), bytes(
    4 * (c & 3) + (c >> 2) for c in range(16)))


def label_table(param: Param, sheets: int = 1) -> bytearray:
    """The code of every cell of the base torus or, with sheets=2, the
    directed code of every cell of the double cover, laid out as in the
    module docstring, a fiber's u banded once per zone of _boards.  Raises
    PlaidError when the two zones over a boundary fiber disagree."""
    w, p = param.omega, param.p
    table = bytearray()
    for t in range(-w, (2 * sheets - 1) * w, 2):
        # an outer fiber is base fiber t - 2w with u shifted by -2p, reversed
        outer = t >= w
        t -= 2 * w * outer
        us = [(u - 2 * p * outer + w) % (2 * w) - w for u in range(1 - w, w, 2)]
        fibers = []
        for _, (c1, c2, c3), board in _boards(w, 2 * p, t):
            # the cuts are odd and every u even, so no cell is on a wall
            bands = bytes((u > c1) + (u > c2) + (u > c3) for u in us)
            columns = [bands.translate(col) for col in board]
            fibers.append(b"".join(map(columns.__getitem__, bands)))
        if fibers[0] != fibers[-1]:
            raise PlaidError(f"zone disagreement on the fiber t={t}/{w}")
        table += fibers[0].translate(REVERSED) if outer else fibers[0]
    return table


def grid_cell(param: Param, t: int, u1: int, u2: int, sheets: int = 1) -> int:
    """Table index of the scaled grid point (t odd, u1 and u2 even) reduced
    modulo the lattice of canon_scaled, or with sheets=2 modulo the cover's
    lattice, generated by (4*omega, 4p, 4p) and 2*omega in u1 and u2."""
    w = param.omega
    k, i = divmod((t + w) // 2, sheets * w)
    s = sheets * param.p * k
    return ((i * w + ((u1 + w - 1) // 2 - s) % w) * w
            + ((u2 + w - 1) // 2 - s) % w)


def center_cell(param: Param, a: int, b: int, sheets: int = 1) -> int:
    """The cell, with sheets=2 the cover cell, of the image of the center
    (a+1/2, b+1/2)."""
    return grid_cell(param, *xi_raw_scaled(param, a, b), sheets)


def center_codes(param: Param, table: bytes) -> bytearray:
    """table[center_cell(param, a, b)] at a*omega + b, b < omega, table
    being label_table(param) or a translate of it.  The cover table's first
    omega fibers, its middle half, are the base table (the lift law, which
    criterion 6 checks), so on the cover table it gives the base codes; a
    center's cover code is its base code, reversed where its cover cell is
    outer.  Skew column k (and k + omega) of a fiber is its column pk
    turned down by pk, so skew row d is diagonal d twice round in steps of
    p, and a center column one slice of it."""
    w, p, ww = param.omega, param.p, param.omega ** 2
    codes = bytearray(w * ww)
    out = memoryview(codes)  # fixed length: a short slice raises
    for a0 in range(w):
        j, i = divmod(center_cell(param, a0, 0), ww)  # i = i1*omega + i2
        fiber = table[j * ww:(j + 1) * ww] * 2
        skew = bytearray(2 * ww)
        for k in range(w):
            c = p * k % w
            skew[k::2 * w] = skew[k + w::2 * w] = fiber[(w - c) * w + c::w][:w]
        d, k = i // w + i % w, i % w * pow(p, -1, w)
        for lo in range(a0 * w, w * ww, w * w):  # column a = a0 mod omega
            start = d % w * 2 * w + k % w
            out[lo:lo + w] = skew[start:start + w]
            d, k = d - 4 * p * p, k - 2 * p
    return codes


def turn_fiber(fiber: bytearray, w: int, C1: int, c2: int) -> bytearray:
    """A table fiber turned: (i1, i2) reads (i1 + c1, i2 + c2) mod omega,
    C1 = c1*omega; one roll by C1 + c2 reads each row's last c2 a row on."""
    pair = fiber * 2
    turned, back = pair[C1 + c2:C1 + c2 + w * w], (C1 + c2 - w) % (w * w)
    for r in range(w - c2, w * w if c2 else 0, w):  # those from a row back
        turned[r:r + c2] = pair[back + r:back + r + c2]
    return turned


def cell_codes(param: Param, cell: int, n: int = 1,
               step: int = 0) -> bytearray:
    """label_table(param, 2) at the n cells (j, i1 - k*step, i2 + k*step),
    k < n, from the cell (j, i1, i2), without a table: an outer cell (j >=
    omega) is base fiber j - omega with i1 and i2 shifted by -p, its code
    reversed, read off each zone's board in _boards, one call for the run.
    No cell lies on a wall, since the cuts and the seam are odd and a cell's
    u is even.  Raises PlaidError when the zones disagree at a cell."""
    w, p = param.omega, param.p
    rest, i2 = divmod(cell, w)
    outer, j = divmod(rest // w, w)  # the cell's sheet and base fiber
    i1, i2 = rest % w - p * outer, i2 - p * outer
    runs = []
    for _, cuts, board in _boards(w, 2 * p, 2 * j - w):
        runs.append(bytearray(n))
        for k in range(n):  # the band of u is the number of cuts below u
            runs[-1][k] = board[bisect(cuts, 2 * ((i1 - k * step) % w) - w + 1)][
                bisect(cuts, 2 * ((i2 + k * step) % w) - w + 1)]
    if runs[0] != runs[-1]:
        raise PlaidError(f"zone disagreement on the fiber t={2 * j - w}/{w}")
    return runs[0].translate(REVERSED) if outer else runs[0]


def cell_code(param: Param, cell: int) -> int:
    """label_table(param, 2)[cell], the one-cell case of cell_codes."""
    return cell_codes(param, cell)[0]


def column_codes(param: Param, a: int, b: int, n: int) -> bytearray:
    """cell_code(param, center_cell(param, a, b + k, 2)) for k < n: the
    centers b + k of one parity lie on one cover fiber, each two rows on
    by (0, -2p, 2p) ("Center columns"), so a run of cell_codes from (a, b)
    and one from (a, b + 1) interleave.  The two runs' fibers are one base
    fiber, so a zone disagreement raises as cell_code's would."""
    codes = bytearray(n)
    for r in range(2):
        codes[r::2] = cell_codes(param, center_cell(param, a, b + r, 2),
                                 (n - r + 1) // 2, 2 * param.p)
    return codes


def tile_label_scaled(param: Param, a: int, b: int) -> str:
    return CODE_LABELS[cell_code(param, center_cell(param, a, b))]


def tile_of(param: Param, center: Tuple[RatLike, RatLike]) -> str:
    """The connector label assigned to a tile center (one of the 7)."""
    return tile_label_scaled(param, *_center_indices(center))


def fiber_label(P: Rat, point: ClassifyingPoint) -> Tuple[str, Optional[str]]:
    """Connector label at an arbitrary torus point (Fraction arithmetic),
    resolving zone-boundary fibers by two-sided agreement.  Raises OnWall on
    any in-fiber wall."""
    T, U1, U2 = point.as_tuple()
    got = [checkerboard_label(_zone_spec(P, z, T), U1, U2)
           for z in _zones_at(P, T)]
    if got[0] != got[-1]:
        raise PlaidError(f"zone disagreement at {point}")
    return got[0]


# ---------------------------------------------------------------------------
# Verification surfaces
# ---------------------------------------------------------------------------

def mark_classes(param: Param, sheets: int) -> Dict[str, object]:
    """The sheets*omega^3 center classes have distinct images: a column's
    fill one diagonal of its start's fiber (steps of sheets*p, a unit mod
    omega) and a + omega moves it by -4p^2, a unit too ("Center columns"),
    so when the sheets*omega starts (a, r), a < omega, lie on distinct
    fibers.  The base side's parity, read at a < omega, holds everywhere: b
    + 1 adds 2*omega, 0, 4p and a + omega 4p*omega to (t, u1, u2).  A
    failure names the first repeat's start, cell and earlier class."""
    w, ww, classes = param.omega, param.omega ** 2, sheets * param.omega ** 3
    for a in range(w if sheets == 1 else 0):
        t, u1, u2 = xi_raw_scaled(param, a, 0)
        if t % 2 == 0 or u1 % 2 or u2 % 2:
            return {"ok": False, "reason": f"parity at {(a, 0)}"}
    starts = [center_cell(param, a, r, sheets)
              for a in range(w) for r in range(sheets)]
    if len({c // ww for c in starts}) == len(starts):
        return {"ok": True, "classes": classes, "expected": classes}
    # a fiber holds two starts: walk the column starts (a, r), a < omega^2
    first: Dict[int, Tuple[int, int]] = {}
    for n in range(sheets * ww):
        c, d = starts[n % len(starts)], n // len(starts) * 2 * param.p ** 2
        c = c - c % ww + (c // w - d) % w * w + (c - d) % w
        n0, c0 = first.setdefault(c // ww * w + (c // w + c) % w, (n, c))
        if n0 != n:
            # the class k steps of sheets down the earlier start's column
            k = (c - c0) * pow(sheets * param.p, -1, w) % w
            (a0, r0), second = divmod(n0, sheets), divmod(n, sheets)
            return {"ok": False, "reason": "two classes mark one cell",
                    "sheets": sheets, "cell": c,
                    "first": (a0, r0 + sheets * k), "second": second}
    return {"ok": False, "reason": "two starts on one fiber", "sheets": sheets}


def verify_bijection(param: Param) -> Dict[str, object]:
    """The canonical images of the omega^3 center classes are pairwise
    distinct and fill the discrete grid (odd/omega, even/omega, even/omega)."""
    return mark_classes(param, 1)


# translate tables, read at 0..15 only: the edge mask of each code, an edge
# mask under rotation (N<->S, E<->W) and x-reflection (N<->S), and the N, S, E
# and W bit of each code's mask as 0/1 lanes
_MASK_TABLE = bytes(CODE_MASKS) + bytes(240)
_ROT_MASKS = bytes(m >> 1 & 5 | m << 1 & 10 for m in range(256))
_FLIP_MASKS = bytes(m >> 1 & 1 | m << 1 & 2 | m & 12 for m in range(256))
_EDGE_LANES = [bytes(m >> k & 1 for m in _MASK_TABLE) for k in range(4)]


def symmetry_conjugacies(param: Param) -> Dict[str, object]:
    """Exact conjugacy of the classifying map with the two reflection
    symmetries, and the induced label permutations, over all center classes.

    Rotation through the origin: Xi(-c) = -Xi(c) and labels swap N<->S,
    E<->W.  Reflection in the x-axis: Xi(x,-y) = swap(U1,U2) of Xi(x,y) and
    labels swap N<->S only.  The maps are checked at the starts, b = 0 and
    -1: a step in b, or of omega in a, moves both sides alike ("Center
    columns").  As each cell is one center's (the bijection), the label laws
    are then laws of the table: fiber -j reversed (fiber 0 then turned by p,
    p) has fiber j's masks turned by _ROT_MASKS, and fiber j transposed its
    own turned by _FLIP_MASKS; the center columns are walked only on failure."""
    w, p, ww = param.omega, param.p, param.omega ** 2
    table, maps, laws = label_table(param), [], True
    for a in range(w):  # the maps at the start a, the label laws on fiber a
        c = center_cell(param, a, 0)
        # -Xi of a cell, reversed; fiber 0 is its own negative up to (2*omega, 2p, 2p)
        neg = w * ww + ww - 1 - c if c >= ww else \
            (-1 - p - c // w) % w * w + (-1 - p - c) % w
        swap = c + (w - 1) * (c % w - c // w % w)
        maps.append([("rotation-map", [center_cell(param, ww - 1 - a, -1)], [neg]),
                     ("reflection-map", [center_cell(param, a, -1)], [swap])])
        fiber = table[a * ww:(a + 1) * ww].translate(_MASK_TABLE)
        rot = table[-a % w * ww:(-a % w + 1) * ww].translate(_MASK_TABLE)[::-1]
        rot = rot if a else turn_fiber(rot, w, p * w, p)
        laws = laws and all(got == want for _, got, want in maps[a]) and \
            rot == fiber.translate(_ROT_MASKS) and \
            b"".join(fiber[i::w] for i in range(w)) == fiber.translate(_FLIP_MASKS)
    if laws:
        return {"ok": True, "classes": w ** 3}
    masks = center_codes(param, table.translate(_MASK_TABLE))
    for a in range(ww):  # a law fails: name its first center
        mask, rot = masks[a * w:(a + 1) * w], masks[(ww - 1 - a) * w:(ww - a) * w]
        checks = (maps[a] if a < w else []) + [
            ("rotation-label", rot[::-1], mask.translate(_ROT_MASKS)),
            ("reflection-label", mask[::-1], mask.translate(_FLIP_MASKS))]
        if any(got != want for _, got, want in checks):
            b, case = next((b, case) for b in range(w) for case, got, want in checks
                           if got[b:b + 1] != want[b:b + 1])
            return {"ok": False, "case": case, "at": (a, b)}
    return {"ok": True, "classes": w ** 3}


def particle_image_geometry(param: Param, particle: Particle) -> Dict[str, object]:
    """image_geometry_scaled on the particle's squares and types."""
    return image_geometry_scaled(param, particle.orientation, particle.squares,
                                 particle.types)


def image_geometry_scaled(param: Param, orientation: str,
                          squares: Sequence[Tuple[int, int]],
                          types: Sequence[str]) -> Dict[str, object]:
    """Geometry of the classifying images of a particle's edge squares.

    Vertical particles: all images share one fiber, with U1 (type P) or U2
    (type Q) constant.  Horizontal particles: the type-P portion stays out of
    the open middle T-zone and steps diagonally (equal U1 and U2 increments);
    the type-Q portion steps parallel to the T-axis (zero U increments), and
    its fibers over the closed middle zone are hit twice, others once.

    With s = 2p(2a + 1) the image of (a, b) lies on the fiber t = (s mod
    2*omega) - omega, and U1, U2 drop by 2pk, k = s // (2*omega) + b + 1.
    Horizontal squares of a type step by (d mod omega^2, 0 mod omega), d one
    of its two center steps, else the step's image is the "diff".  This is
    never looser than reading image steps: (omega^2, 0) and (0, omega) being
    periods of the map, images step by d's image; the converse is criterion 5.

    So a particle's record on line 0 stands for every line.  Horizontal
    squares on line c are (x_i, c), and the record reads b only through the
    steps db, which are 0.  Vertical squares on line c are (c + omega*j_n,
    y_n): the move by (c, 0) adds 4pc to every s, so it moves every fiber
    and, when the fibers are one, every U by one value mod 2*omega.  Its
    record from block 0 stands for every block: the walk from block j0 is
    block 0's moved by (j0*omega, 0) mod omega^2, which adds a multiple of
    2*omega to every s, so it keeps every fiber and step and moves every U
    by -4p^2*j0 mod 2*omega.
    """
    w, p2 = param.omega, 2 * param.p
    w2 = 2 * w
    t1, t2 = p2 - w, w - p2
    fibers = [p2 * (2 * a + 1) % w2 - w for a, _ in squares]
    if orientation == "vertical":
        if len(set(fibers)) != 1:
            return {"ok": False, "case": "fiber", "fibers": sorted(set(fibers))}
        # U1 of each image, for type Q its U2
        q = types[0] == "Q"
        const = {(s - (s // w2 + b + 1) * p2 + w + q * p2 * (2 * b + 1)) % w2 - w
                 for s, b in ((p2 * (2 * a + 1), b) for a, b in squares)}
        return {"ok": len(const) == 1, "case": "vertical", "const": sorted(const)}
    p_fibers = [t for t, ty in zip(fibers, types) if ty == "P"]
    for t in p_fibers:
        if t1 < t < t2:
            return {"ok": False, "case": "P-middle-zone", "t": t}
    ww, base = w * w, param.adj * w
    for kind, steps, case in (
            ("P", (base + w // p2, base + w // p2 + 1), "P-diagonal-step"),
            ("Q", (base, base - 1), "Q-axis-step")):
        allowed = {(d % ww, 0) for d in steps}
        run = [sq for sq, ty in zip(squares, types) if ty == kind]
        for (a, b), (a_, b_) in zip(run, run[1:]):
            da, db = a_ - a, b_ - b
            if (da % ww, db % w) not in allowed:
                return {"ok": False, "case": case, "diff": canon_scaled(
                    w, p2, 2 * p2 * da + w2 * db, 2 * p2 * da, 2 * p2 * (da + db))}
    counts = Counter(t for t, ty in zip(fibers, types) if ty == "Q")
    for t, n in counts.items():
        # the middle-zone fibers are crossed twice, closed on the left
        # boundary and open on the right
        want = 2 if t1 <= t < t2 else 1
        if n != want:
            return {"ok": False, "case": "Q-fiber-count", "t": t, "count": n}
    return {"ok": True, "case": "horizontal", "p_fibers": len(set(p_fibers)),
            "q_fibers": len(counts)}
