"""The grid description of the model.

Four line families cut the plane: horizontal and vertical integer lines, and
two families of parallel lines with slopes -P and -Q (P = 2p/omega,
Q = 2q/omega, P + Q = 2) through the integer points of the y-axis.

Every line carries an integer invariant, omega times the value of its family's
adapted function, taken mod 2*omega in the symmetric branch.  Horizontal and
vertical lines get even invariants ("capacity"), diagonal lines odd ones
("mass").  An intersection of a capacity line with a mass line is *light* when
the two invariants share a strict sign and the mass is smaller in magnitude;
otherwise it is *dark*.  A unit segment is *good* when it holds exactly one
light point, where a light point at the midpoint of a horizontal unit segment
counts twice and a light point at an integer corner belongs to both horizontal
segments touching it.  Squares with exactly two good edges chain into closed
lattice loops, the plaid polygons.

The light lists are closed form.  The mass of the crossing lines with
intercept b depends on b mod omega alone and takes each of 0 and the odd
values in (-omega, omega) once: the mass 2k+1 sits at b = (k - h)/p and the
mass -2k-1 at b = (h - k)/p mod omega, h = (omega-1)/2.  A line of capacity
cap > 0 is light exactly on the masses 1, 3, ..., cap-1, so its lights are
the first cap/2 entries of the list for the masses 1, 3, 5, ...; a line of
capacity cap < 0 takes a prefix of the list for -1, -3, -5, ...
(light_lists).  A light point is a crossing whose crossing line's residue
is light: light_points_scaled tests only the crossings of the stretch of a
line it is given, so that a caller drawing many lines builds the lists once
and places only the points it draws, and BlockGrid a whole block's counts
from tables built once per parameter, never cached (fill_tables).  The light
rule itself, _light, stays as the reference in segment_points.

Everything here is exact: sweeps run on plain integers scaled by omega, and
the Fraction-valued functions are test oracles only: no suite or command
reaches them (tests/test_exactness.py).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from .params import (
    InvalidParameter,
    Param,
    PlaidError,
    Rat,
    RatLike,
    normalize_open,
    sym_reduce,
)


class IncoherentInput(PlaidError):
    """A region failed the 0-or-2 good-edge rule, so tracing is impossible."""


# ---------------------------------------------------------------------------
# Lines and their invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridLine:
    """family 'H'/'V'/'P'/'Q'; intercept is the y-coordinate (H), the
    x-coordinate (V), or the y-intercept (P, Q)."""

    family: str
    intercept: int


@dataclass(frozen=True)
class LineInvariants:
    magnitude: int
    sign: int  # +1, -1, or 0 (block boundaries and the mass-omega class)


def f_H(param: Param, point: Tuple[RatLike, RatLike]) -> Rat:
    return normalize_open(2 * param.bigP * Fraction(point[1]))


def f_V(param: Param, point: Tuple[RatLike, RatLike]) -> Rat:
    return normalize_open(2 * param.bigP * Fraction(point[0]))


def f_P(param: Param, point: Tuple[RatLike, RatLike]) -> Rat:
    x, y = Fraction(point[0]), Fraction(point[1])
    return normalize_open(param.bigP * y + param.bigP ** 2 * x + 1)


def f_Q(param: Param, point: Tuple[RatLike, RatLike]) -> Rat:
    x, y = Fraction(point[0]), Fraction(point[1])
    return normalize_open(param.bigP * y + param.bigP * param.bigQ * x + 1)


def capacity_scaled(param: Param, c: int) -> int:
    """omega * F for a horizontal line y=c or vertical line x=c; even,
    in (-omega, omega)."""
    return sym_reduce(4 * param.p * c, 2 * param.omega)


def mass_scaled(param: Param, b: int) -> int:
    """omega * F for the slope -P and slope -Q lines with y-intercept b.

    Returns 0 for the mass-omega class (F in the odd-integer class mod 2);
    such lines are never light, and 0 makes every sign test fail.
    """
    t = sym_reduce(2 * param.p * b + param.omega, 2 * param.omega)
    return 0 if t == -param.omega else t


def line_invariants(param: Param, line: GridLine) -> LineInvariants:
    """Magnitude |omega*F| and sign of F for the line."""
    if line.family in ("H", "V"):
        t = capacity_scaled(param, line.intercept)
        return LineInvariants(abs(t), 0 if t == 0 else (1 if t > 0 else -1))
    if line.family in ("P", "Q"):
        t = mass_scaled(param, line.intercept)
        if t == 0:
            return LineInvariants(param.omega, 0)
        return LineInvariants(abs(t), 1 if t > 0 else -1)
    raise InvalidParameter(f"unknown line family {line.family!r}")


def anchor_lines(param: Param, k: int) -> Dict[str, Set[int]]:
    """Positions mod omega of the four capacity-2k lines, via the tune.

    The capacity-2k lines sit at x (and y) congruent to +-k*alpha mod omega.
    """
    if not 0 <= k <= (param.omega - 1) // 2:
        raise InvalidParameter(f"k={k} outside 0..{(param.omega - 1) // 2}")
    pos = {(k * param.alpha) % param.omega, (-k * param.alpha) % param.omega}
    return {"x": pos, "y": set(pos)}


# ---------------------------------------------------------------------------
# Intersection points on unit segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitSegment:
    """axis 'h': [x, x+1] x {y};  axis 'v': {x} x [y, y+1]."""

    axis: str
    x: int
    y: int


@dataclass(frozen=True)
class IntersectionPoint:
    location: Tuple[Rat, Rat]
    host: GridLine
    crossing: GridLine
    brightness: str  # 'light' | 'dark'
    ptype: str  # 'P' | 'Q' | 'both'
    multiplicity: int


def _light(cap: int, mass: int) -> bool:
    """The light rule on scaled invariants: the mass shares the capacity's
    strict sign and is smaller in magnitude."""
    return 0 < mass < cap or cap < mass < 0


def _h_crossings(param: Param, seg: UnitSegment) -> List[Tuple[tuple, str, int]]:
    """(location, family, intercept) of the diagonal crossings on a closed
    horizontal unit segment."""
    w, out = param.omega, []
    for fam, s in (("P", param.p), ("Q", param.q)):
        # x = b * w / 2s in [seg.x, seg.x + 1] on the line of intercept y + b
        for b in range(-(-2 * s * seg.x // w), 2 * s * (seg.x + 1) // w + 1):
            out.append(((Fraction(b * w, 2 * s), Fraction(seg.y)), fam, seg.y + b))
    return out


def _v_crossings(param: Param, seg: UnitSegment) -> List[Tuple[tuple, str, int]]:
    """(location, family, intercept) of the diagonal crossings on a closed
    vertical unit segment."""
    w, out = param.omega, []
    for fam, s in (("P", param.p), ("Q", param.q)):
        # y = b - 2s*x/w in [seg.y, seg.y + 1]
        num = 2 * s * seg.x
        for b in range(-(-(seg.y * w + num) // w), ((seg.y + 1) * w + num) // w + 1):
            out.append(((Fraction(seg.x), Fraction(b * w - num, w)), fam, b))
    return out


def segment_points(param: Param, seg: UnitSegment) -> List[IntersectionPoint]:
    """The intersection points on a closed unit segment, two per segment
    counting multiplicity.

    A point lying on both diagonal families is one point of type 'both'; it
    has multiplicity 2 exactly when it is the midpoint of a horizontal
    segment.  Brightness is checked for consistency whenever two lines meet
    at the same point.
    """
    if seg.axis == "h":
        host, crossings = GridLine("H", seg.y), _h_crossings(param, seg)
    elif seg.axis == "v":
        host, crossings = GridLine("V", seg.x), _v_crossings(param, seg)
    else:
        raise InvalidParameter(f"segment axis must be 'h' or 'v', got {seg.axis!r}")
    cap = capacity_scaled(param, host.intercept)
    at: Dict[tuple, List[Tuple[str, int]]] = {}
    for location, fam, b in crossings:
        at.setdefault(location, []).append((fam, b))
    pts = []
    for location in sorted(at):  # one coordinate is fixed along the segment
        hits = at[location]
        lights = {_light(cap, mass_scaled(param, b)) for _, b in hits}
        if len(lights) != 1:
            raise PlaidError(f"inconsistent brightness at {location[0]},"
                             f"{location[1]} for {param}")
        both = len(hits) == 2
        midpoint = both and location == (Fraction(2 * seg.x + 1, 2), seg.y)
        pts.append(IntersectionPoint(
            location=location, host=host, crossing=GridLine(*min(hits)),
            brightness="light" if lights.pop() else "dark",
            ptype="both" if both else hits[0][0],
            multiplicity=2 if midpoint else 1))
    return pts


def light_count(param: Param, seg: UnitSegment) -> int:
    """Multiplicity-weighted number of light points on the closed segment."""
    return sum(pt.multiplicity for pt in segment_points(param, seg)
               if pt.brightness == "light")


def good_edges(param: Param, sw_corner: Tuple[int, int]) -> Set[str]:
    """Edges of the unit square with the given SW corner holding exactly one
    light point."""
    n, m = sw_corner
    edges = {"S": UnitSegment("h", n, m), "N": UnitSegment("h", n, m + 1),
             "W": UnitSegment("v", n, m), "E": UnitSegment("v", n + 1, m)}
    return {e for e, seg in edges.items() if light_count(param, seg) == 1}


# ---------------------------------------------------------------------------
# Fast per-block sweeps (plain integers)
# ---------------------------------------------------------------------------

def _h_slots(w: int, s: int, primary: bool) -> List[Tuple[int, int]]:
    """(edge, weight) of the step-r crossing of the slope -2s/omega family on
    a block's horizontal row, r in 0..2s: the crossing sits at
    x = r*omega/(2s) from the block's left corner.

    A corner (r = 0 or 2s) has weight 1 on edge 0 or w-1, since a block sees
    its left corner on edge 0 and its right corner on edge w-1.  The middle
    crossing r = s sits at x = omega/2, the midpoint of edge (omega-1)/2, and
    has weight 2; it is the only crossing at a half-integer, since omega is
    prime to 2s.  Corners and midpoints are points of both families, so
    they are counted through the primary family (slope -P) alone and the
    secondary family's crossings there have weight 0."""
    one = 1 if primary else 0
    slots = [(r * w // (2 * s), 1) for r in range(2 * s + 1)]
    slots[0], slots[s], slots[2 * s] = (0, one), (w // 2, 2 * one), (w - 1, one)
    return slots


def light_lists(param: Param) -> List[List[int]]:
    """by_line[c], c in 0..omega-1: the residues mod omega of the crossing
    lines that are light on the capacity lines y = c and x = c.  The lines
    of capacity 2j and -2j sit at c = +-j/(2p) mod omega (anchor_lines), and
    their lights are the first j entries of the module docstring's lists."""
    w = param.omega
    h, inv, step = (w - 1) // 2, pow(param.p, -1, w), pow(2 * param.p, -1, w)
    up = [inv * (k - h) % w for k in range(h)]  # masses 1, 3, 5, ...
    down = [-r % w for r in up]  # masses -1, -3, -5, ...
    by_line = [[]] * w  # line 0 has capacity 0
    for j in range(1, h + 1):
        c = j * step % w
        by_line[c], by_line[-c] = up[:j], down[:j]
    return by_line


def fill_tables(param: Param) -> tuple:
    """BlockGrid's tables from one light_lists call: a caller building several
    blocks of a parameter builds them once and passes them to each; nothing
    caches them.  With L_c line c's 0/1 light string: per family s = p, q,
    block 0's vl rows as BlockGrid keeps them, byte m*(w+1) + n being
    L_n[(m + ceil(2s*n/w)) % w] and byte m*(w+1) + w the far column's 0
    (x = omega has capacity 0), doubled; diag[k], byte (m + k) % w of L_m
    for m = 0..w, then a zero column 2w; three itemgetters of each edge's
    weighted slots in diag rotated for p, then q, padded by 2w."""
    w, p = param.omega, param.p
    strings = [bytearray(w) for _ in range(w)]
    for lit, res in zip(strings, light_lists(param)):
        for r in res:
            lit[r] = 1
    skew = b"".join(s[m:] + s[:m] for m, s in enumerate(strings)) + bytes(w)
    diag = [skew[k::w] for k in range(w)] + [bytes(w + 1)]
    picks = [[] for _ in range(w)]
    for s, offset in ((p, 0), (w - p, w)):
        for r, (edge, weight) in enumerate(_h_slots(w, s, s == p)):
            picks[edge] += [offset + r % w] * weight
    edges = [itemgetter(*slots) for slots in
             zip(*(pick + [2 * w] * (3 - len(pick)) for pick in picks))]
    # closed_point_counts' crossing rule: on the line x, the line of
    # intercept ceil(2s*x/w) + e meets edge e
    cols = [b"".join(line[j:] + line[:j] for line, j in zip(
        strings, (-(-2 * s * n // w) % w for n in range(w)))) for s in (p, w - p)]
    return ([2 * b"".join(c[m::w] + b"\0" for m in range(w)) for c in cols],
            diag, edges)


# per edge e of "NSEW", bit e of an edge mask from a light count: an edge is
# good when it carries exactly one light point (translate tables)
_GOOD = [bytes((count == 1) << e for count in range(256)) for e in range(4)]
# an edge mask -> 1 when its square breaks the 0-or-2 rule (translate table)
_INCOHERENT = bytes(mask.bit_count() not in (0, 2) for mask in range(256))


class BlockGrid:
    """Light counts for every unit edge of one omega x omega block.

    Blocks are indexed by their southwest corner in units of omega; the
    invariance lattice <(omega^2, 0), (0, omega)> makes every block a copy of
    block (bi mod omega, 0).  Both arrays are stored as the fill sums them,
    so line k of either axis is a[k::w+1]: hl[n*(w+1) + m] counts light
    points (with multiplicity, corners shared) on the horizontal edge
    [bi*w + n, bi*w + n + 1] x {m}, so row m is hl[m::w+1];
    vl[m*(w+1) + n] the vertical edge {bi*w + n} x [m, m + 1], so column n
    is vl[n::w+1].

    The fill reads the parameter's tables, built here when not given.  With
    L_m line m's 0/1 light string, slot r of family s (_h_slots) on row m is
    lit when L_m[(m + r + 2s*bi) % w] is 1, so its values down all rows are
    diag[(r + 2s*bi) % w]; an hl edge column sums at most three of them,
    and these column sums are hl as it is kept.  vl column n is L_n rotated
    by ceil(2s*(bi*w + n)/w) = 2s*bi + ceil(2s*n/w): block 0's column
    turned by a uniform 2s*bi, whole rows, so one slice of each family's
    table.  Sums are taken on big-endian ints.  masks() is the one reader
    that reorders edges: it cuts one row out of each of hl's columns for
    the N and S lanes, and puts vl's columns in square order for E and W.

    The grid side's one integer light structure: edge-mask readers read the
    bytes of masks(); criterion 4 and the empty-rect census read the line
    totals of hl and vl, and the empty-cell test reads single rows and
    columns as lanes (analysis.line_totals, analysis._Lanes).
    """

    def __init__(self, param: Param, bi: int, tables: Optional[tuple] = None):
        w = param.omega
        self.param = param
        self.bi = bi % w
        self.hl = bytearray((w + 1) * w)
        self.vl = bytearray((w + 1) * w)
        self._masks: Optional[bytes] = None
        self._fill(tables)

    def _fill(self, tables: Optional[tuple]):
        w, p, bi = self.param.omega, self.param.p, self.bi
        # row c and column c of a block lie on lines of one capacity
        rows, diag, edges = tables or fill_tables(self.param)
        # slot r of family s reads diag[(r + 2s*bi) % w]; 2q*bi = -2p*bi
        k = 2 * p * bi % w
        slots = diag[k:w] + diag[:k] + diag[w - k:w] + diag[:w - k] + diag[w:]
        # no edge counts more than 4, so the big-endian sums carry no byte
        self.hl[:] = sum(int.from_bytes(b"".join(get(slots)), "big")
                         for get in edges).to_bytes((w + 1) * w, "big")
        # each family's block-0 vl rows, whole rows rotated by 2s*bi
        self.vl[:] = sum(int.from_bytes(table[j * (w + 1):(j + w) * (w + 1)],
                                        "big")
                         for table, j in zip(rows, (k, w - k))
                         ).to_bytes((w + 1) * w, "big")

    def edge_mask(self, n: int, m: int) -> int:
        """The good edges of square (n, m) as bits 1, 2, 4, 8 for N, S, E,
        W."""
        return self.masks()[n * self.param.omega + m]

    def masks(self) -> bytes:
        """edge_mask of every square, square (n, m) at index n*w + m, built
        on the first call; every later call returns the same bytes."""
        if self._masks is None:
            hl, vl, w = self.hl, self.vl, self.param.omega
            # hl's columns without row 0 are the N lane (edges m = 1..omega),
            # without row omega the S lane; the rows are deleted from the
            # translated copies, with no marker byte, so any count reads as
            # itself
            north, south = hl.translate(_GOOD[0]), hl.translate(_GOOD[1])
            del north[::w + 1], south[w::w + 1]
            # vl's columns x = 0..omega in square order: from x = 1 the E
            # lane, up to x = omega - 1 the W lane
            cols = b"".join([vl[n::w + 1] for n in range(w + 1)])
            lanes = (north, south, cols[w:].translate(_GOOD[2]),
                     cols[:-w].translate(_GOOD[3]))
            # the lanes of the N, S, E and W bits are disjoint, so their sum
            # as big-endian integers is their bytewise or
            self._masks = sum(int.from_bytes(lane, "big") for lane in lanes
                              ).to_bytes(w * w, "big")
        return self._masks

    def good_edge_set(self, n: int, m: int) -> FrozenSet[str]:
        mask = self.edge_mask(n, m)
        return frozenset(e for i, e in enumerate("NSEW") if mask >> i & 1)

    def incoherent_squares(self) -> List[Tuple[int, int]]:
        w, bad = self.param.omega, self.masks().translate(_INCOHERENT)
        # bad[m::w] is row m: only rows holding a bad square are walked
        return [(self.bi * w + n, m) for m in range(w) if 1 in bad[m::w]
                for n in range(w) if bad[n * w + m]]


@dataclass
class CoherenceReport:
    ok: bool
    bad_squares: List[Tuple[int, int]] = field(default_factory=list)


def check_coherence(param: Param, region: Optional[Tuple[int, int, int, int]] = None
                    ) -> CoherenceReport:
    """0-or-2 good edges for every unit square (n, m), x0 <= n < x1 and
    y0 <= m < y1, of the region (x0, y0, x1, y1), by default the fundamental
    domain.  Each block column's incoherent_squares go into every block row
    the region meets, as block (bi, bj) copies (bi mod omega, 0), so bad
    squares come in block order; they are returned, never raised."""
    w, tables = param.omega, fill_tables(param)
    x0, y0, x1, y1 = region or (0, 0, w * w, w)
    bad: List[Tuple[int, int]] = []
    for bi in range(x0 // w, -(-x1 // w)):
        dx = bi // w * w * w  # incoherent_squares places block bi mod omega
        squares = BlockGrid(param, bi, tables).incoherent_squares()
        for dy in range(y0 // w * w, y1, w):
            bad += [(n + dx, m + dy) for n, m in squares
                    if x0 <= n + dx < x1 and y0 <= m + dy < y1]
    return CoherenceReport(ok=not bad, bad_squares=bad)


def closed_point_counts(param: Param) -> Tuple[List[int], List[int]]:
    """Multiplicity-weighted intersection-point counts on every closed unit
    segment of a block (the two-points-per-segment census).

    Returns (h_counts, v_counts); neither depends on the block.  Every row
    holds the _h_slots crossings.  Both are indexed like BlockGrid's
    arrays: h_counts like hl, edge (n, m) at n*(omega+1) + m, and v_counts
    like vl.  The crossing rule: on the line x, the slope -2s/omega family
    meets edge e at the line of intercept ceil(2s*x/omega) + e, once per
    edge, so every vertical edge holds 2 points (at x = 0 mod omega, its
    two corners).
    """
    w = param.omega
    row = [0] * w
    for edge, weight in _h_slots(w, param.p, True) + _h_slots(w, param.q, False):
        row[edge] += weight
    return [c for c in row for _ in range(w + 1)], [2] * ((w + 1) * w)


def light_points_scaled(param: Param, line: GridLine, stretch: Tuple[int, int],
                        res: Sequence[int]) -> Tuple[int, List[Tuple[int, int]]]:
    """(den, [(num, multiplicity)]): the light points on the closed stretch
    v0 <= v <= v1 of the line, v its x (H line) or y (V line), at num/den
    along the line, sorted; den is 2pq for an H line and omega for a V
    line.  Only the stretch's crossings are placed, each lit when its
    crossing line's residue is in res, light_lists(param)[c % omega] for the
    line of intercept c.  On an H line the step-k crossing of slope
    -2s/omega sits at x = k*omega/(2s), on the line of intercept c + k, and
    weighs as _h_slots' slot k mod 2s; on a V line the line of intercept b
    crosses at y = b - 2s*c/omega, and double points sit only at block
    corners, where capacity is 0."""
    w, p, q = param.omega, param.p, param.q
    (v0, v1), c, lit, out = stretch, line.intercept, set(res), []
    if line.family == "H":
        for s, step in ((p, w * q), (q, w * p)):  # x * 2pq = k * step
            for k in range(-(-2 * s * v0 // w), 2 * s * v1 // w + 1):
                if (c + k) % w in lit:
                    r = k % (2 * s)
                    weight = 1 if r % s else (s == p) * (2 if r else 1)
                    if weight:
                        out.append((k * step, weight))
        return 2 * p * q, sorted(out)
    if line.family == "V":
        for s in (p, q):
            num = 2 * s * c
            out += [(b * w - num, 1) for b in range(
                -(-(v0 * w + num) // w), (v1 * w + num) // w + 1) if b % w in lit]
        return w, sorted(out)
    raise InvalidParameter("light census applies to H and V lines")


def light_points_on_line(param: Param, line: GridLine, block: Tuple[int, int]
                         ) -> List[Tuple[Fraction, int]]:
    """The Fraction view of light_points_scaled on the line's stretch across
    the closed block: (coordinate along the line, multiplicity) of each
    light point, sorted, and none when the line misses the block."""
    w, c = param.omega, line.intercept
    along, across = block if line.family == "H" else block[::-1]
    den, pts = light_points_scaled(param, line, (along * w, (along + 1) * w),
                                   light_lists(param)[c % w])
    if not across * w <= c <= (across + 1) * w:
        return []
    return [(Fraction(v, den), mult) for v, mult in pts]


# ---------------------------------------------------------------------------
# Plaid polygons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaidPolygon:
    """A closed embedded loop of tile centers, stored in canonical form:
    first vertex lexicographically least, second vertex the smaller of its
    two neighbours.  Coordinates are doubled to stay integral."""

    verts2: Tuple[Tuple[int, int], ...]

    @staticmethod
    def from_centers(centers: Sequence[Tuple[int, int]]) -> "PlaidPolygon":
        n = len(centers)
        i0 = min(range(n), key=lambda i: centers[i])
        nxt, prv = centers[(i0 + 1) % n], centers[(i0 - 1) % n]
        if nxt <= prv:
            ordered = [centers[(i0 + k) % n] for k in range(n)]
        else:
            ordered = [centers[(i0 - k) % n] for k in range(n)]
        return PlaidPolygon(tuple(ordered))

    @property
    def vertices(self) -> Tuple[Tuple[Rat, Rat], ...]:
        return tuple((Fraction(x, 2), Fraction(y, 2)) for x, y in self.verts2)

    def __len__(self) -> int:
        return len(self.verts2)

    def x_diameter2(self) -> int:
        xs = [v[0] for v in self.verts2]
        return max(xs) - min(xs)

    def diameter2(self) -> int:
        xs = [v[0] for v in self.verts2]
        ys = [v[1] for v in self.verts2]
        return max(max(xs) - min(xs), max(ys) - min(ys))

    def reflected_y2(self, axis2: int) -> "PlaidPolygon":
        """Reflection across the horizontal line y = axis2/2."""
        return PlaidPolygon.from_centers(
            [(x, 2 * axis2 - y) for x, y in self.verts2])


# the unit step across each edge, indexed as in "NSEW"
STEPS = ((0, 1), (0, -1), (1, 0), (-1, 0))
# an edge mask -> its bit e as 0 or 1, per edge e of "NSEW", and -> 1 when
# it is not 0 (translate tables)
_LANES = [bytes(mask >> e & 1 for mask in range(256)) for e in range(4)]
_NONZERO = bytes(mask > 0 for mask in range(256))


def _rim(w: int) -> bytes:
    """Each square's edges on an omega x omega block's border, as edge-mask
    bits at the square's flat index n*w + m (omega >= 3)."""
    column = b"\2" + bytes(w - 2) + b"\1"  # S at m = 0, N at m = w - 1
    return (bytes(b | 8 for b in column) + column * (w - 2)
            + bytes(b | 4 for b in column))


def _sealed(masks: bytes, rim: bytes, w: int) -> bool:
    """Whether no walk over coherent masks can fail a step: no good edge on
    the rim, and the N and E lanes equal the S and W lanes one square north
    and one square east."""
    n, s, e, west = (masks.translate(lane) for lane in _LANES)
    return (not int.from_bytes(masks, "big") & int.from_bytes(rim, "big")
            and n[:-1] == s[1:] and e[:-w] == west[w:])


def _block_loops(param: Param, block: Tuple[int, int],
                 grid: Optional[BlockGrid] = None) -> Iterator[List[int]]:
    """The block walker: each polygon of one block as its squares' flat
    indices n*w + m, from its least square north, to its smaller neighbour,
    in scan order.  Raises IncoherentInput for 1, 3 or 4 good edges.

    A step fails when it leaves the block or enters a square without the
    matching good edge.  Every good edge of a coherent square is its walk's
    exit or entry, and no walk enters across the border, so some step fails
    exactly when a good edge lies on the border or is not met across it.
    _sealed tests that once: a sealed block, nearly every one, is walked
    without the two per-step tests; any other with them, so that it yields
    the same loops and then the same error as a walk testing every step."""
    w = param.omega
    bi, bj = block
    if grid is None:
        grid = BlockGrid(param, bi)
    masks = grid.masks()
    i = masks.translate(_INCOHERENT).find(1)
    if i >= 0:
        raise IncoherentInput(f"square {(bi * w + i // w, bj * w + i % w)} has "
                              f"{masks[i].bit_count()} good edges")
    rim = _rim(w)
    checked = not _sealed(masks, rim, w)
    # the flat step across each edge bit, and back; a walk that steps by
    # delta into a two-bit square leaves it by delta + turn[square], the sum
    # of the square's two steps
    step, bit = (0, 1, -1, 0, w, 0, 0, 0, -w), {1: 1, -1: 2, w: 4, -w: 8}
    turn = list(map({m: step[m & -m] + step[m & m - 1]
                     for m in (0, 3, 5, 6, 9, 10, 12)}.__getitem__, masks))
    # the first square a walk revisits is its start, so todo only skips starts
    todo = bytearray(masks.translate(_NONZERO))
    start = todo.find(1)
    while start >= 0:
        loop, i, delta = [], start, step[masks[start] & -masks[start]]
        while True:
            loop.append(i)
            todo[i] = 0
            if checked and bit[delta] & rim[i]:
                dx, dy = STEPS[bit[delta].bit_length() - 1]
                raise PlaidError(f"polygon escaped block at "
                                 f"{(i // w + dx, i % w + dy)}")
            i += delta
            if checked and not masks[i] & bit[-delta]:
                raise PlaidError(f"connector mismatch entering {divmod(i, w)}")
            if i == start:
                break
            delta += turn[i]
        yield loop
        start = todo.find(1, start)


def loop_texts(loops: Iterable[List[int]], xs: Sequence[str],
               ys: Sequence[str], head: str, sep: str, tail: str) -> List[str]:
    """head, the texts xs[n] + ys[m] of a loop's squares n*w + m joined by
    sep, and tail, for each loop of _block_loops, as the SVG and document
    writers want them.  Each square's text is made once, by C-level joins
    (one per column, then one split), so xs and ys must hold no spaces; a
    loop has 4 squares or more, so itemgetter gives a tuple."""
    table = " ".join([x + (" " + x).join(ys) for x in xs]).split(" ")
    return [head + sep.join(itemgetter(*loop)(table)) + tail for loop in loops]


def trace_polygons(param: Param, block: Tuple[int, int] = (0, 0),
                   grid: Optional[BlockGrid] = None) -> List[PlaidPolygon]:
    """All plaid polygons of one block, in the block's true coordinates: the
    loops of _block_loops, which come out canonical and sorted."""
    w = param.omega
    x0, y0 = 2 * block[0] * w + 1, 2 * block[1] * w + 1
    return [PlaidPolygon(tuple((x0 + 2 * (i // w), y0 + 2 * (i % w))
                               for i in loop))
            for loop in _block_loops(param, block, grid)]


# ---------------------------------------------------------------------------
# Particles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Particle:
    """A cycle of intersection points linked by remote adjacency
    (block j -> block j+a).  Vertical particles have omega instances of one
    type; horizontal particles have 2p type-P instances then 2q type-Q
    instances, passing twice through one block corner and one midpoint.
    squares[i] is the floor (a, b) of instance i's location: the unit square
    with the instance on its south (horizontal) or west (vertical) edge.
    A particle is a walk (_h_walk, _v_walk), the same on every line but for
    its squares' placement, read for brightness on its line (_read_light);
    the views below read the walk.  The walk from block j0 is block 0's
    moved by (j0*omega, 0) mod omega^2, its residues moved by 2s*j0, so
    criterion 11's suite reads block 0's three walks and each line's
    lights alone."""

    orientation: str
    instances: Tuple[IntersectionPoint, ...]
    types: Tuple[str, ...]
    squares: Tuple[Tuple[int, int], ...]

    @property
    def brightness(self) -> str:
        return self.instances[0].brightness


def _h_walk(param: Param, j0: int, y0: int = 0) -> tuple:
    """(squares, types, counts, doubles) of the horizontal particle through
    the block corner (j0*omega, y0).  Its step-r instance of slope -2s/omega
    in block j sits at x = k*omega/(2s) on the crossing line y0 + k,
    k = 2sj + r: r runs 0..2p-1 (s = p), then 2q..1, and counts holds the
    (residue, count) pairs of the k mod omega.  doubles holds, in walk
    order, the residues of the two crossings of each both-type point and
    its "x=..." text.  Only the squares depend on y0."""
    w, p, q, a = param.omega, param.p, param.q, param.adj
    squares, residues, doubles, j = [], [], [], j0 % w
    for s, rs in ((p, range(2 * p)), (q, range(2 * q, 0, -1))):
        s2, period = 2 * s, 2 * s * w * w
        for r in rs:
            k = s2 * j + r
            if r % s == 0:
                # both-type point, a corner (r = 0, 2s) or the midpoint (r = s)
                # of _h_slots: its crossings of intercepts y0 + 2p*x/w and
                # y0 + 2q*x/w must agree on brightness
                b_p, rem_p = divmod(2 * p * k, s2)
                b_q, rem_q = divmod(2 * q * k, s2)
                if rem_p or rem_q:
                    raise PlaidError(f"double point at x={k * w}/{s2} is not integral")
                doubles.append((b_p % w, b_q % w, f"x={k * w}/{s2}"))
            residues.append(k % w)
            squares.append((k * w % period // s2, y0))
            j = (j + a) % w
    if j != j0 % w:
        raise PlaidError("horizontal particle failed to close")
    types = ("P",) * (2 * p) + ("Q",) * (2 * q)
    return squares, types, tuple(Counter(residues).items()), doubles


def _v_walk(param: Param, x0: int, ptype: str, j0: int) -> tuple:
    """(squares, types, counts, ()) of the vertical particle of the given
    type on the lines x = x0 + j*omega from block j0.  Its height starts in
    [0, 1) and moves by +1 (type P) or -1 (type Q) mod omega per block;
    counts pairs each row offset with its count, instance n crossing the
    line offset + ceil(2s*x0/omega) mod omega.  Only squares depend on x0."""
    w, a = param.omega, param.adj
    s2, step = (2 * param.p, 1) if ptype == "P" else (2 * param.q, -1)
    squares, offsets, j = [], [], j0 % w
    for n in range(w):
        squares.append((x0 + j * w, n * step % w))
        offsets.append((n * step + s2 * j) % w)
        j = (j + a) % w
    return squares, (ptype,) * w, tuple(Counter(offsets).items()), ()


def _read_light(param: Param, lit: Set[int], c: int, walks) -> List[bool]:
    """Whether the particle of each (key, walk) is light on line c, lit the
    set of c's light residues: a walk's residues, shifted by c (key "h") or
    by ceil(2s*c/omega) (a vertical walk of type key), are tested in lit.
    Double points must agree, in walk order, and then all or none of the
    instances, counted by the walk's counts, be light."""
    w, out = param.omega, []
    shift = {"h": c, "P": -(-2 * param.p * c // w), "Q": -(-2 * param.q * c // w)}
    for key, (_, types, counts, doubles) in walks:
        s = shift[key]
        for r_p, r_q, x in doubles:
            if ((r_p + s) % w in lit) != ((r_q + s) % w in lit):
                raise PlaidError(f"brightness mismatch at double point {x}")
        n_lit = sum(n for r, n in counts if (r + s) % w in lit)
        if n_lit not in (0, len(types)):
            raise PlaidError("particle brightness not constant")
        out.append(bool(n_lit))
    return out


def horizontal_particle(param: Param, y0: int, j0: int) -> Particle:
    """The horizontal particle through the block corner (j0*omega, y0): the
    Fraction view of its walk, read on line y0, with each instance's k.  It
    is given mod omega^2 in x: its instances lie in [0, omega^2)."""
    w, p, a = param.omega, param.p, param.adj
    walk = _h_walk(param, j0, y0)
    light, = _read_light(param, set(light_lists(param)[y0 % w]), y0, [("h", walk)])
    pts = []
    for i, fam in enumerate(walk[1]):
        s, r = (p, i) if fam == "P" else (param.q, 2 * w - i)
        k = 2 * s * ((j0 + i * a) % w) + r
        mid, both = r == s, r % s == 0
        pts.append(IntersectionPoint(
            location=(Fraction(k * w % (2 * s * w * w), 2 * s), Fraction(y0)),
            host=GridLine("H", y0), brightness="light" if light else "dark",
            crossing=GridLine("P", y0 + p * k // s) if both else GridLine(fam, y0 + k),
            ptype="both" if both else fam, multiplicity=2 if mid else 1))
    return Particle("horizontal", tuple(pts), walk[1], tuple(walk[0]))


def vertical_particle(param: Param, x0: int, ptype: str, j0: int) -> Particle:
    """The vertical particle of the given type through the lines x = x0 + j*w
    from block j0's instance with y in [0, 1): its walk's view on line x0."""
    w = param.omega
    s2 = 2 * (param.p if ptype == "P" else param.q)
    walk = _v_walk(param, x0, ptype, j0)
    light, = _read_light(param, set(light_lists(param)[x0 % w]), x0, [(ptype, walk)])
    frac = -s2 * x0 % w  # every instance's scaled height within its square
    pts = tuple(IntersectionPoint(
        location=(Fraction(x), Fraction(y * w + frac, w)), host=GridLine("V", x),
        crossing=GridLine(ptype, (y * w + frac + s2 * x) // w),
        brightness="light" if light else "dark", ptype=ptype, multiplicity=1)
        for x, y in walk[0])
    return Particle("vertical", pts, walk[1], tuple(walk[0]))


def trace_particle(param: Param, start: IntersectionPoint) -> Particle:
    """Trace the particle through a given intersection point, whose block and
    step give the particle's starting block j0.  A horizontal particle is
    given mod omega^2: H instances at x and x +- omega^2 give one particle."""
    w, a = param.omega, param.adj
    if start.host.family == "H":
        x, y0 = start.location
        # the crossing of slope -2s/w at x = k*w/2s, k = 2sj + r, is the
        # particle's instance i = r (s = p) or 2w - r (s = q), in block
        # j = j0 + i*adj
        for s, sign in ((param.p, -1), (param.q, 1)):
            k = Fraction(x) % (w * w) * 2 * s / w
            if k.denominator == 1:
                j, r = divmod(k.numerator, 2 * s)
                return horizontal_particle(param, int(y0), (j + sign * r * a) % w)
        raise PlaidError(f"no horizontal particle through {start.location}")
    if start.host.family == "V":
        c = start.host.intercept  # c = x0 + j*w with j in [0, w)
        x0, j = c - c % (w * w) + c % w, c % (w * w) // w
        ptype = start.ptype if start.ptype in ("P", "Q") else "P"
        s2 = 2 * (param.p if ptype == "P" else param.q)
        # instance n sits d/w units above the particle's first, n = +-d/w
        d = Fraction(start.location[1]) % w * w - (-s2 * x0 % w)
        if d.denominator != 1 or d % w:
            raise PlaidError(f"no vertical particle through {start.location}")
        n = d // w if ptype == "P" else -(d // w)
        return vertical_particle(param, x0, ptype, (j - n * a) % w)
    raise InvalidParameter("particle hosts are H or V lines")
