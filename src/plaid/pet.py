"""Oriented tiles and the polytope exchange dynamics.

Doubling the classifying torus in the T direction (lattice generated by
(4, 2P, 2P), (0,2,0), (0,0,2)) splits every unordered connector label into
the two ways of directing it: on the middle half of the T-circle a cell is
read (row symbol, col symbol), on the outer half in the reverse order.  An
ordered label (A, B) stands for the connector entering the square through
edge A and leaving through edge B.

Grouping the twelve directed labels by exit edge gives the four moving
regions of a polytope exchange transformation; each region translates by the
image of the matching unit step of the plane, so the exchange is conjugate to
"follow the connector to the next square".  Orbits of images of tile centers
are therefore finite, and accumulating the regions' unit vectors along an
orbit redraws the plaid polygon through the starting center.

The state of the exchange is the cover cell: the index that
grid_cell(..., sheets=2) gives a scaled point of the image lattice (omega*T
odd, omega*U1 and omega*U2 even).  Its layout, the edge indices and the
directed codes 4*entry + exit are fixed in the classifier docstring.  Walks,
pet_step and pet_back step cells with cover_step and compare codes; labels
are spelled only at the public surface.

Fiber shifts.  cover_step sends each cell (j, i1, i2) of table fiber j to
(j', i1 + c1, i2 + c2) mod omega, j', c1 and c2 depending on j and the edge
alone: the step adds one vector to a cell's point, and whether t leaves the
table's range depends on the fiber.  fiber_shifts reads the shifts from
cover_step once per parameter, and the checks read the exchange there alone:
_mesh_failures compares whole fibers of a cover table, for check_mesh and
for criterion 6, which checks conjugacy, cover_step(center_cell(a, b), e)
== center_cell(a + dx, b + dy), at the starts a < omega, b = 0, 1: b + 2
and a + omega each move the cells of all fibers alike, which commutes with
every fiber shift (classifier docstring, "Center columns").  Every cover
cell is a center's, so a step across e and back across e ^ 1 returns to it:
the inverse law, that fiber j's row (J2, C1, c2) across e has fiber J2's
row across e ^ 1 equal to (j*omega^2, -C1 mod omega^2, -c2 mod omega).
_mesh_failures gives why, under the law, the S and E equations of every
fiber answer for all four edges.
The lift law ties that table to the base table: its middle fiber j is base
fiber j, and its outer fiber omega + j is base fiber j turned by -p in i1
and i2 with every code reversed, as lift_label spells a label on the two
halves.  Criterion 6 checks the law fiber by fiber and then reads its codes
from the middle half, which is the base table; a center's cover code is its
base code, reversed where its cover cell is outer.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .params import Param, PlaidError, Rat, RatLike, sym_reduce
from .grid import STEPS, PlaidPolygon
from .classifier import (
    CODE_LABELS,
    ClassifyingPoint,
    ORIENTED_CODES,
    REVERSED,
    _EDGE_LANES,
    _ORDER,
    _boards,
    _zone_spec,
    canon_scaled,
    cell_code,
    center_cell,
    grid_cell,
    label_table,
    mark_classes,
    turn_fiber,
    _center_indices,
    _zones_at,
)


class NonPeriodicOrbit(PlaidError):
    """An orbit exceeded the perimeter bound without closing (bug detector)."""


class BadOffset(PlaidError):
    """Some window center came within eps of a partition wall."""

    def __init__(self, msg, suggestion=None):
        super().__init__(msg)
        self.suggestion = suggestion


@dataclass(frozen=True)
class PetRegion:
    name: str  # 'S↓', 'W←', 'N↑', 'E→', 'hold'
    vector: Tuple[int, int]


_REGIONS = {e: PetRegion(e + arrow, step)
            for e, arrow, step in zip("NSEW", "↑↓→←", STEPS)}
_REGIONS["hold"] = PetRegion("hold", (0, 0))


@dataclass(frozen=True)
class CoverPoint:
    """Canonical representative in [-2, 2) x [-1, 1)^2 of the double cover."""

    That: Rat
    U1: Rat
    U2: Rat

    def as_tuple(self):
        return (self.That, self.U1, self.U2)


def decode_cell(param: Param, cell: int) -> Tuple[int, int, int]:
    """The canonical scaled cover point of a cover cell, t in [-2*omega,
    2*omega): the table's point of the cell (j, i1, i2), except that the
    fibers t >= 2*omega fold back by (4*omega, 4p, 4p)."""
    w = param.omega
    rest, i2 = divmod(cell, w)
    j, i1 = divmod(rest, w)
    t, u1, u2 = 2 * j - w, 2 * i1 - w + 1, 2 * i2 - w + 1
    if t < 2 * w:
        return t, u1, u2
    d = 4 * param.p
    return t - 4 * w, sym_reduce(u1 - d, 2 * w), sym_reduce(u2 - d, 2 * w)


def _cover_point(param: Param, cell: int) -> CoverPoint:
    w = param.omega
    return CoverPoint(*(Fraction(v, w) for v in decode_cell(param, cell)))


def xi_hat(param: Param, center) -> CoverPoint:
    return _cover_point(param, center_cell(param, *_center_indices(center), 2))


def lift_label(param: Param, t_hat: RatLike, base_label: str,
               transit_direction: Optional[str] = None) -> str:
    """Spell an unordered connector as a directed one at cover coordinate
    t_hat: the transit order itself on the middle half [-1, 1), reversed on
    the outer half.  transit_direction is the ordered spelling the middle
    half would use; it defaults to the label's canonical spelling."""
    if base_label == "EMPTY":
        return "EMPTY"
    order = transit_direction or base_label
    if set(order) != set(base_label) or len(order) != 2:
        raise PlaidError(f"transit {order!r} does not spell {base_label!r}")
    t_hat = Fraction(t_hat)
    if not -2 <= t_hat < 2:
        raise PlaidError(f"t_hat={t_hat} outside [-2, 2)")
    return order if -1 <= t_hat < 1 else order[::-1]


def oriented_label_scaled(param: Param, t: int, u1: int, u2: int) -> str:
    """Directed label at a scaled point of the image lattice."""
    return ORIENTED_CODES[cell_code(param, grid_cell(param, t, u1, u2, 2))]


def cover_step(param: Param, cell: int, edge: int) -> int:
    """The cover cell one exchange step from cell across the edge (an index
    into "NSEW"): the cell (j, i1, i2) moves by its fiber's shift."""
    w, p2 = param.omega, 2 * param.p
    dx, dy = STEPS[edge]
    rest, i2 = divmod(cell, w)
    j, i1 = divmod(rest, w)
    k, j = divmod(j + p2 * dx + w * dy, 2 * w)
    return (j * w + (i1 + p2 * (dx - k)) % w) * w + (i2 + p2 * (dx + dy - k)) % w


def fiber_shifts(param: Param, step) -> List[Tuple[int, int, int]]:
    """A fiber shift step, such as cover_step, as a table read at the cells
    (j, 0, 0): row 4*j + e is (j'*omega^2, c1*omega, c2), so a cell J + I1 +
    i2 of fiber j (J = j*omega^2, I1 = i1*omega) steps across e to J' +
    (I1 + C1) % omega^2 + (i2 + c2) % omega."""
    w = param.omega
    steps = [divmod(step(param, j * w * w, e), w * w)
             for j in range(2 * w) for e in range(4)]
    return [(j * w * w, c - c % w, c % w) for j, c in steps]


def _point_cell(param: Param, point: CoverPoint) -> int:
    """The cover cell of a point of the image lattice: omega*T odd, omega*U1
    and omega*U2 even."""
    t, u1, u2 = (v * param.omega for v in point.as_tuple())
    if (t % 2, u1 % 2, u2 % 2) != (1, 0, 0):
        raise PlaidError(f"{point} is not on the image lattice")
    return grid_cell(param, int(t), int(u1), int(u2), 2)


def oriented_label(param: Param, point: CoverPoint) -> str:
    return ORIENTED_CODES[cell_code(param, _point_cell(param, point))]


def pet_region(param: Param, point: CoverPoint) -> PetRegion:
    """Region of the forward partition: grouped by the edge the connector
    points into (its exit edge)."""
    code = cell_code(param, _point_cell(param, point))
    return _REGIONS["hold" if code % 5 == 0 else _ORDER[code & 3]]


def _exchange(param: Param, point: CoverPoint, shift: int) -> CoverPoint:
    """The point moved across edge code >> shift & 3 of its code, the exit
    for shift 0 and the entry for 2; hold points stay."""
    cell = _point_cell(param, point)
    code = cell_code(param, cell)
    if code % 5 == 0:
        return point
    return _cover_point(param, cover_step(param, cell, code >> shift & 3))


def pet_step(param: Param, point: CoverPoint) -> CoverPoint:
    """One application of the exchange: translate by the fiberwise map of the
    point's forward region (identity on hold)."""
    return _exchange(param, point, 0)


def pet_back(param: Param, point: CoverPoint) -> CoverPoint:
    """Inverse exchange, driven by the backward partition (the edge the
    connector points out of)."""
    return _exchange(param, point, 2)


@dataclass(frozen=True)
class PetOrbit:
    start: CoverPoint
    states: Tuple[CoverPoint, ...]
    labels: Tuple[str, ...]
    vectors: Tuple[Tuple[int, int], ...]


def special_orbit(param: Param, center) -> PetOrbit:
    """The orbit of the image of a tile center, iterated to first return,
    each cell coded on its own (no table).  Hold points have orbits of
    length one.  Iteration is capped at 4*omega^2, past any polygon's
    perimeter; exceeding the cap means the model is broken."""
    a, b = _center_indices(center)
    cells = [center_cell(param, a, b, 2)]
    codes = [cell_code(param, cells[0])]
    while codes[0] % 5:
        if len(cells) > 4 * param.omega ** 2:
            raise NonPeriodicOrbit(f"orbit of center {(a, b)} did not close "
                                   f"in {len(cells) - 1}")
        cell = cover_step(param, cells[-1], codes[-1] & 3)
        if cell == cells[0]:
            break
        cells.append(cell)
        codes.append(cell_code(param, cell))
    states = tuple(_cover_point(param, cell) for cell in cells)
    vectors = tuple(STEPS[c & 3] if c % 5 else (0, 0) for c in codes)
    return PetOrbit(states[0], states, tuple(ORIENTED_CODES[c] for c in codes),
                    vectors)


def path_polygon(a: int, b: int, vectors: Sequence[Tuple[int, int]]):
    """The closed path of unit vectors from the center (a+1/2, b+1/2) as a
    plaid polygon."""
    cx, cy = 2 * a + 1, 2 * b + 1
    centers = []
    for v in vectors:
        centers.append((cx, cy))
        cx += 2 * v[0]
        cy += 2 * v[1]
    if (cx, cy) != (2 * a + 1, 2 * b + 1):
        raise PlaidError(f"vector path through center {(a, b)} does not close")
    return PlaidPolygon.from_centers(centers)


def vector_polygon(param: Param, center):
    """Accumulate the orbit's vectors into the plaid polygon through the
    center; None for hold centers."""
    orbit = special_orbit(param, center)
    if orbit.labels == ("EMPTY",):
        return None
    return path_polygon(*_center_indices(center), orbit.vectors)


def cover_bijection(param: Param) -> Dict[str, object]:
    """The doubled map is injective on the 2*omega^3 center classes: the
    2*omega^2 cover column starts read distinct diagonals."""
    return mark_classes(param, 2)


# ---------------------------------------------------------------------------
# Oriented coherence (the mesh equations)
# ---------------------------------------------------------------------------

# _ENDS[e]: whether a code leaves (bit 0) and enters (bit 1) across edge e;
# _MEETS[e]: the _ENDS[e] that meet a code across e; tables read at 0..15
_ENDS = [bytes(c % 5 and (c & 3 == e) | (c >> 2 == e) << 1 for c in range(256))
         for e in range(4)]
_MEETS = [REVERSED.translate(_ENDS[e ^ 1]) for e in range(4)]
# _ENDS with every byte past 15 read as 3, which differs from every _MEETS
# value, 0, 1 or 2, in bit 0 or bit 1, so such a byte always fails
_ENDS16 = [ends[:16] + b"\3" * 240 for ends in _ENDS]


def _inverse_law(param: Param, shifts) -> bool:
    """Whether every fiber shift row (J2, C1, c2), of fiber j across edge e,
    is undone by fiber J2's row across e ^ 1: (j*omega^2, -C1 mod omega^2,
    -c2 mod omega).  The rows are compared as a set with the set of their
    inverses, so a row that names no fiber fails the law, never indexes."""
    w, ww = param.omega, param.omega ** 2
    rows = {(r // 4 * ww, r % 4, *row) for r, row in enumerate(shifts)}
    return rows == {(J2, e ^ 1, J, -C1 % ww, -c2 % w)
                    for J, e, J2, C1, c2 in rows}


def _equation_failures(param: Param, cover: bytearray, shifts, edges,
                       ends) -> Iterator[dict]:
    """The failure records of the mesh equations across the given edges,
    fiber by fiber in t, then edge by edge in the order given, cell by cell,
    the into case before the out case.  The equation of fiber j across e at
    a cell is ends[e] of its code == _MEETS[e] of the neighbour's code."""
    w, ww = param.omega, param.omega ** 2
    # by the bijection, every odd fiber of the cover is populated
    for t in range(-2 * w + 1, 2 * w, 2):
        # the fiber's cells are one block of the table
        j = (t + w) // 2 % (2 * w)
        fiber = cover[j * ww:(j + 1) * ww]
        # the matching neighbour always sits across the named edge, and
        # a connector into an edge comes out of the opposite one there
        for edge in edges:
            # fiber j', named by fiber_shifts' row, turned by c1 and c2: one
            # slice where c2 is 0, else each row's last c2 codes a row back.
            # It is built first, after the last pair is dropped: held while
            # the next is built, that pair makes the C allocator trim the
            # heap top and fault it back in at every equation, 2 * 10^5
            # minor faults and about 0.3 s at 200/201
            J2, C1, c2 = shifts[4 * j + edge]
            here = there = None
            there = turn_fiber(cover[J2:J2 + ww], w, C1, c2).translate(_MEETS[edge])
            here = fiber.translate(ends[edge])
            if here == there:
                continue
            e, o = _ORDER[edge], _ORDER[edge ^ 1]
            for i, (x, y) in enumerate(zip(here, there)):
                for bit, case in ((1, f"into-{e}->out-{o}"),
                                  (2, f"out-{e}->into-{o}")):
                    if (x ^ y) & bit:
                        yield {"param": str(param), "fiber": t,
                               "cell": decode_cell(param, j * ww + i)[1:],
                               "case": case}


def _mesh_failures(param: Param, cover: bytearray, shifts) -> List[dict]:
    """The failure records of the mesh equations on every cover table fiber,
    those of _equation_failures across S, N, E and W.

    Each equation is read once when it can be: if the shifts obey
    _inverse_law and every cover byte is a code, below 16, the S and E
    equations of every fiber answer for all four.  For a code c,
    _ENDS[e][REVERSED[c]] is _ENDS[e][c] with bits 0 and 1 swapped, and
    _MEETS[e] is _ENDS[e ^ 1] after REVERSED.  So the equation of fiber j
    across e at a cell i, _ENDS[e][x] == _MEETS[e][y] with y fiber J2's
    code at i turned by (c1, c2), holds just when, both sides swapped,
    _ENDS[e ^ 1][y] == _MEETS[e ^ 1][x]: the equation of fiber J2 across
    e ^ 1 at the turned cell, which the law turns back to i.  The law also
    makes j -> J2 one to one, so every N and W equation is one S or E
    equation.  _ENDS16 reads a byte past 15 as 3, so such a byte fails its
    fiber's S equation.  A clean run stops at nothing and a failing one at
    its first S or E record; then the four edges of every fiber give the
    records in their order."""
    if _inverse_law(param, shifts) and next(
            _equation_failures(param, cover, shifts, (1, 2), _ENDS16),
            None) is None:
        return []
    return list(_equation_failures(param, cover, shifts, (1, 0, 2, 3), _ENDS))


def _worst(failures: Sequence[dict]):
    """(param, fiber, cell, count) of the cell failing most, first on a tie."""
    counts = Counter((f["param"], f["fiber"], f["cell"]) for f in failures)
    worst = max(counts, key=counts.get, default=None)
    return worst and (*worst, counts[worst])


def check_mesh(params: Sequence[Param]) -> Dict[str, object]:
    """Fiberwise equality of the eight region-matching equations on every
    populated fiber of every given parameter, sampled at the discrete grid,
    plus the triad-coverage condition over the parameter list (three points,
    not all at one parameter, interior to each of the six base triangles).
    The triads count each zone's base fibers, off the seam, where _boards
    gives it alone; both halves of the cover lie once over each base fiber.
    The equations are read by _mesh_failures, so the failures, their count
    and the worst cell are those of the four-edge check."""
    failures = []
    coverage: Dict[int, Set[Tuple[str, int]]] = {1: set(), 2: set(), 3: set()}
    for param in params:
        w = param.omega
        for t in range(2 - w, w, 2):
            boards = _boards(w, 2 * param.p, t)
            if len(boards) == 1:
                coverage[boards[0][0]].add((str(param), t))
        failures += _mesh_failures(param, label_table(param, 2),
                                   fiber_shifts(param, cover_step))
    triads_ok = True
    detail = {}
    for zone, pts in coverage.items():
        detail[f"zone{zone}-half0"] = detail[f"zone{zone}-half1"] = len(pts)
        triads_ok &= len(pts) >= 3 and len({nm for nm, _ in pts}) >= 2
    return {"ok": not failures and triads_ok, "failures": failures[:10],
            "failure_count": len(failures), "triads_ok": triads_ok,
            "triad_detail": detail, "worst": _worst(failures)}


# ---------------------------------------------------------------------------
# Irrational parameters through exact approximants
# ---------------------------------------------------------------------------

def _circ2(x: Rat) -> Rat:
    """Distance from 0 on the circle of circumference 2."""
    x = abs(x) % 2
    return min(x, 2 - x)


def wall_distance(P: Rat, point: ClassifyingPoint) -> Rat:
    """Distance from the point to the nearest partition wall: the two
    zone-boundary fibers in T, and in the fiber the checkerboard cuts and
    the seam, of whichever zones apply.  The zone-boundary fibers stay walls
    although both zones agree on them at rational P, because at irrational P
    the checkerboard changes there; without them the zero offset, which puts
    the center (1/2, 1/2) on T = P - 1, would pass criterion 12 at
    P = 8/21, 34/89 and 144/377."""
    T, U1, U2 = point.as_tuple()
    dist = min(_circ2(T - (-1 + P)), _circ2(T - (1 - P)))
    for z in _zones_at(P, T):
        cuts = _zone_spec(P, z, T).u
        for u in (U1, U2):
            dist = min(dist, _circ2(u - 1))
            for c in cuts:
                dist = min(dist, _circ2(u - c))
    return dist


def _window_codes(P: Fraction, offset: Sequence[Fraction],
                  window: Tuple[int, int, int, int], eps: Rat):
    """(codes n-major, min wall distance, its center) as integers over the lcm
    D of all denominators, or (None, d, center) at a center closer than eps.
    A center is coded on the board of its fiber's zone in _boards."""
    D = P.denominator
    for v in offset:
        D *= v.denominator // math.gcd(D, v.denominator)
    p2, limit = int(P * D), -math.floor(-eps * D)  # d/D < eps iff d < limit
    v0, v1, v2 = (int(v * D) for v in offset)
    x0, y0, x1, y1 = window
    codes, best, closest = bytearray(), 2 * D, None
    for n in range(x0, x1):
        s = p2 * (2 * n + 1)
        t, u1, u2 = canon_scaled(D, p2, s + D * (2 * y0 + 1) + v0, s + v1,
                                 s + p2 * (2 * y0 + 1) + v2)
        _, (c1, c2, c3), board = _boards(D, p2, t)[0]
        # t and the board stay over a column while u1, u2 step by -p2, +p2; the
        # walls: seam, cuts, seam in u, and T = +-(1 - P) as in wall_distance
        walls = (-D, c1, c2, c3, D)
        dt = min(min(g, 2 * D - g) for g in (abs(t + D - p2), abs(t - D + p2)))
        for m in range(y0, y1):
            b1 = (u1 > c1) + (u1 > c2) + (u1 > c3)
            b2 = (u2 > c1) + (u2 > c2) + (u2 > c3)
            d = min(dt, u1 - walls[b1], walls[b1 + 1] - u1,
                    u2 - walls[b2], walls[b2 + 1] - u2)
            if d < best:
                best, closest = d, (n, m)
            if d < limit:
                return None, Fraction(d, D), (n, m)
            # d >= eps > 0: the center lies in one zone and on no cut or
            # seam, so its bands need no OnWall branch
            codes.append(board[b1][b2])
            u1 = u1 - p2 if u1 - p2 >= -D else u1 - p2 + 2 * D
            u2 = u2 + p2 if u2 + p2 < D else u2 + p2 - 2 * D
    return codes, Fraction(best, D), closest


def _checked_bump(P: Fraction, offset: Sequence[Fraction],
                  window: Tuple[int, int, int, int], eps: Rat):
    """The first of four successive bumps of the offset that keeps every
    window center at least eps from the walls, or None."""
    bump = Fraction(1, 2 ** 21 + 17)
    for j in range(1, 5):
        v = tuple(vi + j * k * bump for k, vi in enumerate(offset, 1))
        if _window_codes(P, v, window, eps)[0] is not None:
            return v
    return None


def irrational_tiling(P: RatLike, offset: Sequence[RatLike],
                      window: Tuple[int, int, int, int],
                      eps: RatLike = Fraction(1, 2 ** 40)) -> Dict[str, object]:
    """Tile a finite window with the offset classifying map at an arbitrary
    exact parameter P in (0,1).

    The offset V shifts (T, U1, U2).  Every window center must stay at least
    eps away from all partition walls (the good-offset check); otherwise
    BadOffset is raised with a perturbed offset that passes the check on the
    same window, or None when none of the tried ones does.  Returns the
    labels, the minimum wall distance met, and the coherence verdict of the
    window, computed on integers by _window_codes; canon_frac, wall_distance
    and fiber_label are its Fraction reference.
    """
    P = Fraction(P)
    if not 0 < P < 1:
        raise PlaidError(f"P={P} outside (0, 1)")
    x0, y0, x1, y1 = window
    if x1 <= x0 or y1 <= y0:
        raise PlaidError("window must be nonempty")
    eps = Fraction(eps)  # a float eps would round in _window_codes
    if eps <= 0:
        # a center on a wall has distance 0, so eps <= 0 checks nothing
        raise PlaidError(f"eps={eps} must be positive")
    offset = tuple(Fraction(v) for v in offset)
    codes, min_dist, worst = _window_codes(P, offset, window, eps)
    if codes is None:
        n, m = worst
        raise BadOffset(
            f"center ({n}+1/2, {m}+1/2) is {min_dist} from a wall (< {eps})",
            suggestion=_checked_bump(P, offset, window, eps))
    labels = dict(zip(((n, m) for n in range(x0, x1) for m in range(y0, y1)),
                      map(CODE_LABELS.__getitem__, codes)))
    north, south, east, west = map(bytearray, map(codes.translate, _EDGE_LANES))
    h, mismatches = y1 - y0, []
    north[h - 1::h] = south[::h] = bytes(x1 - x0)  # no pair across columns
    if east[:-h] != west[h:] or north[:-1] != south[1:]:
        for i, (n, m) in enumerate(labels):
            if n + 1 < x1 and east[i] != west[i + h]:
                mismatches.append(((n, m), (n + 1, m)))
            if m + 1 < y1 and north[i] != south[i + 1]:
                mismatches.append(((n, m), (n, m + 1)))
    return {
        "ok": not mismatches,
        "min_wall_distance": min_dist,
        "closest_center": worst,
        "labels": labels,
        "mismatches": mismatches,
    }
