"""Polygon statistics and the finite distribution checks.

The asymptotic growth statements about polygon counts and diameters concern
sequences of parameters with irrational limits; nothing here claims to prove
them.  What is computed exactly, per parameter: polygon censuses, the large
symmetric polygon with its x-diameter bound, empty rectangles in the coarse
capacity grids with the counting identity behind them, and a bounded
nearest-polygon radius over a window (a trend observable only).

Empty rectangles are found on lanes, not on exact light points.  A lane is
one row or column of a block's BlockGrid as an int, a byte per edge, built
when a test first reads that line (_Lanes); the side a line gives a cell
between cuts a < b carries a light point exactly when the lane ANDed with
the span's byte mask is not 0.  Block corners, the only light points on a
cut, sit on the block's boundary beside just their edge's cells.  The grids
nest over K: cut_offsets(K) holds cut_offsets(K - 2) and the lines of
capacity K, so cut_levels derives every K's cuts from one capacity per
offset, and the census at K is the last one plus the new lines' totals
(line_totals, which criterion 4 reads too).  _empty_cells tests the cells:
empty_rectangles lists them all, and the empty-rect suite keeps one empty
cell per block (_witnesses), searching again only at a K whose lines cut
through it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .params import Param, PlaidError, Rat
from .grid import (
    BlockGrid,
    GridLine,
    PlaidPolygon,
    _block_loops,
    capacity_scaled,
    fill_tables,
    light_lists,
    light_points_scaled,
    trace_polygons,
)


@dataclass
class PolygonStats:
    count: int
    max_diameter: Rat
    max_x_diameter: Rat
    per_block: Dict[Tuple[int, int], int] = field(default_factory=dict)


def polygon_stats(param: Param, blocks: Optional[Sequence[Tuple[int, int]]] = None
                  ) -> PolygonStats:
    """Exact census over the given blocks (default: the fundamental domain),
    each block counted once.

    Diameters are width/height maxima (exact in halves of integers); the
    x-diameter is the width of the projection to the x-axis.
    """
    if blocks is None:
        blocks = [(bi, 0) for bi in range(param.omega)]
    count, tables = 0, fill_tables(param)
    per_block: Dict[Tuple[int, int], int] = {}
    best_d2 = 0
    best_x2 = 0
    for block in dict.fromkeys(blocks):
        polys = trace_polygons(param, block, BlockGrid(param, block[0], tables))
        per_block[block] = len(polys)
        count += len(polys)
        for pg in polys:
            best_d2 = max(best_d2, pg.diameter2())
            best_x2 = max(best_x2, pg.x_diameter2())
    return PolygonStats(
        count=count,
        max_diameter=Fraction(best_d2, 2),
        max_x_diameter=Fraction(best_x2, 2),
        per_block=per_block,
    )


def verify_first(param: Param) -> Dict[str, object]:
    """The large symmetric polygon of the first block.

    Finds the positive capacity-2 horizontal line, whose two light points sit
    at x = 0 and x = omega^2/(2q), read in units of 1/(2pq) at 0 and
    omega^2*p; the polygon crossing the unit segment east of the first one
    must reach the second, so its x-diameter is at least omega^2/(2q) - 1,
    and it is preserved by reflection in the block's horizontal midline.
    """
    w, p, q = param.omega, param.p, param.q
    y0 = next(y for y in range(1, w) if capacity_scaled(param, y) == 2)
    den, lights = light_points_scaled(param, GridLine("H", y0), (0, w),
                                      light_lists(param)[y0])
    xs = [x for x, _ in lights]
    if 0 not in xs or w * w * p not in xs:
        return {"ok": False, "reason": "witness light points missing",
                "line": y0, "lights": [str(Fraction(x, den)) for x in xs]}
    # the polygon crossing [0,1] x {y0} joins the squares of flat indices
    # y0 - 1 and y0; every loop is walked, so a faulty block raises
    witness = None
    for loop in _block_loops(param, (0, 0)):
        if y0 in loop:
            j = loop.index(y0)
            if y0 - 1 in (loop[j - 1], loop[(j + 1) % len(loop)]):
                witness = PlaidPolygon(tuple(
                    (2 * (i // w) + 1, 2 * (i % w) + 1) for i in loop))
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


def cut_offsets(param: Param, K: int) -> List[int]:
    """The offsets in [0, omega] of the lines of capacity at most K, which
    cut a block into (K+1) x (K+1) rectangles.  Capacity depends on the line
    mod omega, so both axes of every block are cut at the same offsets."""
    if K % 2 or K < 0 or K >= param.omega:
        raise PlaidError(f"K={K} must be even in [0, omega)")
    return [k for k in range(param.omega + 1)
            if abs(capacity_scaled(param, k)) <= K]


def block_light_cache(grid: BlockGrid
                      ) -> Tuple[List[List[int]], List[List[int]]]:
    """Running light counts of the block's omega+1 rows and omega+1 columns,
    read from its BlockGrid, line k of either axis being a[k::w+1] of hl or
    vl: rows[k][n] is the light count (with multiplicity) of row offset k's
    edges west of offset n, cols[k][m] that of column offset k's edges
    south of offset m.  A light block corner sits on an H row's first or
    last edge; V lines through corners have capacity 0.  No package path
    reads these since the lanes: they stay as the lanes' test oracle, and
    perfbench's tracer wraps this by name."""
    w = grid.param.omega
    return tuple([list(accumulate(a[k::w + 1], initial=0))
                  for k in range(w + 1)] for a in (grid.hl, grid.vl))


def line_totals(grid: BlockGrid) -> Tuple[List[int], List[int]]:
    """The light count of the block's row offset k and of its column offset
    k, k <= omega, where k = omega is the block's far row and column: the
    sums of line k of either axis, a[k::w+1] of hl or vl as BlockGrid keeps
    them."""
    w = grid.param.omega
    return tuple([sum(a[k::w + 1]) for k in range(w + 1)]
                 for a in (grid.hl, grid.vl))


def cut_levels(caps: List[int]) -> Iterator[tuple]:
    """(K, the cuts, the lines of capacity K, the span masks) for K = 0, 2,
    ... < omega, caps[k] the absolute capacity of line offset k = 0..omega:
    each level's cuts, cut_offsets(param, K), are the last level's and its
    own lines, and a span that several levels keep has one mask."""
    cuts: List[int] = []
    masks: Dict[Tuple[int, int], int] = {}
    for K in range(0, len(caps) - 1, 2):
        new = [k for k, cap in enumerate(caps) if cap == K]
        cuts = sorted(cuts + new)
        yield K, cuts, new, [masks.get(s) or masks.setdefault(s, _span_mask(*s))
                             for s in zip(cuts, cuts[1:])]


def _span_mask(a: int, b: int) -> int:
    """The bytes a .. b-1 of a lane: its line's edges between offsets a < b."""
    return (1 << 8 * (b - a)) - 1 << 8 * a


class _Lanes(dict):
    """One block's rows or columns as lanes, each built on its first read:
    lane k is the int whose byte e, from the least significant, is byte e
    of line(k), the light counts of line offset k's edges in order."""

    def __init__(self, line: Callable[[int], bytes]):
        self.line = line

    def __missing__(self, k: int) -> int:
        lane = self[k] = int.from_bytes(self.line(k), "little")
        return lane


def _block_lanes(grid: BlockGrid) -> Tuple[_Lanes, _Lanes]:
    """The block's rows and its columns as _Lanes: line k of either axis is
    a[k::w+1] of hl or vl as BlockGrid keeps them."""
    w = grid.param.omega
    return tuple(_Lanes(lambda k, a=a: a[k::w + 1])
                 for a in (grid.hl, grid.vl))


def _empty_cells(rows, cols, cuts, masks, box=None):
    """The empty cells (i, j) of the grid cut at cuts, in order of i and then
    j: all of them, or those inside box = (x0, x1, y0, y1), offsets on the
    cuts.  rows and cols are a block's _Lanes, masks the span masks of the
    cuts.  Cell (i, j) is empty when columns cuts[i] and cuts[i+1] have no
    light on span j and rows cuts[j] and cuts[j+1] none on span i."""
    x0, x1, y0, y1 = map(bisect_left, repeat(cuts), box or (0, cuts[-1]) * 2)
    for i in range(x0, x1):
        side, mi = cols[cuts[i]] | cols[cuts[i + 1]], masks[i]
        for j in range(y0, y1):
            if not (side & masks[j] or rows[cuts[j]] & mi
                    or rows[cuts[j + 1]] & mi):
                yield i, j


def _witnesses(grid: BlockGrid, caps: List[int], levels: list) -> Iterator:
    """Per level of levels (cut_levels(caps)), an empty cell of the block,
    read on its lanes, as its offsets (x0, x1, y0, y1), or None when there
    is none.  A cell stays a cell, and empty, up to the level of the least
    capacity strictly inside it, so only there is one searched for again:
    first among the last one's pieces, then over the grid.  At K = 0 the
    one cell's sides are the whole lines 0 and omega, so it is empty
    exactly when the census is 0: it is given untested, for the caller's
    census to decide."""
    w = grid.param.omega
    rows, cols = _block_lanes(grid)
    box, until = (0, w) * 2, 2
    for K, cuts, _, masks in levels:
        if K >= until:
            cell = (next(_empty_cells(rows, cols, cuts, masks, box), None)
                    or next(_empty_cells(rows, cols, cuts, masks), None))
            box = None
            if cell:
                i, j = cell
                box = a, b, c, d = cuts[i], cuts[i + 1], cuts[j], cuts[j + 1]
                until = min(caps[a + 1:b] + caps[c + 1:d], default=len(caps))
        yield box


def empty_rectangles(param: Param, block: Tuple[int, int], K: int
                     ) -> Dict[str, object]:
    """Every cell of the capacity-K grid with no light point on its boundary,
    and the multiplicity-weighted light census over the grid lines, which
    always totals (K+1)^2 - 1: one short of what filling every cell boundary
    twice would need, so at least one empty cell must exist."""
    cuts, grid = cut_offsets(param, K), BlockGrid(param, block[0])
    h, v = line_totals(grid)
    masks = [_span_mask(a, b) for a, b in zip(cuts, cuts[1:])]
    empty = list(_empty_cells(*_block_lanes(grid), cuts, masks))
    census = sum(h[k] + v[k] for k in cuts)
    return {
        "ok": bool(empty) and census == (K + 1) ** 2 - 1,
        "cells": (len(cuts) - 1,) * 2,
        "empty": empty,
        "light_census": census,
        "census_bound": (K + 1) ** 2 - 1,
    }


def gap_radius(param: Param, window: Tuple[int, int, int, int]) -> Rat:
    """Greatest distance (in squares, L-infinity) from a window center to the
    nearest square that carries a connector.  A finite trend observable: it
    stays modest as parameters grow, echoing the no-big-gaps behaviour, and
    proves nothing asymptotic.
    """
    w, tables = param.omega, fill_tables(param)
    x0, y0, x1, y1 = window
    if x1 <= x0 or y1 <= y0:
        raise PlaidError("window must be nonempty")
    masks = {bi: BlockGrid(param, bi, tables).masks()
             for bi in {n // w % w for n in range(x0, x1)}}
    frontier = [(n, m) for n in range(x0, x1) for m in range(y0, y1)
                if masks[n // w % w][n % w * w + m % w]]
    if not frontier:
        raise PlaidError("window holds no connectors at all")
    # multi-source 8-neighbour BFS from the connector squares: the level at
    # which a cell is reached is its Chebyshev distance to the nearest one
    reached = set(frontier)
    worst = -1
    while frontier:
        worst += 1
        nxt = []
        for n, m in frontier:
            for dn in (-1, 0, 1):
                for dm in (-1, 0, 1):
                    c = (n + dn, m + dm)
                    if x0 <= c[0] < x1 and y0 <= c[1] < y1 and c not in reached:
                        reached.add(c)
                        nxt.append(c)
        frontier = nxt
    return Fraction(worst)
