"""Polygon statistics and the finite distribution checks.

The asymptotic growth statements about polygon counts and diameters concern
sequences of parameters with irrational limits; nothing here claims to prove
them.  What is computed exactly, per parameter: polygon censuses, the large
symmetric polygon with its x-diameter bound, empty rectangles in the coarse
capacity grids with the counting identity behind them, and a bounded
nearest-polygon radius over a window (a trend observable only).

Empty rectangles are found on running light counts along each row and
column of a block, not on exact light points: the side a line gives a cell
between cuts a < b carries a light point when the line's count grows from a
to b.  Block corners, the only light points on a cut, sit on the block's
boundary beside just their edge's cells.  _empty_cells tests the cells: the
empty-rect suite takes the first empty one, empty_rectangles lists them all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

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
    read from its BlockGrid: rows[k][n] is the light count (with
    multiplicity) of row offset k's edges west of offset n, cols[k][m] that
    of column offset k's edges south of offset m.  A light block corner sits
    on an H row's first or last edge; V lines through corners have
    capacity 0."""
    w = grid.param.omega

    def running(counts):
        return [list(accumulate(counts[k * w:(k + 1) * w], initial=0))
                for k in range(w + 1)]

    return running(grid.hl), running(grid.vl)


def _empty_cells(rows, cols, cuts):
    """The empty cells (i, j) of the grid cut at cuts, in order of i and then
    j, read from the running counts of block_light_cache."""
    spans = list(enumerate(zip(cuts, cuts[1:])))
    for i, (a, b) in spans:
        west, east = cols[a], cols[b]
        for j, (c, d) in spans:
            if (west[c] == west[d] and east[c] == east[d]
                    and rows[c][a] == rows[c][b] and rows[d][a] == rows[d][b]):
                yield i, j


def empty_rectangles(param: Param, block: Tuple[int, int], K: int
                     ) -> Dict[str, object]:
    """Every cell of the capacity-K grid with no light point on its boundary,
    and the multiplicity-weighted light census over the grid lines, which
    always totals (K+1)^2 - 1: one short of what filling every cell boundary
    twice would need, so at least one empty cell must exist."""
    cuts = cut_offsets(param, K)
    rows, cols = block_light_cache(BlockGrid(param, block[0]))
    empty = list(_empty_cells(rows, cols, cuts))
    census = sum(rows[k][-1] + cols[k][-1] for k in cuts)
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
