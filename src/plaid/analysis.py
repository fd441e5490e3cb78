"""Polygon statistics and the finite distribution checks.

The asymptotic growth statements about polygon counts and diameters concern
sequences of parameters with irrational limits; nothing here claims to prove
them.  What is computed exactly, per parameter: polygon censuses, the large
symmetric polygon with its x-diameter bound, empty rectangles in the coarse
capacity grids with the counting identity behind them, and a bounded
nearest-polygon radius over a window (a trend observable only).

Empty rectangles are found on light unit edges, not exact light points: a
light edge lies between two neighbouring cuts.  Block corners, the only light
points on a cut, sit on the block's boundary beside just their edge's cells.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .params import Param, PlaidError, Rat
from .grid import (
    BlockGrid,
    GridLine,
    capacity_scaled,
    light_points_on_line,
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
    """Exact census over the given blocks (default: the fundamental domain).

    Diameters are width/height maxima (exact in halves of integers); the
    x-diameter is the width of the projection to the x-axis.
    """
    if blocks is None:
        blocks = [(bi, 0) for bi in range(param.omega)]
    count = 0
    per_block: Dict[Tuple[int, int], int] = {}
    best_d2 = 0
    best_x2 = 0
    for block in blocks:
        polys = trace_polygons(param, block)
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
    at x = 0 and x = omega^2/(2q); the polygon crossing the unit segment east
    of the first one must reach the second, so its x-diameter is at least
    omega^2/(2q) - 1, and it is preserved by reflection in the block's
    horizontal midline.
    """
    w, p, q = param.omega, param.p, param.q
    y0 = next(y for y in range(1, w) if capacity_scaled(param, y) == 2)
    lights = light_points_on_line(param, GridLine("H", y0), (0, 0))
    expected_x2 = Fraction(w * w, 2 * q)
    xs = [x for x, _ in lights]
    if Fraction(0) not in xs or expected_x2 not in xs:
        return {"ok": False, "reason": "witness light points missing",
                "line": y0, "lights": xs}
    polys = trace_polygons(param, (0, 0))
    witness = None
    for pg in polys:
        pairs = set(zip(pg.verts2, pg.verts2[1:] + pg.verts2[:1]))
        # the polygon crossing [0,1] x {y0} joins the centers below and above
        lowc, highc = (1, 2 * y0 - 1), (1, 2 * y0 + 1)
        if (lowc, highc) in pairs or (highc, lowc) in pairs:
            witness = pg
            break
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


@dataclass
class RectGrid:
    """The (K+1) x (K+1) rectangles a block is cut into by its lines of
    capacity at most K."""

    K: int
    x_cuts: List[int]
    y_cuts: List[int]


def rect_grid(param: Param, block: Tuple[int, int], K: int) -> RectGrid:
    if K % 2 or K < 0 or K >= param.omega:
        raise PlaidError(f"K={K} must be even in [0, omega)")
    w = param.omega
    bi, bj = block
    # capacity depends on the line mod omega, so both axes of every block
    # are cut at the same offsets
    cuts = [k for k in range(w + 1) if abs(capacity_scaled(param, k)) <= K]
    return RectGrid(K=K, x_cuts=[bi * w + k for k in cuts],
                    y_cuts=[bj * w + k for k in cuts])


def block_light_cache(param: Param, block: Tuple[int, int]
                      ) -> Dict[Tuple[str, int], List[Tuple[int, int]]]:
    """For each of the block's 2(omega+1) lines, the (e, count) pairs of its
    light unit edges [e, e+1], read from the BlockGrid row or column.  A
    light block corner sits on an H row's first or last edge; V lines
    through corners have capacity 0."""
    w = param.omega
    bi, bj = block
    grid = BlockGrid(param, bi)
    cache = {}
    for k in range(w + 1):
        row = enumerate(grid.hl[k * w:(k + 1) * w], bi * w)
        col = enumerate(grid.vl[k * w:(k + 1) * w], bj * w)
        cache[("H", bj * w + k)] = [(e, c) for e, c in row if c]
        cache[("V", bi * w + k)] = [(e, c) for e, c in col if c]
    return cache


def empty_rectangles(param: Param, block: Tuple[int, int], K: int,
                     cache: Optional[Dict] = None) -> Dict[str, object]:
    """Cells of the capacity-K grid with no light point on their boundary.

    Also reports the multiplicity-weighted light census over the grid lines,
    which always totals (K+1)^2 - 1: one short of what filling every cell
    boundary twice would need, so at least one empty cell must exist.
    """
    grid = rect_grid(param, block, K)
    xc, yc = grid.x_cuts, grid.y_cuts
    nx, ny = len(xc) - 1, len(yc) - 1
    marked = [[False] * ny for _ in range(nx)]
    census = 0
    if cache is None:
        cache = block_light_cache(param, block)
    # a light edge lies in exactly one cut interval
    for j_line, y_line in enumerate(yc):
        rows = [j for j in (j_line - 1, j_line) if 0 <= j < ny]
        for x, count in cache[("H", y_line)]:
            census += count
            i = bisect_right(xc, x) - 1
            for j in rows:
                marked[i][j] = True
    for i_line, x_line in enumerate(xc):
        cols = [i for i in (i_line - 1, i_line) if 0 <= i < nx]
        for y, count in cache[("V", x_line)]:
            census += count
            j = bisect_right(yc, y) - 1
            for i in cols:
                marked[i][j] = True
    empty = [(i, j) for i in range(nx) for j in range(ny) if not marked[i][j]]
    return {
        "ok": bool(empty) and census == (K + 1) ** 2 - 1,
        "cells": (nx, ny),
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
    w = param.omega
    x0, y0, x1, y1 = window
    if x1 <= x0 or y1 <= y0:
        raise PlaidError("window must be nonempty")
    masks = {bi: BlockGrid(param, bi).masks()
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
