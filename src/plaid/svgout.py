"""Deterministic SVG pictures of the model.

Coordinates are exact ratios num/den of integers (tile centers and polygon
vertices doubled), mapped to pixels by one floor division,
(num - x0*den) * scale // den; re-rendering identical arguments is
byte-identical.

Every layer but the block walk costs what the window shows.  render_svg
writes the pixel text of each doubled coordinate of the window once, one
table per axis; grid lines, connectors and arrows read their points off
them, light points (over 2pq*omega) and the clipped diagonals take one
floor division each.  Connectors slice the window's columns out of the
block's masks() bytes, and arrows read each window column's directed codes
with one classifier.column_codes call.  The polygon layer walks every loop
of each block the window touches and writes them through grid.loop_texts,
one text per square of the block.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Tuple

from .params import Param, PlaidError
from .grid import (STEPS, BlockGrid, GridLine, _block_loops, fill_tables,
                   light_lists, light_points_scaled, loop_texts)
from .classifier import column_codes

LAYERS = ("grid-lines", "light-points", "connectors", "polygons",
          "orientation-arrows")

_DEFAULT_PALETTE = {
    "H": "#bbbbbb", "V": "#bbbbbb", "P": "#4477cc", "Q": "#cc5544",
    "light-points": "#111111", "connectors": "#007700",
    "polygons": "#000000", "orientation-arrows": "#aa00aa",
}
# a palette colour goes into attributes as it stands
_COLOR = re.compile(r"#[0-9a-fA-F]{3}|#[0-9a-fA-F]{6}|[A-Za-z]+")


@dataclass(frozen=True)
class RenderConfig:
    window: Tuple[int, int, int, int]
    scale: int = 24
    layers: Tuple[str, ...] = ("polygons",)
    palette: Dict[str, str] = field(default_factory=dict)

    def color(self, key: str) -> str:
        return self.palette.get(key, _DEFAULT_PALETTE[key])

    def __post_init__(self):
        if not all(isinstance(v, int) for v in (*self.window, self.scale)):
            raise PlaidError("window corners and scale must be integers")
        x0, y0, x1, y1 = self.window
        if self.scale < 1 or x1 <= x0 or y1 <= y0:
            raise PlaidError("window must be nonempty and scale >= 1")
        for layer in self.layers:
            if layer not in LAYERS:
                raise PlaidError(f"unknown layer {layer!r}")
        for color in self.palette.values():
            if not (isinstance(color, str) and _COLOR.fullmatch(color)):
                raise PlaidError("--palette colours are #rgb, #rrggbb or "
                                 f"letters, got {color!r}")


# the unit steps from a square's center to the edges drawn there: a mask's
# good edges in the order of the sorted letters E, N, S, W, and a directed
# code's entry edge then its exit edge
_MASK_STEPS = [[STEPS[e] for e in (2, 0, 1, 3) if m >> e & 1]
               for m in range(16)]
_CODE_STEPS = [[STEPS[c >> 2], STEPS[c & 3]] if c % 5 else []
               for c in range(16)]
_LINE = ('<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="{}" '
         'stroke-width="{}"/>').format


def _grid_lines(param: Param, cfg: RenderConfig, axes, grids) -> List[str]:
    w, scale, (x0, y0, x1, y1) = param.omega, cfg.scale, cfg.window
    xt, yt = axes
    out = [_LINE(xt[0], y, xt[-1], y, cfg.color("H"), 1) for y in yt[::2]]
    out += [_LINE(x, yt[0], x, yt[-1], cfg.color("V"), 1) for x in xt[::2]]
    for fam, s in (("P", 2 * param.p), ("Q", 2 * param.q)):
        den = w * s
        for b in range(y0 + s * x0 // w, y1 + s * x1 // w + 2):
            # y = b - (s/omega) x falls: it is below y1 from x = (b - y1)
            # * omega/s on and above y0 up to x = (b - y0) * omega/s; the
            # ends' x are numerators over den, and so are their y
            lo = max(x0 * den, (b - y1) * w * w)
            hi = min(x1 * den, (b - y0) * w * w)
            if lo < hi:  # a segment, not a point
                ends = [v for x in (lo, hi) for v in (
                    (x - x0 * den) * scale // den,
                    ((y1 - b) * den + s * x // w) * scale // den)]
                out.append(_LINE(*ends, cfg.color(fam), 1))
    return out


def _blocks_of_window(param: Param, cfg: RenderConfig):
    w, (x0, y0, x1, y1) = param.omega, cfg.window
    return [(bi, bj) for bi in range(x0 // w, (x1 - 1) // w + 1)
            for bj in range(y0 // w, (y1 - 1) // w + 1)]


def _light_points(param: Param, cfg: RenderConfig, axes, grids) -> List[str]:
    """The light points of the window's lines inside the closed window,
    each once: points meet in one coordinate system over den = 2pq*omega,
    which the axes' half-integers are not, so each is one floor division."""
    w, scale, (x0, y0, x1, y1) = param.omega, cfg.scale, cfg.window
    den = 2 * param.p * param.q * w
    by_line = light_lists(param)
    tail = f'" fill="{cfg.color("light-points")}"/>'
    out = []
    seen = set()
    for bi, bj in _blocks_of_window(param, cfg):
        xs = max(bi * w, x0), min((bi + 1) * w, x1)
        ys = max(bj * w, y0), min((bj + 1) * w, y1)
        # each line's stretch within the block and the window
        for family, (lo, hi), stretch in (("H", ys, xs), ("V", xs, ys)):
            for c in range(lo, hi + 1):
                line_den, pts = light_points_scaled(param, GridLine(family, c),
                                                    stretch, by_line[c % w])
                k = den // line_den
                for v, mult in pts:
                    xy = (v * k, c * den) if family == "H" else (c * den, v * k)
                    if xy not in seen:
                        seen.add(xy)
                        out.append(f'<circle cx="{(xy[0] - x0 * den) * scale // den}" '
                                   f'cy="{(y1 * den - xy[1]) * scale // den}" '
                                   f'r="{2 * mult}{tail}')
    return out


def _connectors(param: Param, cfg: RenderConfig, axes,
                grids: Dict[int, BlockGrid], arrows: bool = False) -> List[str]:
    """Good edges from the bytes of grids[bi].masks(); with arrows, the
    oriented labels from each window column's directed codes, a head marker
    on the exit edge.  Tile centers and edge midpoints are doubled
    coordinates, their pixels read off the axes."""
    w, (x0, y0, x1, y1), (xt, yt) = param.omega, cfg.window, axes
    color = cfg.color("orientation-arrows" if arrows else "connectors")
    steps_of = _CODE_STEPS if arrows else _MASK_STEPS
    tail = f'" stroke="{color}" stroke-width="2"/>'
    out = []
    for bi, bj in _blocks_of_window(param, cfg):
        ys = range(max(y0, bj * w), min(y1, (bj + 1) * w))
        for gx in range(max(x0, bi * w), min(x1, (bi + 1) * w)):
            if arrows:
                column = column_codes(param, gx, ys.start, len(ys))
            else:
                n = (gx - bi * w) * w - bj * w  # square (gx, 0) of the block
                column = grids[bi].masks()[n + ys.start:n + ys.stop]
            X = 2 * (gx - x0) + 1
            head = f'<line x1="{xt[X]}" y1="'
            # the center rows Y of the column's squares, as many as zip reads
            for Y, v in zip(range(2 * (ys.start - y0) + 1, len(yt), 2), column):
                for dx, dy in steps_of[v]:
                    ex, ey = xt[X + dx], yt[Y + dy]
                    out.append(f'{head}{yt[Y]}" x2="{ex}" y2="{ey}{tail}')
                if arrows and v % 5:
                    out.append(f'<circle cx="{ex}" cy="{ey}" r="3" '
                               f'fill="{color}"/>')
    return out


def _polygons(param: Param, cfg: RenderConfig, axes,
              grids: Dict[int, BlockGrid]) -> List[str]:
    # the pixel text of each square center (2x + 1, 2y + 1) of the block,
    # written out once per column and row: vertices are most of a render's
    # points
    w, scale, (x0, _, _, y1) = param.omega, cfg.scale, cfg.window
    tail = f'" fill="none" stroke="{cfg.color("polygons")}" stroke-width="2"/>'
    out = []
    for bi, bj in _blocks_of_window(param, cfg):
        xs = [f"{(2 * (bi * w + n - x0) + 1) * scale // 2}," for n in range(w)]
        ys = [str((2 * (y1 - bj * w - m) - 1) * scale // 2) for m in range(w)]
        out += loop_texts(_block_loops(param, (bi, bj), grids[bi]), xs, ys,
                          '<polygon points="', " ", tail)
    return out


# each layer of LAYERS, drawn from (param, cfg, axes, grids)
_DRAW = (_grid_lines, _light_points, _connectors, _polygons,
         partial(_connectors, arrows=True))


def render_svg(param: Param, cfg: RenderConfig) -> str:
    """The requested layers over the window, as a standalone SVG document."""
    (x0, y0, x1, y1), scale = cfg.window, cfg.scale
    # the pixel text of each doubled coordinate: X/2 at X - 2*x0 and Y/2 at
    # Y - 2*y0
    axes = ([str(k * scale // 2) for k in range(2 * (x1 - x0) + 1)],
            [str((2 * (y1 - y0) - k) * scale // 2)
             for k in range(2 * (y1 - y0) + 1)])
    grids = {}
    if "connectors" in cfg.layers or "polygons" in cfg.layers:
        tables = fill_tables(param)
        grids = {bi: BlockGrid(param, bi, tables)
                 for bi, _ in _blocks_of_window(param, cfg)}
    body = [text for layer, draw in zip(LAYERS, _DRAW) if layer in cfg.layers
            for text in draw(param, cfg, axes, grids)]
    # the pixel of the window's southeast corner
    width, height = axes[0][-1], axes[1][0]
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"
