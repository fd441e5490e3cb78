"""Deterministic SVG pictures of the model.

Coordinates are exact ratios num/den of integers (tile centers and polygon
vertices doubled), mapped to pixels by one floor division,
(num - x0*den) * scale // den; re-rendering identical arguments is
byte-identical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .params import Param, PlaidError
from .grid import (STEPS, BlockGrid, GridLine, _block_loops, fill_tables,
                   light_lists, light_points_scaled)
from .classifier import cell_code, center_cell

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


def _pixel(cfg: RenderConfig, x: int, y: int, den: int) -> Tuple[int, int]:
    """The pixel of the point (x/den, y/den)."""
    x0, _, _, y1 = cfg.window
    return ((x - x0 * den) * cfg.scale // den,
            (y1 * den - y) * cfg.scale // den)


def _line(cfg, x0, y0, x1, y1, den, color, width=1) -> str:
    """The segment from (x0/den, y0/den) to (x1/den, y1/den)."""
    (ax, ay), (bx, by) = _pixel(cfg, x0, y0, den), _pixel(cfg, x1, y1, den)
    return (f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
            f'stroke="{color}" stroke-width="{width}"/>')


def _clip_diag(param: Param, b: int, s: int, cfg: RenderConfig):
    """Endpoints of y = b - (s/omega) x clipped to the window, as
    numerators over den = omega*s, and den; None if it misses."""
    w, (x0, y0, x1, y1) = param.omega, cfg.window
    den = w * s
    ends = [(x * den, (b * w - s * x) * s) for x in (x0, x1)]
    ends += [((b - y) * w * w, y * den) for y in (y0, y1)]
    pts = sorted({(x, y) for x, y in ends if x0 * den <= x <= x1 * den
                  and y0 * den <= y <= y1 * den})
    return (pts[0], pts[-1], den) if len(pts) >= 2 else None


def _grid_lines(param: Param, cfg: RenderConfig) -> List[str]:
    w, (x0, y0, x1, y1) = param.omega, cfg.window
    out = []
    for m in range(y0, y1 + 1):
        out.append(_line(cfg, x0, m, x1, m, 1, cfg.color("H")))
    for n in range(x0, x1 + 1):
        out.append(_line(cfg, n, y0, n, y1, 1, cfg.color("V")))
    for fam, s in (("P", 2 * param.p), ("Q", 2 * param.q)):
        for b in range(y0 + s * x0 // w, y1 + s * x1 // w + 2):
            seg = _clip_diag(param, b, s, cfg)
            if seg:
                (ax, ay), (bx, by), den = seg
                out.append(_line(cfg, ax, ay, bx, by, den, cfg.color(fam)))
    return out


def _blocks_of_window(param: Param, cfg: RenderConfig):
    w = param.omega
    x0, y0, x1, y1 = cfg.window
    for bi in range(x0 // w, (x1 - 1) // w + 1):
        for bj in range(y0 // w, (y1 - 1) // w + 1):
            yield bi, bj


def _light_points(param: Param, cfg: RenderConfig) -> List[str]:
    """The light points of the window's lines inside the closed window,
    each once: points meet in one coordinate system over den = 2pq*omega."""
    w = param.omega
    den = 2 * param.p * param.q * w
    x0, y0, x1, y1 = cfg.window
    by_line = light_lists(param)
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
                        cx, cy = _pixel(cfg, *xy, den)
                        out.append(f'<circle cx="{cx}" cy="{cy}" r="{2 * mult}" '
                                   f'fill="{cfg.color("light-points")}"/>')
    return out


def _connectors(param: Param, cfg: RenderConfig,
                grids: Optional[Dict[int, BlockGrid]]) -> List[str]:
    """Good edges from grids[bi]; with grids None, oriented-label arrows.
    Tile centers and edge midpoints are drawn from doubled coordinates."""
    w = param.omega
    x0, y0, x1, y1 = cfg.window
    arrows = grids is None
    color = cfg.color("orientation-arrows" if arrows else "connectors")
    out = []
    for bi, bj in _blocks_of_window(param, cfg):
        for gx in range(max(x0, bi * w), min(x1, (bi + 1) * w)):
            for gy in range(max(y0, bj * w), min(y1, (bj + 1) * w)):
                cx, cy = 2 * gx + 1, 2 * gy + 1
                if arrows:
                    code = cell_code(param, center_cell(param, gx, gy, 2))
                    edges = [code >> 2, code & 3] if code % 5 else []
                else:
                    # in the order of the sorted letters: E, N, S, W
                    mask = grids[bi].edge_mask(gx - bi * w, gy - bj * w)
                    edges = [e for e in (2, 0, 1, 3) if mask >> e & 1]
                for i, e in enumerate(edges):
                    ex, ey = cx + STEPS[e][0], cy + STEPS[e][1]
                    out.append(_line(cfg, cx, cy, ex, ey, 2, color, 2))
                    if arrows and i == 1:
                        # head marker on the exit edge
                        hx, hy = _pixel(cfg, ex, ey, 2)
                        out.append(f'<circle cx="{hx}" cy="{hy}" r="3" '
                                   f'fill="{color}"/>')
    return out


def _polygons(param: Param, cfg: RenderConfig,
              grids: Dict[int, BlockGrid]) -> List[str]:
    # _pixel(cfg, x, y, 2) of each square center (2x + 1, 2y + 1), written
    # out once per column and row: vertices are most of a render's points
    w, scale, (x0, _, _, y1) = param.omega, cfg.scale, cfg.window
    tail = f'" fill="none" stroke="{cfg.color("polygons")}" stroke-width="2"/>'
    out = []
    for bi, bj in _blocks_of_window(param, cfg):
        xs = [f"{(2 * (bi * w + n - x0) + 1) * scale // 2}," for n in range(w)]
        ys = [str((2 * (y1 - bj * w - m) - 1) * scale // 2) for m in range(w)]
        table = [x + y for x in xs for y in ys]
        out += ['<polygon points="' + " ".join(map(table.__getitem__, loop))
                + tail for loop in _block_loops(param, (bi, bj), grids[bi])]
    return out


def render_svg(param: Param, cfg: RenderConfig) -> str:
    """The requested layers over the window, as a standalone SVG document."""
    # the pixel of the window's southeast corner
    width, height = _pixel(cfg, cfg.window[2], cfg.window[1], 1)
    body: List[str] = []
    grids = {}
    if "connectors" in cfg.layers or "polygons" in cfg.layers:
        tables = fill_tables(param)
        grids = {bi: BlockGrid(param, bi, tables)
                 for bi, _ in _blocks_of_window(param, cfg)}
    if "grid-lines" in cfg.layers:
        body += _grid_lines(param, cfg)
    if "light-points" in cfg.layers:
        body += _light_points(param, cfg)
    if "connectors" in cfg.layers:
        body += _connectors(param, cfg, grids)
    if "polygons" in cfg.layers:
        body += _polygons(param, cfg, grids)
    if "orientation-arrows" in cfg.layers:
        body += _connectors(param, cfg, None)
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"
