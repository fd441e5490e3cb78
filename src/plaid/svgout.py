"""Deterministic SVG pictures of the model.

Coordinates are mapped to pixels with exact integer arithmetic
(floor(scale * num / den)); re-rendering identical arguments is
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .params import Param, PlaidError, Rat
from .grid import (STEPS, BlockGrid, GridLine, light_points_on_line,
                   trace_polygons)
from .classifier import cell_code, center_cell

LAYERS = ("grid-lines", "light-points", "connectors", "polygons",
          "orientation-arrows")

_DEFAULT_PALETTE = {
    "H": "#bbbbbb", "V": "#bbbbbb", "P": "#4477cc", "Q": "#cc5544",
    "light-points": "#111111", "connectors": "#007700",
    "polygons": "#000000", "orientation-arrows": "#aa00aa",
}


@dataclass(frozen=True)
class RenderConfig:
    window: Tuple[int, int, int, int]
    scale: int = 24
    layers: Tuple[str, ...] = ("polygons",)
    palette: Dict[str, str] = field(default_factory=dict)

    def color(self, key: str) -> str:
        return self.palette.get(key, _DEFAULT_PALETTE[key])

    def __post_init__(self):
        x0, y0, x1, y1 = self.window
        if self.scale < 1 or x1 <= x0 or y1 <= y0:
            raise PlaidError("window must be nonempty and scale >= 1")
        for layer in self.layers:
            if layer not in LAYERS:
                raise PlaidError(f"unknown layer {layer!r}")


def _px(cfg: RenderConfig, x: Rat) -> int:
    x = Fraction(x) - cfg.window[0]
    return (x.numerator * cfg.scale) // x.denominator


def _py(cfg: RenderConfig, y: Rat) -> int:
    y = Fraction(cfg.window[3]) - Fraction(y)
    return (y.numerator * cfg.scale) // y.denominator


def _line(cfg, x0, y0, x1, y1, color, width=1) -> str:
    return (f'<line x1="{_px(cfg, x0)}" y1="{_py(cfg, y0)}" '
            f'x2="{_px(cfg, x1)}" y2="{_py(cfg, y1)}" '
            f'stroke="{color}" stroke-width="{width}"/>')


def _clip_diag(param: Param, b: int, slope_num: int, cfg: RenderConfig):
    """Endpoints of y = b - (slope_num/omega) x clipped to the window."""
    w = param.omega
    x0, y0, x1, y1 = cfg.window
    s = Fraction(slope_num, w)
    pts = []
    for x in (Fraction(x0), Fraction(x1)):
        y = b - s * x
        if y0 <= y <= y1:
            pts.append((x, y))
    for y in (Fraction(y0), Fraction(y1)):
        x = (b - y) / s
        if x0 <= x <= x1:
            pts.append((x, y))
    pts = sorted(set(pts))
    return (pts[0], pts[-1]) if len(pts) >= 2 else None


def _grid_lines(param: Param, cfg: RenderConfig) -> List[str]:
    x0, y0, x1, y1 = cfg.window
    out = []
    for m in range(y0, y1 + 1):
        out.append(_line(cfg, x0, m, x1, m, cfg.color("H")))
    for n in range(x0, x1 + 1):
        out.append(_line(cfg, n, y0, n, y1, cfg.color("V")))
    for fam, s in (("P", 2 * param.p), ("Q", 2 * param.q)):
        blo = y0 + (s * x0) // param.omega
        bhi = y1 + (s * x1) // param.omega + 1
        for b in range(blo, bhi + 1):
            seg = _clip_diag(param, b, s, cfg)
            if seg:
                (ax, ay), (bx, by) = seg
                out.append(_line(cfg, ax, ay, bx, by, cfg.color(fam)))
    return out


def _blocks_of_window(param: Param, cfg: RenderConfig):
    w = param.omega
    x0, y0, x1, y1 = cfg.window
    for bi in range(x0 // w, (x1 - 1) // w + 1):
        for bj in range(y0 // w, (y1 - 1) // w + 1):
            yield bi, bj


def _light_points(param: Param, cfg: RenderConfig) -> List[str]:
    """The light points of the window's lines inside the closed window."""
    w = param.omega
    x0, y0, x1, y1 = cfg.window
    out = []
    seen = set()
    for bi, bj in _blocks_of_window(param, cfg):
        for family, lo, hi, v0, v1 in (
                ("H", max(bj * w, y0), min((bj + 1) * w, y1), x0, x1),
                ("V", max(bi * w, x0), min((bi + 1) * w, x1), y0, y1)):
            for c in range(lo, hi + 1):
                line = GridLine(family, c)
                for v, mult in light_points_on_line(param, line, (bi, bj)):
                    x, y = (v, c) if family == "H" else (c, v)
                    if v0 <= v <= v1 and (x, y) not in seen:
                        seen.add((x, y))
                        out.append(f'<circle cx="{_px(cfg, x)}" '
                                   f'cy="{_py(cfg, y)}" r="{2 * mult}" '
                                   f'fill="{cfg.color("light-points")}"/>')
    return out


def _connectors(param: Param, cfg: RenderConfig,
                grids: Optional[Dict[int, BlockGrid]]) -> List[str]:
    """Good edges from grids[bi]; with grids None, oriented-label arrows."""
    w = param.omega
    x0, y0, x1, y1 = cfg.window
    arrows = grids is None
    color = cfg.color("orientation-arrows" if arrows else "connectors")
    out = []
    half = Fraction(1, 2)
    for bi, bj in _blocks_of_window(param, cfg):
        for gx in range(max(x0, bi * w), min(x1, (bi + 1) * w)):
            for gy in range(max(y0, bj * w), min(y1, (bj + 1) * w)):
                cx, cy = gx + half, gy + half
                if arrows:
                    code = cell_code(param, center_cell(param, gx, gy, 2))
                    edges = [code >> 2, code & 3] if code % 5 else []
                else:
                    # in the order of the sorted letters: E, N, S, W
                    mask = grids[bi].edge_mask(gx - bi * w, gy - bj * w)
                    edges = [e for e in (2, 0, 1, 3) if mask >> e & 1]
                for i, e in enumerate(edges):
                    dx, dy = half * STEPS[e][0], half * STEPS[e][1]
                    out.append(_line(cfg, cx, cy, cx + dx, cy + dy, color, 2))
                    if arrows and i == 1:
                        # head marker on the exit edge
                        hx, hy = _px(cfg, cx + dx), _py(cfg, cy + dy)
                        out.append(f'<circle cx="{hx}" cy="{hy}" r="3" '
                                   f'fill="{color}"/>')
    return out


def _polygons(param: Param, cfg: RenderConfig,
              grids: Dict[int, BlockGrid]) -> List[str]:
    out = []
    for bi, bj in _blocks_of_window(param, cfg):
        for pg in trace_polygons(param, (bi, bj), grids[bi]):
            pts = " ".join(f"{_px(cfg, x)},{_py(cfg, y)}"
                           for x, y in pg.vertices)
            out.append(f'<polygon points="{pts}" fill="none" '
                       f'stroke="{cfg.color("polygons")}" stroke-width="2"/>')
    return out


def render_svg(param: Param, cfg: RenderConfig) -> str:
    """The requested layers over the window, as a standalone SVG document."""
    x0, y0, x1, y1 = cfg.window
    width = (x1 - x0) * cfg.scale
    height = (y1 - y0) * cfg.scale
    body: List[str] = []
    grids = {}
    if "connectors" in cfg.layers or "polygons" in cfg.layers:
        grids = {bi: BlockGrid(param, bi)
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
