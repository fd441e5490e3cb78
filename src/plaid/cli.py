"""Command line: render | verify | orbit | irrational | stats | bench."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .params import InvalidParameter, PlaidError, make_param
from .pet import (_REGIONS, BadOffset, irrational_tiling, path_polygon,
                  special_orbit)
from .analysis import gap_radius, polygon_stats
from .serialize import document_text, report_line
from .svgout import _DEFAULT_PALETTE, LAYERS, RenderConfig, render_svg
from .verify import SUITES, run_suite, suite_golden, suite_irrational


def golden_dir() -> str:
    """Golden corpus location; override with PLAID_GOLDEN_DIR."""
    return os.environ.get(
        "PLAID_GOLDEN_DIR",
        os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "tests", "golden"))


def _parse_window(text: str):
    parts = [int(v) for v in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("window is x0,y0,x1,y1")
    return tuple(parts)


def _parse_param_list(text: str):
    out = []
    for item in text.split(","):
        try:
            p, q = (int(v) for v in item.split("/"))
        except ValueError:
            raise PlaidError(f"--params entries are p/q, got {item!r}") from None
        out.append(make_param(p, q))
    return out


def _number(option: str, text: str, kind=Fraction):
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        noun = "integers" if kind is int else "rationals"
        raise PlaidError(f"{option} takes {noun}, got {text!r}") from None


def _add_pq(sub):
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)


def _emit(text: str, out: Optional[str]) -> None:
    if out is not None:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_palette(text: str) -> Dict[str, str]:
    palette = {}
    for entry in text.split(",") if text else []:
        key, sep, color = entry.partition("=")
        if not (sep and key and color) or "=" in color:
            raise PlaidError(f"--palette entries are layer=color, got {entry!r}")
        if key not in _DEFAULT_PALETTE:
            raise PlaidError(f"--palette keys are {','.join(_DEFAULT_PALETTE)}, "
                             f"got {key!r}")
        palette[key] = color
    return palette


def cmd_render(args) -> int:
    param = make_param(args.p, args.q)
    cfg = RenderConfig(
        window=args.window,
        scale=args.scale,
        layers=tuple(args.layers.split(",")),
        palette=_parse_palette(args.palette),
    )
    _emit(render_svg(param, cfg), args.out)
    return 0


def cmd_verify(args) -> int:
    for opt, value, least in (("--max-omega", args.max_omega, 3),
                              ("--jobs", args.jobs, 1)):
        if value is not None and value < least:
            raise PlaidError(f"{opt} must be at least {least}, got {value}")
    if args.suite in ("golden", "irrational"):
        for opt, value in (("--params", args.params), ("--jobs", args.jobs),
                           ("--max-omega", args.max_omega)):
            if value is not None:
                raise PlaidError(f"--suite {args.suite} takes no {opt}")
        records = suite_irrational() if args.suite == "irrational" else \
            suite_golden(golden_dir())
    else:
        if args.params is not None and args.max_omega is not None:
            raise PlaidError("--params takes no --max-omega")
        params = None if args.params is None else _parse_param_list(args.params)
        records = run_suite(args.suite, max_omega=args.max_omega,
                            params=params, jobs=args.jobs or 1)
    lines = [report_line(r) for r in records]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r["ok"] for r in records) else 1


def cmd_orbit(args) -> int:
    param = make_param(args.p, args.q)
    try:
        x, y = (Fraction(v) for v in args.c.split(","))
        if x.denominator != 2 or y.denominator != 2:
            raise ValueError
    except (ValueError, ZeroDivisionError):
        raise PlaidError(f"--c must be a tile center like 1/2,1/2, got {args.c}"
                         ) from None
    orbit = special_orbit(param, (x, y))
    doc = {
        "param": [args.p, args.q],
        "center": [str(x), str(y)],
        "length": len(orbit.vectors),
        "states": [[str(s.That), str(s.U1), str(s.U2)] for s in orbit.states],
        "regions": [_REGIONS["hold" if lab == "EMPTY" else lab[1]].name
                    for lab in orbit.labels],
        "vectors": [list(v) for v in orbit.vectors],
        "polygon": [] if orbit.labels == ("EMPTY",) else [
            [str(a), str(b)] for a, b in path_polygon(
                math.floor(x), math.floor(y), orbit.vectors).vertices],
    }
    if args.oriented:
        doc["labels"] = list(orbit.labels)
    _emit(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", args.out)
    return 0


def cmd_irrational(args) -> int:
    P = _number("--P", args.P)
    offset = tuple(_number("--offset", v) for v in args.offset.split(","))
    if len(offset) != 3:
        raise PlaidError("--offset needs three rationals")
    eps = Fraction(1, 2 ** 40) if args.eps is None else _number("--eps", args.eps)
    try:
        r = irrational_tiling(P, offset, args.window, eps)
    except BadOffset as exc:
        doc = {"ok": False, "error": "BadOffset", "detail": str(exc),
               "suggested_offset": None if exc.suggestion is None else [
                   str(v) for v in exc.suggestion]}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return 1
    doc = {
        "ok": r["ok"],
        "min_wall_distance": str(r["min_wall_distance"]),
        "closest_center": list(r["closest_center"]),
        "mismatches": r["mismatches"],
    }
    if args.tiles:
        doc["tiles"] = {f"{n},{m}": lab for (n, m), lab in
                        sorted(r["labels"].items())}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0 if r["ok"] else 1


def cmd_stats(args) -> int:
    param = make_param(args.p, args.q)
    blocks = [(bi, 0) for bi in range(param.omega)]
    if args.blocks is not None:
        blocks = [(_number("--blocks", b, int), 0) for b in args.blocks.split(",")]
    if args.document:
        if args.gap_window:
            raise PlaidError("--gap-window applies to the statistics, not --document")
        _emit(document_text(param, sorted(set(blocks))), args.out)
        return 0
    st = polygon_stats(param, blocks)
    doc = {
        "param": [args.p, args.q],
        "count": st.count,
        "max_diameter": str(st.max_diameter),
        "max_x_diameter": str(st.max_x_diameter),
        "per_block": {f"{bi},{bj}": c for (bi, bj), c in
                      sorted(st.per_block.items())},
    }
    if args.gap_window:
        doc["gap_radius"] = str(gap_radius(param, args.gap_window))
        doc["gap_note"] = "finite trend observable, not an asymptotic claim"
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_bench(args) -> int:
    from .bench import write_bench  # no other command imports it
    print(write_bench(args.label))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="plaid",
        description="Exact engine for the plaid model: pictures, theorem "
                    "suites, orbits, and irrational-parameter tilings.")
    sub = ap.add_subparsers(dest="command", required=True)

    r = sub.add_parser("render", help="emit an SVG picture")
    _add_pq(r)
    # argparse reads a value that starts with "-" as an option
    r.add_argument("--window", type=_parse_window, required=True,
                   help="x0,y0,x1,y1; negative ones as --window=-3,-3,2,2")
    r.add_argument("--scale", type=int, default=24)
    r.add_argument("--layers", default="polygons",
                   help=f"comma list from {','.join(LAYERS)}")
    r.add_argument("--palette", default="",
                   help="comma list of layer=color overrides")
    r.add_argument("--out")
    r.set_defaults(func=cmd_render)

    v = sub.add_parser("verify", help="run a theorem suite, JSON line per "
                                      "parameter, exit 0 iff all ok")
    v.add_argument("--suite", required=True,
                   choices=sorted(SUITES) + ["golden", "irrational"])
    v.add_argument("--max-omega", type=int)
    v.add_argument("--params", help="explicit list like 3/8,4/11")
    v.add_argument("--jobs", type=int, help="worker processes, at most one "
                   "per CPU and per parameter (default 1)")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("orbit", help="dump one special orbit")
    _add_pq(o)
    o.add_argument("--c", required=True,
                   help="tile center, e.g. 1/2,1/2; negative as --c=-1/2,1/2")
    o.add_argument("--oriented", action="store_true")
    o.add_argument("--out")
    o.set_defaults(func=cmd_orbit)

    i = sub.add_parser("irrational", help="offset tiling at any exact P")
    i.add_argument("--P", required=True, help="rational in (0,1), e.g. 34/89")
    i.add_argument("--offset", required=True,
                   help="three rationals a,b,c; negative as --offset=-1/3,0,0")
    i.add_argument("--window", type=_parse_window, required=True,
                   help="x0,y0,x1,y1; negative ones as --window=-3,-3,2,2")
    i.add_argument("--eps", help="wall-distance threshold (default 2^-40)")
    i.add_argument("--tiles", action="store_true", help="include tile labels")
    i.add_argument("--out")
    i.set_defaults(func=cmd_irrational)

    s = sub.add_parser("stats", help="polygon census and trend observables")
    _add_pq(s)
    s.add_argument("--blocks", help="comma list of fundamental block indices")
    s.add_argument("--gap-window", type=_parse_window,
                   help="x0,y0,x1,y1; negative ones as --gap-window=-3,-3,2,2")
    s.add_argument("--document", action="store_true",
                   help="emit the polygon document instead of statistics")
    s.add_argument("--out")
    s.set_defaults(func=cmd_stats)

    b = sub.add_parser("bench", help="time each layer into BENCH_<label>.json")
    b.add_argument("--label", required=True)
    b.set_defaults(func=cmd_bench)
    return ap


@functools.lru_cache(maxsize=1)
def _parser(suites: Tuple[str, ...]) -> argparse.ArgumentParser:
    """build_parser, kept while SUITES keeps its names; parsing leaves no
    state in the parser."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser(tuple(SUITES)).parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameter, PlaidError, OSError) as exc:
        # OSError: an --out file or the golden corpus that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
