"""Layer timings: `plaid bench --label L` writes BENCH_L.json.

    plaid bench --label baseline

Each layer of the pipeline is timed with time.perf_counter, best of REPEATS
rounds, at P = 2p/omega with p = omega // 2 for each omega in OMEGAS, and
the irrational window at P = 34/89 with README's offset.  A round runs the
layers in pipeline order, so each one reads fresh inputs (masks() is cached
on its grid, and the fill of the same round builds the grid).  The document
holds the machine, REPEATS, the seconds per layer, and "entries": before and
after figures that performance changes append by hand; rewriting a file of
the same label keeps its entries.

Standard library only.  Only the bench command imports this module, so the
other commands import and hold nothing more.
"""

from __future__ import annotations

import json
import os
import platform
import re
import tempfile
import time
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from .params import PlaidError, make_param
from .grid import BlockGrid, _block_loops, fill_tables, trace_polygons
from .classifier import center_codes, label_table, symmetry_conjugacies
from .pet import (_mesh_failures, cover_step, fiber_shifts, irrational_tiling,
                  special_orbit)
from .serialize import block_text
from .svgout import LAYERS
from .cli import main

OMEGAS = (51, 101)
REPEATS = 3
IRRATIONAL_P = Fraction(34, 89)
IRRATIONAL_OFFSET = (Fraction(1, 1048583), Fraction(1, 1048609),
                     Fraction(1, 1048613))
IRRATIONAL_WINDOWS = (16, 100)
RENDER_WINDOW = 12


def machine() -> Dict[str, object]:
    """nproc, the Python version and the CPU model (from /proc/cpuinfo where
    there is one)."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu}


def omega_layers(omega: int, scratch: str) -> List[Tuple[str, Callable]]:
    """(name, thunk) of each layer at one omega, in pipeline order: every
    block (bi, 0) for the grid layers, center_codes of the base table
    (center_column in older entries), criterion 10's conjugacies and the
    mesh equations on the cover table, one orbit through a center of block
    0's first polygon, the render and stats --document requests, the render
    request of each layer alone (render_<layer>), and block 0's document
    in two parts: the walk of its loops over the masks built above, and
    the text written from them."""
    p = omega // 2
    state = {}

    def fill():
        tables = fill_tables(state["param"])
        state["grids"] = [BlockGrid(state["param"], bi, tables)
                          for bi in range(omega)]

    def trace():
        state["polygons"] = [trace_polygons(state["param"], (g.bi, 0), g)
                             for g in state["grids"]]

    def orbit():
        x, y = state["polygons"][0][0].verts2[0]
        special_orbit(state["param"], (Fraction(x, 2), Fraction(y, 2)))

    def request(*argv):
        if main([*argv, "--p", str(p), "--q", str(omega - p),
                 "--out", os.path.join(scratch, "out")]):
            raise PlaidError(f"plaid {' '.join(argv)} failed")

    def render(layers):
        request("render", "--window", f"0,0,{RENDER_WINDOW},{RENDER_WINDOW}",
                "--layers", layers)

    return [
        ("make_param", lambda: state.update(param=make_param(p, omega - p))),
        ("blockgrid_fill", fill),
        ("masks", lambda: [g.masks() for g in state["grids"]]),
        ("trace_polygons", trace),
        ("label_table", lambda: state.update(
            table=label_table(state["param"]))),
        ("label_table_cover", lambda: state.update(
            cover=label_table(state["param"], 2))),
        ("center_codes", lambda: center_codes(state["param"],
                                              state["table"])),
        ("symmetry_conjugacies", lambda: symmetry_conjugacies(state["param"])),
        ("mesh_failures", lambda: _mesh_failures(
            state["param"], state["cover"],
            fiber_shifts(state["param"], cover_step))),
        ("orbit", orbit),
        ("render", lambda: render(",".join(LAYERS))),
        ("stats_document", lambda: request("stats", "--document",
                                           "--blocks", "0")),
        *[(f"render_{layer}", lambda layer=layer: render(layer))
          for layer in LAYERS],
        ("document_walk", lambda: state.update(loops=list(_block_loops(
            state["param"], (0, 0), state["grids"][0])))),
        ("document_text", lambda: block_text(state["param"], (0, 0),
                                             state["loops"])),
    ]


def irrational_layers() -> List[Tuple[str, Callable]]:
    return [(f"irrational_{w}x{w}",
             lambda w=w: irrational_tiling(IRRATIONAL_P, IRRATIONAL_OFFSET,
                                           (0, 0, w, w)))
            for w in IRRATIONAL_WINDOWS]


def best_of(layers: List[Tuple[str, Callable]]) -> Dict[str, object]:
    """The least seconds of each layer over REPEATS rounds."""
    best: Dict[str, object] = {}
    for _ in range(REPEATS):
        for name, thunk in layers:
            start = time.perf_counter()
            thunk()
            seconds = time.perf_counter() - start
            best[name] = min(best.get(name, seconds), seconds)
    return {name: round(s, 6) for name, s in best.items()}


def write_bench(label: str) -> str:
    """Time every layer and write BENCH_<label>.json in the working
    directory; returns its path."""
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", label):
        raise PlaidError(f"--label must be letters, digits, '_', '.' or '-', "
                         f"got {label!r}")
    path = f"BENCH_{label}.json"
    entries = []
    if os.path.exists(path):
        with open(path) as f:
            entries = json.load(f).get("entries", [])
    with tempfile.TemporaryDirectory() as scratch:
        by_omega = {str(w): best_of(omega_layers(w, scratch)) for w in OMEGAS}
    doc = {
        "label": label,
        "machine": machine(),
        "repeats": REPEATS,
        "omega": by_omega,
        "irrational": {"P": str(IRRATIONAL_P),
                       "offset": [str(v) for v in IRRATIONAL_OFFSET],
                       "seconds": best_of(irrational_layers())},
        "entries": entries,
    }
    with open(path, "w") as f:
        f.write(json.dumps(doc, indent=2) + "\n")
    return path
