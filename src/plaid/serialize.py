"""Lossless JSON forms for polygons and verify reports."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .params import Param, PlaidError
from .grid import BlockGrid, PlaidPolygon, _block_loops, fill_tables

FORMAT_VERSION = 1


def _half(v2: int) -> str:
    """str(Fraction(v2, 2)) of a doubled coordinate."""
    return f"{v2}/2" if v2 % 2 else str(v2 // 2)


def polygon_document(param: Param,
                     blocks: Sequence[Tuple[int, int]]) -> dict:
    """The polygons of each block, in order, written straight from the block
    walk: a loop's squares map to vertices through one table per block."""
    w, polygons, tables = param.omega, [], fill_tables(param)
    for bi, bj in blocks:
        xs = [_half(2 * (bi * w + n) + 1) for n in range(w)]
        ys = [_half(2 * (bj * w + m) + 1) for m in range(w)]
        # tuples, so that entries shared between loops stay as they are;
        # json writes them as arrays
        table = [(x, y) for x in xs for y in ys]
        polygons += [{"block": [bi, bj],
                      "vertices": list(map(table.__getitem__, loop))}
                     for loop in _block_loops(param, (bi, bj),
                                              BlockGrid(param, bi, tables))]
    return {"format": FORMAT_VERSION, "param": [param.p, param.q],
            "blocks": [list(b) for b in blocks], "polygons": polygons}


def emit(doc: dict) -> str:
    """Canonical byte form; emitting a parsed document reproduces it."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def parse_polygon_document(text: str) -> dict:
    doc = json.loads(text)
    if doc.get("format") != FORMAT_VERSION:
        raise PlaidError(f"unsupported format {doc.get('format')!r}")
    return doc


def document_polygons(doc: dict) -> Dict[Tuple[int, int], List[PlaidPolygon]]:
    out: Dict[Tuple[int, int], List[PlaidPolygon]] = {}
    for entry in doc["polygons"]:
        verts2 = tuple(
            (int(2 * Fraction(x)), int(2 * Fraction(y)))
            for x, y in entry["vertices"])
        out.setdefault(tuple(entry["block"]), []).append(PlaidPolygon(verts2))
    return out


def report_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))
