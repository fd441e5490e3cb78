"""Lossless JSON forms for polygons and verify reports.

A polygon document is written as text straight from the block walk:
block_text writes a block's ["x","y"] vertex texts once per column and row
and joins each loop's through grid.loop_texts, and document_text puts the
blocks' polygons in the document's frame.  Its bytes are the canonical
form that emit gives (sorted keys, no spaces), and polygon_document is the
parse of that text, so the package has one document encoder.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .params import Param, PlaidError
from .grid import (BlockGrid, PlaidPolygon, _block_loops, fill_tables,
                   loop_texts)

FORMAT_VERSION = 1


def block_text(param: Param, block: Tuple[int, int],
               loops: Iterable[List[int]]) -> List[str]:
    """The document text of each polygon of the block, from its loops of
    _block_loops: a loop's squares map to their vertex texts, written once
    per column and row; a square center's coordinates are halves of odd
    integers."""
    w, (bi, bj) = param.omega, block
    xs = [f'["{2 * (bi * w + n) + 1}/2","' for n in range(w)]
    ys = [f'{2 * (bj * w + m) + 1}/2"]' for m in range(w)]
    return loop_texts(loops, xs, ys, f'{{"block":[{bi},{bj}],"vertices":[',
                      ",", "]}")


def document_text(param: Param, blocks: Sequence[Tuple[int, int]]) -> str:
    """The polygons of each block, in order, as the document's canonical
    text (emit's: keys sorted, no spaces), written from the block walk."""
    tables, polygons = fill_tables(param), []
    for block in blocks:
        polygons += block_text(param, block, _block_loops(
            param, block, BlockGrid(param, block[0], tables)))
    listed = ",".join(f"[{bi},{bj}]" for bi, bj in blocks)
    return (f'{{"blocks":[{listed}],"format":{FORMAT_VERSION},"param":'
            f'[{param.p},{param.q}],"polygons":[' + ",".join(polygons) + "]}\n")


def polygon_document(param: Param,
                     blocks: Sequence[Tuple[int, int]]) -> dict:
    """The parse of document_text."""
    return parse_polygon_document(document_text(param, blocks))


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
