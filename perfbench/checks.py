"""Output checks, run outside the timed region.

Each check returns None when the output is right and a one-line reason when
it is not.  They recompute what they compare against through the package's
reference paths (`trace_polygons`, `polygon_stats`) and the golden corpus.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

GOLDEN_DOCS = {(1, 2): "polygons_1_2.json", (2, 5): "polygons_2_5.json"}
DEFAULT_EPS = Fraction(1, 2 ** 40)


def _param(pq):
    from plaid.params import make_param

    return make_param(*pq)


def expected_work(suite: str, pq: Tuple[int, int]) -> Dict[str, object]:
    """The work counts a passing record of the suite must carry."""
    w = pq[0] + pq[1]
    return {
        "coherence": {"bad_squares": []},
        "two-points": {"segments": 2 * w * w * (w + 1) * w},
        "hier": {"lines_checked": 2 * w * w},
        "first": {"bound": str(Fraction(w * w, 2 * pq[1]) - 1)},
        "empty-rect": {"blocks": w, "K_values": list(range(0, w, 2))},
        "particle-geometry": {"particles": 3 * w * w},
        "isomorphism": {"squares": w ** 3, "mismatches": []},
        "bijection": {"classes": w ** 3, "cover_classes": 2 * w ** 3},
        "symmetry": {"grid_classes": w * w, "center_classes": w ** 3},
        "mesh": {"failure_count": 0},
    }.get(suite, {})


def check_record(suite: str, pq: Tuple[int, int], record) -> Optional[str]:
    if not isinstance(record, dict) or record.get("ok") is not True:
        return f"record not ok: {str(record)[:200]}"
    for key, want in expected_work(suite, pq).items():
        if record.get(key) != want:
            return f"{key}={record.get(key)!r}, want {want!r}"
    if suite == "pet-equivalence" and not (
            record.get("orbit_steps") == record.get("connector_squares") > 0):
        return f"orbit steps {record.get('orbit_steps')} vs connector " \
               f"squares {record.get('connector_squares')}"
    return None


def check_sweep(suite: str, pq: Tuple[int, int], records) -> Optional[str]:
    """run_suite over one parameter: one ok record for that parameter."""
    if not isinstance(records, list) or len(records) != 1:
        return f"want one record, got {records!r:.200}"
    rec = records[0]
    w = pq[0] + pq[1]
    if (rec.get("suite"), rec.get("param"), rec.get("omega")) != \
            (suite, f"{pq[0]}/{pq[1]}", w):
        return f"record is for {rec.get('suite')} {rec.get('param')}"
    return check_record(suite, pq, rec)


def _arg(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _pq(argv) -> Tuple[int, int]:
    return int(_arg(argv, "--p")), int(_arg(argv, "--q"))


def _ints(text: str) -> List[int]:
    return [int(v) for v in text.split(",")]


def check_orbit(argv, text: str) -> Optional[str]:
    """The orbit's polygon equals the traced polygon through the center; a
    hold center lies on no traced polygon."""
    from plaid.grid import trace_polygons

    doc = json.loads(text)
    param = _param(_pq(argv))
    w = param.omega
    cx, cy = (Fraction(v) for v in _arg(argv, "--c").split(","))
    c2 = (int(2 * cx), int(2 * cy))
    a, b = (c2[0] - 1) // 2, (c2[1] - 1) // 2
    traced = [pg for pg in trace_polygons(param, (a // w, b // w))
              if c2 in pg.verts2]
    want = [[str(Fraction(x, 2)), str(Fraction(y, 2))]
            for x, y in traced[0].verts2] if traced else []
    if doc.get("polygon") != want:
        return f"orbit polygon through {c2} differs from the traced one"
    if want and doc.get("length") != len(want):
        return f"orbit length {doc.get('length')} for a {len(want)}-gon"
    return None


def check_stats_document(argv, text: str) -> Optional[str]:
    """Byte-identical round trip, and as many polygons as polygon_stats."""
    from plaid.analysis import polygon_stats
    from plaid.serialize import emit, parse_polygon_document

    doc = parse_polygon_document(text)
    if emit(doc) != text:
        return "document does not round-trip byte for byte"
    param = _param(_pq(argv))
    blocks = None
    if "--blocks" in argv:
        blocks = [(b, 0) for b in _ints(_arg(argv, "--blocks"))]
    count = polygon_stats(param, blocks).count
    if len(doc["polygons"]) != count:
        return f"{len(doc['polygons'])} polygons, polygon_stats has {count}"
    return None


def check_irrational(argv, text: str) -> Optional[str]:
    doc = json.loads(text)
    eps = Fraction(_arg(argv, "--eps")) if "--eps" in argv else DEFAULT_EPS
    if doc.get("ok") is not True:
        return f"irrational window not ok: {text[:200]}"
    if Fraction(doc["min_wall_distance"]) < eps:
        return f"min wall distance {doc['min_wall_distance']} < {eps}"
    return None


def check_render(argv, text: str) -> Optional[str]:
    """One <polygon> per traced polygon of the blocks the window touches."""
    from plaid.grid import trace_polygons

    param = _param(_pq(argv))
    w = param.omega
    x0, y0, x1, y1 = _ints(_arg(argv, "--window"))
    want = sum(len(trace_polygons(param, (bi, bj)))
               for bi in range(x0 // w, (x1 - 1) // w + 1)
               for bj in range(y0 // w, (y1 - 1) // w + 1))
    got = text.count("<polygon ")
    if not text.startswith("<svg") or not text.endswith("</svg>\n"):
        return "not a complete SVG document"
    if got != want:
        return f"{got} <polygon> elements, {want} traced polygons"
    return None


def check_golden(argv, text: str, golden_dir: str) -> Optional[str]:
    """The seed-independent documents at 1/2 and 2/5 against tests/golden,
    byte for byte."""
    pq = _pq(argv)
    with open(os.path.join(golden_dir, GOLDEN_DOCS[pq])) as fh:
        want = fh.read()
    return None if text == want else \
        f"document for {pq[0]}/{pq[1]} differs from the golden corpus"


def check_cli(argv, code, text: Optional[str], golden_dir: str
              ) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    if text is None:
        return "no output file"
    if argv[0] == "stats" and _pq(argv) in GOLDEN_DOCS:
        return check_golden(argv, text, golden_dir)
    return {
        "orbit": check_orbit,
        "stats": check_stats_document,
        "irrational": check_irrational,
        "render": check_render,
    }[argv[0]](argv, text)
