from fractions import Fraction

from conftest import golden_path
from plaid.params import make_param
from plaid.grid import trace_polygons
from plaid.serialize import (
    document_polygons,
    document_text,
    emit,
    parse_polygon_document,
    polygon_document,
)


def test_roundtrip_identity(p25):
    blocks = [(bi, 0) for bi in range(7)]
    text = emit(polygon_document(p25, blocks))
    assert emit(parse_polygon_document(text)) == text
    back = document_polygons(parse_polygon_document(text))
    assert {b: [pg.verts2 for pg in ps] for b, ps in back.items()} == \
        {b: [pg.verts2 for pg in trace_polygons(p25, b)] for b in blocks}


def test_doubled_coordinates_written_as_fractions(p25):
    """Vertices are written straight from the doubled coordinates, in
    Fraction's own string form, negative ones included: square centers
    are halves of odd integers, written "n/2"."""
    blocks = [(-8, -1), (-1, 0), (0, 1), (3, -2)]
    doc = parse_polygon_document(document_text(p25, blocks))
    want = [[str(Fraction(x, 2)), str(Fraction(y, 2))]
            for b in blocks for pg in trace_polygons(p25, b)
            for x, y in pg.verts2]
    assert [v for entry in doc["polygons"] for v in entry["vertices"]] == want
    assert any(x.startswith("-") for x, _ in want)
    assert any(y.startswith("-") for _, y in want)


def test_golden_corpus_roundtrip():
    for name, pq in (("polygons_1_2.json", (1, 2)),
                     ("polygons_2_5.json", (2, 5))):
        with open(golden_path(name)) as fh:
            text = fh.read()
        doc = parse_polygon_document(text)
        assert emit(doc) == text
        prm = make_param(*pq)
        blocks = [(bi, 0) for bi in range(prm.omega)]
        assert emit(polygon_document(prm, blocks)) == text


def test_format_version_enforced():
    import pytest

    with pytest.raises(Exception):
        parse_polygon_document('{"format": 999, "polygons": []}')
