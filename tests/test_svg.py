import re
from fractions import Fraction as F

import pytest

from plaid.params import PlaidError, make_param
from plaid.classifier import tile_of
from plaid.grid import good_edges
from plaid.svgout import LAYERS, RenderConfig, render_svg


def test_deterministic(p25):
    cfg = RenderConfig(window=(0, 0, 7, 7), scale=20,
                       layers=("grid-lines", "light-points", "polygons"))
    a = render_svg(p25, cfg)
    b = render_svg(p25, cfg)
    assert a == b
    assert a.startswith("<svg ") and a.rstrip().endswith("</svg>")


def test_polygon_layer_counts(p12):
    cfg = RenderConfig(window=(0, 0, 3, 3), scale=10, layers=("polygons",))
    svg = render_svg(p12, cfg)
    assert svg.count("<polygon ") == 1  # the single ring of the first block


def test_polygon_layer_counts_2_5(p25):
    cfg = RenderConfig(window=(0, 0, 7, 7), scale=10, layers=("polygons",))
    svg = render_svg(p25, cfg)
    assert svg.count("<polygon ") == 3  # the first-block picture


def test_light_point_sizes(p25):
    # the doubled midpoints (block 0 has them at x = 7/2) are drawn larger
    cfg = RenderConfig(window=(0, 0, 7, 7), scale=10,
                       layers=("light-points",))
    svg = render_svg(p25, cfg)
    assert 'r="4"' in svg and 'r="2"' in svg


def test_light_points_inside_sub_block_window(p38):
    """Points of lines outside the window, or outside it on its lines,
    are not drawn."""
    cfg = RenderConfig(window=(2, 1, 7, 6), scale=10,
                       layers=("light-points",))
    svg = render_svg(p38, cfg)
    centers = [(int(x), int(y)) for x, y in
               re.findall(r'<circle cx="(-?\d+)" cy="(-?\d+)"', svg)]
    assert centers
    assert all(0 <= x <= 50 and 0 <= y <= 50 for x, y in centers)


def test_orientation_arrows(p12):
    cfg = RenderConfig(window=(0, 0, 3, 3), scale=10,
                       layers=("orientation-arrows",))
    svg = render_svg(p12, cfg)
    assert svg.count("<circle ") == 8  # one arrowhead per ring square


@pytest.mark.parametrize("pq", [(2, 5), (4, 11)])
def test_connector_layers_on_a_four_block_window(pq):
    """On a window across a block corner, the connector layer draws two
    half-edges per window square with good edges (the Fraction reference),
    and the arrow layer one head per window square that is not a hold."""
    param = make_param(*pq)
    w = param.omega
    window = (w - 3, w - 2, w + 4, w + 3)
    squares = [(n, m) for n in range(window[0], window[2])
               for m in range(window[1], window[3])]

    def layer(name):
        return render_svg(param, RenderConfig(window=window, scale=10,
                                              layers=(name,)))

    connected = sum(1 for sq in squares if good_edges(param, sq))
    assert connected and layer("connectors").count("<line ") == 2 * connected
    moving = sum(1 for n, m in squares
                 if tile_of(param, (F(2 * n + 1, 2), F(2 * m + 1, 2))) != "EMPTY")
    assert moving == connected
    assert layer("orientation-arrows").count("<circle ") == moving


def test_config_validation():
    with pytest.raises(Exception):
        RenderConfig(window=(0, 0, 0, 7))
    with pytest.raises(Exception):
        RenderConfig(window=(0, 0, 7, 7), scale=0)
    with pytest.raises(Exception):
        RenderConfig(window=(0, 0, 7, 7), layers=("nope",))


@pytest.mark.parametrize("color", ['red"/><script>', "#12", "#1234",
                                   "#12345g", "light blue", "r\u00e9d", "",
                                   7])
def test_palette_colours_go_into_markup_only_when_plain(color):
    """A colour is written into attributes as it stands: only #rgb,
    #rrggbb and ASCII names are taken."""
    with pytest.raises(PlaidError, match="colours"):
        RenderConfig(window=(0, 0, 7, 7), palette={"polygons": color})
    for good in ("#abc", "#A0b1C2", "rebeccapurple"):
        RenderConfig(window=(0, 0, 7, 7), palette={"polygons": good})


@pytest.mark.parametrize("layer", ["polygons", "grid-lines"])
@pytest.mark.parametrize("window,scale", [((F(1, 2), 0, 7, 7), 24),
                                          ((0, 0, 7.0, 7), 24),
                                          ((0, 0, 7, 7), F(3, 2))])
def test_non_integer_window_or_scale_rejected(p25, layer, window, scale):
    with pytest.raises(PlaidError, match="integers"):
        render_svg(p25, RenderConfig(window=window, scale=scale,
                                     layers=(layer,)))


def test_integer_pixel_coordinates(p25):
    svg = render_svg(p25, RenderConfig(window=(0, 0, 7, 7), scale=24,
                                       layers=("polygons",)))
    for m in re.finditer(r'points="([^"]*)"', svg):
        for pair in m.group(1).split():
            x, y = pair.split(",")
            int(x), int(y)


# a colour of its own for every palette key, and the keys each layer draws in
DISTINCT = {"H": "#000001", "V": "#000002", "P": "#000003", "Q": "#000004",
            "light-points": "#000005", "connectors": "#000006",
            "polygons": "#000007", "orientation-arrows": "#000008"}
LAYER_KEYS = {"grid-lines": ("H", "V", "P", "Q"),
              "light-points": ("light-points",), "connectors": ("connectors",),
              "polygons": ("polygons",),
              "orientation-arrows": ("orientation-arrows",)}


def test_layer_colours(p25):
    """Each layer's elements carry that layer's colours, arrow-head circles
    included; the all-layer render is the single-layer bodies in order."""
    def body(layers):
        return render_svg(p25, RenderConfig(window=(0, 0, 7, 7), scale=12,
                                            layers=layers,
                                            palette=DISTINCT)).splitlines()[1:-1]

    joined = []
    for layer in LAYERS:
        elements = body((layer,))
        joined += elements
        used = set()
        for el in elements:
            (colour,) = re.findall(r'(?:stroke|fill)="(#\w+)"', el)
            used.add(colour)
            if layer == "grid-lines":
                x1, y1, x2, y2 = re.search(
                    r'x1="(\d+)" y1="(\d+)" x2="(\d+)" y2="(\d+)"', el).groups()
                if y1 == y2 or x1 == x2:
                    assert colour == DISTINCT["H" if y1 == y2 else "V"], el
        assert used == {DISTINCT[k] for k in LAYER_KEYS[layer]}, layer
        if layer in ("light-points", "orientation-arrows"):
            assert any(el.startswith("<circle ") for el in elements), layer
    assert body(LAYERS) == joined
