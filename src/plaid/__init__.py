"""Exact-arithmetic engine for the plaid model.

Two independent descriptions of the same family of lattice polygons: a grid
of four line families with a light/dark rule (`plaid.grid`), and a
classifying map into a partitioned flat torus (`plaid.classifier`), equated
square by square and upgraded to a polytope exchange transformation whose
special orbits redraw the polygons (`plaid.pet`).  `plaid.verify` bundles the
machine checks; the `plaid` command line drives pictures, suites, and
irrational-parameter tilings.
"""

from .params import (
    InvalidParameter,
    OddIntegerClass,
    Param,
    PlaidError,
    Rat,
    even_rationals,
    make_param,
    mod2_reduce,
    normalize_open,
)
from .grid import (
    BlockGrid,
    GridLine,
    IncoherentInput,
    IntersectionPoint,
    LineInvariants,
    Particle,
    PlaidPolygon,
    UnitSegment,
    anchor_lines,
    check_coherence,
    f_H,
    f_P,
    f_Q,
    f_V,
    good_edges,
    horizontal_particle,
    light_count,
    line_invariants,
    segment_points,
    trace_particle,
    trace_polygons,
    vertical_particle,
)
from .classifier import (
    BoundaryFiber,
    CheckerboardSpec,
    ClassifyingPoint,
    OnWall,
    ZoneData,
    checkerboard_label,
    particle_image_geometry,
    symmetry_conjugacies,
    tile_of,
    verify_bijection,
    xi,
    xi_local,
    zone_of,
)
from .pet import (
    BadOffset,
    CoverPoint,
    NonPeriodicOrbit,
    PetOrbit,
    PetRegion,
    check_mesh,
    irrational_tiling,
    lift_label,
    oriented_label,
    pet_back,
    pet_region,
    pet_step,
    special_orbit,
    vector_polygon,
    xi_hat,
)
from .analysis import (
    PolygonStats,
    empty_rectangles,
    gap_radius,
    polygon_stats,
    verify_first,
)

__all__ = [
    "InvalidParameter", "OddIntegerClass", "Param", "PlaidError", "Rat",
    "even_rationals", "make_param", "mod2_reduce", "normalize_open",
    "BlockGrid", "GridLine", "IncoherentInput", "IntersectionPoint",
    "LineInvariants", "Particle", "PlaidPolygon", "UnitSegment",
    "anchor_lines", "check_coherence", "f_H", "f_P", "f_Q", "f_V",
    "good_edges", "horizontal_particle", "light_count", "line_invariants",
    "segment_points", "trace_particle", "trace_polygons", "vertical_particle",
    "BoundaryFiber", "CheckerboardSpec", "ClassifyingPoint", "OnWall",
    "ZoneData", "checkerboard_label", "particle_image_geometry",
    "symmetry_conjugacies", "tile_of", "verify_bijection", "xi", "xi_local",
    "zone_of",
    "BadOffset", "CoverPoint", "NonPeriodicOrbit", "PetOrbit", "PetRegion",
    "check_mesh", "irrational_tiling", "lift_label", "oriented_label",
    "pet_back", "pet_region", "pet_step", "special_orbit", "vector_polygon",
    "xi_hat",
    "PolygonStats", "empty_rectangles", "gap_radius", "polygon_stats",
    "verify_first",
]
__version__ = "0.1.0"
