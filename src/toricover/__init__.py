"""Semi-equivelar toroidal maps and their vertex-transitive covers.

A toroidal map is built as a quotient of one of the eleven Archimedean
plane tilings by a finite-index sublattice of its translation lattice.
For each such map X the library constructs a finite cover Y, again a
toroidal map of the same vertex type, that is vertex-transitive, and
certifies the covering combinatorially.
"""

from __future__ import annotations

from .cover import (
    CoverCertificate,
    VerifyReport,
    certificate_from_dict,
    cover_maps,
    descend,
    torus_area,
    verify_covering,
    vt_cover,
)
from .lattice import (
    CosetSystem,
    SublatticeMat,
    cosets,
    cover_exponent,
    enumerate_hnf,
    fold_index,
    random_nonsingular,
    scaled_identity,
)
from .map_core import (
    FlagMap,
    PolyhedralReport,
    QuotientSpec,
    VertexTypeSig,
    build_quotient,
    euler_characteristic,
    is_polyhedral,
    is_semi_equivelar,
    map_summary,
    vertex_type,
)
from .render import render_svg
from .symmetry import (
    OrbitReport,
    are_isomorphic,
    automorphism_group,
    exists_automorphism_mapping,
    is_vertex_transitive,
    orbit_report,
    quotient_report,
    search_non_vt,
)
from .tilings import TilingId, TilingTemplate, all_templates, parse_tiling, template

__version__ = "0.1.0"

__all__ = [
    "CosetSystem",
    "CoverCertificate",
    "FlagMap",
    "OrbitReport",
    "PolyhedralReport",
    "QuotientSpec",
    "SublatticeMat",
    "TilingId",
    "TilingTemplate",
    "VertexTypeSig",
    "VerifyReport",
    "all_templates",
    "are_isomorphic",
    "automorphism_group",
    "build_quotient",
    "certificate_from_dict",
    "cosets",
    "cover_exponent",
    "cover_maps",
    "descend",
    "enumerate_hnf",
    "euler_characteristic",
    "exists_automorphism_mapping",
    "fold_index",
    "is_polyhedral",
    "is_semi_equivelar",
    "is_vertex_transitive",
    "map_summary",
    "orbit_report",
    "parse_tiling",
    "quotient_report",
    "random_nonsingular",
    "render_svg",
    "scaled_identity",
    "search_non_vt",
    "template",
    "torus_area",
    "vertex_type",
    "verify_covering",
    "vt_cover",
]
