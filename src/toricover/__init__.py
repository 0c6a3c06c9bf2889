"""Semi-equivelar toroidal maps and their vertex-transitive covers.

A toroidal map is built as a quotient of one of the eleven Archimedean
plane tilings by a finite-index sublattice of its translation lattice.
For each such map X the library constructs a finite cover Y, again a
toroidal map of the same vertex type, that is vertex-transitive, and
certifies the covering combinatorially.
"""

from __future__ import annotations

from .cover import CoverCertificate, certificate_from_dict, cover_maps, descend, verify_covering, vt_cover
from .lattice import SublatticeMat
from .map_core import FlagMap, QuotientSpec, build_quotient, is_polyhedral, is_semi_equivelar, map_summary
from .symmetry import is_vertex_transitive, orbit_report, quotient_report, search_non_vt
from .tilings import TilingId, parse_tiling, template

__version__ = "0.1.0"

__all__ = [
    "CoverCertificate",
    "FlagMap",
    "QuotientSpec",
    "SublatticeMat",
    "TilingId",
    "build_quotient",
    "certificate_from_dict",
    "cover_maps",
    "descend",
    "is_polyhedral",
    "is_semi_equivelar",
    "is_vertex_transitive",
    "map_summary",
    "orbit_report",
    "parse_tiling",
    "quotient_report",
    "render_svg",
    "search_non_vt",
    "template",
    "verify_covering",
    "vt_cover",
]


def __getattr__(name: str):
    # render_svg loads on first use: only `render` draws, and its module
    # imports xml.etree, which no other command needs.
    if name == "render_svg":
        from .render import render_svg

        return render_svg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
