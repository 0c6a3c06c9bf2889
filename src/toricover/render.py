"""SVG drawings of tilings with a sublattice's fundamental domain.

One fundamental parallelogram of the quotient lattice is drawn with a
one-cell margin of tiling faces around it, faces colored by size, and
the translation basis A, B plus the parallelogram of M overlaid.
Coordinates are floating point, snapped to 1e-9 before formatting so
output bytes are stable.
"""

from __future__ import annotations

import math
from xml.etree import ElementTree as ET

from .lattice import SublatticeMat
from .tilings import TilingTemplate, face_classes

_FACE_FILL = {
    3: "#a6cee3",
    4: "#fdbf6f",
    6: "#b2df8a",
    8: "#cab2d6",
    12: "#fb9a99",
}
_SCALE = 60.0
# Translation cells one drawing may hold.  Memory and output grow with the
# cell count: E7 at 138·I (19,881 cells) peaks at 240 MiB and writes 18.6 MB.
MAX_RENDER_CELLS = 20_000


def _euclid(tpl: TilingTemplate, rep: int, cell: tuple[int, int]) -> tuple[float, float]:
    ax, ay = tpl.basis_a
    bx, by = tpl.basis_b
    px, py = tpl.rep_pos[rep]
    return (px + cell[0] * ax + cell[1] * bx, py + cell[0] * ay + cell[1] * by)


def _snap(x: float) -> float:
    return round(x / 1e-9) * 1e-9


def _fmt(x: float) -> str:
    return f"{_snap(x):.4f}"


def render_svg(tpl: TilingTemplate, mat: SublatticeMat) -> str:
    """SVG document for the tiling with the sublattice domain overlaid."""
    (a, b), (c, d) = mat.rows
    corners_lat = [(0, 0), (a, b), (a + c, b + d), (c, d)]
    ax, ay = tpl.basis_a
    bx, by = tpl.basis_b
    corners = [(i * ax + j * bx, i * ay + j * by) for i, j in corners_lat]

    lo_i = min(i for i, _ in corners_lat) - 1
    hi_i = max(i for i, _ in corners_lat) + 1
    lo_j = min(j for _, j in corners_lat) - 1
    hi_j = max(j for _, j in corners_lat) + 1
    n_cells = (hi_i - lo_i + 1) * (hi_j - lo_j + 1)
    if n_cells > MAX_RENDER_CELLS:
        raise ValueError(f"drawing needs {n_cells} tiling cells, over the limit of {MAX_RENDER_CELLS}")

    cell_faces = face_classes(tpl.id)
    polys = []
    for ci in range(lo_i, hi_i + 1):
        for cj in range(lo_j, hi_j + 1):
            for walk in cell_faces:
                pts = [
                    _euclid(tpl, rep, (cx + ci, cy + cj))
                    for rep, (cx, cy), slot in walk
                ]
                polys.append((len(walk), pts))

    xs = [p[0] for _, pts in polys for p in pts] + [p[0] for p in corners]
    ys = [p[1] for _, pts in polys for p in pts] + [p[1] for p in corners]
    pad = 0.5
    min_x, max_x = min(xs) - pad, max(xs) + pad
    min_y, max_y = min(ys) - pad, max(ys) + pad

    def to_px(p: tuple[float, float]) -> tuple[float, float]:
        # Flip y so the drawing is in the usual orientation.
        return ((p[0] - min_x) * _SCALE, (max_y - p[1]) * _SCALE)

    width = (max_x - min_x) * _SCALE
    height = (max_y - min_y) * _SCALE

    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        version="1.1",
        width=_fmt(width),
        height=_fmt(height),
        viewBox=f"0 0 {_fmt(width)} {_fmt(height)}",
    )
    ET.SubElement(svg, "rect", x="0", y="0", width=_fmt(width), height=_fmt(height), fill="white")

    face_group = ET.SubElement(svg, "g", attrib={"stroke": "#444444", "stroke-width": "1"})
    for size, pts in polys:
        points = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(p) for p in pts))
        ET.SubElement(
            face_group,
            "polygon",
            points=points,
            fill=_FACE_FILL.get(size, "#dddddd"),
        )

    # Fundamental parallelogram of M, dashed.
    par = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(p) for p in corners))
    ET.SubElement(
        svg,
        "polygon",
        points=par,
        fill="none",
        stroke="#d62728",
        attrib={"stroke-width": "3", "stroke-dasharray": "8 4"},
    )

    # Basis arrows A and B from the origin.
    origin = to_px((0.0, 0.0))
    for vec, color in ((tpl.basis_a, "#1f77b4"), (tpl.basis_b, "#2ca02c")):
        tip = to_px(vec)
        ET.SubElement(
            svg,
            "line",
            x1=_fmt(origin[0]),
            y1=_fmt(origin[1]),
            x2=_fmt(tip[0]),
            y2=_fmt(tip[1]),
            stroke=color,
            attrib={"stroke-width": "3"},
        )
        # Arrowhead: a short triangle at the tip.
        dx, dy = tip[0] - origin[0], tip[1] - origin[1]
        norm = math.hypot(dx, dy) or 1.0
        ux, uy = dx / norm, dy / norm
        left = (tip[0] - 10 * ux - 5 * uy, tip[1] - 10 * uy + 5 * ux)
        right = (tip[0] - 10 * ux + 5 * uy, tip[1] - 10 * uy - 5 * ux)
        ET.SubElement(
            svg,
            "polygon",
            points=f"{_fmt(tip[0])},{_fmt(tip[1])} {_fmt(left[0])},{_fmt(left[1])} {_fmt(right[0])},{_fmt(right[1])}",
            fill=color,
        )

    title = ET.SubElement(svg, "title")
    title.text = f"{tpl.id.value} / {mat.as_tuple()}"
    return ET.tostring(svg, encoding="unicode") + "\n"
