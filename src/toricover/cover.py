"""Vertex-transitive covers of semi-equivelar toroidal maps.

Given X = tiling / K with K the row lattice of M, the cover is
Y = tiling / mZ^2 where m is the least scale with m Z^2 inside K.  The
covering map sends the Y-vertex (rep, w mod m) to the X-vertex
(rep, w mod K).  A tiling symmetry descends to a quotient exactly when
its matrix R preserves the lattice (R K = K); translations (R = I) do
on every quotient, and scalar lattices are preserved by every point
symmetry (R (m Z^2) = m Z^2 for any integer R with |det R| = 1), so the
tiling's point group descends to honest map automorphisms of Y.
Together with the translations of Z^2 / m Z^2 those act transitively on
Y's vertices, which is what makes the cover vertex-transitive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import (
    SublatticeMat,
    contains_scaled_identity,
    cover_exponent,
    is_scaled_identity,
    scaled_identity,
)
from .map_core import FlagMap, QuotientSpec, build_quotient, is_polyhedral
from .symmetry import MapAutomorphism
from .tilings import PointGroupElem, TilingId, dihedral, parse_tiling, template


@dataclass(frozen=True)
class CoverCertificate:
    """Everything needed to re-check one covering Y -> X."""

    tiling: TilingId
    base_mat: SublatticeMat
    exponent: int  # the scale of Y's lattice (m, or r*m for the r-family)
    fold: int  # preimage count n = exponent^2 / |det|
    cover_mat: SublatticeMat
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]
    face_map: tuple[int, ...]
    area_value: int
    area_factor: str
    base_polyhedral: bool
    cover_polyhedral: bool

    def as_dict(self) -> dict:
        return {
            "tiling": self.tiling.value,
            "M": list(self.base_mat.as_tuple()),
            "m": self.exponent,
            "n": self.fold,
            "area": {"value": self.area_value, "factor": self.area_factor},
            "vertex_map": list(self.vertex_map),
            "edge_map": list(self.edge_map),
            "face_map": list(self.face_map),
            "polyhedral": {"X": self.base_polyhedral, "Y": self.cover_polyhedral},
        }


def certificate_from_dict(data: dict) -> CoverCertificate:
    if not isinstance(data, dict):
        raise ValueError("malformed certificate: not a JSON object")
    try:
        tiling = parse_tiling(data["tiling"])
        a, b, c, d = (int(x) for x in data["M"])
        exponent = int(data["m"])
        fold = int(data["n"])
        area = data["area"]
        cert = CoverCertificate(
            tiling=tiling,
            base_mat=SublatticeMat(a, b, c, d),
            exponent=exponent,
            fold=fold,
            cover_mat=scaled_identity(exponent),
            vertex_map=tuple(int(x) for x in data["vertex_map"]),
            edge_map=tuple(int(x) for x in data["edge_map"]),
            face_map=tuple(int(x) for x in data["face_map"]),
            area_value=int(area["value"]),
            area_factor=str(area["factor"]),
            base_polyhedral=bool(data["polyhedral"]["X"]),
            cover_polyhedral=bool(data["polyhedral"]["Y"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc
    return cert


def cover_maps(
    spec: QuotientSpec, r: int = 1
) -> tuple[FlagMap, FlagMap, CoverCertificate]:
    """Build (Y, X, certificate) for the r-th cover in one pass."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    m_exp = cover_exponent(spec.mat) * r
    y_spec = QuotientSpec(spec.tiling, scaled_identity(m_exp))
    x = build_quotient(spec)
    y = build_quotient(y_spec)
    fold, rem = divmod(m_exp * m_exp, spec.mat.index())
    if rem:
        raise AssertionError("fold count is not integral")

    vmap = [x.vertex_at(r_, w) for r_, w in y.labels]
    # Dart k of a Y-vertex goes to dart k of its image.
    dmap = [0] * y.n_darts
    for v, ds in enumerate(y.vertex_darts):
        for d, xd in zip(ds, x.vertex_darts[vmap[v]]):
            dmap[d] = xd

    # The dart map must commute with reversal, otherwise the template or
    # coset bookkeeping is broken; cheap to confirm, so always confirm.
    for d in range(y.n_darts):
        if dmap[y.dart_rev[d]] != x.dart_rev[dmap[d]]:
            raise AssertionError(f"projection breaks dart reversal at dart {d}")

    emap = [x.dart_edge[dmap[ds[0]]] for ds in y.edge_darts]
    fmap = []
    for walk in y.face_darts:
        images = {x.dart_face_left[dmap[d]] for d in walk}
        if len(images) != 1:
            raise AssertionError("projection splits a face")
        fmap.append(images.pop())

    area_value, area_factor = torus_area(spec)
    cert = CoverCertificate(
        tiling=spec.tiling,
        base_mat=spec.mat,
        exponent=m_exp,
        fold=fold,
        cover_mat=y_spec.mat,
        vertex_map=tuple(vmap),
        edge_map=tuple(emap),
        face_map=tuple(fmap),
        area_value=area_value,
        area_factor=area_factor,
        base_polyhedral=is_polyhedral(x).ok,
        cover_polyhedral=is_polyhedral(y).ok,
    )
    return y, x, cert


def vt_cover(spec: QuotientSpec, r: int = 1) -> tuple[QuotientSpec, CoverCertificate]:
    """The vertex-transitive cover Y of X = quotient(spec); r > 1 gives
    the r-th member of the infinite cover family (scale r*m)."""
    _, _, cert = cover_maps(spec, r=r)
    return QuotientSpec(spec.tiling, cert.cover_mat), cert


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    failure: str | None
    checks_passed: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "failure": self.failure,
            "checks_passed": list(self.checks_passed),
        }


def verify_covering(y: FlagMap, x: FlagMap, cert: CoverCertificate) -> VerifyReport:
    """Re-check a certificate against freshly built maps.

    Stops at the first violated condition.  Checks, in order: the
    exponent/fold arithmetic, cell-map shapes and ranges, exact n-to-1
    fibers, adjacency preservation, face sizes, and the local
    isomorphism condition (the face-cycle at every Y-vertex matches the
    face-cycle at its image in cyclic order, allowing either direction).
    """
    passed: list[str] = []

    def fail(msg: str) -> VerifyReport:
        return VerifyReport(ok=False, failure=msg, checks_passed=tuple(passed))

    n = cert.fold
    det = cert.base_mat.index()
    if not is_scaled_identity(cert.cover_mat) or cert.cover_mat.a != cert.exponent:
        return fail(f"arithmetic: cover lattice {cert.cover_mat.as_tuple()} is not {cert.exponent}*I")
    if n * det != cert.exponent**2:
        return fail(f"arithmetic: n*|det| = {n * det} != m^2 = {cert.exponent ** 2}")
    # No divisibility-chain test here: n | m | |det| holds for the
    # minimal cover but not for the scaled family members (exponent rm),
    # and the lattice containment below is the condition that matters.
    if not contains_scaled_identity(cert.base_mat, cert.exponent):
        return fail("arithmetic: cover lattice is not inside the base lattice")
    passed.append("arithmetic")

    shapes = (
        (cert.vertex_map, y.n_vertices, x.n_vertices, "vertex"),
        (cert.edge_map, y.n_edges, x.n_edges, "edge"),
        (cert.face_map, y.n_faces, x.n_faces, "face"),
    )
    for table, dom, cod, kind in shapes:
        if len(table) != dom:
            return fail(f"shape: {kind}_map has {len(table)} entries, expected {dom}")
        if any(not (0 <= t < cod) for t in table):
            return fail(f"shape: {kind}_map has out-of-range entries")
    passed.append("shape")

    for table, _, cod, kind in shapes:
        fibers = [0] * cod
        for t in table:
            fibers[t] += 1
        badcell = next((c for c, size in enumerate(fibers) if size != n), None)
        if badcell is not None:
            return fail(
                f"fibers: {kind} {badcell} has {fibers[badcell]} preimages, expected {n}"
            )
    passed.append("fibers")

    vm = cert.vertex_map
    for e in range(y.n_edges):
        u, w = y.edge_endpoints(e)
        xu, xw = x.edge_endpoints(cert.edge_map[e])
        if sorted((vm[u], vm[w])) != sorted((xu, xw)):
            return fail(f"adjacency: edge {e} endpoints map to non-endpoints")
    passed.append("adjacency")

    for f in range(y.n_faces):
        if x.face_sizes[cert.face_map[f]] != y.face_sizes[f]:
            return fail(f"faces: face {f} changes size under the projection")
    passed.append("faces")

    em, fm = cert.edge_map, cert.face_map
    for v in range(y.n_vertices):
        around_y = [
            (em[y.dart_edge[d]], fm[y.dart_face_left[d]]) for d in y.vertex_darts[v]
        ]
        xv = vm[v]
        around_x = [
            (x.dart_edge[d], x.dart_face_left[d]) for d in x.vertex_darts[xv]
        ]
        if around_y not in dihedral(around_x):
            return fail(f"local: face-cycle at vertex {v} does not match vertex {xv}")
    passed.append("local-isomorphism")

    return VerifyReport(ok=True, failure=None, checks_passed=tuple(passed))


def descend(spec: QuotientSpec, elem: PointGroupElem) -> MapAutomorphism:
    """The map automorphism of X = tiling / K induced by a tiling symmetry.

    Defined exactly when R maps K into itself (then R K = K, since R is
    unimodular), so that the action on Z^2 / K is well defined:
    translations (R = I) descend to every quotient, and every point
    symmetry to scalar ones.  The result is verified to commute with the
    flag involutions; a failure there would mean corrupt template data
    and raises.
    """
    (r00, r01), (r10, r11) = elem.matrix
    k = spec.mat
    if not all(k.contains((r00 * a + r01 * b, r10 * a + r11 * b)) for a, b in k.rows):
        raise ValueError(f"{elem.name} does not preserve the lattice of {spec.mat.as_tuple()}")
    y = build_quotient(spec)
    side = 1 if elem.reverses_orientation else 0
    perm = [0] * y.n_flags
    for (r, w), ds in zip(y.labels, y.vertex_darts):
        r2, w2 = elem.apply_vertex(r, w)
        image = y.vertex_darts[y.vertex_at(r2, w2)]
        for d, k in zip(ds, elem.slot_maps[r]):
            d2 = image[k]
            perm[2 * d] = 2 * d2 + side
            perm[2 * d + 1] = 2 * d2 + 1 - side

    auto = MapAutomorphism(tuple(perm))
    if not auto.commutes_with_involutions(y):
        raise RuntimeError(
            f"descended {elem.name} is not a map automorphism; template data corrupt"
        )
    return auto


def torus_area(spec: QuotientSpec) -> tuple[int, str]:
    """Exact area of the quotient torus as (integer, factor tag): |det|
    cells, each of area 1 or sqrt(3)/2 in the unit-basis scaling."""
    return spec.mat.index(), template(spec.tiling).cell_area_factor
