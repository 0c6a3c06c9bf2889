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

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .lattice import (
    SublatticeMat,
    contains_scaled_identity,
    cover_exponent,
    fold_index,
    is_scaled_identity,
    scaled_identity,
)
from .map_core import FlagMap, QuotientSpec, build_quotient, is_automorphism
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


def _typed(value, kind: type, field: str):
    """value if its type is exactly kind (so True is not an int and 3.0
    is not an int), else ValueError."""
    if type(value) is not kind:
        raise ValueError(f"{field} must be of type {kind.__name__}, got {value!r}")
    return value


def _int_list(value, field: str) -> tuple[int, ...]:
    if type(value) is not list or not set(map(type, value)) <= {int}:
        raise ValueError(f"{field} must be a list of integers")
    return tuple(value)


def certificate_from_dict(data: dict) -> CoverCertificate:
    """Parse a certificate strictly: integers must be JSON integers and
    the polyhedral claims JSON booleans, as the schema says."""
    if not isinstance(data, dict):
        raise ValueError("malformed certificate: not a JSON object")
    try:
        tiling = parse_tiling(_typed(data["tiling"], str, "tiling"))
        a, b, c, d = _int_list(data["M"], "M")
        exponent = _typed(data["m"], int, "m")
        area, polyhedral = data["area"], data["polyhedral"]
        cert = CoverCertificate(
            tiling=tiling,
            base_mat=SublatticeMat(a, b, c, d),
            exponent=exponent,
            fold=_typed(data["n"], int, "n"),
            cover_mat=scaled_identity(exponent),
            vertex_map=_int_list(data["vertex_map"], "vertex_map"),
            edge_map=_int_list(data["edge_map"], "edge_map"),
            face_map=_int_list(data["face_map"], "face_map"),
            area_value=_typed(area["value"], int, "area.value"),
            area_factor=_typed(area["factor"], str, "area.factor"),
            base_polyhedral=_typed(polyhedral["X"], bool, "polyhedral.X"),
            cover_polyhedral=_typed(polyhedral["Y"], bool, "polyhedral.Y"),
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
    fold = r * r * fold_index(spec.mat)

    # Both maps number vertices rep-major (build_quotient), so the Y-vertex
    # (rep, w) goes to X's vertex rep * |det| + (X's index of the cell w).
    cells = [x.vertex_at(0, w) for w in y.coset_system.representatives]
    ncos = x.coset_system.size()
    vmap = [rep * ncos + c for rep in range(y.n_vertices // len(cells)) for c in cells]
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

    emap = [x.dart_edge[dmap[d]] for d in y.edge_dart]
    # A face goes where its first dart's face goes, and every dart of it
    # must agree.
    dart_fmap = list(map(x.dart_face_left.__getitem__, dmap))
    fmap = [dart_fmap[walk[0]] for walk in y.face_darts]
    if list(map(fmap.__getitem__, y.dart_face_left)) != dart_fmap:
        raise AssertionError("projection splits a face")

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
        base_polyhedral=x.polyhedral,
        cover_polyhedral=y.polyhedral,
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
    The certificate's claims are checked with the stage they belong to:
    the area with the arithmetic, polyhedrality of X and Y with the
    faces.
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
    area = torus_area(QuotientSpec(cert.tiling, cert.base_mat))
    if (cert.area_value, cert.area_factor) != area:
        return fail(f"arithmetic: area {cert.area_value} * {cert.area_factor} is not {area[0]} * {area[1]}")
    passed.append("arithmetic")

    shapes = (
        (cert.vertex_map, y.n_vertices, x.n_vertices, "vertex"),
        (cert.edge_map, y.n_edges, x.n_edges, "edge"),
        (cert.face_map, y.n_faces, x.n_faces, "face"),
    )
    for table, dom, cod, kind in shapes:
        if len(table) != dom:
            return fail(f"shape: {kind}_map has {len(table)} entries, expected {dom}")
        if min(table) < 0 or max(table) >= cod:
            return fail(f"shape: {kind}_map has out-of-range entries")
    passed.append("shape")

    for table, _, cod, kind in shapes:
        fibers = Counter(table)
        if len(fibers) != cod or set(fibers.values()) != {n}:
            badcell = next(c for c in range(cod) if fibers[c] != n)
            return fail(
                f"fibers: {kind} {badcell} has {fibers[badcell]} preimages, expected {n}"
            )
    passed.append("fibers")

    vm, em, fm = cert.vertex_map, cert.edge_map, cert.face_map
    ytail, yrev, xtail, xrev, xedge = y.dart_vertex, y.dart_rev, x.dart_vertex, x.dart_rev, x.edge_dart
    for e, d in enumerate(y.edge_dart):
        xd = xedge[em[e]]
        u, w, xu, xw = vm[ytail[d]], vm[ytail[yrev[d]]], xtail[xd], xtail[xrev[xd]]
        if not ((u == xu and w == xw) or (u == xw and w == xu)):
            return fail(f"adjacency: edge {e} endpoints map to non-endpoints")
    passed.append("adjacency")

    if list(map(x.face_sizes.__getitem__, fm)) != list(y.face_sizes):
        f = next(f for f in range(y.n_faces) if x.face_sizes[fm[f]] != y.face_sizes[f])
        return fail(f"faces: face {f} changes size under the projection")
    for claim, m, name in ((cert.base_polyhedral, x, "X"), (cert.cover_polyhedral, y, "Y")):
        if claim != m.polyhedral:
            return fail(f"faces: certificate claims {name} polyhedral={claim}, but it is {m.polyhedral}")
    passed.append("faces")

    # An honest projection maps dart k of a Y-vertex to dart k of its
    # image, so first every Y-cycle is compared with its image's cycle as
    # is, all at once (`_cycles_equal`).  Only if that fails are they
    # compared vertex by vertex, and a cycle that differs from its
    # image's is looked up among every rotation and reflection of the
    # image's cycle, a set built once per X-vertex.
    if not _cycles_equal(y, x, vm, em, fm):
        x_cycles = [
            tuple([(x.dart_edge[d], x.dart_face_left[d]) for d in ds]) for ds in x.vertex_darts
        ]
        images: dict[int, set] = {}
        for v, ds in enumerate(y.vertex_darts):
            around_y = tuple([(em[y.dart_edge[d]], fm[y.dart_face_left[d]]) for d in ds])
            xv = vm[v]
            if around_y == x_cycles[xv]:
                continue
            if xv not in images:
                images[xv] = set(dihedral(x_cycles[xv]))
            if around_y not in images[xv]:
                return fail(f"local: face-cycle at vertex {v} does not match vertex {xv}")
    passed.append("local-isomorphism")

    return VerifyReport(ok=True, failure=None, checks_passed=tuple(passed))


def _cycles_equal(y: FlagMap, x: FlagMap, vm, em, fm) -> bool:
    """Whether every Y-vertex v has the (edge, face) cycle of vm[v], as
    is, under the edge and face maps.  When every Y-vertex has its
    image's degree, this compares two whole columns over the rotations
    chained in vertex order, edges and then faces, with no tuple per dart."""
    x_degree = list(map(len, x.vertex_darts))
    if list(map(len, y.vertex_darts)) != list(map(x_degree.__getitem__, vm)):
        return False
    y_darts = list(chain.from_iterable(y.vertex_darts))
    x_darts = list(chain.from_iterable(map(x.vertex_darts.__getitem__, vm)))
    return all(
        list(map(cell_map.__getitem__, map(y_cells.__getitem__, y_darts)))
        == list(map(x_cells.__getitem__, x_darts))
        for cell_map, y_cells, x_cells in (
            (em, y.dart_edge, x.dart_edge),
            (fm, y.dart_face_left, x.dart_face_left),
        )
    )


def descend(m: FlagMap, elem: PointGroupElem) -> list[int]:
    """The map automorphism of X = tiling / K, a map from build_quotient,
    induced by a tiling symmetry, as the image of each flag.

    Defined exactly when R maps K into itself (then R K = K, since R is
    unimodular), so that the action on Z^2 / K is well defined:
    translations (R = I) descend to every quotient, and every point
    symmetry to scalar ones.  The result is verified to commute with the
    flag involutions; a failure there would mean corrupt template data
    and raises.
    """
    cs = m.coset_system
    if cs is None:
        raise ValueError("descend needs a map from build_quotient")
    if not cs.mat.preserved_by(elem.matrix):
        raise ValueError(f"{elem.name} does not preserve the lattice of {cs.mat.as_tuple()}")
    # Vertex v is (rep, cell) = (v // ncos, representative v % ncos), by
    # build_quotient's rep-major numbering.
    ncos, cells = cs.size(), cs.representatives
    side = 1 if elem.reverses_orientation else 0
    perm = [0] * m.n_flags
    for v, ds in enumerate(m.vertex_darts):
        r = v // ncos
        r2, w2 = elem.apply_vertex(r, cells[v % ncos])
        image = m.vertex_darts[m.vertex_at(r2, w2)]
        for d, k in zip(ds, elem.slot_maps[r]):
            d2 = image[k]
            perm[2 * d] = 2 * d2 + side
            perm[2 * d + 1] = 2 * d2 + 1 - side

    if not is_automorphism(m, perm):
        raise RuntimeError(
            f"descended {elem.name} is not a map automorphism; template data corrupt"
        )
    return perm


def torus_area(spec: QuotientSpec) -> tuple[int, str]:
    """Exact area of the quotient torus as (integer, factor tag): |det|
    cells, each of area 1 or sqrt(3)/2 in the unit-basis scaling."""
    return spec.mat.index(), template(spec.tiling).cell_area_factor
