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
from itertools import islice
from operator import eq
from typing import NamedTuple

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


class CoverCertificate(NamedTuple):
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


# The keys of the certificate ("") and of its two nested objects: all
# required and no others, as in schemas/certificate.schema.json.
CERTIFICATE_KEYS = {
    "": frozenset(("tiling", "M", "m", "n", "area", "vertex_map", "edge_map", "face_map", "polyhedral")),
    "area": frozenset(("value", "factor")),
    "polyhedral": frozenset(("X", "Y")),
}


def _object(value, level: str) -> dict:
    """value if it is an object with no key outside CERTIFICATE_KEYS[level]."""
    if type(value) is not dict:
        raise ValueError(f"{level or 'certificate'} must be a JSON object")
    for key in value:
        if key not in CERTIFICATE_KEYS[level]:
            raise ValueError(f"unknown key {key!r} in {level or 'certificate'}")
    return value


def certificate_from_dict(data: dict) -> CoverCertificate:
    """Parse a certificate strictly: integers must be JSON integers, the
    polyhedral claims JSON booleans, and no object may hold a key the
    schema does not list."""
    try:
        _object(data, "")
        tiling = parse_tiling(_typed(data["tiling"], str, "tiling"))
        a, b, c, d = _int_list(data["M"], "M")
        exponent = _typed(data["m"], int, "m")
        area, polyhedral = _object(data["area"], "area"), _object(data["polyhedral"], "polyhedral")
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
    """Build (Y, X, certificate) for the r-th cover in one pass.

    The certificate is read off the dart projection (`_dart_projection`)
    of the vertex map and is not checked here: a caller that trusts it
    runs verify_covering on (Y, X, certificate), as `vt_cover` and every
    CLI command do, and that check is the only one per cover."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    m_exp = cover_exponent(spec.mat) * r
    cover_mat = scaled_identity(m_exp)
    y, x = quotient_pair(spec.tiling, spec.mat, cover_mat)
    fold = r * r * fold_index(spec.mat)

    # Both maps list vertex v's darts as v·deg … v·deg+deg−1 (`slot_degree`),
    # so slot k of every vertex is the dart column k::deg.
    deg = x.slot_degree
    # Both maps number vertices rep-major (build_quotient), so the Y-vertex
    # (rep, c) goes to X's vertex rep * |det| + (X's index of the cell c):
    # the cell map of R = I from Y's cosets to X's (m·Z² ⊆ K).  The vertex
    # map holds X's own int objects, not a fresh int per Y cell: X's
    # vertex v is x.dart_vertex[v·deg].
    xs = x.coset_system
    cells = y.coset_system.cell_map(xs)
    ncos = xs.size()
    x_vertices = x.dart_vertex[::deg]
    vmap = []
    for start in range(0, x.n_vertices, ncos):  # X's vertices of one rep
        vmap += map(x_vertices[start : start + ncos].__getitem__, cells)
    dmap = _dart_projection(y, x, vmap)

    # The projection commutes with cw (the layout) and, when the template
    # and coset bookkeeping are sound, with rev, so with the face
    # permutation cw∘rev: an edge goes where its smaller dart's edge goes,
    # and a face where its first dart's face goes.  Nothing is checked
    # here; verify_covering checks the certificate.
    emap = list(map(x.dart_edge.__getitem__, map(dmap.__getitem__, y.edge_dart)))
    first = map(y.face_walks.__getitem__, islice(y.face_offsets, y.n_faces))
    fmap = list(map(x.dart_face_left.__getitem__, map(dmap.__getitem__, first)))

    area_value, area_factor = torus_area(spec)
    cert = CoverCertificate(
        tiling=spec.tiling,
        base_mat=spec.mat,
        exponent=m_exp,
        fold=fold,
        cover_mat=cover_mat,
        vertex_map=tuple(vmap),
        edge_map=tuple(emap),
        face_map=tuple(fmap),
        area_value=area_value,
        area_factor=area_factor,
        base_polyhedral=x.polyhedral,
        cover_polyhedral=y.polyhedral,
    )
    return y, x, cert


def _dart_projection(y: FlagMap, x: FlagMap, vm) -> list[int]:
    """The dart map that sends dart k of Y-vertex v to dart k of X-vertex
    vm[v], for two maps in build_quotient's layout with one degree deg
    (`slot_degree`): Y's dart v·deg + k goes to vm[v]·deg + k.  One
    slice assignment per slot, and the images are X's own int objects:
    X's dart u·deg + k is the cw successor of its dart u·deg + k + 1."""
    deg = y.slot_degree
    dmap = [0] * y.n_darts
    for k in range(deg):
        dmap[k::deg] = map(x.dart_cw[(k + 1) % deg :: deg].__getitem__, vm)
    return dmap


def quotient_pair(
    tiling: TilingId, base_mat: SublatticeMat, cover_mat: SublatticeMat
) -> tuple[FlagMap, FlagMap]:
    """(Y, X): the quotients of the tiling by cover_mat and by base_mat.
    build_quotient is deterministic, so when the two matrices are equal
    (M = m·I, fold 1) one map is both, built once."""
    x = build_quotient(QuotientSpec(tiling, base_mat))
    y = x if cover_mat == base_mat else build_quotient(QuotientSpec(tiling, cover_mat))
    return y, x


def vt_cover(spec: QuotientSpec, r: int = 1) -> tuple[QuotientSpec, CoverCertificate]:
    """The vertex-transitive cover Y of X = quotient(spec); r > 1 gives
    the r-th member of the infinite cover family (scale r*m).  The
    certificate is checked with verify_covering (one accept-only pass on
    an honest certificate), and a failure raises AssertionError with the
    report's failure message."""
    y, x, cert = cover_maps(spec, r=r)
    report = verify_covering(y, x, cert)
    if not report.ok:
        raise AssertionError(report.failure)
    return QuotientSpec(spec.tiling, cert.cover_mat), cert


class VerifyReport(NamedTuple):
    ok: bool
    failure: str | None
    checks_passed: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "failure": self.failure,
            "checks_passed": list(self.checks_passed),
        }


# verify_covering's stages, in the order they run.
_STAGES = ("arithmetic", "shape", "fibers", "adjacency", "faces", "local-isomorphism")


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

    After the arithmetic, one accept-only pass (`_projection_covers`)
    reads each certificate table once as a whole table.  When it
    succeeds, every other stage passes, and the report says so; only when
    it fails do the five stages run one by one, so every failing verdict,
    message and list of stages passed is theirs.  The stages run edge by
    edge (`_adjacency_failure`) and vertex by vertex (`_local_failure`).
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

    if _projection_covers(y, x, cert):
        return VerifyReport(ok=True, failure=None, checks_passed=_STAGES)

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
        del fibers  # freed before the next table is counted, not after
    passed.append("fibers")

    vm, em, fm = cert.vertex_map, cert.edge_map, cert.face_map
    failure = _adjacency_failure(y, x, vm, em)
    if failure:
        return fail(failure)
    passed.append("adjacency")

    f = next((f for f in range(y.n_faces) if x.face_sizes[fm[f]] != y.face_sizes[f]), None)
    if f is not None:
        return fail(f"faces: face {f} changes size under the projection")
    for claim, m, name in ((cert.base_polyhedral, x, "X"), (cert.cover_polyhedral, y, "Y")):
        if claim != m.polyhedral:
            return fail(f"faces: certificate claims {name} polyhedral={claim}, but it is {m.polyhedral}")
    passed.append("faces")

    failure = _local_failure(y, x, vm, em, fm)
    if failure:
        return fail(failure)
    passed.append("local-isomorphism")

    return VerifyReport(ok=True, failure=None, checks_passed=tuple(passed))


def _projection_covers(y: FlagMap, x: FlagMap, cert: CoverCertificate) -> bool:
    """Whether the certificate's tables are those of a covering, decided
    by the dart projection (`_dart_projection`) with each table read once
    as a whole table; False says only that the stages must decide.

    It needs both maps in build_quotient's layout with one degree deg
    (`slot_degree`), so that the projection commutes with cw.  Then:
    the three table lengths; the vertex map in range (a negative entry
    would index from the end); Y with n times X's darts; the projection
    commuting with rev, compared at each Y edge's smaller dart d only
    (both reverses are involutions, so the equation at d gives it at
    rev d); the edge map equal to the induced one, each Y edge to the
    edge of its smaller dart's image; the face map equal to the induced
    one, read at each Y face's first dart; and equal face sizes and true
    polyhedral claims.

    That is every stage after the arithmetic.  The edge and face maps
    are in range because they equal X's own tables.  A dart map that
    commutes with cw and rev sends the preimages of an X dart d one to
    one onto those of cw d and of rev d, so on a connected X every dart
    has the same number of preimages, n by the dart count: each X
    vertex, edge (its two darts) and face (its darts, over Y faces of
    its size) then has n.  The projection sends every Y dart's edge and
    face where the edge and face maps say, so each Y edge's ends map
    onto its image's, and every Y-vertex's cycle is its image's, slot by
    slot."""
    deg = y.slot_degree
    vm, em, fm = cert.vertex_map, cert.edge_map, cert.face_map
    if (
        deg is None
        or deg != x.slot_degree
        or (len(vm), len(em), len(fm)) != (y.n_vertices, y.n_edges, y.n_faces)
        or min(vm) < 0
        or max(vm) >= x.n_vertices
        or y.n_darts != cert.fold * x.n_darts
    ):
        return False
    dmap = _dart_projection(y, x, vm)
    ys = y.edge_dart
    first = map(y.face_walks.__getitem__, islice(y.face_offsets, y.n_faces))
    return (
        all(map(eq, map(dmap.__getitem__, map(y.dart_rev.__getitem__, ys)),
                map(x.dart_rev.__getitem__, map(dmap.__getitem__, ys))))
        and all(map(eq, map(x.dart_edge.__getitem__, map(dmap.__getitem__, ys)), em))
        and all(map(eq, map(x.dart_face_left.__getitem__, map(dmap.__getitem__, first)), fm))
        and all(map(eq, map(x.face_sizes.__getitem__, fm), y.face_sizes))
        and cert.base_polyhedral == x.polyhedral
        and cert.cover_polyhedral == y.polyhedral
    )


def _adjacency_failure(y: FlagMap, x: FlagMap, vm, em) -> str | None:
    """verify_covering's adjacency stage edge by edge: the failure
    message for the first Y-edge whose ends do not map onto the ends of
    its image edge, or None."""
    ytail, yrev, xtail, xrev, xedge = y.dart_vertex, y.dart_rev, x.dart_vertex, x.dart_rev, x.edge_dart
    for e, d in enumerate(y.edge_dart):
        xd = xedge[em[e]]
        u, w, xu, xw = vm[ytail[d]], vm[ytail[yrev[d]]], xtail[xd], xtail[xrev[xd]]
        if not ((u == xu and w == xw) or (u == xw and w == xu)):
            return f"adjacency: edge {e} endpoints map to non-endpoints"
    return None


def _local_failure(y: FlagMap, x: FlagMap, vm, em, fm) -> str | None:
    """verify_covering's local-isomorphism stage vertex by vertex: each
    Y-cycle of (edge, face) pairs is compared with its image's cycle as
    is, then looked up among every rotation and reflection of the image's
    cycle, a set built once per X-vertex.  The failure message for the
    first Y-vertex whose cycle matches none of them, or None."""
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
            return f"local: face-cycle at vertex {v} does not match vertex {xv}"
    return None


def descend(m: FlagMap, elem: PointGroupElem) -> tuple[list[int], bool]:
    """The map automorphism of X = tiling / K, a map from build_quotient,
    induced by a tiling symmetry, as (perm, reverses): the image of each
    dart, and whether it reverses orientation (the element does).

    Defined exactly when R maps K into itself (then R K = K, since R is
    unimodular), so that the action on Z^2 / K is well defined:
    translations (R = I) descend to every quotient, and every point
    symmetry to scalar ones.  The result is verified with
    `is_automorphism`; a failure there would mean corrupt template data
    and raises.
    """
    cs, deg = m.coset_system, m.slot_degree
    if cs is None or deg is None:
        raise ValueError("descend needs a map from build_quotient")
    if not cs.mat.preserved_by(elem.matrix):
        raise ValueError(f"{elem.name} does not preserve the lattice of {cs.mat.as_tuple()}")
    # In build_quotient's layout the element sends (r, w) to
    # (sigma[r], R·w + shifts[r]) and slot k to slot_maps[r][k], so the
    # dart column (r, k) goes to the column (sigma[r], slot_maps[r][k]),
    # its cosets moved by rep r's cell map.  The images are the map's own
    # ints: dart u·deg + k is the cw successor of dart u·deg + k + 1.
    block = cs.size() * deg  # the darts of one rep
    perm = [0] * m.n_darts
    for r, (t, shift, slots) in enumerate(zip(elem.sigma, elem.shifts, elem.slot_maps)):
        cells = cs.cell_map(cs, elem.matrix, shift)
        for k, k2 in enumerate(slots):
            column = m.dart_cw[t * block + (k2 + 1) % deg : (t + 1) * block : deg]
            perm[r * block + k : (r + 1) * block : deg] = map(column.__getitem__, cells)

    if not is_automorphism(m, perm, elem.reverses_orientation):
        raise RuntimeError(
            f"descended {elem.name} is not a map automorphism; template data corrupt"
        )
    return perm, elem.reverses_orientation


def torus_area(spec: QuotientSpec) -> tuple[int, str]:
    """Exact area of the quotient torus as (integer, factor tag): |det|
    cells, each of area 1 or sqrt(3)/2 in the unit-basis scaling."""
    return spec.mat.index(), template(spec.tiling).cell_area_factor
