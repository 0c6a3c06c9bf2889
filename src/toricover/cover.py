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
from operator import countOf
from typing import NamedTuple

from .lattice import (
    SublatticeMat,
    contains_scaled_identity,
    cover_exponent,
    fold_index,
    is_scaled_identity,
    scaled_identity,
)
from .map_core import FlagMap, QuotientSpec, _box_shift, _dart_projection, _gather, _number_columns, _translation_maps
from .map_core import _vertex_projection, build_quotient, is_automorphism
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
    if type(value) is not list or countOf(map(type, value), int) != len(value):
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

    vmap, dmap = _translation_maps(y, x, (0, 0))  # m·Z² ⊆ K

    # The projection commutes with cw (the layout) and, when the template
    # and coset bookkeeping are sound, with rev, so with the face
    # permutation cw∘rev: an edge goes where its smaller dart's edge goes,
    # and a face where its first dart's face goes.  Nothing is checked
    # here; verify_covering checks the certificate.
    emap = _gather(x.dart_edge, _gather(dmap, y.edge_dart))
    fmap = _gather(x.dart_face_left, _gather(dmap, y.face_first))

    area_value, area_factor = torus_area(spec)
    cert = CoverCertificate(
        tiling=spec.tiling,
        base_mat=spec.mat,
        exponent=m_exp,
        fold=fold,
        cover_mat=cover_mat,
        vertex_map=vmap,
        edge_map=emap,
        face_map=fmap,
        area_value=area_value,
        area_factor=area_factor,
        base_polyhedral=x.polyhedral,
        cover_polyhedral=y.polyhedral,
    )
    return y, x, cert


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
    reads each certificate table once, one template class at a time.  When it
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
    by the dart projection of the vertex map, dart (v, k) to dart
    (vm[v], k) (`_dart_projection`); False says only that the stages must
    decide.  No dart map is built: Y is build_quotient's T/(m·I), a
    template edge or face class moved by each coset c of its Smith box,
    so each equation is read once per class, over the cosets, by C-level
    gathers (`_gather`) of one class column each, compared as tuples.

    It needs Y from build_quotient (a coset system) and X in its layout
    with the same degree deg (`slot_degree`), so that the projection
    commutes with cw.  X's dart (u, k) is the int of X's pool column k
    at u, so the images of Y's darts (r, c, k) over c are that column
    gathered at the vertex map's block of rep r.  Then: the three table
    lengths; the vertex map in range (a negative entry would index from
    the end); Y with n times X's darts; for each template edge (r, k) ->
    (s, k2) with box offset o, whose darts (r, c, k) and (s, c + o, k2)
    are the Y edge (class, c), the projection commuting with rev there,
    X's pool column k2 at the vertex map's block of rep s turned by o
    (`_box_shift`) equal to X's reverses of the images of (r, c, k)
    (both reverses are involutions, so the equation at one dart of an
    edge gives it at the other); the edge map, read at the class's number
    column (`_number_columns`), equal to X's edges of those images; for
    each face class, at the darts (r, c, k) of its position (r, (0, 0), k)
    at its least rep r, the face map, read at its number column, equal to
    X's faces of those darts' images, which are then X's own face numbers,
    so in range, each of the class's size; and true polyhedral claims.

    That is every stage after the arithmetic.  Every Y edge and face is
    one (class, c), so each is read once, and the edge and face maps are
    in range because they equal X's own tables.  A dart map that commutes
    with cw and rev commutes with the face walk d -> cw(rev(d)), so it
    sends every dart of a Y face into the X face of one of them, and both
    darts of a Y edge into one X edge.  It sends the preimages of an X
    dart d one to one onto those of cw d and of rev d, so on a connected
    X every dart has the same number of preimages, n by the dart count:
    each X vertex, edge (its two darts) and face (its darts, over Y faces
    of its size) then has n.  The projection sends every Y dart's edge
    and face where the edge and face maps say, so each Y edge's ends map
    onto its image's, and every Y-vertex's cycle is its image's, slot by
    slot.

    X is connected because every FlagMap is.  A map from build_quotient
    is T/K, the image of the plane tiling T, which validate_template
    proves connected once per tiling (its darts join every rep and its
    closed walks' offsets span Z²), so FlagMap runs no union-find on it;
    any other map has passed that union-find in its constructor."""
    deg, cs = y.slot_degree, y.coset_system
    vm, em, fm = cert.vertex_map, cert.edge_map, cert.face_map
    if (
        cs is None
        or deg != x.slot_degree
        or (len(vm), len(em), len(fm)) != (y.n_vertices, y.n_edges, y.n_faces)
        or min(vm) < 0
        or max(vm) >= x.n_vertices
        or y.n_darts != cert.fold * x.n_darts
    ):
        return False
    s1, s2, ncos = cs.s1, cs.s2, cs.size()
    # Y's number columns first: at fold 1 X is Y, and reading X's edge and
    # face tables below drops a lazy map's columns.
    edges, faces = _number_columns(y, faces=False), _number_columns(y, faces=True)
    pool = [x._ids[k::deg] for k in range(deg)]
    xrev, xedge, xface, xsizes = x.dart_rev, x.dart_edge, x.dart_face_left, x.face_sizes

    def images(r: int, k: int) -> tuple:  # X's darts of Y's darts (r, c, k), over c
        return _gather(pool[k], vm[r * ncos : (r + 1) * ncos])

    def read(table, column) -> tuple:  # table at the numbers of (class, c), over c
        src, first, step = column
        return _gather(table, src[first : first + step * ncos : step])

    for ((r, _, _), (s, offset, k2)), k, column in edges:
        ds = images(r, k)
        turned = _box_shift(list(vm[s * ncos : (s + 1) * ncos]), 0, 1, s1, s2, *cs.box_coords(offset))
        if _gather(xrev, ds) != _gather(pool[k2], turned) or _gather(xedge, ds) != read(em, column):
            return False
    for walk, k, column in faces:
        left = _gather(xface, images(walk[0][0], k))
        if left != read(fm, column) or countOf(_gather(xsizes, left), len(walk)) != ncos:
            return False
    return cert.base_polyhedral == x.polyhedral and cert.cover_polyhedral == y.polyhedral


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
    symmetry to scalar ones.  The dart map is map_core's projection pair
    (`_vertex_projection`, `_dart_projection`) from the map to itself, one
    block per rep.  The result is verified with `is_automorphism`; a
    failure there would mean corrupt template data and raises.
    """
    cs = m.coset_system
    if cs is None:
        raise ValueError("descend needs a map from build_quotient")
    if not cs.mat.preserved_by(elem.matrix):
        raise ValueError(f"{elem.name} does not preserve the lattice of {cs.mat.as_tuple()}")
    perm = _dart_projection(m, m, _vertex_projection(m, m, elem.sigma, elem.matrix, elem.shifts), elem.slot_maps)

    if not is_automorphism(m, perm, elem.reverses_orientation):
        raise RuntimeError(
            f"descended {elem.name} is not a map automorphism; template data corrupt"
        )
    return perm, elem.reverses_orientation


def torus_area(spec: QuotientSpec) -> tuple[int, str]:
    """Exact area of the quotient torus as (integer, factor tag): |det|
    cells, each of area 1 or sqrt(3)/2 in the unit-basis scaling."""
    return spec.mat.index(), template(spec.tiling).cell_area_factor
