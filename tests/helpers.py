"""Test-only constructions: maps from face lists, a face's vertices and
edges, corrupted templates, per-dart reference tables for quotient maps
and for the FlagMap constructor, the per-edge adjacency and per-vertex
local-isomorphism stages of verify_covering,
the per-face polyhedrality scan, the flag tables of a map and the flag
engine on them (isomorphisms, the whole automorphism group, one vertex
pair), the tiling group G/T read off the flag engine, the conversion
between flag lists and the library's (dart perm, reverses), the vertex
orbits of an orbit report, group-element arithmetic on automorphisms
given as flag or dart lists (the image of each), translations as
point-group elements, a coset system's coset indices and one vector per
coset, a quotient's vertex numbering and the per-vertex
descent of a tiling symmetry to it, a quotient's reverse table with two
edges crossed, lattices not in Hermite form, and the hypot scan that
derives a seed's neighbours."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from toricover import CoverCertificate, FlagMap, QuotientSpec, TilingId, build_quotient, template
from toricover.lattice import CosetSystem, SublatticeMat, cosets, scaled_identity
from toricover.symmetry import OrbitReport
from toricover.tilings import _MATCH_TOL, Dart, IVec, PointGroupElem, TilingTemplate, _order, _Seed, dihedral


def translation(tpl: TilingTemplate, delta: IVec) -> PointGroupElem:
    """Translation by delta (lattice coordinates) as an element with
    R = I: it fixes every rep and slot and shifts every cell by delta."""
    reps = range(tpl.rep_count)
    return PointGroupElem(
        name=f"translation{delta}",
        kind="translation",
        order=0,  # infinite on the tiling
        sigma=tuple(reps),
        matrix=((1, 0), (0, 1)),
        shifts=(delta,) * tpl.rep_count,
        slot_maps=tuple(tuple(range(tpl.degree)) for _ in reps),
    )


# Lattices given by a matrix that is not their Hermite form.
NON_HERMITE_MATS = [
    SublatticeMat(1, -2, 3, 1),
    SublatticeMat(2, 1, 2, 4),
    SublatticeMat(-3, 2, 1, 2),
    SublatticeMat(0, 3, 2, 1),
    SublatticeMat(4, -1, -2, -3),
]


def index_of(cs: CosetSystem, vec: IVec) -> int:
    """The index i·s2 + j of vec's coset, (i, j) its Smith-box coordinates."""
    i, j = cs.box_coords(vec)
    return i * cs.s2 + j


def representatives(cs: CosetSystem) -> tuple[IVec, ...]:
    """One vector per coset, in index order: coset i·s2 + j is i·u + j·w,
    (u, w) the Smith generators."""
    (ux, uy), (wx, wy) = cs.gens
    return tuple((i * ux + j * wx, i * uy + j * wy) for i in range(cs.s1) for j in range(cs.s2))


def smith_generator_shifts(cs: CosetSystem) -> list[IVec]:
    """The Smith generators of a coset system, the vectors of box cells
    (1, 0) and (0, 1), where its box has such a cell."""
    return [gen for gen, side in zip(cs.gens, (cs.s1, cs.s2)) if side > 1]


def vertex_at(m: FlagMap, rep: int, cell: IVec) -> int:
    """The vertex (rep, cell mod K) of a map from build_quotient:
    rep·ncos + the coset index of cell."""
    cs = m.coset_system
    return rep * cs.size() + index_of(cs, cell)


def reference_descend(m: FlagMap, elem: PointGroupElem) -> tuple[list[int], bool]:
    """`cover.descend` vertex by vertex, with no checks: vertex v is
    (rep, cell) = (v // ncos, representative v % ncos), its image is
    looked up with `vertex_at`, and dart k of v goes to dart
    slot_maps[rep][k] of the image.  The oracle for descend."""
    cs = m.coset_system
    ncos, cells = cs.size(), representatives(cs)
    perm = [0] * m.n_darts
    for v, ds in enumerate(m.vertex_darts):
        r = v // ncos
        r2, w2 = elem.apply_vertex(r, cells[v % ncos])
        image = m.vertex_darts[vertex_at(m, r2, w2)]
        for d, k in zip(ds, elem.slot_maps[r]):
            perm[d] = image[k]
    return perm, elem.reverses_orientation


def crossed_reverses(x: FlagMap) -> list[int]:
    """x's reverse table with the reverses of its first two edges crossed,
    as broken coset bookkeeping would leave them."""
    (d1, d2), rev = x.edge_dart[:2], list(x.dart_rev)
    r1, r2 = rev[d1], rev[d2]
    rev[d1], rev[r2], rev[d2], rev[r1] = r2, d1, r1, d2
    return rev


def face_vertices(m: FlagMap, f: int) -> tuple[int, ...]:
    """The tails of face f's darts, in walk order from its smallest."""
    return tuple(map(m.dart_vertex.__getitem__, m.face_walk(f)))


def face_edges(m: FlagMap, f: int) -> tuple[int, ...]:
    """The edges of face f's darts, in walk order from its smallest."""
    return tuple(map(m.dart_edge.__getitem__, m.face_walk(f)))


def from_faces(faces: list[list[int]]) -> FlagMap:
    """Build a map from counterclockwise face boundaries.

    Each face is a vertex cycle; every directed edge must occur exactly
    once over all faces, and the darts at each vertex must close into a
    single rotation (disc neighborhoods).
    """
    darts = []  # (tail, head, face, position)
    for fi, cycle in enumerate(faces):
        n = len(cycle)
        for i, v in enumerate(cycle):
            darts.append((v, cycle[(i + 1) % n], fi, i))
    by_arc: dict[tuple[int, int], list[int]] = {}
    for idx, (u, w, _, _) in enumerate(darts):
        by_arc.setdefault((u, w), []).append(idx)
    for arc, ids in by_arc.items():
        if len(ids) != 1:
            raise ValueError(f"directed edge {arc} occurs {len(ids)} times")
    rev = []
    for u, w, _, _ in darts:
        opp = by_arc.get((w, u))
        if opp is None:
            raise ValueError(f"directed edge {(w, u)} missing")
        rev.append(opp[0])

    # Next dart of a face, then rotation: cw(d) = next_face(rev(d)).
    face_index: dict[tuple[int, int], int] = {}
    for idx, (_, _, fi, pos) in enumerate(darts):
        face_index[(fi, pos)] = idx
    nd = len(darts)
    next_face = [0] * nd
    for idx, (_, _, fi, pos) in enumerate(darts):
        size = len(faces[fi])
        next_face[idx] = face_index[(fi, (pos + 1) % size)]
    cw = [next_face[rev[d]] for d in range(nd)]

    nv = 1 + max(max(cycle) for cycle in faces)
    tails: dict[int, list[int]] = {v: [] for v in range(nv)}
    for idx, (u, _, _, _) in enumerate(darts):
        tails[u].append(idx)
    vertex_darts = []
    for v in range(nv):
        ds = tails[v]
        if not ds:
            raise ValueError(f"vertex {v} occurs in no face")
        start = ds[0]
        cycle = [start]
        cur = cw[start]
        while cur != start:
            cycle.append(cur)
            if len(cycle) > len(ds):
                raise ValueError(f"rotation at vertex {v} does not close")
            cur = cw[cur]
        if len(cycle) != len(ds):
            raise ValueError(f"vertex {v} has a disconnected rotation (pinch point)")
        cycle.reverse()  # cw cycle reversed is the ccw rotation
        vertex_darts.append(tuple(cycle))
    return FlagMap(rev, vertex_darts)


def corrupt_dart(tpl: TilingTemplate, rep: int, slot: int, offset: IVec) -> TilingTemplate:
    """Copy of the template with one dart offset replaced."""
    darts = [list(d) for d in tpl.neighbors]
    s, _ = darts[rep][slot]
    darts[rep][slot] = (s, offset)
    return tpl._replace(neighbors=tuple(tuple(d) for d in darts))


def two_copies(tpl: TilingTemplate, tid: TilingId) -> TilingTemplate:
    """Two disjoint copies of the template's reps and darts, the second
    numbered after the first, labelled as tiling tid and with no point
    group: a template whose darts join its reps in two parts."""
    n = tpl.rep_count
    copy = tuple(tuple((s + n, offset) for s, offset in darts) for darts in tpl.neighbors)
    return tpl._replace(
        id=tid,
        rep_names=tpl.rep_names * 2,
        rep_pos=tpl.rep_pos * 2,
        neighbors=tpl.neighbors + copy,
        reverse_slots=tpl.reverse_slots * 2,
        point_group=(),
    )


def sheared(tpl: TilingTemplate) -> TilingTemplate:
    """The template with every offset (x, y) replaced by (x + y, y − x),
    a map of determinant 2, and no point group: its reps and darts, and so
    its faces, are unchanged, but its closed walks' offsets span only an
    index-2 sublattice, so its plane tiling has two components."""
    darts = tuple(tuple((s, (x + y, y - x)) for s, (x, y) in ds) for ds in tpl.neighbors)
    return tpl._replace(neighbors=darts, point_group=())


def reference_quotient(spec: QuotientSpec) -> tuple[tuple, list[int], list[int], list[tuple[int, ...]]]:
    """(labels, dart_vertex, dart_rev, vertex_darts) of the quotient,
    built dart by dart: every dart's head is looked up with
    `index_of`.  The oracle for build_quotient."""
    tpl = template(spec.tiling)
    cs = cosets(spec.mat)
    ncos = cs.size()
    deg = tpl.degree
    labels = tuple((r, w) for r in range(tpl.rep_count) for w in representatives(cs))
    dart_vertex = []
    dart_rev = []
    for v, (r, w) in enumerate(labels):
        for k in range(deg):
            s, (ox, oy) = tpl.neighbors[r][k]
            tv = s * ncos + index_of(cs, (w[0] + ox, w[1] + oy))
            dart_vertex.append(v)
            dart_rev.append(tv * deg + tpl.reverse_slots[r][k])
    vertex_darts = [tuple(range(v * deg, v * deg + deg)) for v in range(len(labels))]
    return labels, dart_vertex, dart_rev, vertex_darts


def reference_map_tables(dart_rev: list[int], vertex_darts: list[tuple[int, ...]]) -> dict[str, object]:
    """Every dart, edge and face table of the map with these reverse darts
    and rotations, built dart by dart: the constructor's loops from before
    it filled build_quotient's layout by columns.  The oracle for FlagMap."""
    nd = len(dart_rev)
    for d in range(nd):
        r = dart_rev[d]
        if r == d or not (0 <= r < nd) or dart_rev[r] != d:
            raise ValueError(f"reverse is not a fixed-point-free involution at dart {d}")
    vertex_darts = tuple(tuple(ds) for ds in vertex_darts)

    tail = [-1] * nd
    cw = [0] * nd
    for v, ds in enumerate(vertex_darts):
        if not ds:
            raise ValueError(f"vertex {v} has no darts")
        for i, d in enumerate(ds):
            if tail[d] >= 0:
                raise ValueError(f"dart {d} appears in two rotations")
            tail[d] = v
            cw[d] = ds[(i - 1) % len(ds)]
    if -1 in tail:
        raise ValueError(f"dart {tail.index(-1)} belongs to no vertex rotation")

    edge_of = [-1] * nd
    edge_dart = []
    for d in range(nd):
        if edge_of[d] < 0:
            e = len(edge_dart)
            edge_of[d] = edge_of[dart_rev[d]] = e
            edge_dart.append(d)

    nxt = list(map(cw.__getitem__, dart_rev))
    face_of = [-1] * nd
    face_darts = []
    for d in range(nd):
        if face_of[d] >= 0:
            continue
        f = len(face_darts)
        walk = []
        cur = d
        while face_of[cur] < 0:
            face_of[cur] = f
            walk.append(cur)
            cur = nxt[cur]
        if cur != d:
            raise ValueError(f"face trace from dart {d} did not close")
        face_darts.append(tuple(walk))

    return {
        "dart_rev": list(dart_rev),
        "vertex_darts": vertex_darts,
        "dart_vertex": tail,
        "dart_cw": cw,
        "dart_edge": edge_of,
        "edge_dart": edge_dart,
        "dart_face_left": face_of,
        "face_first": [w[0] for w in face_darts],
        "face_walk": [list(w) for w in face_darts],
        "face_sizes": tuple(len(w) for w in face_darts),
    }


def reference_adjacency(y: FlagMap, x: FlagMap, cert: CoverCertificate) -> str | None:
    """The failure message of verify_covering's adjacency stage, or None
    if the stage passes, decided edge by edge: the ends of each Y-edge
    must map onto the ends of its image, in either order.  The oracle for
    that stage."""
    vm, em = cert.vertex_map, cert.edge_map
    for e in range(y.n_edges):
        u, w = y.edge_endpoints(e)
        xu, xw = x.edge_endpoints(em[e])
        if sorted((vm[u], vm[w])) != sorted((xu, xw)):
            return f"adjacency: edge {e} endpoints map to non-endpoints"
    return None


def reference_local_isomorphism(y: FlagMap, x: FlagMap, cert: CoverCertificate) -> str | None:
    """The failure message of verify_covering's local-isomorphism stage,
    or None if the stage passes, decided vertex by vertex: the stage's
    loop from before it compared whole columns first.  Each Y-cycle of
    (edge, face) pairs is compared with its image's cycle as is, then
    looked up among every rotation and reflection of it.  The oracle for
    that stage."""
    vm, em, fm = cert.vertex_map, cert.edge_map, cert.face_map
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


def reference_flag_tables(m: FlagMap) -> dict[str, list[int]]:
    """The flag involutions s0, s1, s2 and the flag incidences
    flag_vertex, flag_face, filled flag by flag, with ccw and cw read off
    the rotations, not off the map's cw table.  The flag engine below
    runs on them, so it shares no code with the library's dart engine.

    Flag 2d + s is dart d with side s: side 0 the face left of the dart,
    side 1 the face right of it.  The involutions have closed forms:

        s0 (change vertex): 2d + s  ->  2 rev(d) + (1 - s)
        s1 (change edge):   2d + 0  ->  2 ccw(d) + 1,   2d + 1  ->  2 cw(d) + 0
        s2 (change face):   2d + s  ->  2d + (1 - s)

    so s0 and s2 are fixed-point-free involutions that commute by
    construction.  Flag 2d + s has d's tail, and the face left of d
    (s = 0) or of rev(d) (s = 1)."""
    nf = m.n_flags
    ccw, cw = [0] * m.n_darts, [0] * m.n_darts
    for ds in m.vertex_darts:
        for i, d in enumerate(ds):
            ccw[d], cw[d] = ds[(i + 1) % len(ds)], ds[i - 1]
    t = {name: [0] * nf for name in ("s0", "s1", "s2", "flag_vertex", "flag_face")}
    for d in range(m.n_darts):
        rd = m.dart_rev[d]
        t["s0"][2 * d], t["s0"][2 * d + 1] = 2 * rd + 1, 2 * rd
        t["s1"][2 * d], t["s1"][2 * d + 1] = 2 * ccw[d] + 1, 2 * cw[d]
        t["s2"][2 * d], t["s2"][2 * d + 1] = 2 * d + 1, 2 * d
        t["flag_vertex"][2 * d] = t["flag_vertex"][2 * d + 1] = m.dart_vertex[d]
        t["flag_face"][2 * d], t["flag_face"][2 * d + 1] = m.dart_face_left[d], m.dart_face_left[rd]
    return t


def to_flags(perm: list[int], reverses: bool) -> list[int]:
    """The flag list of the automorphism (perm, reverses) of the library:
    2d + s -> 2 perm[d] + (s XOR reverses)."""
    return [2 * perm[x >> 1] + ((x & 1) ^ reverses) for x in range(2 * len(perm))]


def to_darts(g: list[int]) -> tuple[list[int], bool]:
    """(perm, reverses) of an automorphism given as a flag list."""
    return [x >> 1 for x in g[0::2]], bool(g[0] & 1)


_MAX_VIOLATIONS = 20


def _edge_key(m: FlagMap, e: int) -> tuple[int, int] | None:
    """The sorted endpoints of edge e, or None if e is a loop; two
    edges with one key are parallel."""
    u, w = m.edge_endpoints(e)
    if u == w:
        return None
    return (u, w) if u < w else (w, u)


def _face_sets(m: FlagMap, f: int) -> tuple[frozenset[int], frozenset[int], bool]:
    """Vertex set, edge set and simplicity (no repeated vertex or edge)
    of face f."""
    vs = face_vertices(m, f)
    es = face_edges(m, f)
    simple = len(set(vs)) == len(vs) and len(set(es)) == len(es)
    return frozenset(vs), frozenset(es), simple


def _faces_meet_properly(m: FlagMap, vf, ef, vg, eg) -> bool:
    """Two faces share nothing, one vertex, or one edge and its two ends."""
    shared_e = ef & eg
    if not shared_e:
        return len(vf & vg) <= 1
    if len(shared_e) == 1:
        (e,) = shared_e
        return vf & vg == set(m.edge_endpoints(e))
    return False


def full_scan(m: FlagMap) -> tuple[bool, tuple[tuple[str, tuple[int, ...]], ...]]:
    """(ok, violations) of every rule at every face, edge and face pair,
    listing up to _MAX_VIOLATIONS violations.  The reference for
    is_polyhedral: it walks faces, edges and face pairs, not vertices."""
    violations: list[tuple[str, tuple[int, ...]]] = []

    def add(kind: str, cells: tuple[int, ...]) -> bool:
        violations.append((kind, cells))
        return len(violations) >= _MAX_VIOLATIONS

    for f, size in enumerate(m.face_sizes):
        if size < 3:
            if add("face-too-small", (f,)):
                return False, tuple(violations)

    face_vsets = []
    face_esets = []
    for f in range(m.n_faces):
        vs, es, simple = _face_sets(m, f)
        if not simple:
            if add("face-not-simple", (f,)):
                return False, tuple(violations)
        face_vsets.append(vs)
        face_esets.append(es)

    seen_pairs: dict[tuple[int, int], int] = {}
    for e in range(m.n_edges):
        key = _edge_key(m, e)
        if key is None:
            if add("loop-edge", (e,)):
                return False, tuple(violations)
            continue
        if key in seen_pairs:
            if add("multi-edge", (seen_pairs[key], e)):
                return False, tuple(violations)
        else:
            seen_pairs[key] = e

    # Candidate face pairs: those sharing at least one vertex.
    incident: dict[int, set[int]] = {}
    for f in range(m.n_faces):
        for v in face_vsets[f]:
            incident.setdefault(v, set()).add(f)
    pairs = set()
    for fs in incident.values():
        fl = sorted(fs)
        for i, f in enumerate(fl):
            for g in fl[i + 1 :]:
                pairs.add((f, g))
    for f, g in sorted(pairs):
        if _faces_meet_properly(m, face_vsets[f], face_esets[f], face_vsets[g], face_esets[g]):
            continue
        if add("face-pair", (f, g)):
            return False, tuple(violations)

    return not violations, tuple(violations)


def isomorphism_extension(src: FlagMap, dst: FlagMap, base: int, target: int) -> list[int] | None:
    """The unique involution-equivariant extension of base -> target from
    src to dst, or None when no isomorphism takes base to target, on the
    maps' `reference_flag_tables`."""
    if dst.n_flags != src.n_flags:
        return None
    return _extend(reference_flag_tables(src), reference_flag_tables(dst), base, target)


def _extend(ta: dict, tb: dict, base: int, target: int) -> list[int] | None:
    """isomorphism_extension on the two maps' flag tables."""
    n = len(ta["s0"])
    pairs = [(ta[s], tb[s]) for s in ("s0", "s1", "s2")]
    img = [-1] * n
    used = bytearray(n)
    img[base] = target
    used[target] = 1
    stack = [base]
    while stack:
        x = stack.pop()
        gx = img[x]
        for sa, sb in pairs:
            y = sa[x]
            gy = sb[gx]
            iy = img[y]
            if iy < 0:
                if used[gy]:
                    return None
                img[y] = gy
                used[gy] = 1
                stack.append(y)
            elif iy != gy:
                return None
    return img


def _flag_keys(m: FlagMap, t: dict) -> list[tuple[int, int]]:
    """Per flag, its vertex's degree and its face's size: an isomorphism
    keeps both, so a target whose key differs from the base's is not
    tried."""
    return [(len(m.vertex_darts[v]), m.face_sizes[f]) for v, f in zip(t["flag_vertex"], t["flag_face"])]


def _extensions(src: FlagMap, dst: FlagMap, base: int, targets: Iterable[int]) -> Iterator[list[int]]:
    """The extensions of base -> target that succeed, over the targets in
    order; a target whose key differs from base's is not tried."""
    ta = reference_flag_tables(src)
    tb = ta if dst is src else reference_flag_tables(dst)
    key, keys = _flag_keys(src, ta)[base], _flag_keys(dst, tb)
    for target in targets:
        if keys[target] == key and (img := _extend(ta, tb, base, target)) is not None:
            yield img


def are_isomorphic(m1: FlagMap, m2: FlagMap) -> list[int] | None:
    """A flag bijection m1 -> m2 commuting with the involutions, if any."""
    if m1.n_flags != m2.n_flags:
        return None
    return next(_extensions(m1, m2, 0, range(m2.n_flags)), None)


def exists_automorphism_mapping(m: FlagMap, v0: int, v1: int) -> bool:
    """Direct search for an automorphism with v0 -> v1 on the flag
    tables; an independent code path from the orbit machinery."""
    base = 2 * m.vertex_darts[v0][0]
    targets = [x for d in m.vertex_darts[v1] for x in (2 * d, 2 * d + 1)]
    return next(_extensions(m, m, base, targets), None) is not None


def vertex_orbits(m: FlagMap, report: OrbitReport) -> tuple[tuple[int, ...], ...]:
    """The vertex orbits of a report on m: the vertices r·ncos + c of
    each rep r of a rep orbit, c over the cosets (build_quotient's
    numbering; ncos = 1 without a coset system)."""
    ncos = 1 if m.coset_system is None else m.coset_system.size()
    return tuple(tuple(v for r in orbit for v in range(r * ncos, (r + 1) * ncos)) for orbit in report.rep_orbits)


def automorphism_group(m: FlagMap) -> list[list[int]]:
    """All automorphisms as flag lists, ordered by the image of flag 0.
    Shares no pruning with the orbit scan, so each can check the other."""
    return list(_extensions(m, m, 0, range(m.n_flags)))


# The probe quotient for the flag-engine G/T: every element has a
# representative whose per-rep shifts lie in [-2, 2], so they survive
# reduction mod 5.
_PROBE_SCALE = 5


def probe_point_group(tiling: TilingId) -> list[PointGroupElem]:
    """Every element of G/T read off the flag engine, with shifts[0] =
    (0, 0): one extension of flag 0 per translation class of T/(5·I)
    gives one automorphism per element.  Its sigma, slot maps and shifts
    (lifted to [-2, 2]) are read at the reps of cell (0, 0), R from
    g t_w g^-1 = t_(Rw), and the order with `tilings._order`.  Shares no
    code with the geometry that `full_point_group` reads the group off,
    so it is the oracle for that group's completeness."""
    n, deg = _PROBE_SCALE, template(tiling).degree
    m = build_quotient(QuotientSpec(tiling, scaled_identity(n)))
    cells = representatives(m.coset_system)
    ncos, cell = n * n, 2 * deg
    # The first flag of each translation class: flag (rep, slot, side) of
    # coset 0, since vertex (rep, coset) is rep·ncos + coset.
    firsts = [c // cell * cell * ncos + c % cell for c in range(m.n_flags // ncos)]
    flag_vertex = reference_flag_tables(m)["flag_vertex"]

    def cell_of(flag: int) -> tuple[int, int]:
        return tuple((x + n // 2) % n - n // 2 for x in cells[flag_vertex[flag] % ncos])

    elems = []
    for img in _extensions(m, m, 0, firsts):
        # Flag 0 goes to cell (0, 0), so the cells of the images of
        # (0, e1) and (0, e2) are R's columns.
        rows = [img[2 * v * deg : 2 * (v + 1) * deg : 2] for v in range(0, m.n_vertices, ncos)]
        cols = [cell_of(img[2 * vertex_at(m, 0, e) * deg]) for e in ((1, 0), (0, 1))]
        elem = PointGroupElem(
            name=f"g{len(elems)}",
            kind="",
            order=0,
            sigma=tuple(row[0] // (2 * deg * ncos) for row in rows),
            matrix=tuple(zip(*cols)),
            shifts=tuple(cell_of(row[0]) for row in rows),
            slot_maps=tuple(tuple(x // 2 % deg for x in row) for row in rows),
        )
        kind = "reflection" if elem.reverses_orientation else "rotation"
        elems.append(elem._replace(kind=kind, order=_order(elem)))
    return elems


def compose(g: list[int], h: list[int]) -> list[int]:
    """g after h."""
    return [g[x] for x in h]


def is_identity(g: list[int]) -> bool:
    return all(i == x for i, x in enumerate(g))


def inverse(g: list[int]) -> list[int]:
    inv = [0] * len(g)
    for i, x in enumerate(g):
        inv[x] = i
    return inv


def order(g: list[int]) -> int:
    n, cur = 1, g
    while not is_identity(cur):
        cur, n = compose(cur, g), n + 1
    return n


def reference_neighbors(seed: _Seed) -> tuple[tuple[Dart, ...], ...]:
    """Per rep, the darts to every vertex at distance 1 within two cells,
    sorted by angle: one hypot per rep pair and cell offset.  The oracle
    for tilings._derive_neighbors."""
    out = []
    span = range(-2, 3)
    for rp in seed.reps:
        darts: list[tuple[float, Dart]] = []
        for j, other in enumerate(seed.reps):
            for ia in span:
                for ib in span:
                    qx = other[0] + ia * seed.basis_a[0] + ib * seed.basis_b[0]
                    qy = other[1] + ia * seed.basis_a[1] + ib * seed.basis_b[1]
                    dx, dy = qx - rp[0], qy - rp[1]
                    if abs(math.hypot(dx, dy) - 1.0) < _MATCH_TOL:
                        angle = math.atan2(dy, dx) % (2.0 * math.pi)
                        darts.append((angle, (j, (ia, ib))))
        darts.sort(key=lambda t: t[0])
        out.append(tuple(d for _, d in darts))
    return tuple(out)
