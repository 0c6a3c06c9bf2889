"""Test-only constructions: maps from face lists, corrupted templates,
per-dart reference tables for quotient maps and for the FlagMap
constructor, the per-vertex local-isomorphism stage of verify_covering,
the per-face polyhedrality scan, the whole automorphism group, and
group-element arithmetic on automorphisms given as flag lists (the
image of each flag)."""

from __future__ import annotations

from dataclasses import replace

from toricover import CoverCertificate, FlagMap, QuotientSpec, template
from toricover.lattice import cosets
from toricover.symmetry import _extensions
from toricover.tilings import IVec, TilingTemplate, dihedral


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
    return replace(tpl, neighbors=tuple(tuple(d) for d in darts))


def reference_quotient(spec: QuotientSpec) -> tuple[tuple, list[int], list[int], list[tuple[int, ...]]]:
    """(labels, dart_vertex, dart_rev, vertex_darts) of the quotient,
    built dart by dart: every dart's head is looked up with
    `CosetSystem.index_of`.  The oracle for build_quotient."""
    tpl = template(spec.tiling)
    cs = cosets(spec.mat)
    ncos = cs.size()
    deg = tpl.degree
    labels = tuple((r, w) for r in range(tpl.rep_count) for w in cs.representatives)
    dart_vertex = []
    dart_rev = []
    for v, (r, w) in enumerate(labels):
        for k in range(deg):
            s, (ox, oy) = tpl.neighbors[r][k]
            tv = s * ncos + cs.index_of((w[0] + ox, w[1] + oy))
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
        "face_darts": tuple(face_darts),
        "face_sizes": tuple(len(w) for w in face_darts),
    }


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
    """s0, s1, s2 and the flag incidences filled flag by flag from the
    closed forms in the map_core docstring, with ccw and cw read off the
    rotations, not off the map's cw table."""
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
    vs = m.face_vertices(f)
    es = m.face_edges(f)
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


def automorphism_group(m: FlagMap) -> list[list[int]]:
    """All automorphisms as flag lists, ordered by the image of flag 0.
    Shares no pruning with the orbit scan, so each can check the other."""
    return list(_extensions(m, m, 0, range(m.n_flags)))


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
