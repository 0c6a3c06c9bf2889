"""Finite toroidal maps as flag systems.

A map is stored as darts (directed edge sides).  Dart d has a tail
vertex, a reverse dart, and a clockwise successor in the rotation at its
tail; its counterclockwise successor ccw(d) is the dart whose clockwise
successor is d.  Faces are traced with the rule

    next dart of the face left of d  =  clockwise successor of rev(d)

so faces are walked counterclockwise and face indexing is
deterministic.  Flags are encoded as 2*dart + side with side 0 the face
left of the dart and side 1 the face right of it; the three involutions
then have closed forms:

    s0 (change vertex): 2d + s  ->  2 rev(d) + (1 - s)
    s1 (change edge):   2d + 0  ->  2 ccw(d) + 1,   2d + 1  ->  2 cw(d) + 0
    s2 (change face):   2d + s  ->  2d + (1 - s)

With this encoding s0 and s2 are fixed-point-free involutions that
commute by construction.  The constructor takes the reverse darts and
the rotation at each vertex, and reads each dart's tail off the
rotation that lists it; what it has to verify is that every dart id is
in range, that reverse is a fixed-point-free involution, that each dart
sits in exactly one rotation, and that the map is connected.

When vertex v's rotation is darts v·deg … v·deg+deg−1 in order, as
build_quotient makes it, the tail and rotation tables are filled by
columns, one slot of every vertex at a time, instead of vertex by
vertex.  The dart ids in them then come from one pool, one int object
per dart, as do those of the reverse, edge and face tables of any map.
Each fact is stored once: an edge is its smaller dart (the other is its
reverse), and ccw is derived from cw by s1 when the symmetry engine
first reads it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice
from operator import eq

from .lattice import CosetSystem, SublatticeMat, cosets
from .tilings import TilingId, dihedral, template

IVec = tuple[int, int]

# The largest map build_quotient makes: about 1.4 GB at ~350 bytes per flag.
MAX_FLAGS = 4_000_000


@dataclass(frozen=True)
class QuotientSpec:
    """A toroidal map given as (tiling, sublattice): the quotient of the
    tiling by the row lattice of the matrix."""

    tiling: TilingId
    mat: SublatticeMat

    def as_dict(self) -> dict:
        return {"tiling": self.tiling.value, "matrix": list(self.mat.as_tuple())}


class FlagMap:
    """Immutable-after-construction flag map; see module docstring."""

    # Set by build_quotient: the coset system its vertex numbering uses.
    coset_system: CosetSystem | None = None

    def __init__(
        self,
        dart_rev: Sequence[int],
        vertex_darts: Sequence[Sequence[int]],
        spec: QuotientSpec | None = None,
    ):
        nd = len(dart_rev)
        if nd == 0 or nd % 2:
            raise ValueError("dart count must be positive and even")
        # The pool: one int object per dart.  The tables below take their
        # numbers from it, not equal copies made by arithmetic; the
        # rotation tables only in build_quotient's layout.
        ids = list(range(nd))
        if min(dart_rev) < 0 or max(dart_rev) >= nd:
            # A reverse out of range fails the involution check at its
            # own dart, as a fixed point does, and is never an index.
            rev = [r if 0 <= r < nd else d for d, r in enumerate(dart_rev)]
        else:
            rev = list(map(ids.__getitem__, dart_rev))

        # Edges: the {d, rev d} pairs, numbered and stored by their smaller
        # dart.  The involution check runs on that dart; the other one
        # passes it as that dart's reverse.
        edge_of = [-1] * nd
        edge_dart = []
        for d in ids:
            if edge_of[d] < 0:
                r = rev[d]
                if r == d or rev[r] != d:
                    raise ValueError(f"reverse is not a fixed-point-free involution at dart {d}")
                edge_of[d] = edge_of[r] = ids[len(edge_dart)]
                edge_dart.append(d)

        # build_quotient's layout: vertex v lists darts v·deg … v·deg+deg−1.
        nv = len(vertex_darts)
        deg = nd // nv if nv else 0
        by_columns = (
            nv * deg == nd
            and set(map(len, vertex_darts)) == {deg}
            and all(map(eq, chain.from_iterable(vertex_darts), ids))
        )
        self.dart_vertex, self.dart_cw, self.vertex_darts = (
            _slot_columns(ids, nv, deg) if by_columns else _rotations(vertex_darts, nd)
        )
        self.dart_rev = rev
        self.spec = spec
        self.n_vertices = nv
        self.dart_edge = edge_of
        self.edge_dart = edge_dart
        self.n_edges = len(edge_dart)

        self.dart_face_left, self.face_darts = _faces(ids, rev, self.dart_cw)
        self.face_sizes = tuple(map(len, self.face_darts))
        self.n_faces = len(self.face_darts)

        if not self._connected():
            raise ValueError("map is not connected")

    # Flag involutions and incidences, closed-form from the dart tables
    # (module docstring); built on first use, since only the symmetry
    # engine reads them.

    @cached_property
    def s0(self) -> list[int]:
        return _interleave([2 * r + 1 for r in self.dart_rev], [2 * r for r in self.dart_rev])

    @cached_property
    def s1(self) -> list[int]:
        # cw[d] = c means ccw[c] = d, so the even column is cw inverted.
        cw = self.dart_cw
        even = [0] * len(cw)
        for d, c in enumerate(cw):
            even[c] = 2 * d + 1
        return _interleave(even, [2 * c for c in cw])

    @cached_property
    def s2(self) -> list[int]:
        nf = self.n_flags
        return _interleave(range(1, nf, 2), range(0, nf, 2))

    @cached_property
    def flag_vertex(self) -> list[int]:
        return _interleave(self.dart_vertex, self.dart_vertex)

    @cached_property
    def flag_face(self) -> list[int]:
        left = self.dart_face_left
        return _interleave(left, [left[r] for r in self.dart_rev])

    @cached_property
    def polyhedral(self) -> bool:
        """is_polyhedral(self).ok, decided once: the map never changes."""
        return is_polyhedral(self).ok

    @property
    def n_darts(self) -> int:
        return len(self.dart_vertex)

    @property
    def n_flags(self) -> int:
        return 2 * self.n_darts

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        d = self.edge_dart[e]
        return self.dart_vertex[d], self.dart_vertex[self.dart_rev[d]]

    def face_vertices(self, f: int) -> tuple[int, ...]:
        return tuple(self.dart_vertex[d] for d in self.face_darts[f])

    def face_edges(self, f: int) -> tuple[int, ...]:
        return tuple(self.dart_edge[d] for d in self.face_darts[f])

    def vertex_at(self, rep: int, cell: IVec) -> int:
        """The vertex (rep, cell mod K) of a map from build_quotient."""
        cs = self.coset_system
        return rep * cs.size() + cs.index_of(cell)

    def _connected(self) -> bool:
        """Darts at one vertex are joined by its rotation, so the darts
        are connected exactly when the vertices are."""
        head = list(map(self.dart_vertex.__getitem__, self.dart_rev))
        seen = bytearray(self.n_vertices)
        seen[0] = 1
        stack = [0]
        while stack:
            for d in self.vertex_darts[stack.pop()]:
                w = head[d]
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
        return all(seen)


def _slot_columns(ids: list[int], nv: int, deg: int):
    """(dart_vertex, dart_cw, vertex_darts) when vertex v has darts
    v·deg … v·deg+deg−1 in ccw order, as in build_quotient: slot k of
    every vertex is the column ids[k::deg], and each table is deg
    stride-slice assignments from the pool."""
    nd = len(ids)
    cols = [ids[k::deg] for k in range(deg)]
    vertices = ids[:nv]
    tail = [0] * nd
    cw = [0] * nd
    for k in range(deg):
        tail[k::deg] = vertices
        cw[k::deg] = cols[k - 1]
    return tail, cw, tuple(zip(*cols))


def _rotations(vertex_darts: Sequence[Sequence[int]], nd: int):
    """(dart_vertex, dart_cw, vertex_darts) from any rotation system,
    vertex by vertex: the tail of a dart is the vertex whose
    rotation lists it.  A dart id out of range, listed twice or not
    listed at all raises ValueError."""
    rotations = tuple(tuple(ds) for ds in vertex_darts)
    tail = [-1] * nd
    cw = [0] * nd
    for v, ds in enumerate(rotations):
        if not ds:
            raise ValueError(f"vertex {v} has no darts")
        for i, d in enumerate(ds):
            if not 0 <= d < nd:
                raise ValueError(f"dart {d} at vertex {v} is not in 0..{nd - 1}")
            if tail[d] >= 0:
                raise ValueError(f"dart {d} appears in two rotations")
            tail[d] = v
            cw[d] = ds[i - 1]
    if -1 in tail:
        raise ValueError(f"dart {tail.index(-1)} belongs to no vertex rotation")
    return tail, cw, rotations


def _faces(ids: list[int], rev: list[int], cw: list[int]):
    """(dart_face_left, face_darts): the orbits of d -> cw(rev(d)), i.e.
    the face left of each dart, numbered by their smallest dart and
    walked from it.  A walk that does not return to its start raises
    ValueError."""
    nxt = list(map(cw.__getitem__, rev))
    face_of = [-1] * len(ids)
    face_darts = []
    for d in ids:
        if face_of[d] >= 0:
            continue
        f = ids[len(face_darts)]
        walk = []
        cur = d
        while face_of[cur] < 0:
            face_of[cur] = f
            walk.append(cur)
            cur = nxt[cur]
        if cur != d:
            raise ValueError(f"face trace from dart {d} did not close")
        face_darts.append(tuple(walk))
    return face_of, tuple(face_darts)


def _interleave(even, odd) -> list[int]:
    """The flag table with entry 2d from even[d] and 2d + 1 from odd[d]."""
    out = [0] * (2 * len(even))
    out[0::2] = even
    out[1::2] = odd
    return out


def build_quotient(spec: QuotientSpec) -> FlagMap:
    """The quotient of the tiling by the row lattice of spec.mat.

    Vertices are (rep, coset) pairs, numbered rep-major in the coset
    system's canonical order (`FlagMap.vertex_at`); dart k of a vertex
    is dart k of its rep, so vertex v has darts v·deg … v·deg+deg−1, the
    layout FlagMap fills by columns.  A map of more than MAX_FLAGS flags
    is refused with ValueError before anything is allocated.
    """
    tpl = template(spec.tiling)
    flags = 2 * tpl.degree * tpl.rep_count * spec.mat.index()
    if flags > MAX_FLAGS:
        raise ValueError(f"the quotient would have {flags} flags, over the limit of {MAX_FLAGS}")
    cs = cosets(spec.mat)
    s1, s2, ncos = cs.s1, cs.s2, cs.size()
    deg = tpl.degree
    nd = tpl.rep_count * ncos * deg
    block = ncos * deg  # the darts of one rep
    # Coset i*s2 + j has box coordinates (i, j), so slot k of rep r points
    # from every coset to the coset one fixed box shift (di, dj) away: the
    # reverse darts of the column (r, k) are the identity numbering of the
    # target rep's slot with its box rows and columns rotated.
    dart_rev = [0] * nd
    for r, darts in enumerate(tpl.neighbors):
        for k, (s, offset) in enumerate(darts):
            di, dj = cs.box_coords(offset)
            first = s * block + tpl.reverse_slots[r][k]
            rows = [first + (i + di) % s1 * s2 * deg for i in range(s1)]
            cols = [(j + dj) % s2 * deg for j in range(s2)]
            dart_rev[r * block + k : (r + 1) * block : deg] = [a + b for a in rows for b in cols]
    # Ranges, not tuples: FlagMap reads them once, to test the layout.
    vertex_darts = [range(d, d + deg) for d in range(0, nd, deg)]
    m = FlagMap(dart_rev, vertex_darts, spec=spec)
    m.coset_system = cs
    return m


def _anchors(m: FlagMap) -> range:
    """One vertex per rep, the one in translation cell (0, 0): vertex
    rep·ncos, since vertex (rep, coset) is rep·ncos + coset and cell
    (0, 0) is coset 0.  A map without a coset system gets every vertex."""
    cs = m.coset_system
    return range(0, m.n_vertices, 1 if cs is None else cs.size())


def is_automorphism(m: FlagMap, perm: Sequence[int]) -> bool:
    """Whether the flag list perm, one image per flag, commutes with s0,
    s1 and s2.  Such a map of a connected map onto itself is onto, so
    it is a bijection."""
    return len(perm) == m.n_flags and all(
        perm[s[x]] == s[perm[x]] for s in (m.s0, m.s1, m.s2) for x in range(len(perm))
    )


def euler_characteristic(m: FlagMap) -> int:
    return m.n_vertices - m.n_edges + m.n_faces


def face_cycle(m: FlagMap, v: int) -> tuple[int, ...]:
    """Sizes of the faces around v in counterclockwise rotation order."""
    return tuple(m.face_sizes[m.dart_face_left[d]] for d in m.vertex_darts[v])


@dataclass(frozen=True)
class VertexTypeSig:
    """Canonical cyclic run-length signature of a face-size cycle.

    Canonical means lexicographically least over all rotations of the
    run sequence and of its reversal, so (3,3,4,3,4) and (4,3,4,3,3)
    produce equal values.
    """

    runs: tuple[tuple[int, int], ...]

    @classmethod
    def from_cycle(cls, sizes: tuple[int, ...]) -> "VertexTypeSig":
        if not sizes:
            raise ValueError("empty face cycle")
        return cls(runs=min(dihedral(_cyclic_runs(tuple(sizes)))))

    def expanded(self) -> tuple[int, ...]:
        out = []
        for p, n in self.runs:
            out.extend([p] * n)
        return tuple(out)

    def dotted(self) -> str:
        return ".".join(str(p) for p in self.expanded())

    def __str__(self) -> str:
        parts = [f"{p}^{n}" if n > 1 else str(p) for p, n in self.runs]
        return "[" + ",".join(parts) + "]"


def _cyclic_runs(sizes: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    n = len(sizes)
    start = 0
    for i in range(n):
        if sizes[i - 1] != sizes[i]:
            start = i
            break
    else:
        return ((sizes[0], n),)
    rot = sizes[start:] + sizes[:start]
    runs: list[list[int]] = []
    for x in rot:
        if runs and runs[-1][0] == x:
            runs[-1][1] += 1
        else:
            runs.append([x, 1])
    return tuple((p, c) for p, c in runs)


def vertex_type(m: FlagMap, v: int) -> VertexTypeSig:
    return VertexTypeSig.from_cycle(face_cycle(m, v))


def is_semi_equivelar(m: FlagMap) -> VertexTypeSig | None:
    """The common vertex type if all vertices agree, else None.

    Decided on the anchors, one vertex per rep: the translations are
    automorphisms acting transitively on the vertices of each rep (see
    `is_polyhedral`), so every vertex has its anchor's type."""
    types = {vertex_type(m, v) for v in _anchors(m)}
    return types.pop() if len(types) == 1 else None


class PolyhedralReport:
    """Whether a map is polyhedral, and up to _MAX_VIOLATIONS violations,
    listed by a scan of every vertex the first time they are read, so a
    caller that only reads `ok` never pays for the list."""

    def __init__(self, m: FlagMap, ok: bool):
        self._map = m
        self.ok = ok

    @cached_property
    def violations(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        m = self._map
        return tuple(islice(_violations(m, range(m.n_vertices)), _MAX_VIOLATIONS))

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"PolyhedralReport(ok={self.ok!r}, violations={self.violations!r})"


_MAX_VIOLATIONS = 20


def _faces_meet_properly(m: FlagMap, vf, ef, vg, eg) -> bool:
    """Two faces share nothing, one vertex, or one edge and its two ends."""
    shared_e = ef & eg
    if not shared_e:
        return len(vf & vg) <= 1
    if len(shared_e) == 1:
        (e,) = shared_e
        return vf & vg == set(m.edge_endpoints(e))
    return False


def _violations(m: FlagMap, vertices: Sequence[int]) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Every violation of the five rules that involves one of the
    vertices, rule by rule and in index order: faces too small, faces
    not simple, loops and parallel edges, face pairs that meet badly.

    The faces and edges checked are those at the vertices, and the face
    pairs those that meet at one of them.  Parallel edges share both
    ends, so all edges parallel to one at a vertex are at it too.
    """
    faces_at = [{m.dart_face_left[d] for d in m.vertex_darts[v]} for v in vertices]
    faces = sorted(set().union(*faces_at))
    for f in faces:
        if m.face_sizes[f] < 3:
            yield "face-too-small", (f,)

    face_sets = {}
    for f in faces:
        vs, es = m.face_vertices(f), m.face_edges(f)
        vset, eset = set(vs), set(es)
        if len(vset) < len(vs) or len(eset) < len(es):
            yield "face-not-simple", (f,)
        face_sets[f] = (vset, eset)

    first_with_ends: dict[tuple[int, int], int] = {}
    for e in sorted({m.dart_edge[d] for v in vertices for d in m.vertex_darts[v]}):
        ends = tuple(sorted(m.edge_endpoints(e)))
        if ends[0] == ends[1]:
            yield "loop-edge", (e,)
        elif ends in first_with_ends:
            yield "multi-edge", (first_with_ends[ends], e)
        else:
            first_with_ends[ends] = e

    pairs = {pair for fs in faces_at for pair in combinations(sorted(fs), 2)}
    for f, g in sorted(pairs):
        if not _faces_meet_properly(m, *face_sets[f], *face_sets[g]):
            yield "face-pair", (f, g)


def is_polyhedral(m: FlagMap) -> PolyhedralReport:
    """Faces are simple cycles of length >= 3, no loops or parallel
    edges, and two faces meet in at most one vertex or one edge.

    A map from build_quotient is decided on one translation cell.  Each
    translation of Z^2 is an automorphism of the quotient, every rule is
    invariant under automorphisms, and every violation involves a
    vertex: a small or non-simple face has one, a loop or a pair of
    parallel edges has an end, and two faces that meet badly share one.
    The translations act transitively on the vertices of each rep, so a
    violation anywhere has a translate at a vertex of cell (0, 0).
    Hence it suffices to scan those vertices, the anchors; a map without
    a coset system scans every vertex.  The violations themselves are
    listed only when the report's `violations` are read.
    """
    return PolyhedralReport(m, next(_violations(m, _anchors(m)), None) is None)


def map_summary(m: FlagMap) -> dict:
    """JSON-ready counts and predicates for one map."""
    sig = is_semi_equivelar(m)
    poly = is_polyhedral(m)
    out = {
        "vertices": m.n_vertices,
        "edges": m.n_edges,
        "faces": m.n_faces,
        "flags": m.n_flags,
        "euler_characteristic": euler_characteristic(m),
        "semi_equivelar": sig is not None,
        "vertex_type": sig.dotted() if sig is not None else None,
        "signature": str(sig) if sig is not None else None,
        "polyhedral": poly.ok,
    }
    if not poly.ok:
        out["polyhedral_violations"] = [
            {"kind": kind, "cells": list(cells)} for kind, cells in poly.violations[:5]
        ]
    if m.spec is not None:
        out["spec"] = m.spec.as_dict()
    return out
