"""Finite toroidal maps as rotation systems.

A map is stored as darts (directed edge sides).  Dart d has a tail
vertex, a reverse dart, and a clockwise successor in the rotation at its
tail; its counterclockwise successor ccw(d) is the dart whose clockwise
successor is d.  Faces are traced with the rule

    next dart of the face left of d  =  clockwise successor of rev(d)

so faces are walked counterclockwise and face indexing is
deterministic.  A flag is 2*dart + side, side 0 the face left of the
dart; the map stores no flag table, and an automorphism is a dart
permutation with one orientation bit (`is_automorphism`).  The
constructor takes the reverse darts and the rotation at each vertex,
and reads each dart's tail off the rotation that lists it; what it has
to verify is that every dart id is in range, that reverse is a
fixed-point-free involution, that each dart sits in exactly one
rotation, and that the map is connected (a union-find over the
vertices, joined edge by edge).

The rotations come in one of two layouts.  build_quotient declares
its own, vertex v's rotation being darts v·deg … v·deg+deg−1 in order,
by passing a `SlotRotations`, which makes vertex v's range when it is
read and keeps nothing per vertex; the tail and rotation tables are then
filled by columns, one slot of every vertex at a time.  Any other
sequence is a general rotation system, read vertex by vertex and kept
as tuples.  The reverse table has one contract: an involution of exact
ints without a fixed point, or an error that names its first bad dart.
Its own ints are then the pool, one int object per dart, from which
every table takes its dart ids, so no second int is made per dart; one
index pass, rev(rev(d)) for every d, decides it.  Each fact is
stored once: an edge is its smaller dart (the other is its reverse), a
face is a slice of one list of every face walk (`face_walks`, cut at
`face_offsets`), and there is no ccw table: the orbit scan inverts cw
when it needs one.  So a quotient keeps no container per vertex, edge or
face that the cyclic garbage collector tracks.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import combinations, islice
from operator import eq, sub
from typing import NamedTuple

from .lattice import CosetSystem, SublatticeMat, cosets
from .tilings import TilingId, dihedral, template

IVec = tuple[int, int]

# The largest map build_quotient makes.  A quotient retains about 44 bytes
# per flag and peaks at about 56 while it is built; `analyze` (the orbit
# scan) peaks at about 61 bytes per flag over the interpreter (E7 at
# 150·I on Python 3.11), so about 235 MiB at this limit.
MAX_FLAGS = 4_000_000


class QuotientSpec(NamedTuple):
    """A toroidal map given as (tiling, sublattice): the quotient of the
    tiling by the row lattice of the matrix."""

    tiling: TilingId
    mat: SublatticeMat

    def as_dict(self) -> dict:
        return {"tiling": self.tiling.value, "matrix": list(self.mat.as_tuple())}


class SlotRotations(Sequence):
    """The rotations of build_quotient's layout: vertex v has darts
    v·deg … v·deg+deg−1 in ccw order.  [v] is that range, made on
    access, so no object is kept per vertex; a slice is a tuple of
    ranges, as it would be of a tuple of them."""

    __slots__ = ("n_vertices", "deg")

    def __init__(self, n_vertices: int, deg: int):
        if n_vertices < 0 or deg < 1:
            raise ValueError(f"no slot layout of {n_vertices} vertices of degree {deg}")
        self.n_vertices = n_vertices
        self.deg = deg

    def __len__(self) -> int:
        return self.n_vertices

    def __getitem__(self, v):
        deg, picked = self.deg, range(self.n_vertices)[v]
        if isinstance(v, slice):
            return tuple(range(u * deg, u * deg + deg) for u in picked)
        return range(picked * deg, picked * deg + deg)

    def __iter__(self) -> Iterator[range]:
        deg = self.deg
        return (range(s, s + deg) for s in range(0, self.n_vertices * deg, deg))


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
        # The pool: one int object per dart, from which the tables take their
        # numbers.  The reverse table is an involution of exact ints, so its
        # own objects are the pool: ids[d] is the object rev(rev(d)).  One
        # index pass decides it: an entry out of range raises, and a negative
        # one, which indexes from the end, cannot pass (rev(d) = −k reads
        # dart e = nd − k, and then ids[e] = −k ≠ e).
        try:
            ids = list(map(dart_rev.__getitem__, dart_rev))
        except (IndexError, TypeError):
            ids = []
        if set(map(type, ids)) != {int} or not all(map(eq, ids, range(nd))):
            raise _reverse_error(dart_rev)
        rev = list(dart_rev)

        # Edges: the {d, rev d} pairs, numbered and stored by their smaller
        # dart.  A fixed point is the smaller dart of no pair, so it leaves
        # fewer than nd / 2 edges.
        edge_of = [0] * nd
        edge_dart = []
        for d, r in zip(ids, rev):
            if d < r:
                edge_of[d] = edge_of[r] = ids[len(edge_dart)]
                edge_dart.append(d)
        if 2 * len(edge_dart) != nd:
            raise _reverse_error(dart_rev)

        # build_quotient's layout, declared by a SlotRotations of nd darts:
        # vertex v lists darts v·deg … v·deg+deg−1, so slot k is the dart
        # column k::deg.  Any other sequence is a general rotation system,
        # read vertex by vertex.  slot_degree: deg, else None.
        nv = len(vertex_darts)
        if type(vertex_darts) is SlotRotations:
            deg = vertex_darts.deg
            if nv * deg != nd:
                raise ValueError(f"the slot layout has {nv * deg} darts, the reverse table {nd}")
            self.dart_vertex, self.dart_cw = _slot_columns(ids, nv, deg)
            self.vertex_darts = vertex_darts
        else:
            deg = None
            self.dart_vertex, self.dart_cw, self.vertex_darts = _rotations(vertex_darts, nd)
        self.slot_degree = deg
        self.dart_rev = rev
        self.spec = spec
        self.n_vertices = nv
        self.dart_edge = edge_of
        self.edge_dart = edge_dart
        self.n_edges = len(edge_dart)

        self.dart_face_left, self.face_walks, self.face_offsets = _faces(ids, rev, self.dart_cw)
        offsets = self.face_offsets
        self.face_sizes = tuple(map(sub, islice(offsets, 1, None), offsets))
        self.n_faces = len(offsets) - 1

        if not self._connected(ids):
            raise ValueError("map is not connected")

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

    def face_walk(self, f: int) -> list[int]:
        """The darts of face f in walk order, from its smallest."""
        return self.face_walks[self.face_offsets[f] : self.face_offsets[f + 1]]

    def face_vertices(self, f: int) -> tuple[int, ...]:
        return tuple(map(self.dart_vertex.__getitem__, self.face_walk(f)))

    def face_edges(self, f: int) -> tuple[int, ...]:
        return tuple(map(self.dart_edge.__getitem__, self.face_walk(f)))

    def vertex_at(self, rep: int, cell: IVec) -> int:
        """The vertex (rep, cell mod K) of a map from build_quotient."""
        cs = self.coset_system
        return rep * cs.size() + cs.index_of(cell)

    def _connected(self, ids: list[int]) -> bool:
        """Darts at one vertex are joined by its rotation, so the darts
        are connected exactly when the vertices are: a union-find over the
        edges, with path halving, whose n_vertices − 1 unions leave one
        class.  Its parents are a slice of the pool."""
        parent = ids[: self.n_vertices]
        tail, rev = self.dart_vertex, self.dart_rev
        joins = 0
        for d in self.edge_dart:
            a, b = tail[d], tail[rev[d]]
            while a != parent[a]:
                parent[a] = a = parent[parent[a]]
            while b != parent[b]:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                joins += 1
        return joins == self.n_vertices - 1


def _slot_columns(ids: list[int], nv: int, deg: int) -> tuple[list[int], list[int]]:
    """(dart_vertex, dart_cw) when vertex v has darts v·deg … v·deg+deg−1
    in ccw order, as in build_quotient: slot k of every vertex is the
    column ids[k::deg], and each table is deg stride-slice assignments
    from the pool."""
    nd = len(ids)
    vertices = ids[:nv]
    tail = [0] * nd
    cw = [0] * nd
    for k in range(deg):
        tail[k::deg] = vertices
        cw[k::deg] = ids[(k - 1) % deg :: deg]
    return tail, cw


def _reverse_error(dart_rev: Sequence[int]) -> Exception:
    """The error for the first dart whose reverse is not an exact int (a
    bool is not one), or is out of range, itself, or not reversed back to
    it.  Asked only of a table that has such a dart."""
    nd = len(dart_rev)
    for d, r in enumerate(dart_rev):
        if type(r) is not int:
            return TypeError(f"the reverse of dart {d} is {r!r}, not an int")
        if not 0 <= r < nd or r == d or dart_rev[r] != d:
            return ValueError(f"reverse is not a fixed-point-free involution at dart {d}")


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
    """(dart_face_left, face_walks, face_offsets): the orbits of
    d -> cw(rev(d)), i.e. the face left of each dart, numbered by their
    smallest dart and walked from it.  The walks are concatenated in face
    order into one list, and face f is its slice face_offsets[f] :
    face_offsets[f + 1], so no container is made per face.  A walk that
    does not return to its start raises ValueError."""
    nxt = list(map(cw.__getitem__, rev))
    face_of = [-1] * len(ids)
    walks = []
    offsets = []
    for d in ids:
        if face_of[d] >= 0:
            continue
        f = ids[len(offsets)]
        offsets.append(ids[len(walks)])
        cur = d
        while face_of[cur] < 0:
            face_of[cur] = f
            walks.append(cur)
            cur = nxt[cur]
        if cur != d:
            raise ValueError(f"face trace from dart {d} did not close")
    offsets.append(len(walks))
    return face_of, walks, offsets


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
    # reverse darts of the column (r, k) are the target rep's slot with its
    # box rows and columns rotated, two slices of the pool per box row.  So
    # the reverse table holds the pool's own ints, which FlagMap takes back
    # as its pool, and no int is made per dart by arithmetic.  This is the
    # one coset indexing outside `CosetSystem`: reading the column through
    # `cell_map(cs, shift=offset)` took E7 at 52·I from 58 to 79 ms.
    ids = list(range(nd))
    dart_rev = [0] * nd
    row = s2 * deg  # the darts of one box row of a rep's slot, stride deg
    for r, darts in enumerate(tpl.neighbors):
        for k, (s, offset) in enumerate(darts):
            di, dj = cs.box_coords(offset)
            first = s * block + tpl.reverse_slots[r][k]
            column = []
            for i in range(s1):
                start = first + (i + di) % s1 * row
                split = start + dj * deg
                column += ids[split : start + row : deg]
                column += ids[start:split:deg]
            dart_rev[r * block + k : (r + 1) * block : deg] = column
    del ids
    m = FlagMap(dart_rev, SlotRotations(tpl.rep_count * ncos, deg), spec=spec)
    m.coset_system = cs
    return m


def _anchors(m: FlagMap) -> range:
    """One vertex per rep, the one in translation cell (0, 0): vertex
    rep·ncos, since vertex (rep, coset) is rep·ncos + coset and cell
    (0, 0) is coset 0.  A map without a coset system gets every vertex."""
    cs = m.coset_system
    return range(0, m.n_vertices, 1 if cs is None else cs.size())


def is_automorphism(m: FlagMap, perm: Sequence[int], reverses: bool) -> bool:
    """Whether perm, one image per dart, commutes with rev and takes cw
    to cw, or to ccw if reverses (as cw[perm[cw[d]]] == perm[d]).  Such a
    map of a connected map onto itself is onto, so it is a bijection."""
    rev, cw, at = m.dart_rev, m.dart_cw, perm.__getitem__
    if len(perm) != m.n_darts or not all(map(eq, map(at, rev), map(rev.__getitem__, perm))):
        return False
    if reverses:
        return all(map(eq, map(cw.__getitem__, map(at, cw)), perm))
    return all(map(eq, map(at, cw), map(cw.__getitem__, perm)))


def euler_characteristic(m: FlagMap) -> int:
    return m.n_vertices - m.n_edges + m.n_faces


def face_cycle(m: FlagMap, v: int) -> tuple[int, ...]:
    """Sizes of the faces around v in counterclockwise rotation order."""
    return tuple(m.face_sizes[m.dart_face_left[d]] for d in m.vertex_darts[v])


class VertexTypeSig(NamedTuple):
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
