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
rotation, that every face walk closes, and that the map is connected (a
union-find over the vertices, joined edge by edge).

Two of those checks are facts about the tiling for a map T/K from
build_quotient, so they are proven once per tiling, not once per map:
`tilings.validate_template` proves that the template's reverse slots
are an involution with opposite offsets and no fixed point, and that the
plane tiling is connected (its darts join every rep, and its closed
walks' offsets span Z²).  build_quotient's reverse table is those slots
moved by the offsets, and T/K is the image of the tiling, so its map
skips the reverse check and the union-find.  It takes build_quotient's
pool, numbers the edges and the faces and keeps the coset system.
Every other input, a public `SlotRotations` included, takes every check.

The rotations come in one of two layouts.  build_quotient declares
its own, vertex v's rotation being darts v·deg … v·deg+deg−1 in order,
by passing a `SlotRotations`, which makes vertex v's range when it is
read and keeps nothing per vertex; the tail and rotation tables are then
filled by columns, one slot of every vertex at a time.  Any other
sequence is a general rotation system, read vertex by vertex and kept
as tuples.  The reverse table has one contract: an involution of exact
ints without a fixed point, or an error that names its first bad dart,
and one scan, `_reverse_error`, decides it before anything is built.
Every table takes its dart ids from one pool, range(nd) as a list, one
int object per dart: build_quotient's, whose reverse table is sliced
from it, or for any other input a pool made here, beside the caller's
reverse ints.

Edges are numbered by their smaller dart and faces by their smallest,
each in one of two ways.  An edge of T/K is a template edge moved by a
cell, and a face is a face of the tiling moved by a cell: one of the
tiling's face classes (`tilings.face_classes`) per coset.  So a quotient
of at least MIN_COLUMN_CELLS cells, on every tiling, fills its edge and
face tables by slot columns, as its tail and rotation tables
(`_class_columns`), and proves that its walks close once per tiling, in
face_trace.  Which of a class's darts at its least rep is the smallest
turns on the cell only where the Smith box wraps, so the numbers come
from rectangles of the box, with no sort and no loop per dart or per
face.  Any other map is read dart by dart: every dart paired with its
reverse, every dart's face traced.  Each fact is stored once: an edge
is its smaller dart (the other is its reverse), a face is its smallest
dart (`face_first[f]`) and its size (`face_sizes[f]`), from which
face_walk traces it, d -> cw(rev(d)), when it is read, and there is no
ccw table: the orbit scan inverts cw when it needs one.  So a quotient
keeps no container per vertex, edge or face that the cyclic garbage
collector tracks.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cached_property, lru_cache
from itertools import combinations, groupby, islice
from operator import eq, itemgetter
from typing import NamedTuple

from .lattice import CosetSystem, SublatticeMat, cosets
from .tilings import TilingId, dihedral, face_classes, template

# The largest map build_quotient makes.  A quotient retains about 39 bytes
# per flag and peaks at about 44 while it is built (tracemalloc, E7 at 20·I
# to 150·I).  Over `info E7`, in the peak RSS of a fresh process (E7 at
# 150·I, 1.62 M flags, Python 3.11.7, 2 cores), `cover --out` peaks at
# about 53 bytes per flag and `analyze` (the orbit scan) at 53, and
# `verify` of that cover's certificate, the heaviest command per flag, at
# 69: about 263 MiB at this limit.
MAX_FLAGS = 4_000_000

# The least translation cells for which FlagMap numbers a quotient's edges
# and faces by slot columns (_class_columns) rather than dart by dart
# (_edges, _faces), on every tiling.  Column time over loop time, both
# tables, min of 15 runs, five Hermite forms per size (Python 3.11, 2
# cores): E2, E3, E5 and E7 at 36 cells 0.58–0.85, at 64 0.39–0.44; E1, E4
# and E6 at 36 0.88–1.40, at 64 0.44–0.68; T666 and T33344 at 36
# 1.43–2.30, at 64 0.65–1.13, at 144 0.51–0.90; T4444 and T333333, whose
# smallest darts move between positions in both box directions, at 36
# 2.92–4.52, at 144 0.94–1.78, at 256 0.64–0.93, at 576 0.29–0.75.  Summed
# over the 1,437 builds of 16 to 399 cells in 120 recorded `batch` seeds,
# this rule cost 1.4–1.8 % more than the best measured (49 cells) in two
# sessions, 64 cells 0.6–0.7 % more, 144 cells 14 % and 256 cells 62–64 %.
MIN_COLUMN_CELLS = 36


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


class _QuotientSlots(SlotRotations):
    """build_quotient's layout together with what it made for it: the pool
    (range(nd) as a list), the reverse table sliced from it and the coset
    system.  Only build_quotient makes one, so FlagMap takes it as that
    table's proof of origin (see FlagMap.__init__) and keeps a plain
    SlotRotations."""

    __slots__ = ("dart_rev", "ids", "cs")

    def __init__(self, deg: int, dart_rev: list[int], ids: list[int], cs: CosetSystem):
        super().__init__(len(ids) // deg, deg)
        self.dart_rev = dart_rev
        self.ids = ids
        self.cs = cs


class FlagMap:
    """Immutable-after-construction flag map; see module docstring."""

    def __init__(
        self,
        dart_rev: Sequence[int],
        vertex_darts: Sequence[Sequence[int]],
        spec: QuotientSpec | None = None,
    ):
        nd = len(dart_rev)
        if nd == 0 or nd % 2:
            raise ValueError("dart count must be positive and even")
        # build_quotient's own reverse table, passed with the _QuotientSlots
        # that holds it and its pool: validate_template has proven, once per
        # tiling, that it is an involution with no fixed point and that the
        # map is connected, and its ints are slices of the pool.  Any other
        # input is checked here, dart by dart.
        proven = type(vertex_darts) is _QuotientSlots and vertex_darts.dart_rev is dart_rev
        if proven:
            ids = vertex_darts.ids
            rev = dart_rev  # made for this map alone, so not copied
        else:
            error = _reverse_error(dart_rev)
            if error is not None:
                raise error
            ids = list(range(nd))  # the pool: one int object per dart
            rev = list(dart_rev)
        # The coset system build_quotient's vertex numbering uses, else None.
        self.coset_system = vertex_darts.cs if proven else None

        # build_quotient's layout, declared by a SlotRotations of nd darts:
        # vertex v lists darts v·deg … v·deg+deg−1, so slot k is the dart
        # column k::deg.  Any other sequence is a general rotation system,
        # read vertex by vertex.  slot_degree: deg, else None.
        nv = len(vertex_darts)
        if proven or type(vertex_darts) is SlotRotations:
            deg = vertex_darts.deg
            if nv * deg != nd:
                raise ValueError(f"the slot layout has {nv * deg} darts, the reverse table {nd}")
            self.dart_vertex, self.dart_cw = _slot_columns(ids, nv, deg)
            self.vertex_darts = SlotRotations(nv, deg)
        else:
            deg = None
            self.dart_vertex, self.dart_cw, self.vertex_darts = _rotations(vertex_darts, nd)
        self.slot_degree = deg
        self.dart_rev = rev
        self.spec = spec
        self.n_vertices = nv

        # Edges, the {d, rev d} pairs, and faces, both numbered by smallest
        # dart: a T/K from build_quotient of at least MIN_COLUMN_CELLS cells
        # by slot columns, any other map dart by dart.
        if proven and vertex_darts.cs.size() >= MIN_COLUMN_CELLS:
            edges = _class_columns(ids, spec.tiling, vertex_darts.cs, faces=False)[:2]
            faces = _class_columns(ids, spec.tiling, vertex_darts.cs, faces=True)
        else:
            edges = _edges(ids, rev)
            faces = _faces(ids, rev, self.dart_cw)
        self.dart_edge, self.edge_dart = edges
        self.n_edges = len(self.edge_dart)
        self.dart_face_left, self.face_first, self.face_sizes = faces
        self.n_faces = len(self.face_first)

        if not proven and not self._connected(ids):
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
        """The darts of face f in walk order, traced from its smallest."""
        rev, cw = self.dart_rev, self.dart_cw
        d = self.face_first[f]
        walk = [d]
        for _ in range(self.face_sizes[f] - 1):
            d = cw[rev[d]]
            walk.append(d)
        return walk

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


def _reverse_error(dart_rev: Sequence[int]) -> Exception | None:
    """The error for the first dart whose reverse is not an exact int (a
    bool is not one), or is out of range, itself, or not reversed back to
    it; None when there is no such dart, that is when the table is a
    fixed-point-free involution of exact ints."""
    nd = len(dart_rev)
    for d, r in enumerate(dart_rev):
        if type(r) is not int:
            return TypeError(f"the reverse of dart {d} is {r!r}, not an int")
        if not 0 <= r < nd or r == d or dart_rev[r] != d:
            return ValueError(f"reverse is not a fixed-point-free involution at dart {d}")
    return None


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


def _edges(ids: list[int], rev: list[int]) -> tuple[list[int], list[int]]:
    """(dart_edge, edge_dart), dart by dart: the {d, rev d} pairs,
    numbered and stored by their smaller dart."""
    edge_of = [0] * len(ids)
    edge_dart = []
    for d, r in zip(ids, rev):
        if d < r:
            edge_of[d] = edge_of[r] = ids[len(edge_dart)]
            edge_dart.append(d)
    return edge_of, edge_dart


def _faces(ids: list[int], rev: list[int], cw: list[int]):
    """(dart_face_left, face_first, face_sizes), dart by dart: the orbits
    of d -> cw(rev(d)), i.e. the face left of each dart, numbered by their
    smallest dart, which face_first keeps, with their sizes.  A walk that
    does not return to its start raises ValueError."""
    nxt = list(map(cw.__getitem__, rev))
    face_of = [-1] * len(ids)
    firsts = []
    sizes = []
    for d in ids:
        if face_of[d] >= 0:
            continue
        f = ids[len(firsts)]
        firsts.append(d)
        cur, n = d, 0
        while face_of[cur] < 0:
            face_of[cur] = f
            cur = nxt[cur]
            n += 1
        if cur != d:
            raise ValueError(f"face trace from dart {d} did not close")
        sizes.append(n)
    return face_of, firsts, tuple(sizes)


def _box_shift(src: list[int], first: int, step: int, s1: int, s2: int, di: int, dj: int) -> list[int]:
    """The column src[first + step·c′] for every coset c = (i, j) of the
    Smith box in order, c′ being the coset (i + di, j + dj): the s1·s2
    entries of stride step from first, their box rows and columns rotated.
    0 <= di < s1 and 0 <= dj < s2.

    The whole column turned by di rows and dj entries is right but in the
    box columns where j + dj wraps, and, turned by one row less, only in
    those.  So the column is two slices when one box row or no wrap is
    all there is, and else either two slices per box row or the turned
    column with its wrong box columns mended, whichever takes fewer."""
    row = s2 * step
    end = first + s1 * row
    if s1 == 1 or dj == 0:
        shift = first + di * row + dj * step
        out = src[shift:end:step]
        out += src[first:shift:step]
        return out
    if s1 <= min(dj, s2 - dj):
        out = []
        for i in range(s1):
            start = first + (i + di) % s1 * row
            split = start + dj * step
            out += src[split : start + row : step]
            out += src[start:split:step]
        return out
    late = dj > s2 - dj  # then turn by one row less and mend the rest
    wrong = range(s2 - dj) if late else range(s2 - dj, s2)
    shift = first + (di * s2 + dj - s2 * late) % (s1 * s2) * step
    out = src[shift:end:step]
    out += src[first:shift:step]
    for j in wrong:
        column = src[first + (j + dj) % s2 * step : end : row]
        out[j::s2] = column[di:] + column[:di]
    return out


@lru_cache(maxsize=None)
def _class_groups(tiling: TilingId, faces: bool):
    """The tiling's faces up to translation (`tilings.face_classes`) if
    faces, else its edges: for each dart (rep, slot) before its reverse,
    the walk ((rep, (0, 0), slot), (reverse rep, offset, reverse slot)).
    Each walk starts at its least (rep, slot), the walks are in the order
    of those darts, and each has a dart at its least rep in cell (0, 0).
    Returned grouped by that least rep r, as (r, walks, each walk's
    positions (offset, slot) at r), with every offset the walks use."""
    if faces:
        classes = face_classes(tiling)
    else:
        tpl = template(tiling)
        classes = [
            ((r, (0, 0), k), (s, offset, tpl.reverse_slots[r][k]))
            for r, darts in enumerate(tpl.neighbors)
            for k, (s, offset) in enumerate(darts)
            if (r, k) < (s, tpl.reverse_slots[r][k])
        ]
    groups = []
    for r, walks in groupby(classes, key=lambda walk: walk[0][0]):
        walks = tuple(walks)
        groups.append((r, walks, tuple(tuple((o, k) for rep, o, k in walk if rep == r) for walk in walks)))
    return tuple(groups), {offset for walk in classes for _, offset, _ in walk}


def _grid(dst: list, d0: int, d_row: int, d_col: int, src: list, s0: int, s_row: int, s_col: int, h: int, w: int):
    """dst[d0 + i·d_row + j·d_col] = src[s0 + i·s_row + j·s_col] for every
    i < h and j < w: one slice when each row runs on into the next in
    both, else one per row or one per column, whichever are fewer."""
    if d_row == w * d_col and s_row == w * s_col:
        h, w = 1, h * w
    if h <= w:
        for i in range(h):
            d, s = d0 + i * d_row, s0 + i * s_row
            dst[d : d + w * d_col : d_col] = src[s : s + w * s_col : s_col]
    else:
        for j in range(w):
            d, s = d0 + j * d_col, s0 + j * s_col
            dst[d : d + h * d_row : d_row] = src[s : s + h * s_row : s_row]


def _class_columns(ids: list[int], tiling: TilingId, cs: CosetSystem, faces: bool):
    """(dart_face_left, face_first, face_sizes) if faces, else (dart_edge,
    edge_dart, None), for T/K in build_quotient's layout: an object of T/K
    (a face or an edge) is a class of `_class_groups` moved by a coset c,
    and the objects are numbered as _faces and _edges number them, by
    smallest dart.  Every table is filled by slices of slot columns over
    rectangles of the Smith box, none dart by dart or object by object.

    The smallest dart of (class, c) is at the class's least rep r, at the
    one of its positions there whose dart (r, c + a, slot) is least, a
    being the position's box offset.  In the cells x = c + a, position
    (a, slot) beats (b, slot′) in the rows x_i < s1 − (b − a)_i when their
    box rows differ, else in the columns x_j < s2 − (b − a)_j when their box
    columns differ, else everywhere or nowhere by slot: the other's row or
    column is the greater unless it wraps.  So the cells where a position
    holds the smallest dart are a rectangle [0, h) × [0, w).  The objects
    of smaller reps come first, so those of rep r take consecutive numbers,
    by rank of that dart.  When each class has one such position, its
    rectangle is the whole box, at offset (0, 0), and object (class, c) is
    number F + c·m + its place among the m of rep r by slot, F the objects
    of smaller reps: a stride slice of the pool.  Otherwise the rectangles'
    bounds, and the offsets, where moving a cell back to c wraps, cut the
    box into bands of rows and of columns; within one band of each, the
    same positions hold a smallest dart in every cell, so one position's
    numbers run on by their count along a row, and by the row band's total
    from row to row, from the count at the band's corner (_grid).  Each
    class's numbers, a column over c, are then moved back by each
    position's box offset into its (rep, slot) column."""
    groups, offsets = _class_groups(tiling, faces)
    deg = template(tiling).degree
    s1, s2, ncos = cs.s1, cs.s2, cs.size()
    box = {offset: cs.box_coords(offset) for offset in offsets}
    block = ncos * deg
    count = sum(len(walks) for _, walks, _ in groups) * ncos
    dart_of, firsts = [0] * len(ids), [0] * count
    sizes = [0] * count if faces else None
    f0 = 0
    for r, walks, at_r in groups:
        m = len(walks)
        stop = f0 + m * ncos
        wins = []  # (slot, h, w, box offset, q) of each position that holds a smallest dart
        for q, positions in enumerate(at_r):
            if len(positions) == 1:  # in cell (0, 0), and the smallest dart in every cell
                wins.append((positions[0][1], s1, s2, 0, 0, q))
                continue
            for offset, k in positions:
                (ai, aj), h, w = box[offset], s1, s2
                for other, k2 in positions:
                    bi, bj = box[other]
                    if bi != ai:
                        h = min(h, s1 - (bi - ai) % s1)
                    elif bj != aj:
                        w = min(w, s2 - (bj - aj) % s2)
                    elif k2 < k:
                        h = 0
                if h:
                    wins.append((k, h, w, ai, aj, q))
        wins.sort()
        numbers = {}  # q: (src, first, step), object (walks[q], c) being number src[first + step·c]
        if len(wins) == m:
            for t, (k, _, _, _, _, q) in enumerate(wins):
                firsts[f0 + t : stop : m] = ids[r * block + k : (r + 1) * block : deg]
                if faces:
                    sizes[f0 + t : stop : m] = [len(walks[q])] * ncos
                numbers[q] = (ids, f0 + t, m)
        else:
            for q in range(m):
                numbers[q] = ([0] * ncos, 0, 1)
            rows = sorted({0, s1, *(p[1] for p in wins), *(p[3] for p in wins)})
            cols = sorted({0, s2, *(p[2] for p in wins), *(p[4] for p in wins)})
            first = f0  # the number of the first smallest dart of cell (i0, j0)
            for i0, i1 in zip(rows, rows[1:]):
                band = [p for p in wins if p[1] >= i1]
                row_total = sum(p[2] for p in band)
                for j0, j1 in zip(cols, cols[1:]):
                    here = [p for p in band if p[2] >= j1]
                    n, h, w = len(here), i1 - i0, j1 - j0
                    for t, (k, _, _, ai, aj, q) in enumerate(here):
                        c = (i0 - ai) % s1 * s2 + (j0 - aj) % s2
                        _grid(numbers[q][0], c, s2, 1, ids, first + t, row_total, n, h, w)
                        dart = r * block + (i0 * s2 + j0) * deg + k
                        _grid(firsts, first + t, row_total, n, ids, dart, s2 * deg, deg, h, w)
                    if faces and n:
                        _grid(sizes, first, row_total, 1, [len(walks[p[5]]) for p in here] * (h * w), 0, w * n, 1, h, w * n)
                    first += n * w
                first += row_total * (h - 1)
        # The dart at position p of (class, c) is in cell c + offset, so the
        # (rep, slot) column holds the numbers moved back by the offset.
        for q, walk in enumerate(walks):
            for rep, offset, slot in walk:
                di, dj = box[offset]
                dart_of[rep * block + slot : (rep + 1) * block : deg] = _box_shift(
                    *numbers[q], s1, s2, -di % s1, -dj % s2
                )
        f0 = stop
    return dart_of, firsts, tuple(sizes) if faces else None


def build_quotient(spec: QuotientSpec) -> FlagMap:
    """The quotient of the tiling by the row lattice of spec.mat.

    Vertices are (rep, coset) pairs, numbered rep-major in the coset
    system's Smith box: vertex (rep, cell) is rep·ncos + i·s2 + j, where
    (i, j) = coset_system.box_coords(cell).  Dart k of a vertex
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
    # box rows and columns rotated (_box_shift), slices of the pool.  So the
    # reverse table holds the pool's own ints, which FlagMap takes with it,
    # and no int is made per dart by arithmetic.  _box_shift is the one
    # coset indexing outside `CosetSystem`: reading the column through
    # `cell_map(cs, shift=offset)` took E7 at 52·I from 58 to 79 ms.
    ids = list(range(nd))
    dart_rev = [0] * nd
    for r, darts in enumerate(tpl.neighbors):
        for k, (s, offset) in enumerate(darts):
            first = s * block + tpl.reverse_slots[r][k]
            column = _box_shift(ids, first, deg, s1, s2, *cs.box_coords(offset))
            dart_rev[r * block + k : (r + 1) * block : deg] = column
    # The _QuotientSlots vouches for dart_rev (see FlagMap.__init__).
    return FlagMap(dart_rev, _QuotientSlots(deg, dart_rev, ids, cs), spec=spec)


def _anchors(m: FlagMap) -> range:
    """One vertex per rep, the one in translation cell (0, 0): vertex
    rep·ncos, since vertex (rep, coset) is rep·ncos + coset and cell
    (0, 0) is coset 0.  A map without a coset system gets every vertex."""
    cs = m.coset_system
    return range(0, m.n_vertices, 1 if cs is None else cs.size())


def _rep_blocks(m: FlagMap) -> range:
    """The first dart of each rep's block of build_quotient's layout: rep
    r has the darts blocks[r] … blocks[r] + blocks.step − 1, its ncos
    vertices of deg darts each.  A map without a coset system is one
    block of all its darts."""
    cs = m.coset_system
    return range(0, m.n_darts, m.n_darts if cs is None else cs.size() * m.slot_degree)


def _gather(table, idx) -> tuple:
    """(table[i] for i in idx) as a tuple, read by one itemgetter call,
    which loops in C.  itemgetter returns a bare item for one index and
    raises for none, so those go through __getitem__."""
    if len(idx) > 1:
        return itemgetter(*idx)(table)
    return tuple(map(table.__getitem__, idx))


def _vertex_projection(y: FlagMap, x: FlagMap, sigma, matrix, shifts) -> tuple:
    """The vertex map of the lattice map (rep, w) -> (sigma[rep], R·w +
    shifts[rep]), R = matrix, from Y = T/K′ to X = T/K, two maps from
    build_quotient with R K′ ⊆ K: the Y-vertex (rep, c) goes to X's vertex
    sigma[rep]·|det K| + X's index of the cell R·c + shifts[rep].  One
    cell map per distinct shift, gathered once per rep block, so the
    cover projection and a translation (sigma the identity, every shift
    equal) make one.  The images are X's own ints: X's vertex v is
    x.dart_vertex[v·deg]."""
    xs = x.coset_system
    cells = {shift: y.coset_system.cell_map(xs, matrix, shift) for shift in set(shifts)}
    ncos, vertices = xs.size(), x.dart_vertex[:: x.slot_degree]
    # Grown by blocks and copied once: tuple(chain(...)) took 15 % longer (E7, Y at 52·I).
    vmap = []
    for t, shift in zip(sigma, shifts):  # Y's reps in order, each onto X's rep t
        vmap += _gather(vertices[t * ncos : (t + 1) * ncos], cells[shift])
    return tuple(vmap)


def _dart_projection(y: FlagMap, x: FlagMap, vm, slot_maps) -> list[int]:
    """The dart map of the vertex map vm and the slot maps, for two maps in
    build_quotient's layout with one degree deg (`slot_degree`): Y's
    vertices split, in order, into one block of equal size per slot map,
    and dart v·deg + k of a block with slot map s goes to dart
    vm[v]·deg + s[k] of X.  A block is a rep of Y (a point-group element's
    slot_maps), or the whole map for a lattice map that fixes every slot
    (one map, range(deg)).  This and `_vertex_projection` are the one
    construction of a lattice map's dart map.  One gather and
    slice assignment per (block, slot), each of X's deg columns of cw
    sliced once and dropped before the next (so a whole-map block holds
    one column at a time, not X's whole cw), and the images are X's own
    int objects: X's dart u·deg + k is the cw successor of its dart
    u·deg + k + 1.  With every slot map range(deg) it commutes with cw by
    the layout."""
    deg, size = y.slot_degree, len(vm) // len(slot_maps)  # size: the vertices of one block
    inverses = [sorted(range(deg), key=slots.__getitem__) for slots in slot_maps]  # inv[k2]: the slot sent to k2
    dmap = [0] * y.n_darts
    for k2 in range(deg):  # X's cw column k2, sliced once; one column is alive at a time
        column = x.dart_cw[(k2 + 1) % deg :: deg]
        for b, inv in enumerate(inverses):
            dmap[b * size * deg + inv[k2] : (b + 1) * size * deg : deg] = _gather(column, vm[b * size : (b + 1) * size])
    return dmap


def _translation_maps(y: FlagMap, x: FlagMap, shift) -> tuple[tuple, list[int]]:
    """The vertex and dart maps of the translation by the cell shift from
    Y = T/K′ to X = T/K, two maps from build_quotient with K′ ⊆ K: the
    projection pair with every rep fixed, R = I, the one shift for every
    rep and one slot map range(deg) for the whole map.  The cover
    projection is the shift (0, 0) from Y to X; a translation of a map
    is a shift from the map to itself."""
    reps = len(_rep_blocks(y))
    vm = _vertex_projection(y, x, range(reps), ((1, 0), (0, 1)), (shift,) * reps)
    return vm, _dart_projection(y, x, vm, (range(y.slot_degree),))


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
        return cls(runs=_canonical_runs(tuple(sizes)))

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


@lru_cache
def _canonical_runs(sizes: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The least of the dihedral images of the run sequence of sizes,
    cached per cycle: a tiling's vertices read a few cycles, one per
    rotation of their vertex type, again at every anchor of every map."""
    return min(dihedral(_cyclic_runs(sizes)))


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
        walk = m.face_walk(f)
        vset = set(map(m.dart_vertex.__getitem__, walk))
        eset = set(map(m.dart_edge.__getitem__, walk))
        if len(vset) < len(walk) or len(eset) < len(walk):
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
