"""The eleven Archimedean plane tilings as finite combinatorial templates.

Each template records one translation cell of a doubly periodic tiling:

* `reps`: the vertex representatives of the cell, with Euclidean
  positions in a basis scaled so that |A| = 1.
* `neighbors`: per rep, the counterclockwise rotation system of darts
  (rep', offset), meaning rep in cell w is adjacent to rep' in cell
  w + offset.  Offsets are coordinates in the (A, B) translation basis.
* `point_group`: generators of the point symmetries that make the
  tiling's full symmetry group vertex-transitive.  An element maps the
  vertex (r, w) to (sigma[r], R @ w + shift[r]); R is the Euclidean
  rotation/reflection rewritten in the (A, B) basis, so it is an
  integer matrix of determinant +-1.

Templates are seeded geometrically at unit edge length and the dart and
point-group tables are derived from the seed by exact-tolerance
nearest-vertex search; validate_template re-checks every invariant on
the finished combinatorial data, so coordinates are scaffolding, not
the source of truth.

Square-basis tilings use perpendicular A, B of equal length; the
hexagonal family uses a 60-degree rhombus, where the 60-degree rotation
acts on lattice coordinates as [[0,-1],[1,1]] (it sends A to B and B to
B - A, i.e. A plus the 120-degree direction vector equals B).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, TypeVar

Vec2 = tuple[float, float]
IVec = tuple[int, int]
IMat = tuple[tuple[int, int], tuple[int, int]]
Dart = tuple[int, IVec]
Cycle = TypeVar("Cycle", tuple, list)

_TOL = 1e-9
_MATCH_TOL = 1e-6


class TilingId(Enum):
    TRIANGULAR = "triangular"
    SQUARE = "square"
    HEXAGONAL = "hexagonal"
    ELONGATED_TRIANGULAR = "elongated-triangular"
    TRUNCATED_SQUARE = "truncated-square"
    SNUB_SQUARE = "snub-square"
    SNUB_HEXAGONAL = "snub-hexagonal"
    TRIHEXAGONAL = "trihexagonal"
    RHOMBITRIHEXAGONAL = "rhombitrihexagonal"
    TRUNCATED_HEXAGONAL = "truncated-hexagonal"
    TRUNCATED_TRIHEXAGONAL = "truncated-trihexagonal"

    @property
    def signature(self) -> tuple[int, ...]:
        """Face sizes around a vertex, in rotation order."""
        return _SIGNATURES[self]

    @property
    def code(self) -> str:
        """Short CLI code: E1..E7 for the seven, T+digits for the rest."""
        return _CODES[self]

    @property
    def vertex_type_str(self) -> str:
        return ".".join(str(p) for p in self.signature)

    @property
    def trivially_vertex_transitive(self) -> bool:
        """The four types whose every polyhedral quotient is vertex-transitive."""
        return self in _TRIVIAL

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"TilingId.{self.name}"


_SIGNATURES: dict[TilingId, tuple[int, ...]] = {
    TilingId.TRIANGULAR: (3, 3, 3, 3, 3, 3),
    TilingId.SQUARE: (4, 4, 4, 4),
    TilingId.HEXAGONAL: (6, 6, 6),
    TilingId.ELONGATED_TRIANGULAR: (3, 3, 3, 4, 4),
    TilingId.TRUNCATED_SQUARE: (4, 8, 8),
    TilingId.SNUB_SQUARE: (3, 3, 4, 3, 4),
    TilingId.SNUB_HEXAGONAL: (3, 3, 3, 3, 6),
    TilingId.TRIHEXAGONAL: (3, 6, 3, 6),
    TilingId.RHOMBITRIHEXAGONAL: (3, 4, 6, 4),
    TilingId.TRUNCATED_HEXAGONAL: (3, 12, 12),
    TilingId.TRUNCATED_TRIHEXAGONAL: (4, 6, 12),
}

_CODES: dict[TilingId, str] = {
    TilingId.TRIANGULAR: "T333333",
    TilingId.SQUARE: "T4444",
    TilingId.HEXAGONAL: "T666",
    TilingId.ELONGATED_TRIANGULAR: "T33344",
    TilingId.TRUNCATED_SQUARE: "E1",
    TilingId.SNUB_SQUARE: "E2",
    TilingId.SNUB_HEXAGONAL: "E3",
    TilingId.TRIHEXAGONAL: "E4",
    TilingId.RHOMBITRIHEXAGONAL: "E5",
    TilingId.TRUNCATED_HEXAGONAL: "E6",
    TilingId.TRUNCATED_TRIHEXAGONAL: "E7",
}

_TRIVIAL = frozenset(
    {
        TilingId.TRIANGULAR,
        TilingId.SQUARE,
        TilingId.HEXAGONAL,
        TilingId.ELONGATED_TRIANGULAR,
    }
)

# Expected vertex representatives per translation cell.
_REP_COUNTS: dict[TilingId, int] = {
    TilingId.TRIANGULAR: 1,
    TilingId.SQUARE: 1,
    TilingId.HEXAGONAL: 2,
    TilingId.ELONGATED_TRIANGULAR: 2,
    TilingId.TRUNCATED_SQUARE: 4,
    TilingId.SNUB_SQUARE: 4,
    TilingId.SNUB_HEXAGONAL: 6,
    TilingId.TRIHEXAGONAL: 3,
    TilingId.RHOMBITRIHEXAGONAL: 6,
    TilingId.TRUNCATED_HEXAGONAL: 6,
    TilingId.TRUNCATED_TRIHEXAGONAL: 12,
}


class PointGroupElem(NamedTuple):
    """A point symmetry acting on template data.

    Vertex action: (r, w) -> (sigma[r], R @ w + shifts[r]) with w the
    lattice cell in (A, B) coordinates.  `matrix` is R; reflections have
    det(R) = -1 and reverse the rotation order at every vertex, which is
    why `slot_maps` (per rep, slot -> image slot) is precomputed here.
    """

    name: str
    kind: str  # "rotation" or "reflection"
    order: int
    sigma: tuple[int, ...]
    matrix: IMat
    shifts: tuple[IVec, ...]
    slot_maps: tuple[tuple[int, ...], ...]

    @property
    def reverses_orientation(self) -> bool:
        (a, b), (c, d) = self.matrix
        return a * d - b * c < 0

    def apply_vertex(self, rep: int, cell: IVec) -> tuple[int, IVec]:
        (r00, r01), (r10, r11) = self.matrix
        sx, sy = self.shifts[rep]
        return self.sigma[rep], (
            r00 * cell[0] + r01 * cell[1] + sx,
            r10 * cell[0] + r11 * cell[1] + sy,
        )

    def apply_dart(self, rep: int, dart: Dart) -> Dart:
        """The image of dart (s, offset) at rep: the image of its head
        under apply_vertex, minus the image cell of (rep, (0, 0))."""
        s, offset = dart
        t, (hx, hy) = self.apply_vertex(s, offset)
        tx, ty = self.shifts[rep]
        return t, (hx - tx, hy - ty)


class TilingTemplate(NamedTuple):
    id: TilingId
    rep_names: tuple[str, ...]
    rep_pos: tuple[Vec2, ...]
    basis_a: Vec2
    basis_b: Vec2
    edge_length: float
    cell_area_factor: str  # exact tag: "1" or "sqrt(3)/2"
    neighbors: tuple[tuple[Dart, ...], ...]
    reverse_slots: tuple[tuple[int, ...], ...]
    point_group: tuple[PointGroupElem, ...]

    @property
    def rep_count(self) -> int:
        return len(self.rep_names)

    @property
    def degree(self) -> int:
        return len(self.neighbors[0])

    @property
    def signature(self) -> tuple[int, ...]:
        return self.id.signature


# --------------------------------------------------------------------------
# Geometric seeds (unit edge length).

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)


def _rot(deg: float) -> tuple[Vec2, Vec2]:
    r = math.radians(deg)
    return ((math.cos(r), -math.sin(r)), (math.sin(r), math.cos(r)))


def _mirror(deg: float) -> tuple[Vec2, Vec2]:
    # Reflection across the line through the origin at the given angle.
    r = math.radians(2.0 * deg)
    return ((math.cos(r), math.sin(r)), (math.sin(r), -math.cos(r)))


def _polar(radius: float, deg: float) -> Vec2:
    r = math.radians(deg)
    return (radius * math.cos(r), radius * math.sin(r))


class _Seed(NamedTuple):
    basis_a: Vec2
    basis_b: Vec2
    reps: tuple[Vec2, ...]
    # Linear parts only; names, kinds and orders are derived.  Not taken
    # from full_point_group, whose T33344 rot2 has another shifts[0].
    gens: tuple[tuple[Vec2, Vec2], ...]
    area_factor: str


def _hex_basis(length: float) -> tuple[Vec2, Vec2]:
    # 60-degree rhombus, A at -30 degrees, B at +30.
    return _polar(length, -30.0), _polar(length, 30.0)


# Circumradius of a unit-edge regular 12-gon.
_R12 = 1.0 / (2.0 * math.sin(math.radians(15.0)))


def _seed(tid: TilingId) -> _Seed:
    rot6, rot4 = _rot(60.0), _rot(90.0)
    if tid is TilingId.TRIANGULAR:
        return _Seed((1.0, 0.0), (0.5, _SQ3 / 2), ((0.0, 0.0),), (rot6,), "sqrt(3)/2")
    if tid is TilingId.SQUARE:
        return _Seed((1.0, 0.0), (0.0, 1.0), ((0.0, 0.0),), (rot4,), "1")
    if tid is TilingId.HEXAGONAL:
        a, b = _hex_basis(_SQ3)
        return _Seed(a, b, ((1.0, 0.0), (0.5, _SQ3 / 2)), (rot6,), "sqrt(3)/2")
    if tid is TilingId.ELONGATED_TRIANGULAR:
        # Origin at a square's center; rows of squares alternate with
        # triangle strips, so the only point rotation is 2-fold.
        reps = ((-0.5, -0.5), (-0.5, 0.5))
        return _Seed((1.0, 0.0), (0.5, 1.0 + _SQ3 / 2), reps, (_rot(180.0),), "1")
    if tid is TilingId.TRUNCATED_SQUARE:
        side = 1.0 + _SQ2
        reps = tuple(_polar(_SQ2 / 2, 90.0 * k) for k in range(4))
        return _Seed((side, 0.0), (0.0, side), reps, (rot4,), "1")
    if tid is TilingId.SNUB_SQUARE:
        side = math.sqrt(2.0 + _SQ3)
        reps = tuple(_polar(_SQ2 / 2, 60.0 + 90.0 * k) for k in range(4))
        return _Seed((side, 0.0), (0.0, side), reps, (rot4,), "1")
    if tid is TilingId.SNUB_HEXAGONAL:
        # Triangular lattice with an index-7 sublattice of vertices
        # deleted; the deleted sites become the hexagons and the six
        # surviving cosets are the unit hexagon around each hole.
        ta, tb = (1.0, 0.0), (0.5, _SQ3 / 2)
        a = (2 * ta[0] + tb[0], 2 * ta[1] + tb[1])
        b = (-ta[0] + 3 * tb[0], -ta[1] + 3 * tb[1])
        reps = tuple(_polar(1.0, 60.0 * k) for k in range(6))
        return _Seed(a, b, reps, (rot6,), "sqrt(3)/2")
    if tid is TilingId.TRIHEXAGONAL:
        reps = ((1.0, 0.0), (0.5, _SQ3 / 2), (-0.5, _SQ3 / 2))
        return _Seed((2.0, 0.0), (1.0, _SQ3), reps, (rot6,), "sqrt(3)/2")
    if tid is TilingId.RHOMBITRIHEXAGONAL:
        a, b = _hex_basis(1.0 + _SQ3)
        reps = tuple(_polar(1.0, 60.0 * k) for k in range(6))
        return _Seed(a, b, reps, (rot6,), "sqrt(3)/2")
    if tid is TilingId.TRUNCATED_HEXAGONAL:
        a, b = _hex_basis(2.0 + _SQ3)
        reps = tuple(_polar(_R12, 15.0 + 30.0 * k) for k in range(6))
        return _Seed(a, b, reps, (rot6,), "sqrt(3)/2")
    if tid is TilingId.TRUNCATED_TRIHEXAGONAL:
        a, b = _hex_basis(3.0 + _SQ3)
        reps = tuple(_polar(_R12, 15.0 + 30.0 * k) for k in range(12))
        return _Seed(a, b, reps, (rot6, _mirror(-30.0)), "sqrt(3)/2")
    raise AssertionError(f"no seed for {tid}")


# --------------------------------------------------------------------------
# Derivation of combinatorial data from a seed.


def _solve_cell(
    basis_a: Vec2, basis_b: Vec2, reps: tuple[Vec2, ...], point: Vec2
) -> tuple[int, IVec] | None:
    """Find (rep, offset) with reps[rep] + offset . (A, B) == point."""
    det = basis_a[0] * basis_b[1] - basis_a[1] * basis_b[0]
    for idx, rp in enumerate(reps):
        dx, dy = point[0] - rp[0], point[1] - rp[1]
        # Coordinates of the difference in the (A, B) basis.
        wa = (dx * basis_b[1] - dy * basis_b[0]) / det
        wb = (dy * basis_a[0] - dx * basis_a[1]) / det
        ia, ib = round(wa), round(wb)
        if abs(wa - ia) < _MATCH_TOL and abs(wb - ib) < _MATCH_TOL:
            return idx, (ia, ib)
    return None


def _apply_mat(m: tuple[Vec2, Vec2], p: Vec2) -> Vec2:
    return (m[0][0] * p[0] + m[0][1] * p[1], m[1][0] * p[0] + m[1][1] * p[1])


def _derive_neighbors(seed: _Seed) -> tuple[tuple[Dart, ...], ...]:
    (ax, ay), (bx, by) = seed.basis_a, seed.basis_b
    span = range(-2, 3)
    # The 25 cell offsets and their two terms, summed in the order
    # other + ia·A + ib·B so every candidate point is the same float.
    shifts = [((ia, ib), ia * ax, ib * bx, ia * ay, ib * by) for ia in span for ib in span]
    # |d − 1| < tol implies |d² − 1| < 3·tol, so the cheap squared test
    # only drops candidates that the hypot test would reject.
    loose = 3 * _MATCH_TOL
    out = []
    for rx, ry in seed.reps:
        darts: list[tuple[float, Dart]] = []
        for j, (ox, oy) in enumerate(seed.reps):
            for cell, sax, sbx, say, sby in shifts:
                dx, dy = ox + sax + sbx - rx, oy + say + sby - ry
                if abs(dx * dx + dy * dy - 1.0) < loose and abs(math.hypot(dx, dy) - 1.0) < _MATCH_TOL:
                    angle = math.atan2(dy, dx) % (2.0 * math.pi)
                    darts.append((angle, (j, cell)))
        darts.sort(key=lambda t: t[0])
        out.append(tuple(d for _, d in darts))
    return tuple(out)


def _affine_element(
    ba: Vec2, bb: Vec2, reps: Sequence[Vec2], neighbors: Sequence[Sequence[Dart]], g: tuple[Vec2, Vec2], t: Vec2
) -> PointGroupElem | None:
    """The unnamed element that the isometry p -> g @ p + t induces on
    the template with cell (ba, bb), these reps and darts, its kind read
    off R and its order from `_order`, or None when it is not a
    symmetry: a rep, (0, e1) or (0, e2) has no vertex for image, the
    last two are not translates of rep 0's, or a dart has no dart for
    image."""
    x0, y0 = reps[0]
    # The vertices (r, (0, 0)) of every rep, then (0, e1) and (0, e2).
    points = (*reps, (x0 + ba[0], y0 + ba[1]), (x0 + bb[0], y0 + bb[1]))
    hits = [_solve_cell(ba, bb, reps, (gx + t[0], gy + t[1])) for gx, gy in (_apply_mat(g, p) for p in points)]
    if None in hits or {hits[-2][0], hits[-1][0]} != {hits[0][0]}:
        return None
    *cells, (_, e1), (_, e2) = hits
    sigma = tuple(r for r, _ in cells)
    shifts = tuple(w for _, w in cells)
    # R's columns are the cells of the images of (0, e1) and (0, e2),
    # taken relative to the image of (0, (0, 0)).
    cols = [(w[0] - shifts[0][0], w[1] - shifts[0][1]) for w in (e1, e2)]
    elem = PointGroupElem("", "", 0, sigma, tuple(zip(*cols)), shifts, slot_maps=())
    try:
        slot_maps = tuple(
            tuple(neighbors[sigma[r]].index(elem.apply_dart(r, d)) for d in darts)
            for r, darts in enumerate(neighbors)
        )
    except ValueError:
        return None
    kind = "reflection" if elem.reverses_orientation else "rotation"
    return elem._replace(kind=kind, order=_order(elem), slot_maps=slot_maps)


def _derive_point_group(
    seed: _Seed, neighbors: tuple[tuple[Dart, ...], ...]
) -> tuple[PointGroupElem, ...]:
    """The seed's generators, named rot<order>, or mirror for a reflection."""
    elems = []
    for k, mat in enumerate(seed.gens):
        elem = _affine_element(seed.basis_a, seed.basis_b, seed.reps, neighbors, mat, (0.0, 0.0))
        if elem is None:
            raise AssertionError(f"seed generator {k}: not a symmetry of the seed")
        elems.append(elem._replace(name="mirror" if elem.kind == "reflection" else f"rot{elem.order}"))
    return tuple(elems)


# Every rotation by a multiple of 30 degrees and every mirror at a multiple
# of 15: the point symmetries of the square and hexagonal lattices, and more.
_LINEAR_PARTS = (*(_rot(30.0 * k) for k in range(12)), *(_mirror(15.0 * k) for k in range(12)))


@lru_cache(maxsize=None)
def full_point_group(tiling: TilingId) -> tuple[PointGroupElem, ...]:
    """Every element of G/T, the tiling's symmetry group modulo its
    translations, with shifts[0] = (0, 0); the identity comes first.

    Read off the template's geometry as its generators are: one element
    per isometry p -> G @ p + t that `_affine_element` accepts, with G in
    `_LINEAR_PARTS` and t taking rep 0 onto each rep in turn.  Each
    element is checked on the infinite tiling (`_validate_element`); a
    failure raises AssertionError.  Glide reflections have order 0
    (infinite).
    """
    tpl = template(tiling)
    x0, y0 = tpl.rep_pos[0]
    elems: list[PointGroupElem] = []
    for x, y in tpl.rep_pos:
        for g in _LINEAR_PARTS:
            gx, gy = _apply_mat(g, (x0, y0))
            elem = _affine_element(tpl.basis_a, tpl.basis_b, tpl.rep_pos, tpl.neighbors, g, (x - gx, y - gy))
            if elem is None:
                continue
            elem = elem._replace(name=f"g{len(elems)}")
            problems = _validate_element(tpl, elem)
            if problems:
                raise AssertionError(f"element derived for {tiling.code} is not a tiling symmetry: {problems}")
            elems.append(elem)
    return tuple(elems)


def _order(elem: PointGroupElem) -> int:
    """The order of elem as a tiling symmetry, or 0 when it is infinite
    (a glide reflection).  A power that fixes vertex (0, w) for w = 0,
    e1, e2 has R^k = I and fixes a point, so it is the identity."""
    start = [(0, w) for w in ((0, 0), (1, 0), (0, 1))]
    cur = start
    for k in range(1, 13):
        cur = [elem.apply_vertex(*v) for v in cur]
        if cur == start:
            return k
    return 0


def _derive_reverse_slots(neighbors: tuple[tuple[Dart, ...], ...]) -> tuple[tuple[int, ...], ...]:
    out = []
    for r, darts in enumerate(neighbors):
        row = []
        for s, (ox, oy) in darts:
            row.append(neighbors[s].index((r, (-ox, -oy))))
        out.append(tuple(row))
    return tuple(out)


@lru_cache(maxsize=None)
def template(tid: TilingId) -> TilingTemplate:
    """The validated static template for a tiling."""
    seed = _seed(tid)
    neighbors = _derive_neighbors(seed)
    reverse_slots = _derive_reverse_slots(neighbors)
    point_group = _derive_point_group(seed, neighbors)
    scale = 1.0 / math.hypot(*seed.basis_a)
    tpl = TilingTemplate(
        id=tid,
        rep_names=tuple(f"u{k}" for k in range(len(seed.reps))),
        rep_pos=tuple((x * scale, y * scale) for x, y in seed.reps),
        basis_a=(seed.basis_a[0] * scale, seed.basis_a[1] * scale),
        basis_b=(seed.basis_b[0] * scale, seed.basis_b[1] * scale),
        edge_length=scale,
        cell_area_factor=seed.area_factor,
        neighbors=neighbors,
        reverse_slots=reverse_slots,
        point_group=point_group,
    )
    problems = validate_template(tpl)
    if problems:
        raise AssertionError(f"template {tid} failed validation: {problems}")
    return tpl


def all_templates() -> tuple[TilingTemplate, ...]:
    """Every template, built and validated.  Nothing in the package or the
    tests calls it; the benchmark's cold set-up (`cold_setup` in
    perfbench/run.py) does, to time the eleven template builds."""
    return tuple(template(tid) for tid in TilingId)


# --------------------------------------------------------------------------
# Template-level face tracing (on the infinite tiling).

# A face walk longer than this is a broken template: the largest face of
# an Archimedean tiling is a 12-gon.
_FACE_TRACE_LIMIT = 64


def face_trace(tpl: TilingTemplate, rep: int, slot: int) -> list[tuple[int, IVec, int]]:
    """Walk the face of the infinite tiling on the left of dart `slot`
    of `rep` in cell (0, 0); returns its darts as (rep, cell, slot)."""
    start = (rep, (0, 0), slot)
    walk = [start]
    cur = start
    for _ in range(_FACE_TRACE_LIMIT):
        r, cell, k = cur
        s, off = tpl.neighbors[r][k]
        rev = tpl.reverse_slots[r][k]
        nxt_cell = (cell[0] + off[0], cell[1] + off[1])
        cur = (s, nxt_cell, (rev - 1) % len(tpl.neighbors[s]))
        if cur == start:
            return walk
        walk.append(cur)
    raise AssertionError(f"face at ({rep}, {slot}) did not close within {_FACE_TRACE_LIMIT} steps")


@lru_cache(maxsize=None)
def face_classes(tid: TilingId) -> tuple[tuple[tuple[int, IVec, int], ...], ...]:
    """The tiling's faces up to translation: one face_trace walk per class,
    in the order of the classes' first darts (rep, slot), each walked from
    that dart and moved so that its least dart (rep, cell, slot) sits in
    cell (0, 0).  A walk closes only where it started, and the next-dart
    rule commutes with translations, so no face holds one (rep, slot) in
    two cells: each (rep, slot) lies on one class, and a quotient T/K has
    one face per class and coset, of the class's size."""
    tpl = template(tid)
    seen = set()
    classes = []
    for r, darts in enumerate(tpl.neighbors):
        for k in range(len(darts)):
            if (r, k) not in seen:
                walk = face_trace(tpl, r, k)
                seen.update((rep, slot) for rep, _, slot in walk)
                ax, ay = min(walk)[1]
                classes.append(tuple((rep, (cx - ax, cy - ay), slot) for rep, (cx, cy), slot in walk))
    return tuple(classes)


def face_sizes_at_rep(tpl: TilingTemplate, rep: int) -> tuple[int, ...]:
    """Sizes of the faces around a rep, counterclockwise; the face at
    index k lies between darts k and k+1."""
    return tuple(len(face_trace(tpl, rep, k)) for k in range(len(tpl.neighbors[rep])))


def dihedral(seq: Cycle) -> Iterator[Cycle]:
    """Every rotation of a tuple or list, then every rotation of its
    reversal.  Lazy, so `x in dihedral(seq)` stops at the first match."""
    n = len(seq)
    for s in (seq, seq[::-1]):
        for i in range(n):
            yield s[i:] + s[:i]


# --------------------------------------------------------------------------
# Validation.


def validate_template(tpl: TilingTemplate) -> list[str]:
    """All invariant violations of a template; empty list means valid."""
    problems: list[str] = []
    nreps = tpl.rep_count
    if nreps != _REP_COUNTS[tpl.id]:
        problems.append(f"expected {_REP_COUNTS[tpl.id]} reps, found {nreps}")

    degs = {len(d) for d in tpl.neighbors}
    if degs != {len(tpl.signature)}:
        problems.append(f"vertex degrees {degs} != signature length {len(tpl.signature)}")

    # Dart symmetry: (s, t) at rep r must be mirrored by (r, -t) at rep s,
    # at the slot reverse_slots[r][k], whose own reverse slot is k again,
    # and no dart is its own reverse.  build_quotient's reverse table is
    # these slots moved by their offsets, so for every lattice K it is a
    # fixed-point-free involution: a dart of T/K is its own reverse only
    # if its dart in the tiling is.
    for r, darts in enumerate(tpl.neighbors):
        if len(set(darts)) != len(darts):
            problems.append(f"duplicate dart at rep {r}")
        for k, (s, (ox, oy)) in enumerate(darts):
            if not (0 <= s < nreps):
                problems.append(f"dart ({r},{k}) points at unknown rep {s}")
                continue
            back = tpl.reverse_slots[r][k]
            if (r, (-ox, -oy)) not in tpl.neighbors[s]:
                problems.append(f"dart ({r},{k}) has no reverse at rep {s}")
            elif (
                back not in range(len(tpl.neighbors[s]))
                or tpl.neighbors[s][back] != (r, (-ox, -oy))
                or tpl.reverse_slots[s][back] != k
            ):
                problems.append(f"reverse_slots wrong for dart ({r},{k})")
            elif (s, back) == (r, k):
                problems.append(f"dart ({r},{k}) is its own reverse")

    if problems:
        return problems  # face tracing needs consistent darts

    connected = _connectivity_problem(tpl)
    if connected is not None:
        problems.append(connected)

    # Face tracing must reproduce the vertex type at every rep.
    for r in range(nreps):
        sizes = face_sizes_at_rep(tpl, r)
        if sizes not in dihedral(tpl.signature):
            problems.append(f"face sizes {sizes} at rep {r} do not match {tpl.signature}")

    for elem in tpl.point_group:
        problems.extend(_validate_element(tpl, elem))

    # The stored generators must reach every rep (vertex-transitivity of
    # the tiling's symmetry group at template level).
    orbits = rep_orbits(nreps, [elem.sigma for elem in tpl.point_group])
    if len(orbits) != 1:
        problems.append(f"point group fixes {len(orbits)} rep orbits, expected 1")

    if tpl.cell_area_factor not in ("1", "sqrt(3)/2"):
        problems.append(f"unknown area factor {tpl.cell_area_factor}")

    return problems


def _connectivity_problem(tpl: TilingTemplate) -> str | None:
    """Why the plane tiling is not connected, or None when it is.

    The tiling is connected exactly when the darts join every rep and the
    offsets of the closed walks span Z²: the cells that a walk from rep 0
    in cell (0, 0) reaches at rep r are one coset of that span.  A
    spanning tree of the reps puts each rep at a cell; every dart then
    closes one walk through the tree, and those walks' offsets span all
    the others.  They span Z² when the gcd of their 2×2 minors is 1.

    Every quotient T/K is the image of the tiling, so a connected tiling
    makes every T/K connected, which build_quotient relies on."""
    at: list[IVec | None] = [None] * tpl.rep_count
    at[0] = (0, 0)
    joined = [0]
    for r in joined:  # grows while it is walked
        x, y = at[r]
        for s, (ox, oy) in tpl.neighbors[r]:
            if at[s] is None:
                at[s] = (x + ox, y + oy)
                joined.append(s)
    if len(joined) != tpl.rep_count:
        return f"the darts join {len(joined)} of {tpl.rep_count} reps"
    cycles = {
        (at[r][0] + ox - at[s][0], at[r][1] + oy - at[s][1])
        for r, darts in enumerate(tpl.neighbors)
        for s, (ox, oy) in darts
    }
    index = 0
    for (a, b), (c, d) in combinations(cycles, 2):
        index = math.gcd(index, a * d - b * c)
        if index == 1:
            return None
    return f"the closed walks' offsets do not span Z²: their 2×2 minors have gcd {index}"


def _validate_element(tpl: TilingTemplate, elem: PointGroupElem) -> list[str]:
    problems: list[str] = []
    nreps = tpl.rep_count
    label = f"{tpl.id.value}:{elem.name}"
    if sorted(elem.sigma) != list(range(nreps)):
        problems.append(f"{label}: sigma is not a permutation")
        return problems
    (a, b), (c, d) = elem.matrix
    if a * d - b * c not in (1, -1):
        problems.append(f"{label}: R determinant not +-1")
    # R must have finite order dividing 12.
    m = ((1, 0), (0, 1))
    for _ in range(12):
        m = (
            (m[0][0] * a + m[0][1] * c, m[0][0] * b + m[0][1] * d),
            (m[1][0] * a + m[1][1] * c, m[1][0] * b + m[1][1] * d),
        )
    if m != ((1, 0), (0, 1)):
        problems.append(f"{label}: R^12 is not the identity")

    # Adjacency preservation: the image of every dart is a dart, at the
    # slot recorded in slot_maps, and the slot map is a bijection.
    for r, darts in enumerate(tpl.neighbors):
        if sorted(elem.slot_maps[r]) != list(range(len(darts))):
            problems.append(f"{label}: slot map at rep {r} is not a bijection")
            continue
        for k, dart in enumerate(darts):
            if tpl.neighbors[elem.sigma[r]][elem.slot_maps[r][k]] != elem.apply_dart(r, dart):
                problems.append(f"{label}: dart ({r},{k}) image mismatch")

    # Applying the element `order` times must come back to the identity
    # on vertices (checked on the reps of the home cell).
    for r in range(nreps):
        cur = (r, (0, 0))
        for _ in range(elem.order):
            cur = elem.apply_vertex(*cur)
        if cur != (r, (0, 0)):
            problems.append(f"{label}: order {elem.order} does not close at rep {r}")

    geo = _check_geometry(elem, tpl)
    if geo is not None:
        problems.append(f"{label}: {geo}")
    return problems


def _check_geometry(elem: PointGroupElem, tpl: TilingTemplate) -> str | None:
    """R rewritten in Euclidean coordinates must be the isometry the
    element claims to be: orthogonal, right determinant, right angle."""
    (r00, r01), (r10, r11) = elem.matrix
    ax, ay = tpl.basis_a
    bx, by = tpl.basis_b
    # Euclidean images of the basis vectors (columns of R give their
    # (A, B) coordinates), then G = [gA gB] @ [A B]^-1.
    ga = (r00 * ax + r10 * bx, r00 * ay + r10 * by)
    gb = (r01 * ax + r11 * bx, r01 * ay + r11 * by)
    det = ax * by - ay * bx
    g = (
        ((ga[0] * by - gb[0] * ay) / det, (gb[0] * ax - ga[0] * bx) / det),
        ((ga[1] * by - gb[1] * ay) / det, (gb[1] * ax - ga[1] * bx) / det),
    )
    dot01 = g[0][0] * g[0][1] + g[1][0] * g[1][1]
    n0 = g[0][0] ** 2 + g[1][0] ** 2
    n1 = g[0][1] ** 2 + g[1][1] ** 2
    if abs(n0 - 1.0) > _TOL or abs(n1 - 1.0) > _TOL or abs(dot01) > _TOL:
        return "basis-conjugated action is not orthogonal"
    gdet = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    if elem.kind == "rotation":
        if abs(gdet - 1.0) > _TOL:
            return "rotation has Euclidean determinant != 1"
        want_trace = 2.0 * math.cos(2.0 * math.pi / elem.order)
        if abs((g[0][0] + g[1][1]) - want_trace) > _TOL:
            return f"rotation angle is not 360/{elem.order} degrees"
    else:
        if abs(gdet + 1.0) > _TOL:
            return "reflection has Euclidean determinant != -1"
        if abs(g[0][0] + g[1][1]) > _TOL:
            return "reflection trace is nonzero"
    return None


def rep_orbits(n: int, sigmas: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The orbits of range(n) under the group the permutations `sigmas`
    generate, each sorted, ordered by least element."""
    seen = [False] * n
    orbits = []
    for r in range(n):
        if seen[r]:
            continue
        seen[r] = True
        orbit = [r]
        for x in orbit:  # grows while it is walked
            for sigma in sigmas:
                if not seen[sigma[x]]:
                    seen[sigma[x]] = True
                    orbit.append(sigma[x])
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


# --------------------------------------------------------------------------
# Name parsing and serialization (CLI surface).


def parse_tiling(text: str) -> TilingId:
    """Accept slugs, E/T short codes, and dotted vertex-type strings."""
    raw = text.strip()
    slug = raw.lower().replace("_", "-")
    for tid in TilingId:
        if slug == tid.value:
            return tid
    upper = raw.upper()
    for tid, code in _CODES.items():
        if upper == code:
            return tid
    if upper == "T44":  # common shorthand for the square tiling
        return TilingId.SQUARE
    if upper.startswith("T") and upper[1:].isdigit():
        digits = upper[1:]
        for tid in TilingId:
            if digits in ("".join(map(str, s)) for s in dihedral(tid.signature)):
                return tid
    if "." in raw:
        try:
            cycle = tuple(int(p) for p in raw.split("."))
        except ValueError:
            cycle = ()
        for tid in TilingId:
            if cycle in dihedral(tid.signature):
                return tid
    raise ValueError(f"unknown tiling name: {text!r}")


def template_as_dict(tpl: TilingTemplate) -> dict:
    """JSON-ready dump of a template (floats rounded for determinism)."""

    def v2(p: Vec2) -> list[float]:
        return [round(p[0], 12), round(p[1], 12)]

    return {
        "tiling": tpl.id.value,
        "code": tpl.id.code,
        "vertex_type": tpl.id.vertex_type_str,
        "signature": list(tpl.signature),
        "trivially_vertex_transitive": tpl.id.trivially_vertex_transitive,
        "rep_count": tpl.rep_count,
        "degree": tpl.degree,
        "reps": [
            {"name": name, "position": v2(pos)}
            for name, pos in zip(tpl.rep_names, tpl.rep_pos)
        ],
        "basis": {"a": v2(tpl.basis_a), "b": v2(tpl.basis_b)},
        "edge_length": round(tpl.edge_length, 12),
        "cell_area_factor": tpl.cell_area_factor,
        "neighbors": [
            [{"rep": s, "offset": list(off)} for s, off in darts]
            for darts in tpl.neighbors
        ],
        "point_group": [
            {
                "name": e.name,
                "kind": e.kind,
                "order": e.order,
                "sigma": list(e.sigma),
                "matrix": [list(row) for row in e.matrix],
                "shifts": [list(s) for s in e.shifts],
            }
            for e in tpl.point_group
        ],
    }
