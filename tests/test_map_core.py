"""Tests for flag-map construction, vertex types, and polyhedrality.

Count oracles here are arithmetic on the tiling template (vertices per
cell times lattice index, degree sums, face-size bookkeeping), so they
never touch the dart tables that build_quotient produces.
"""

from __future__ import annotations

import copy
import gc
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain, groupby
from operator import eq

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricover import (
    FlagMap,
    QuotientSpec,
    SublatticeMat,
    TilingId,
    build_quotient,
    descend,
    is_polyhedral,
    is_semi_equivelar,
    map_summary,
    parse_tiling,
    template,
)
from toricover import map_core
from toricover.lattice import enumerate_hnf
from toricover.map_core import SlotRotations, VertexTypeSig, euler_characteristic, face_cycle, vertex_type

from helpers import (
    LAZY_TABLES,
    NON_HERMITE_MATS,
    are_isomorphic,
    edge_endpoints,
    face_vertices,
    from_faces,
    full_scan,
    reference_flag_tables,
    reference_map_tables,
    reference_quotient,
    representatives,
    smith_generator_shifts,
    translation,
    vertex_at,
)

SWEEP_MATS = [
    SublatticeMat(1, 0, 0, 1),
    SublatticeMat(2, 0, 0, 2),
    SublatticeMat(2, 1, 0, 3),
    SublatticeMat(1, -2, 3, 1),
]


def oracle_counts(tid: TilingId, mat: SublatticeMat) -> tuple[int, int, Counter]:
    """(vertices, edges, face-size multiset) from template arithmetic alone.

    Each face of size s meets s vertex-corner incidences, so the number
    of s-faces is V * (occurrences of s in the vertex type) / s.
    """
    tpl = template(tid)
    v = tpl.rep_count * mat.index()
    e = v * tpl.degree // 2
    faces = Counter()
    for s, c in Counter(tid.signature).items():
        count = Fraction(v * c, s)
        assert count.denominator == 1
        faces[s] = int(count)
    return v, e, faces


def sweep_maps():
    for tid in TilingId:
        for mat in SWEEP_MATS:
            yield tid, mat, build_quotient(QuotientSpec(tid, mat))


# --- counts ---


def test_square_grid_counts():
    m = build_quotient(QuotientSpec(TilingId.SQUARE, SublatticeMat(3, 0, 0, 3)))
    assert (m.n_vertices, m.n_edges, m.n_faces, m.n_flags) == (9, 18, 9, 72)


def test_truncated_square_counts():
    m = build_quotient(QuotientSpec(parse_tiling("E1"), SublatticeMat(1, 0, 0, 1)))
    assert (m.n_vertices, m.n_edges, m.n_faces) == (4, 6, 2)
    assert sorted(m.face_sizes) == [4, 8]
    m2 = build_quotient(QuotientSpec(parse_tiling("E1"), SublatticeMat(2, 0, 0, 2)))
    assert m2.n_vertices == 16


def test_truncated_trihexagonal_identity_counts():
    m = build_quotient(QuotientSpec(parse_tiling("E7"), SublatticeMat(1, 0, 0, 1)))
    assert (m.n_vertices, m.n_edges, m.n_faces) == (12, 18, 6)
    assert sorted(m.face_sizes) == [4, 4, 4, 6, 6, 12]


def test_counts_match_template_arithmetic():
    for tid, mat, m in sweep_maps():
        v, e, faces = oracle_counts(tid, mat)
        assert m.n_vertices == v, tid
        assert m.n_edges == e, tid
        assert Counter(m.face_sizes) == faces, tid


def test_euler_characteristic_zero_everywhere():
    for tid, mat, m in sweep_maps():
        assert euler_characteristic(m) == 0, (tid, mat)


# --- flag involutions ---


def test_flag_involution_laws():
    for tid, mat, m in sweep_maps():
        t = reference_flag_tables(m)
        s0, s2 = t["s0"], t["s2"]
        n = m.n_flags
        assert n == 4 * m.n_edges
        for s in (s0, t["s1"], s2):
            assert all(s[s[x]] == x for x in range(n))
        # s0 and s2 are fixed-point free and commute; their product is
        # a fixed-point-free involution (edges carry four distinct flags).
        assert all(s0[x] != x and s2[x] != x for x in range(n))
        assert all(s0[s2[x]] == s2[s0[x]] for x in range(n))
        assert all(s0[s2[x]] != x for x in range(n))


def test_involutions_preserve_the_right_incidences():
    for _, _, m in sweep_maps():
        t = reference_flag_tables(m)
        s0, s1, s2, fv, ff = t["s0"], t["s1"], t["s2"], t["flag_vertex"], t["flag_face"]
        for x in range(m.n_flags):
            assert m.dart_edge[s0[x] // 2] == m.dart_edge[x // 2]
            assert ff[s0[x]] == ff[x]
            assert fv[s1[x]] == fv[x]
            assert ff[s1[x]] == ff[x]
            assert fv[s2[x]] == fv[x]
            assert m.dart_edge[s2[x] // 2] == m.dart_edge[x // 2]
            # s0 moves the flag to the other endpoint of its edge, s2 to
            # the face across it; those coincide only on loops and on
            # edges with the same face on both sides.
            u, w = edge_endpoints(m, m.dart_edge[x // 2])
            assert fv[s0[x]] == (w if fv[x] == u else u)
            d = x // 2
            faces = {m.dart_face_left[d], m.dart_face_left[m.dart_rev[d]]}
            assert {ff[x], ff[s2[x]]} == faces


# --- build_quotient against the per-dart construction ---


def assert_matches_reference(spec: QuotientSpec) -> None:
    m = build_quotient(spec)
    labels, dart_vertex, dart_rev, vertex_darts = reference_quotient(spec)
    assert [vertex_at(m, r, w) for r, w in labels] == list(range(m.n_vertices)), spec
    assert m.dart_vertex == dart_vertex, spec
    assert m.dart_rev == dart_rev, spec
    assert [tuple(r) for r in m.vertex_darts] == vertex_darts, spec


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_build_quotient_matches_per_dart_reference_on_hermite_forms(tid):
    for mat in enumerate_hnf(12):
        assert_matches_reference(QuotientSpec(tid, mat))


@settings(max_examples=60, deadline=None)
@given(
    tid=st.sampled_from(list(TilingId)),
    entries=st.tuples(*[st.integers(min_value=-9, max_value=9)] * 4).filter(
        lambda t: t[2] != 0 and t[0] * t[3] - t[1] * t[2] != 0
    ),
)
def test_build_quotient_matches_per_dart_reference_on_random_matrices(tid, entries):
    assert_matches_reference(QuotientSpec(tid, SublatticeMat(*entries)))


# "face_walk" is every face's walk, traced by FlagMap.face_walk from the
# face's smallest dart: the map stores no walk.
MAP_TABLES = (
    "dart_rev",
    "vertex_darts",
    "dart_vertex",
    "dart_cw",
    "dart_edge",
    "edge_dart",
    "dart_face_left",
    "face_first",
    "face_walk",
    "face_sizes",
)


def map_table(m: FlagMap, name: str):
    if name == "vertex_darts":
        return tuple(map(tuple, m.vertex_darts))
    if name == "face_walk":
        return list(map(m.face_walk, range(m.n_faces)))
    return getattr(m, name)


def assert_tables_match_per_dart_constructor(spec: QuotientSpec) -> None:
    m = build_quotient(spec)
    _, _, dart_rev, vertex_darts = reference_quotient(spec)
    want = reference_map_tables(dart_rev, vertex_darts)
    for name in MAP_TABLES:
        assert map_table(m, name) == want[name], (spec, name)


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_flagmap_tables_match_per_dart_constructor_on_hermite_forms(tid):
    for mat in enumerate_hnf(12):
        assert_tables_match_per_dart_constructor(QuotientSpec(tid, mat))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flagmap_tables_match_per_dart_constructor_on_random_matrices(data):
    tid = data.draw(st.sampled_from(list(TilingId)))
    tpl = template(tid)
    cell_flags = 2 * tpl.degree * tpl.rep_count
    entries = data.draw(
        st.tuples(*[st.integers(min_value=-9, max_value=9)] * 4).filter(
            lambda t: t[2] != 0 and 0 < abs(t[0] * t[3] - t[1] * t[2]) * cell_flags <= 1500
        )
    )
    assert_tables_match_per_dart_constructor(QuotientSpec(tid, SublatticeMat(*entries)))


def test_build_quotient_retains_at_most_60_bytes_per_flag():
    # The tables share one int object per dart and keep each fact once,
    # with no ccw table, no tuple per edge, face or vertex: about 27 bytes
    # per flag on Python 3.11, 39 with every per-dart table built.
    spec = QuotientSpec(parse_tiling("E7"), SublatticeMat(20, 0, 0, 20))
    build_quotient(spec)  # the template and its caches are not the map's
    gc.collect()
    tracemalloc.start()
    try:
        m = build_quotient(spec)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.n_flags == 28_800
    assert retained / m.n_flags <= 60


def test_build_quotient_retains_at_most_45_bytes_per_flag():
    # The rotations are one SlotRotations, not a range per vertex, the
    # reverse table holds the pool's ints, sliced from it, and a face is
    # its smallest dart and its size, with no stored walk: about 27 bytes
    # per flag on Python 3.11, with the tail, cw, edge and face tables left
    # to their first read (39 with them built up front, 40 when the coset
    # system kept a representative per coset, 45 when every face's walk and
    # its start were stored too), and 54 with a range per vertex.
    spec = QuotientSpec(parse_tiling("E7"), SublatticeMat(20, 0, 0, 20))
    build_quotient(spec)  # the template and its caches are not the map's
    gc.collect()
    tracemalloc.start()
    try:
        m = build_quotient(spec)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.n_flags == 28_800
    assert retained / m.n_flags <= 45


def test_build_quotient_peaks_at_most_75_bytes_per_flag():
    # FlagMap takes build_quotient's pool and reverse table, sliced from
    # it, keeps both without copying them and keeps no rotation per vertex
    # and no face walk, so nothing per dart is made twice: about 28 bytes
    # per flag at the peak on Python 3.11 with the tail, cw, edge and face
    # tables left to their first read, 44 with them built up front, 45 with
    # a representative per coset, 50 when every face's walk was
    # stored, 52 with a second pool and faces traced dart by dart, 56 with
    # a copied reverse table too, and 102 with a per-dart head table as
    # well.
    spec = QuotientSpec(parse_tiling("E7"), SublatticeMat(20, 0, 0, 20))
    build_quotient(spec)  # the template and its caches are not the map's
    gc.collect()
    tracemalloc.start()
    try:
        m = build_quotient(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.n_flags == 28_800
    assert peak / m.n_flags <= 75


# 20 cells, whose edges and faces FlagMap numbers dart by dart, and 272,
# numbered by slot columns (map_core.MIN_COLUMN_CELLS).
POOL_MATS = [SublatticeMat(4, 1, 0, 5), SublatticeMat(16, 3, 0, 17)]


@pytest.mark.parametrize("code", ["E7", "T4444", "E2"])
def test_quotient_tables_share_one_int_object_per_dart(code):
    # The reverse table's own ints are the pool: every table holds the
    # same object for the same dart, each face's smallest dart included,
    # and so does every automorphism that descend makes.
    # The rotations keep no ints: they are one SlotRotations, of one size
    # whatever the map's.
    assert POOL_MATS[0].index() < map_core.MIN_COLUMN_CELLS <= POOL_MATS[1].index()
    for mat in POOL_MATS:
        m = build_quotient(QuotientSpec(parse_tiling(code), mat))
        ints = [*m.dart_rev, *m.dart_vertex, *m.dart_cw, *m.dart_edge, *m.edge_dart, *m.dart_face_left, *m.face_first]
        objects = {}
        for x in ints:
            assert objects.setdefault(x, x) is x, (code, mat, x)
        assert len(objects) == m.n_darts
    bigger = build_quotient(QuotientSpec(parse_tiling(code), SublatticeMat(12, 0, 0, 12)))
    # descend's images are the pool's too, for each generator (all descend
    # to a scalar lattice).
    pool = {d: d for d in bigger.dart_rev}
    for elem in template(bigger.spec.tiling).point_group:
        perm, _ = descend(bigger, elem)
        assert all(pool[d] is d for d in perm), (code, elem.name)
    assert type(m.vertex_darts) is type(bigger.vertex_darts) is SlotRotations
    assert sys.getsizeof(m.vertex_darts) == sys.getsizeof(bigger.vertex_darts)
    assert not hasattr(m.vertex_darts, "__dict__")


@pytest.mark.parametrize("code", ["E7", "T4444", "E2"])
def test_quotient_rotations_are_untracked_ranges_and_faces_flat_tables(code):
    # Nothing is stored per vertex or per face that the cyclic garbage
    # collector tracks: a rotation is a range, made when it is read, and a
    # face is its smallest dart and its size, in two flat tables of ints.
    # Its walk is traced from that dart when it is read.
    for mat in POOL_MATS:
        m = build_quotient(QuotientSpec(parse_tiling(code), mat))
        deg = m.n_darts // m.n_vertices
        assert all(type(r) is range for r in m.vertex_darts)
        assert not any(map(gc.is_tracked, m.vertex_darts))
        assert [(r.start, r.stop, r.step) for r in m.vertex_darts] == [
            (v * deg, v * deg + deg, 1) for v in range(m.n_vertices)
        ]
        assert (type(m.face_first), type(m.face_sizes)) == (list, tuple)
        assert len(m.face_first) == len(m.face_sizes) == m.n_faces
        assert set(map(type, [*m.face_first, *m.face_sizes])) == {int}
        assert not any(map(gc.is_tracked, [*m.face_first, *m.face_sizes]))
        walks = list(map(m.face_walk, range(m.n_faces)))
        for f, walk in enumerate(walks):
            assert walk[0] == m.face_first[f] == min(walk)
            assert len(walk) == m.face_sizes[f]
            assert {m.dart_face_left[d] for d in walk} == {f}
            assert m.dart_cw[m.dart_rev[walk[-1]]] == walk[0]
        # The walks cover every dart once.
        assert sorted(chain.from_iterable(walks)) == list(range(m.n_darts))


def test_box_shift_turns_the_box_rows_and_columns():
    # Every branch of _box_shift (one box row or no wrap, two slices per
    # row, the turned column mended) against the coset arithmetic.
    for s1, s2 in [(1, 1), (1, 7), (2, 2), (2, 6), (3, 3), (3, 12), (5, 5), (4, 20)]:
        for first, step in [(0, 1), (2, 3)]:
            src = list(range(first + step * s1 * s2 + 4))
            for di in range(s1):
                for dj in range(s2):
                    want = [
                        src[first + step * ((i + di) % s1 * s2 + (j + dj) % s2)]
                        for i in range(s1)
                        for j in range(s2)
                    ]
                    assert map_core._box_shift(src, first, step, s1, s2, di, dj) == want, (s1, s2, di, dj)


# Lattices whose Smith boxes take every branch of _box_shift when the class
# columns are moved back by the positions' offsets: a one-row box (1 × 40),
# square boxes, where the unit offsets turn by whole rows (dj = 0) or mend
# their wrapping box columns, and boxes of two rows whose offsets turn by
# about half a row (s1 <= min(dj, s2 − dj)), so each row is two slices.
# test_wrap_mats_take_every_branch_of_box_shift checks that they do.
WRAP_MATS = [
    SublatticeMat(1, 0, 0, 40),
    SublatticeMat(7, 0, 0, 7),
    SublatticeMat(6, 0, 0, 9),
    SublatticeMat(2, 11, 0, 22),
    SublatticeMat(2, 9, 2, 29),
]
# The tilings with a dart reversed at its own rep: an edge's smaller dart
# there turns on the cell, as a face's smallest does on every tiling with a
# face class that meets its least rep more than once.
SAME_REP_TILINGS = {parse_tiling(code) for code in ("T4444", "T333333", "T33344")}


def class_tables(ids: list[int], spec: QuotientSpec, faces: bool) -> tuple:
    """(dart_of, firsts, sizes) of the slot-column builder: the numbers of
    _class_numbers, moved into the per-dart table by _class_columns, as a
    large quotient builds them, its per-dart table on first read."""
    cs = build_quotient(spec).coset_system
    firsts, sizes, numbers = map_core._class_numbers(ids, spec.tiling, cs, faces)
    return map_core._class_columns(ids, spec.tiling, cs, numbers, faces), firsts, sizes


def assert_face_columns_match_loop(spec: QuotientSpec) -> None:
    # The slot-column face builder against the dart-by-dart loop, called
    # directly, so MIN_COLUMN_CELLS hides no map from either.
    m = build_quotient(spec)
    ids = list(range(m.n_darts))
    loop, columns = copy.copy(m), copy.copy(m)
    faces = ("dart_face_left", "face_first", "face_sizes")
    for built, tables in (
        (loop, map_core._faces(ids, m.dart_rev, m.dart_cw)),
        (columns, class_tables(ids, spec, faces=True)),
    ):
        # strict: a builder that returns fewer tables must not leave the
        # copied map's own in place.
        for name, table in zip(faces, tables, strict=True):
            setattr(built, name, table)
        built.n_faces = len(built.face_first)
    for name in ("dart_face_left", "face_first", "face_sizes", "face_walk", "n_faces"):
        assert map_table(columns, name) == map_table(loop, name), (spec, name)
    assert all(x is ids[x] for x in chain(columns.dart_face_left, columns.face_first)), spec


def assert_edge_columns_match_loop(spec: QuotientSpec) -> None:
    # The slot-column edge builder against the dart-by-dart loop, called
    # directly, so MIN_COLUMN_CELLS hides no map from either.  Both give
    # (dart_edge, edge_dart) of pool ints.
    m = build_quotient(spec)
    ids = list(range(m.n_darts))
    loop = map_core._edges(ids, m.dart_rev)
    edge_of, edge_dart, sizes = class_tables(ids, spec, faces=False)
    assert (edge_of, edge_dart) == loop == (m.dart_edge, m.edge_dart), spec
    assert sizes is None
    assert all(x is ids[x] for x in chain(edge_of, edge_dart)), spec


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_face_columns_match_the_loop_on_small_lattices(tid):
    for mat in [*enumerate_hnf(12), *NON_HERMITE_MATS]:
        assert_face_columns_match_loop(QuotientSpec(tid, mat))


@settings(max_examples=60, deadline=None)
@given(
    tid=st.sampled_from(list(TilingId)),
    entries=st.tuples(*[st.integers(min_value=-12, max_value=12)] * 4).filter(
        lambda t: t[0] * t[3] - t[1] * t[2] != 0
    ),
)
def test_face_columns_match_the_loop_on_random_matrices(tid, entries):
    assert_face_columns_match_loop(QuotientSpec(tid, SublatticeMat(*entries)))


def test_exactly_three_tilings_reverse_a_dart_at_its_own_rep():
    assert len(SAME_REP_TILINGS) == 3
    for tid in TilingId:
        same_rep = any(s == r for r, darts in enumerate(template(tid).neighbors) for s, _ in darts)
        assert same_rep is (tid in SAME_REP_TILINGS), tid


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_edge_columns_match_the_loop_on_small_lattices(tid):
    for mat in [*enumerate_hnf(12), *NON_HERMITE_MATS]:
        assert_edge_columns_match_loop(QuotientSpec(tid, mat))


@settings(max_examples=60, deadline=None)
@given(
    tid=st.sampled_from(list(TilingId)),
    entries=st.tuples(*[st.integers(min_value=-12, max_value=12)] * 4).filter(
        lambda t: t[0] * t[3] - t[1] * t[2] != 0
    ),
)
def test_edge_columns_match_the_loop_on_random_matrices(tid, entries):
    assert_edge_columns_match_loop(QuotientSpec(tid, SublatticeMat(*entries)))


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_wrap_mats_take_every_branch_of_box_shift(tid, monkeypatch):
    # Both builders match the loops on WRAP_MATS, whose offsets move each
    # tiling's class columns by all four branches of _box_shift; on the
    # three same-rep tilings an edge's smaller dart takes every slot.
    taken = Counter()
    shift = map_core._box_shift

    def recording(src, first, step, s1, s2, di, dj):
        taken["one row" if s1 == 1 else "dj = 0" if dj == 0 else "rows" if s1 <= min(dj, s2 - dj) else "mended"] += 1
        return shift(src, first, step, s1, s2, di, dj)

    monkeypatch.setattr(map_core, "_box_shift", recording)
    for mat in WRAP_MATS:
        assert_edge_columns_match_loop(QuotientSpec(tid, mat))
        assert_face_columns_match_loop(QuotientSpec(tid, mat))
    assert set(taken) == {"one row", "dj = 0", "rows", "mended"}, (tid, taken)
    if tid in SAME_REP_TILINGS:
        m = build_quotient(QuotientSpec(tid, WRAP_MATS[1]))
        assert len({m.edge_dart[e] % m.slot_degree for e in range(m.n_edges)}) == m.slot_degree


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_columns_serve_the_large_quotients_of_every_tiling(tid, monkeypatch):
    # One size rule, MIN_COLUMN_CELLS, for both tables on every tiling: a
    # quotient of that many cells numbers its edges and faces by slot
    # columns and never calls the loops; smaller quotients and public maps
    # keep the loops, and agree.  The large quotient moves its numbers into
    # dart_edge and dart_face_left when each is first read, once, with no
    # second numbering.
    served, filled, loops = [], [], Counter()
    numbers, columns = map_core._class_numbers, map_core._class_columns
    edges, faces = map_core._edges, map_core._faces
    monkeypatch.setattr(map_core, "_class_numbers", lambda *args, **kw: served.append(args[1]) or numbers(*args, **kw))
    monkeypatch.setattr(map_core, "_class_columns", lambda *args, **kw: filled.append(args[1]) or columns(*args, **kw))
    monkeypatch.setattr(map_core, "_edges", lambda *args: loops.update(["edges"]) or edges(*args))
    monkeypatch.setattr(map_core, "_faces", lambda *args: loops.update(["faces"]) or faces(*args))
    cells = map_core.MIN_COLUMN_CELLS
    small = build_quotient(QuotientSpec(tid, SublatticeMat(1, 0, 0, cells - 1)))
    assert served == [] and loops == {"edges": 1, "faces": 1}
    loops.clear()
    large = build_quotient(QuotientSpec(tid, SublatticeMat(1, 0, 0, cells)))
    assert served == [tid, tid] and filled == [] and loops == Counter()
    public = FlagMap(large.dart_rev, SlotRotations(large.n_vertices, large.slot_degree), large.spec)
    assert served == [tid, tid] and filled == [] and loops == {"edges": 1, "faces": 1}
    for name in ("dart_edge", "edge_dart", "dart_face_left", "face_first", "face_sizes", "dart_edge", "dart_face_left"):
        assert getattr(public, name) == getattr(large, name), name
    assert served == filled == [tid, tid] and loops == {"edges": 1, "faces": 1}
    assert small.n_darts < large.n_darts


def past_column_cells(mat: SublatticeMat) -> SublatticeMat:
    """mat scaled by the least k with k²·|det| >= MIN_COLUMN_CELLS."""
    k = 1
    while k * k * mat.index() < map_core.MIN_COLUMN_CELLS:
        k += 1
    return SublatticeMat(*(k * e for e in mat.as_tuple()))


def assert_lazy_tables_match_the_loops(spec: QuotientSpec, cw_first: bool) -> None:
    # A large quotient builds none of its four per-dart tables up front; on
    # first read each equals the table the small quotients' column and loop
    # builders make from the same pool, and holds the pool's own ints.  The
    # tail and cw tables are filled together, whichever is read first.
    m = build_quotient(spec)
    assert m.coset_system.size() >= map_core.MIN_COLUMN_CELLS, spec
    assert not set(LAZY_TABLES) & vars(m).keys(), spec
    ids, rev = m._ids, m.dart_rev
    tail, cw = map_core._slot_columns(ids, m.n_vertices, m.slot_degree)
    dart_edge, edge_dart = map_core._edges(ids, rev)
    dart_face_left, face_first, face_sizes = map_core._faces(ids, rev, cw)
    assert (m.edge_dart, m.face_first, m.face_sizes) == (edge_dart, face_first, face_sizes), spec
    m.dart_cw if cw_first else m.dart_vertex
    assert {"dart_vertex", "dart_cw"} <= vars(m).keys(), spec
    for name, want in zip(LAZY_TABLES, (tail, cw, dart_edge, dart_face_left)):
        table = getattr(m, name)
        assert table == want, (spec, name)
        assert all(x is ids[x] for x in table), (spec, name)


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_lazy_tables_match_the_loops_on_scaled_hermite_forms(tid):
    for mat in enumerate_hnf(12):
        assert_lazy_tables_match_the_loops(QuotientSpec(tid, past_column_cells(mat)), cw_first=mat.a % 2 == 0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lazy_tables_match_the_loops_on_random_matrices(data):
    tid = data.draw(st.sampled_from(list(TilingId)))
    tpl = template(tid)
    cell_flags = 2 * tpl.degree * tpl.rep_count
    entries = data.draw(
        st.tuples(*[st.integers(min_value=-12, max_value=12)] * 4).filter(
            lambda t: map_core.MIN_COLUMN_CELLS <= abs(t[0] * t[3] - t[1] * t[2]) and
            abs(t[0] * t[3] - t[1] * t[2]) * cell_flags <= 12_000
        )
    )
    assert_lazy_tables_match_the_loops(QuotientSpec(tid, SublatticeMat(*entries)), data.draw(st.booleans()))


# Quotients of at least MIN_COLUMN_CELLS cells that are not polyhedral on
# some tilings: thin tori, one or two cells across, whose faces meet
# themselves or each other around the short way.
THIN_MATS = [SublatticeMat(1, 0, 0, 40), SublatticeMat(1, 0, 0, 36), SublatticeMat(2, 1, 0, 20), SublatticeMat(2, 0, 0, 18)]


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_lazy_maps_decide_polyhedrality_and_type_as_their_eager_twins(tid, monkeypatch):
    # A large quotient reads its anchors' faces, edges and tails off its
    # layout and builds no per-dart table for is_polyhedral (its `ok` and
    # its full list of violations), is_semi_equivelar or face_cycle, which
    # keeps the rotation's order; its eager twin, built with
    # MIN_COLUMN_CELLS out of reach, reads its tables.  Both agree, on
    # polyhedral maps and on maps that are not.
    specs = [QuotientSpec(tid, mat) for mat in (*map(past_column_cells, enumerate_hnf(6)), *THIN_MATS)]
    lazy = [build_quotient(spec) for spec in specs]
    monkeypatch.setattr(map_core, "MIN_COLUMN_CELLS", 10**9)
    outcomes = set()
    for spec, m in zip(specs, lazy):
        twin = build_quotient(spec)
        assert set(LAZY_TABLES) <= vars(twin).keys()
        report, want = is_polyhedral(m), is_polyhedral(twin)
        assert (report.ok, report.violations) == (want.ok, want.violations), spec
        assert is_semi_equivelar(m) == is_semi_equivelar(twin), spec
        anchors = map_core._anchors(m)
        assert [face_cycle(m, v) for v in anchors] == [face_cycle(twin, v) for v in anchors], spec
        assert not set(LAZY_TABLES) & vars(m).keys(), spec
        outcomes.add(report.ok)
    assert outcomes == {True, False}, tid


def assert_general_layout_matches_declared(spec: QuotientSpec) -> None:
    # build_quotient declares its layout with a SlotRotations; the same
    # rotations as a tuple of ranges are a general rotation system, read
    # vertex by vertex, and are the reference: every table agrees, and only
    # the declared layouts keep a SlotRotations and a slot degree.  A public
    # SlotRotations takes every check and its own pool, and builds the same
    # tables, with no coset system.
    declared = build_quotient(spec)
    deg = template(spec.tiling).degree
    general = FlagMap(declared.dart_rev, tuple(declared.vertex_darts), spec)
    public = FlagMap(declared.dart_rev, SlotRotations(declared.n_vertices, deg), spec)
    assert type(declared.vertex_darts) is SlotRotations and type(general.vertex_darts) is tuple
    assert type(public.vertex_darts) is SlotRotations
    assert (declared.slot_degree, general.slot_degree, public.slot_degree) == (deg, None, deg)
    assert declared.coset_system is not None and general.coset_system is public.coset_system is None
    for name in (*MAP_TABLES, "n_vertices", "n_edges", "n_faces"):
        want = map_table(declared, name)
        assert want == map_table(general, name) == map_table(public, name), (spec, name)


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_general_layout_matches_the_declared_one(tid):
    for mat in [*enumerate_hnf(12), *NON_HERMITE_MATS]:
        assert_general_layout_matches_declared(QuotientSpec(tid, mat))


@pytest.mark.parametrize("n, deg", [(0, 1), (1, 1), (1, 5), (5, 3), (7, 4)])
def test_slot_rotations_behave_as_a_tuple_of_ranges(n, deg):
    rotations = SlotRotations(n, deg)
    ranges = tuple(range(v * deg, v * deg + deg) for v in range(n))
    assert len(rotations) == len(ranges) and tuple(rotations) == ranges
    assert list(reversed(rotations)) == list(reversed(ranges))
    assert [rotations[v] for v in range(-n, n)] == [ranges[v] for v in range(-n, n)]
    for cut in (slice(None), slice(1, 3), slice(None, None, -1), slice(None, None, 2), slice(-2, None), slice(10, None)):
        assert rotations[cut] == ranges[cut], cut
    for v in (n, -n - 1, n + 7):
        with pytest.raises(IndexError):
            ranges[v]
        with pytest.raises(IndexError):
            rotations[v]
    with pytest.raises(TypeError):
        rotations["0"]
    if n:
        assert rotations[-1] == ranges[-1] == range(n * deg - deg, n * deg)
        assert ranges[-1] in rotations and rotations.index(ranges[-1]) == n - 1


@pytest.mark.parametrize("n, deg", [(-1, 3), (3, 0), (2, -1)])
def test_slot_rotations_refuse_a_negative_count_or_no_degree(n, deg):
    with pytest.raises(ValueError, match=f"^no slot layout of {n} vertices of degree {deg}$"):
        SlotRotations(n, deg)


@pytest.mark.parametrize("n, deg", [(1, 2), (3, 2), (2, 1), (4, 2), (0, 3)])
def test_a_slot_rotations_of_another_dart_count_is_refused(n, deg):
    # Four darts and a declared layout of n·deg ≠ 4 darts.
    with pytest.raises(ValueError, match=f"^the slot layout has {n * deg} darts, the reverse table 4$"):
        FlagMap([2, 3, 0, 1], SlotRotations(n, deg))
    m = FlagMap([2, 3, 0, 1], SlotRotations(2, 2))
    assert m.slot_degree == 2 and tuple(m.vertex_darts) == (range(0, 2), range(2, 4))


def test_slot_degree_is_the_degree_exactly_in_build_quotients_layout():
    # A declared layout has it; a general rotation system has None, even
    # when it lists darts 0 … n−1 in order.
    m = build_quotient(QuotientSpec(parse_tiling("E2"), SublatticeMat(2, 1, 0, 3)))
    assert m.slot_degree == template(parse_tiling("E2")).degree
    assert FlagMap([2, 3, 0, 1], SlotRotations(2, 2)).slot_degree == 2
    assert FlagMap([2, 3, 0, 1], [(0, 1), (2, 3)]).slot_degree is None
    assert FlagMap([1, 0, 3, 2], [(0, 2), (1, 3)]).slot_degree is None
    assert FlagMap([1, 0, 3, 2], [(0,), (1, 2, 3)]).slot_degree is None


# --- vertex types ---


def test_face_cycle_truncated_square():
    m = build_quotient(QuotientSpec(parse_tiling("E1"), SublatticeMat(2, 0, 0, 2)))
    for v in range(m.n_vertices):
        assert sorted(face_cycle(m, v)) == [4, 8, 8]


def test_signature_rotation_and_reversal_equivalence():
    a = VertexTypeSig.from_cycle((3, 3, 4, 3, 4))
    b = VertexTypeSig.from_cycle((4, 3, 4, 3, 3))
    assert a == b
    assert Counter(a.expanded()) == Counter((3, 3, 4, 3, 4))


def test_signature_string_forms():
    assert str(VertexTypeSig.from_cycle((4, 4, 4, 4))) == "[4^4]"
    assert str(VertexTypeSig.from_cycle((3, 3, 3, 4, 4))) == "[3^3,4^2]"
    assert VertexTypeSig.from_cycle((3, 4, 6, 4)).dotted() == "3.4.6.4"
    assert VertexTypeSig.from_cycle((4, 8, 8)).dotted() == "4.8.8"


@given(
    cycle=st.lists(st.sampled_from([3, 4, 6, 8, 12]), min_size=3, max_size=6).map(tuple),
    rot=st.integers(min_value=0, max_value=5),
    flip=st.booleans(),
)
def test_signature_invariant_under_dihedral_action(cycle, rot, flip):
    other = cycle[rot % len(cycle):] + cycle[: rot % len(cycle)]
    if flip:
        other = tuple(reversed(other))
    assert VertexTypeSig.from_cycle(cycle) == VertexTypeSig.from_cycle(other)


def test_all_quotients_are_semi_equivelar_with_template_type():
    for tid, mat, m in sweep_maps():
        sig = is_semi_equivelar(m)
        assert sig is not None, (tid, mat)
        assert sig == VertexTypeSig.from_cycle(tid.signature), tid
        assert vertex_type(m, 0) == sig


def test_subdividing_one_face_breaks_semi_equivelarity():
    base = build_quotient(QuotientSpec(TilingId.SQUARE, SublatticeMat(3, 0, 0, 3)))
    faces = [list(face_vertices(base, f)) for f in range(base.n_faces)]
    a, b, c, d = faces.pop()
    x = base.n_vertices  # new central vertex
    faces += [[a, b, x], [b, c, x], [c, d, x], [d, a, x]]
    m = from_faces(faces)
    assert euler_characteristic(m) == 0
    assert m.n_vertices == base.n_vertices + 1
    assert is_semi_equivelar(m) is None
    assert vertex_type(m, x) == VertexTypeSig.from_cycle((3, 3, 3, 3))


def semi_equivelar_by_definition(m: FlagMap) -> VertexTypeSig | None:
    types = {vertex_type(m, v) for v in range(m.n_vertices)}
    return types.pop() if len(types) == 1 else None


def hermite_maps(det_bound: int):
    for tid in TilingId:
        for mat in enumerate_hnf(det_bound):
            yield build_quotient(QuotientSpec(tid, mat))


def test_semi_equivelar_matches_per_vertex_definition():
    maps = [m for _, _, m in sweep_maps()]
    maps += list(hermite_maps(12))
    base = build_quotient(QuotientSpec(TilingId.SQUARE, SublatticeMat(3, 0, 0, 3)))
    faces = [list(face_vertices(base, f)) for f in range(base.n_faces)]
    maps.append(from_faces(faces))
    a, b, c, d = faces.pop()
    x = base.n_vertices
    maps.append(from_faces(faces + [[a, b, x], [b, c, x], [c, d, x], [d, a, x]]))
    for m in maps:
        assert is_semi_equivelar(m) == semi_equivelar_by_definition(m), m.spec
    assert is_semi_equivelar(maps[-1]) is None


def uncached_runs(cycle: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The least run sequence of the cycle read from any dart in either
    direction, by brute force: every rotation of the cycle and of its
    reversal that starts a run, its runs counted by groupby."""
    readings = [seq[k:] + seq[:k] for seq in (cycle, cycle[::-1]) for k in range(len(cycle))]
    return min(
        tuple((size, len(list(run))) for size, run in groupby(r))
        for r in readings
        if r[0] != r[-1] or len(set(r)) == 1
    )


def test_semi_equivelar_matches_an_uncached_reference():
    # VertexTypeSig.from_cycle caches its runs per cycle; the reference
    # recomputes them at every vertex, with no code shared with map_core.
    map_core._canonical_runs.cache_clear()
    cycles = set()
    for m in hermite_maps(12):
        here = [face_cycle(m, v) for v in range(m.n_vertices)]
        cycles.update(here)
        types = {uncached_runs(c) for c in here}
        want = VertexTypeSig(runs=types.pop()) if len(types) == 1 else None
        assert is_semi_equivelar(m) == want, m.spec
    assert map_core._canonical_runs.cache_info().misses <= len(cycles)


@settings(max_examples=60, deadline=None)
@given(
    tid=st.sampled_from(list(TilingId)),
    entries=st.tuples(*[st.integers(min_value=-9, max_value=9)] * 4).filter(
        lambda t: t[2] != 0 and t[0] * t[3] - t[1] * t[2] != 0
    ),
)
def test_semi_equivelar_matches_per_vertex_definition_on_random_lattices(tid, entries):
    mat = SublatticeMat(*entries)
    tpl = template(tid)
    assume(2 * tpl.degree * tpl.rep_count * mat.index() <= 1500)
    m = build_quotient(QuotientSpec(tid, mat))
    assert is_semi_equivelar(m) == semi_equivelar_by_definition(m), m.spec


def test_anchors_are_the_reps_in_cell_zero():
    for m in hermite_maps(12):
        reps = template(m.spec.tiling).rep_count
        assert list(map_core._anchors(m)) == [vertex_at(m, r, (0, 0)) for r in range(reps)], m.spec


def test_rep_blocks_are_each_reps_darts():
    # Rep r's block holds exactly the darts of its vertices (r, cell),
    # which start at its anchor; a map without a coset system is one block.
    for m in hermite_maps(12):
        blocks, ncos = map_core._rep_blocks(m), m.coset_system.size()
        assert list(blocks) == [m.vertex_darts[v][0] for v in map_core._anchors(m)], m.spec
        for r, start in enumerate(blocks):
            tails = m.dart_vertex[start : start + blocks.step]
            assert len(tails) == blocks.step and {v // ncos for v in tails} == {r}, m.spec
    loop = from_faces([[0, 1, 2], [0, 2, 1]])
    assert map_core._rep_blocks(loop) == range(0, loop.n_darts, loop.n_darts)


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_translation_maps_are_the_descended_translations(tid):
    # From a map to itself, the translation by a shift is `descend` of the
    # element with R = I that shifts every rep by it; its vertex map is
    # the tail of each vertex's first dart's image.
    tpl = template(tid)
    for mat in enumerate_hnf(12):
        m = build_quotient(QuotientSpec(tid, mat))
        for shift in ((0, 0), (1, 0), (0, 1), *smith_generator_shifts(m.coset_system)):
            vm, dmap = map_core._translation_maps(m, m, shift)
            assert (dmap, False) == descend(m, translation(tpl, shift)), (mat, shift)
            assert list(vm) == [m.dart_vertex[d] for d in dmap[:: m.slot_degree]], (mat, shift)


# --- from_faces and constructor validation ---


def test_from_faces_round_trip():
    base = build_quotient(QuotientSpec(parse_tiling("E1"), SublatticeMat(2, 0, 0, 2)))
    rebuilt = from_faces([list(face_vertices(base, f)) for f in range(base.n_faces)])
    assert (rebuilt.n_vertices, rebuilt.n_edges, rebuilt.n_faces) == (
        base.n_vertices,
        base.n_edges,
        base.n_faces,
    )
    assert is_semi_equivelar(rebuilt) == is_semi_equivelar(base)
    assert are_isomorphic(base, rebuilt) is not None


def test_from_faces_sphere_has_euler_two():
    m = from_faces([[0, 1, 2], [2, 1, 0]])
    assert (m.n_vertices, m.n_edges, m.n_faces) == (3, 3, 2)
    assert euler_characteristic(m) == 2


def test_from_faces_rejects_repeated_directed_edge():
    with pytest.raises(ValueError):
        from_faces([[0, 1, 2], [0, 1, 2]])


def test_from_faces_rejects_disconnected():
    with pytest.raises(ValueError):
        from_faces([[0, 1, 2], [2, 1, 0], [3, 4, 5], [5, 4, 3]])


def test_flagmap_rejects_non_involutive_reverse():
    with pytest.raises(ValueError):
        FlagMap([0, 1], [(0, 1)])  # reverse fixes both darts


def test_flagmap_rejects_dart_in_two_rotations():
    with pytest.raises(ValueError):
        FlagMap([1, 0], [(0, 1, 0)])


def test_flagmap_rejects_dart_in_no_rotation():
    with pytest.raises(ValueError, match="no vertex rotation"):
        FlagMap([1, 0, 3, 2], [(0, 1, 2)])


@pytest.mark.parametrize("dart", [5, 2, -1, -2])
def test_flagmap_rejects_rotation_dart_out_of_range(dart):
    # -1 and -2 would index from the end of the tables.
    with pytest.raises(ValueError, match=f"^dart {dart} at vertex 0 is not in 0..1$"):
        FlagMap([1, 0], [(0, dart)])


@pytest.mark.parametrize(
    "dart_rev, vertex_darts", [([], []), ([1, 0, 2], [(0, 1, 2)])], ids=["empty", "odd"]
)
def test_flagmap_rejects_an_empty_or_odd_dart_count(dart_rev, vertex_darts):
    with pytest.raises(ValueError, match="^dart count must be positive and even$"):
        FlagMap(dart_rev, vertex_darts)


def test_flagmap_rejects_a_vertex_without_darts():
    with pytest.raises(ValueError, match="^vertex 1 has no darts$"):
        FlagMap([1, 0], [(0, 1), ()])


@pytest.mark.parametrize("dart_rev", [[2, 0], [-1, 0], [1, -1], [1, 2]])
def test_flagmap_rejects_reverse_out_of_range(dart_rev):
    # [-1, 0] would read as the involution [1, 0] if -1 wrapped.
    with pytest.raises(ValueError, match="^reverse is not a fixed-point-free involution at dart 0$"):
        FlagMap(dart_rev, [(0, 1)])


# Reverse tables that are not involutions of ints in range, and the error
# that names their first bad dart.  The int rows are what FlagMap raised
# before the pool was checked in one index pass (recorded then); an entry
# that is not an exact int, a bool included, is a TypeError.
REVERSE_OUTCOMES = {
    "negative first": ([-1, 0], ValueError, "reverse is not a fixed-point-free involution at dart 0"),
    "negative second": ([1, -2], ValueError, "reverse is not a fixed-point-free involution at dart 0"),
    "negative wrapping to an involution": ([1, 0, -1, 2], ValueError, "reverse is not a fixed-point-free involution at dart 2"),
    "value nd, first edge": ([1, 2], ValueError, "reverse is not a fixed-point-free involution at dart 0"),
    "value nd, second edge": ([1, 0, 4, 2], ValueError, "reverse is not a fixed-point-free involution at dart 2"),
    "float": ([1.0, 0.0], TypeError, "the reverse of dart 0 is 1.0, not an int"),
    "str": (["1", "0"], TypeError, "the reverse of dart 0 is '1', not an int"),
    "None": ([None, 0], TypeError, "the reverse of dart 0 is None, not an int"),
    "non-involution": ([1, 2, 3, 0], ValueError, "reverse is not a fixed-point-free involution at dart 0"),
    "fixed point": ([1, 0, 2, 3], ValueError, "reverse is not a fixed-point-free involution at dart 2"),
    "bool": ([True, False], TypeError, "the reverse of dart 0 is True, not an int"),
    "bool third": ([3, 2, True, 0], TypeError, "the reverse of dart 2 is True, not an int"),
}


@pytest.mark.parametrize("name", list(REVERSE_OUTCOMES))
def test_flagmap_reverse_tables_fail_at_their_first_bad_dart(name):
    # A public SlotRotations vouches for nothing: the declared layout fails
    # the same way as a general rotation system.
    dart_rev, error, outcome = REVERSE_OUTCOMES[name]
    vertex_darts = [tuple(range(v, v + 2)) for v in range(0, len(dart_rev), 2)]
    for layout in (vertex_darts, SlotRotations(len(vertex_darts), 2)):
        with pytest.raises(error) as caught:
            FlagMap(dart_rev, layout)
        assert type(caught.value) is error and str(caught.value) == outcome


REVERSE_VARIANTS = {
    "tuple": lambda rev: tuple(rev),
    "bool": lambda rev: [bool(r) if r < 2 else r for r in rev],
    "above-range": lambda rev: rev[:7] + [len(rev)] + rev[8:],
    "negative": lambda rev: rev[:7] + [-1] + rev[8:],
    "fixed-point": lambda rev: rev[:7] + [7] + rev[8:],
    "not-involution": lambda rev: [rev[1], rev[0], *rev[2:]],
}


def tables_or_error(build, dart_rev, vertex_darts):
    try:
        return build(dart_rev, vertex_darts)
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("variant", list(REVERSE_VARIANTS))
def test_flagmap_reverse_variants_match_the_per_dart_constructor(variant):
    # A reverse table given as a tuple (its ints are still the pool) builds
    # the same int tables as a list of ints would; one that is not an
    # involution of darts in range fails with the same message at the same
    # first dart, and one with bool entries with a TypeError at its first,
    # in build_quotient's layout declared by a public SlotRotations too.
    spec = QuotientSpec(parse_tiling("E2"), SublatticeMat(2, 1, 0, 3))
    _, _, dart_rev, vertex_darts = reference_quotient(spec)
    given = REVERSE_VARIANTS[variant](dart_rev)
    want = tables_or_error(reference_map_tables, [int(r) for r in given], vertex_darts)
    got = tables_or_error(FlagMap, given, vertex_darts)
    declared = tables_or_error(FlagMap, given, SlotRotations(len(vertex_darts), template(spec.tiling).degree))
    assert declared == got if isinstance(got, str) else isinstance(declared, FlagMap)
    if variant == "bool":
        d = next(d for d, r in enumerate(given) if type(r) is bool)
        assert got == f"TypeError: the reverse of dart {d} is {given[d]}, not an int"
        return
    assert isinstance(want, str) == (variant != "tuple")
    if isinstance(want, str):
        assert got == want and want.startswith("ValueError: reverse is not a fixed-point-free involution at dart ")
        return
    for name in MAP_TABLES:
        table = map_table(got, name)
        assert table == want[name], name
        if name == "face_walk":
            table = [d for walk in table for d in walk]
        if name != "vertex_darts":
            assert set(map(type, table)) == {int}, name


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_quotients_pass_the_checks_proven_once_per_tiling(tid):
    # validate_template proves, once per tiling, that build_quotient's
    # reverse table is a fixed-point-free involution of exact ints and that
    # its map is connected, so FlagMap skips both for it.  Both checks run
    # here on every map as oracles.
    for mat in [*enumerate_hnf(12), *NON_HERMITE_MATS]:
        m = build_quotient(QuotientSpec(tid, mat))
        rev, nd = m.dart_rev, m.n_darts
        assert set(map(type, rev)) == {int}, mat
        assert [rev[r] for r in rev] == list(range(nd)), mat
        assert not any(map(eq, rev, range(nd))), mat
        assert m._connected(list(range(nd))), mat


def test_only_build_quotient_skips_the_involution_pass_and_the_union_find(monkeypatch):
    # The proof covers one table: build_quotient's, passed with the
    # _QuotientSlots that holds it.  A public SlotRotations, a general
    # rotation system, or a _QuotientSlots with another table takes the
    # union-find (and the reverse check before it).
    joined = []
    connected = FlagMap._connected
    monkeypatch.setattr(FlagMap, "_connected", lambda self, ids: joined.append(self) or connected(self, ids))
    m = build_quotient(QuotientSpec(parse_tiling("E2"), SublatticeMat(2, 1, 0, 3)))
    assert joined == [] and type(m.vertex_darts) is SlotRotations
    deg, copy = m.slot_degree, list(m.dart_rev)

    def slots(dart_rev):
        return map_core._QuotientSlots(deg, dart_rev, list(range(m.n_darts)), m.coset_system)

    for vertex_darts in (
        SlotRotations(m.n_vertices, deg),
        tuple(m.vertex_darts),
        slots(copy),
    ):
        FlagMap(m.dart_rev, vertex_darts)
    assert len(joined) == 3
    broken = [copy[1], copy[0], *copy[2:]]
    with pytest.raises(ValueError, match="^reverse is not a fixed-point-free involution at dart 0$"):
        FlagMap(broken, slots(copy))


@pytest.mark.parametrize("layout", ["slot columns", "rotations"])
def test_flagmap_rejects_two_disjoint_copies_of_a_quotient(layout):
    # The second copy's darts and rotations are the first's shifted by the
    # dart count, so the reverse is an involution of every dart and each
    # dart sits in one rotation, in build_quotient's layout or, with every
    # rotation turned by one, in a general one.
    m = build_quotient(QuotientSpec(parse_tiling("E2"), SublatticeMat(2, 1, 0, 3)))
    nd = m.n_darts
    dart_rev = m.dart_rev + [r + nd for r in m.dart_rev]
    vertex_darts = SlotRotations(2 * m.n_vertices, m.slot_degree)
    if layout == "rotations":
        vertex_darts = [(*r[1:], r[0]) for r in vertex_darts]
    with pytest.raises(ValueError, match="^map is not connected$"):
        FlagMap(dart_rev, vertex_darts)


# --- polyhedrality ---


def test_polyhedral_square_grids():
    kinds = {}
    for k in (1, 2, 3):
        m = build_quotient(QuotientSpec(TilingId.SQUARE, SublatticeMat(k, 0, 0, k)))
        rep = is_polyhedral(m)
        kinds[k] = (rep.ok, sorted({kind for kind, _ in rep.violations}))
    assert kinds[1] == (False, ["face-not-simple", "loop-edge"])
    assert kinds[2] == (False, ["face-pair", "multi-edge"])
    assert kinds[3] == (True, [])


def test_polyhedral_identity_quotients_fail():
    expect = {
        "E1": ["face-not-simple", "face-pair"],
        "E3": ["face-pair"],
        "E7": ["face-pair"],
        "T666": ["face-not-simple", "multi-edge"],
    }
    for code, kinds in expect.items():
        m = build_quotient(QuotientSpec(parse_tiling(code), SublatticeMat(1, 0, 0, 1)))
        rep = is_polyhedral(m)
        assert not rep
        assert sorted({kind for kind, _ in rep.violations}) == kinds, code


def test_polyhedral_report_is_truthy_exactly_when_ok():
    good = is_polyhedral(build_quotient(QuotientSpec(TilingId.SQUARE, SublatticeMat(3, 0, 0, 3))))
    bad = is_polyhedral(build_quotient(QuotientSpec(TilingId.SQUARE, SublatticeMat(1, 0, 0, 1))))
    assert bool(good) and good.ok and not bad.ok and not bool(bad)
    assert bad.violations


def listed(report) -> tuple[bool, tuple]:
    """A PolyhedralReport as full_scan's (ok, violations)."""
    return report.ok, report.violations


def assert_cell_decision_matches_full_scan(m: FlagMap) -> bool:
    ok, violations = full_scan(m)
    report = is_polyhedral(m)
    assert report.ok == ok, m.spec
    assert listed(report) == (ok, violations), m.spec
    return ok


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_cell_decision_matches_full_scan_on_hermite_forms(tid):
    outcomes = {
        assert_cell_decision_matches_full_scan(build_quotient(QuotientSpec(tid, mat)))
        for mat in enumerate_hnf(12)
    }
    assert outcomes == {True, False}, tid


@settings(max_examples=60, deadline=None)
@given(
    tid=st.sampled_from(list(TilingId)),
    entries=st.tuples(*[st.integers(min_value=-7, max_value=7)] * 4).filter(
        lambda t: t[0] * t[3] - t[1] * t[2] != 0
    ),
)
def test_cell_decision_matches_full_scan_on_random_lattices(tid, entries):
    assert_cell_decision_matches_full_scan(build_quotient(QuotientSpec(tid, SublatticeMat(*entries))))


def test_maps_without_coset_system_get_the_full_scan():
    base = build_quotient(QuotientSpec(TilingId.SQUARE, SublatticeMat(3, 0, 0, 3)))
    torus = from_faces([list(face_vertices(base, f)) for f in range(base.n_faces)])
    sphere = from_faces([[0, 1, 2], [2, 1, 0]])
    assert torus.coset_system is None and sphere.coset_system is None
    assert listed(is_polyhedral(torus)) == full_scan(torus) == listed(is_polyhedral(base))
    assert is_polyhedral(torus).ok
    assert listed(is_polyhedral(sphere)) == full_scan(sphere)
    assert is_polyhedral(sphere).violations == (("face-pair", (0, 1)),)
    # Two vertices joined by two edges: two faces of size 2 that share both.
    digon = FlagMap([1, 0, 3, 2], [(0, 2), (1, 3)])
    assert listed(is_polyhedral(digon)) == full_scan(digon)
    assert is_polyhedral(digon).violations == (
        ("face-too-small", (0,)),
        ("face-too-small", (1,)),
        ("multi-edge", (0, 1)),
        ("face-pair", (0, 1)),
    )


def test_violations_are_listed_only_when_read(monkeypatch):
    scans = []
    violations = map_core._violations

    def counting_violations(m, vertices):
        if len(vertices) == m.n_vertices:
            scans.append(m)
        return violations(m, vertices)

    monkeypatch.setattr(map_core, "_violations", counting_violations)
    m = build_quotient(QuotientSpec(TilingId.SQUARE, SublatticeMat(2, 0, 0, 2)))
    report = is_polyhedral(m)
    assert not report.ok and not m.polyhedral
    assert scans == []
    assert report.violations == full_scan(m)[1]
    assert report.violations
    assert scans == [m]
    assert map_summary(m)["polyhedral_violations"]


def test_polyhedral_property_is_decided_once(monkeypatch):
    calls = []

    def counting_is_polyhedral(m):
        calls.append(m)
        return is_polyhedral(m)

    monkeypatch.setattr(map_core, "is_polyhedral", counting_is_polyhedral)
    for k, ok in ((2, False), (3, True)):
        m = build_quotient(QuotientSpec(TilingId.SQUARE, SublatticeMat(k, 0, 0, k)))
        assert m.polyhedral is ok and m.polyhedral is ok
        assert calls.count(m) == 1


# --- labels, change of basis, summaries ---


def test_quotient_labels_enumerate_rep_coset_pairs():
    # The reference labels vertex v with its (rep, coset representative)
    # pair; the map numbers them so, and the pair of v is read off v as
    # (v // ncos, representatives[v % ncos]), as descend reads it.
    spec = QuotientSpec(parse_tiling("E4"), SublatticeMat(2, 1, 0, 3))
    m = build_quotient(spec)
    labels = reference_quotient(spec)[0]
    assert len(labels) == m.n_vertices
    reps = Counter(r for r, _ in labels)
    assert reps == {r: spec.mat.index() for r in range(template(spec.tiling).rep_count)}
    assert len(set(labels)) == m.n_vertices
    assert [vertex_at(m, r, w) for r, w in labels] == list(range(m.n_vertices))
    ncos, cells = m.coset_system.size(), representatives(m.coset_system)
    assert labels == tuple((v // ncos, cells[v % ncos]) for v in range(m.n_vertices))


def test_unimodular_change_of_basis_gives_isomorphic_map():
    # Row operations keep the row lattice, so the quotient is the same map.
    m1 = build_quotient(QuotientSpec(parse_tiling("E2"), SublatticeMat(2, 1, 0, 3)))
    m2 = build_quotient(QuotientSpec(parse_tiling("E2"), SublatticeMat(2, 1, 2, 4)))
    assert are_isomorphic(m1, m2) is not None


def test_map_summary_fields():
    spec = QuotientSpec(TilingId.SQUARE, SublatticeMat(3, 0, 0, 3))
    s = map_summary(build_quotient(spec))
    assert s["vertices"] == 9 and s["edges"] == 18 and s["faces"] == 9
    assert s["euler_characteristic"] == 0
    assert s["semi_equivelar"] and s["polyhedral"]
    assert s["vertex_type"] == "4.4.4.4" and s["signature"] == "[4^4]"
    assert s["spec"] == spec.as_dict() == {"tiling": "square", "matrix": [3, 0, 0, 3]}
