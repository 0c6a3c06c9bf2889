"""Tests for cover construction, certificates, verification, and the
descent of tiling symmetries to lattice-preserving quotients."""

from __future__ import annotations

import copy
import functools
import gc
import json
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricover import (
    FlagMap,
    QuotientSpec,
    SublatticeMat,
    TilingId,
    build_quotient,
    certificate_from_dict,
    cover_maps,
    descend,
    is_vertex_transitive,
    parse_tiling,
    template,
    verify_covering,
    vt_cover,
)
from toricover import cover as cover_module
from toricover.cli import main
from toricover.cover import _STAGES, _dart_projection, torus_area
from toricover.lattice import cover_exponent, enumerate_hnf, scaled_identity
from toricover.map_core import SlotRotations, is_automorphism
from toricover.tilings import full_point_group

from helpers import (
    NON_HERMITE_MATS,
    compose,
    inverse,
    is_identity,
    order,
    reference_adjacency,
    reference_descend,
    reference_flag_tables,
    reference_local_isomorphism,
    smith_generator_shifts,
    to_flags,
    translation,
)

VT_FLAG_CAP = 800


def spec_of(code: str, mat: tuple[int, int, int, int]) -> QuotientSpec:
    return QuotientSpec(parse_tiling(code), SublatticeMat(*mat))


# --- construction ---


def test_truncated_square_doubling():
    y, x, cert = cover_maps(spec_of("E1", (1, 0, 0, 2)))
    assert cert.exponent == 2 and cert.fold == 2
    assert (x.n_vertices, y.n_vertices) == (8, 16)
    assert cert.cover_mat == scaled_identity(2)
    assert verify_covering(y, x, cert).ok


def test_square_grid_skew_example():
    y, x, cert = cover_maps(spec_of("T4444", (5, 3, 1, 2)))
    assert cert.exponent == 7 and cert.fold == 7
    report = verify_covering(y, x, cert)
    assert report.ok
    assert report.checks_passed == (
        "arithmetic",
        "shape",
        "fibers",
        "adjacency",
        "faces",
        "local-isomorphism",
    )
    assert is_vertex_transitive(y)


def test_scalar_input_covers_itself():
    y, x, cert = cover_maps(spec_of("E3", (3, 0, 0, 3)))
    assert cert.exponent == 3 and cert.fold == 1
    assert y.n_vertices == x.n_vertices
    assert sorted(cert.vertex_map) == list(range(x.n_vertices))
    assert verify_covering(y, x, cert).ok


@pytest.mark.parametrize(
    "mat, r, builds", [((3, 0, 0, 3), 1, 1), ((3, 0, 0, 3), 2, 2), ((2, 1, 0, 3), 1, 2)], ids=["scalar", "r2", "skew"]
)
def test_cover_maps_builds_each_distinct_quotient_once(monkeypatch, mat, r, builds):
    # Y's matrix is m·I.  When M is m·I already (and r = 1), Y is X, and
    # the one map serves as both.
    built = []

    def counted(s):
        built.append(s)
        return build_quotient(s)

    monkeypatch.setattr("toricover.cover.build_quotient", counted)
    y, x, cert = cover_maps(spec_of("T4444", mat), r=r)
    assert len(built) == builds
    assert (y is x) == (builds == 1)
    assert verify_covering(y, x, cert).ok


def test_cover_verifies_across_all_tilings():
    for tid in TilingId:
        for mat in [(1, 0, 0, 2), (2, 1, 0, 3), (1, -2, 3, 1)]:
            spec = QuotientSpec(tid, SublatticeMat(*mat))
            y, x, cert = cover_maps(spec)
            assert cert.fold * spec.mat.index() == cert.exponent**2
            assert y.n_vertices == cert.fold * x.n_vertices
            assert verify_covering(y, x, cert).ok, (tid, mat)
            if y.n_flags <= VT_FLAG_CAP:
                assert is_vertex_transitive(y), (tid, mat)


def test_vt_cover_returns_buildable_spec():
    cover_spec, cert = vt_cover(spec_of("E5", (1, 1, 0, 2)))
    assert cover_spec.mat == cert.cover_mat
    y = build_quotient(cover_spec)
    assert y.n_vertices == cert.fold * template(cover_spec.tiling).rep_count * 2
    assert is_vertex_transitive(y)


def test_r_family_scales_exponent_linearly():
    base = spec_of("E6", (1, 0, 0, 3))
    assert cover_exponent(base.mat) == 3
    spec1, cert1 = vt_cover(base, 1)
    assert (cert1.exponent, cert1.fold) == (3, 3)
    spec2, cert2 = vt_cover(base, 2)
    assert (cert2.exponent, cert2.fold) == (6, 12)
    assert spec2.mat == scaled_identity(6)
    y, x, _ = cover_maps(base, r=2)
    assert verify_covering(y, x, cert2).ok
    with pytest.raises(ValueError):
        vt_cover(base, 0)


def test_r_family_members_cover_the_same_base():
    base = spec_of("T666", (2, 1, 0, 2))
    folds = []
    for r in (1, 2, 3):
        y, x, cert = cover_maps(base, r=r)
        assert verify_covering(y, x, cert).ok
        folds.append(cert.fold)
    m = cover_exponent(base.mat)
    assert folds == [r * r * m * m // base.mat.index() for r in (1, 2, 3)]


def crossed_reverses(x: FlagMap) -> list[int]:
    """X's reverse table with the reverses of its first two edges crossed,
    as broken coset bookkeeping would leave them."""
    (d1, d2), rev = x.edge_dart[:2], list(x.dart_rev)
    r1, r2 = rev[d1], rev[d2]
    rev[d1], rev[r2], rev[d2], rev[r1] = r2, d1, r1, d2
    return rev


@pytest.mark.parametrize("code, mat", [("E2", (2, 1, 0, 3)), ("T4444", (3, 1, -1, 2))])
def test_a_cover_whose_reversal_breaks_fails_verification(monkeypatch, capsys, code, mat):
    # X's reverses of its first two edges are crossed after construction.
    # cover_maps does not check itself, so the certificate it reads off the
    # projection is made; verify_covering rejects it at the adjacency stage
    # and names the first Y-edge that the per-edge reference rejects.
    spec = spec_of(code, mat)
    y, x, cert = cover_maps(spec)
    rev = crossed_reverses(x)
    crossed_x = build_quotient(spec)
    crossed_x.dart_rev = rev
    want = reference_adjacency(y, crossed_x, cert)
    assert want is not None and want.startswith("adjacency: edge ")
    assert verify_covering(y, crossed_x, cert) == (False, want, FIVE_STAGES[:3])

    def crossed(s):
        m = build_quotient(s)
        if s == spec:
            m.dart_rev = rev
        return m

    monkeypatch.setattr("toricover.cover.build_quotient", crossed)
    with pytest.raises(AssertionError, match=f"^{re.escape(want)}$"):
        vt_cover(spec)
    assert main(["cover", code, *map(str, mat)]) == 1
    assert json.loads(capsys.readouterr().out)["verified"]["failure"] == want


# --- verification failure kinds, one per check ---


def test_verify_rejects_non_scalar_cover_matrix():
    y, x, cert = cover_maps(spec_of("E1", (1, 0, 0, 2)))
    bad = cert._replace(cover_mat=SublatticeMat(2, 1, 0, 2))
    report = verify_covering(y, x, bad)
    assert not report.ok and report.failure.startswith("arithmetic")
    assert report.checks_passed == ()


def test_verify_rejects_wrong_fold():
    y, x, cert = cover_maps(spec_of("E1", (1, 0, 0, 2)))
    report = verify_covering(y, x, cert._replace(fold=3))
    assert not report.ok and report.failure.startswith("arithmetic")


def test_verify_rejects_cover_lattice_outside_base_lattice():
    # m = 2, n = 1 passes n·|det| = m² over (1, 0; 0, 4), but (0, 2) of
    # 2·I is not in the base lattice.
    y, x, cert = cover_maps(spec_of("T4444", (1, 0, 0, 4)))
    bad = cert._replace(exponent=2, fold=1, cover_mat=scaled_identity(2))
    report = verify_covering(y, x, bad)
    assert report.failure == "arithmetic: cover lattice is not inside the base lattice"
    assert report.checks_passed == ()


def test_verify_rejects_truncated_map():
    y, x, cert = cover_maps(spec_of("E1", (1, 0, 0, 2)))
    bad = cert._replace(vertex_map=cert.vertex_map[:-1])
    report = verify_covering(y, x, bad)
    assert report.failure.startswith("shape")
    assert report.checks_passed == ("arithmetic",)


def test_verify_rejects_unbalanced_fibers():
    y, x, cert = cover_maps(spec_of("E1", (1, 0, 0, 2)))
    vm = list(cert.vertex_map)
    other = next(i for i in range(1, len(vm)) if vm[i] != vm[0])
    vm[other] = vm[0]
    report = verify_covering(y, x, cert._replace(vertex_map=tuple(vm)))
    assert report.failure.startswith("fibers")
    assert report.checks_passed == ("arithmetic", "shape")


@pytest.mark.parametrize(
    "moved, onto, want", [(1, 0, "vertex 0 has 2 preimages"), (3, 5, "vertex 3 has 0 preimages")]
)
def test_verify_names_the_first_bad_fiber_at_fold_1(moved, onto, want):
    # At fold 1 the vertex map is a permutation; sending one more vertex
    # onto `onto` leaves `moved` with no preimage, and the smaller of the
    # two is named.
    y, x, cert = cover_maps(spec_of("E1", (2, 0, 0, 2)))
    assert cert.fold == 1 and y is x and cert.vertex_map == tuple(range(x.n_vertices))
    vm = list(cert.vertex_map)
    vm[moved] = onto
    report = verify_covering(y, x, cert._replace(vertex_map=tuple(vm)))
    assert report == (False, f"fibers: {want}, expected 1", ("arithmetic", "shape"))


def traced_peak(call, *args) -> int:
    """The tracemalloc peak, in bytes, of one call."""
    gc.collect()
    tracemalloc.start()
    try:
        call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_the_fibers_stage_counts_one_table_at_a_time():
    # One edge image duplicated: the certificate fails the accept pass and
    # the fibers stage at the edge map.  The vertex map's Counter is freed
    # before the edge map's is built, so the stage peaks at about one
    # Counter; holding both took E7 at 52·I from 3.75 to 5.00 MiB.
    y, x, cert = cover_maps(spec_of("E7", (52, 0, 0, 52)))
    em = list(cert.edge_map)
    em[1] = em[0]
    bad = cert._replace(edge_map=tuple(em))
    assert verify_covering(y, x, bad).failure.startswith("fibers: edge")
    assert traced_peak(verify_covering, y, x, bad) <= 1.1 * traced_peak(Counter, bad.edge_map)


def test_verify_rejects_broken_adjacency():
    y, x, cert = cover_maps(spec_of("E1", (1, 0, 0, 2)))
    vm = list(cert.vertex_map)
    other = next(i for i in range(1, len(vm)) if vm[i] != vm[0])
    vm[0], vm[other] = vm[other], vm[0]
    report = verify_covering(y, x, cert._replace(vertex_map=tuple(vm)))
    assert report.failure.startswith("adjacency")
    assert report.checks_passed == ("arithmetic", "shape", "fibers")


def test_verify_rejects_face_size_change():
    # n = 1 self-cover of a mixed-size tiling; swapping the images of a
    # square and an octagon keeps fibers balanced but changes sizes.
    y, x, cert = cover_maps(spec_of("E1", (2, 0, 0, 2)))
    assert cert.fold == 1
    sq = next(f for f in range(x.n_faces) if x.face_sizes[f] == 4)
    oc = next(f for f in range(x.n_faces) if x.face_sizes[f] == 8)
    fm = list(cert.face_map)
    i, j = fm.index(sq), fm.index(oc)
    fm[i], fm[j] = fm[j], fm[i]
    report = verify_covering(y, x, cert._replace(face_map=tuple(fm)))
    assert report.failure.startswith("faces")
    assert report.checks_passed == ("arithmetic", "shape", "fibers", "adjacency")


def test_verify_rejects_broken_rotation_order():
    # The 2x2 grid has parallel edges.  Exchanging their images keeps
    # every earlier check intact (same endpoints, balanced fibers, equal
    # face sizes) but scrambles the rotation at the shared endpoints, so
    # only the local-isomorphism check can catch it.
    y, x, cert = cover_maps(spec_of("T4444", (2, 0, 0, 2)))
    assert cert.fold == 1
    seen: dict[tuple[int, int], int] = {}
    pair = None
    for e in range(x.n_edges):
        key = tuple(sorted(x.edge_endpoints(e)))
        if key in seen:
            pair = (seen[key], e)
            break
        seen[key] = e
    assert pair is not None
    em = list(cert.edge_map)
    i, j = em.index(pair[0]), em.index(pair[1])
    em[i], em[j] = em[j], em[i]
    report = verify_covering(y, x, cert._replace(edge_map=tuple(em)))
    assert report.failure.startswith("local")
    assert report.checks_passed == ("arithmetic", "shape", "fibers", "adjacency", "faces")
    assert_local_stage_matches_reference(y, x, cert._replace(edge_map=tuple(em)))


def test_verify_checks_every_preimage_against_its_dihedral_set():
    # Composing the projection Y -> X with the quarter turn of X (an
    # automorphism, since X's lattice 2Z^2 is scalar) gives a valid
    # certificate in which every Y-cycle is a rotation, not a copy, of its
    # image's cycle, so each Y-vertex is looked up in its image's dihedral
    # set.  Exchanging the images of two Y-edges over parallel X-edges
    # then breaks only later preimages (r = 2 gives four per X-vertex):
    # the set of the broken vertex's image is already built.
    spec = spec_of("T4444", (2, 0, 0, 2))
    y, x, cert = cover_maps(spec, r=2)
    assert cert.fold == 4
    g = to_flags(*descend(x, template(spec.tiling).point_group[0]))
    t = reference_flag_tables(x)
    gv = [t["flag_vertex"][g[2 * ds[0]]] for ds in x.vertex_darts]
    ge = [x.dart_edge[g[2 * d] // 2] for d in x.edge_dart]
    gf = [t["flag_face"][g[2 * x.face_walks[i]]] for i in x.face_offsets[:-1]]
    vm = [gv[v] for v in cert.vertex_map]
    em = [ge[e] for e in cert.edge_map]
    fm = tuple(gf[f] for f in cert.face_map)
    turned = cert._replace(vertex_map=tuple(vm), edge_map=tuple(em), face_map=fm)
    assert verify_covering(y, x, turned).ok
    assert_local_stage_matches_reference(y, x, turned)

    def cycle(m, v, edge_map=None, face_map=None):
        return [
            (edge_map[m.dart_edge[d]] if edge_map else m.dart_edge[d],
             face_map[m.dart_face_left[d]] if face_map else m.dart_face_left[d])
            for d in m.vertex_darts[v]
        ]

    assert all(cycle(y, v, em, fm) != cycle(x, vm[v]) for v in range(y.n_vertices))

    first = {xv: v for v, xv in reversed(list(enumerate(vm)))}
    late = {v for v, xv in enumerate(vm) if first[xv] != v}
    swap = next(
        (e, f)
        for v in sorted(late)
        for e in (y.dart_edge[d] for d in y.vertex_darts[v])
        for f in (y.dart_edge[d] for d in y.vertex_darts[v])
        if em[e] != em[f]
        and sorted(x.edge_endpoints(em[e])) == sorted(x.edge_endpoints(em[f]))
        and set(y.edge_endpoints(e)) | set(y.edge_endpoints(f)) <= late
    )
    e, f = swap
    em[e], em[f] = em[f], em[e]
    report = verify_covering(y, x, turned._replace(edge_map=tuple(em)))
    assert report.failure.startswith("local")
    assert report.checks_passed == ("arithmetic", "shape", "fibers", "adjacency", "faces")
    broken = int(report.failure.split("vertex ")[1].split()[0])
    assert broken in late
    assert_local_stage_matches_reference(y, x, turned._replace(edge_map=tuple(em)))


# --- the local-isomorphism stage against the per-vertex reference ---

FIVE_STAGES = ("arithmetic", "shape", "fibers", "adjacency", "faces")


def assert_local_stage_matches_reference(y, x, cert) -> None:
    """verify_covering reaches the local-isomorphism stage and ends as the
    per-vertex reference stage does: the same verdict, failure message
    and stages passed."""
    report = verify_covering(y, x, cert)
    assert report.checks_passed[:5] == FIVE_STAGES, report
    want = reference_local_isomorphism(y, x, cert)
    assert (report.ok, report.failure) == (want is None, want)
    assert report.checks_passed == FIVE_STAGES + (("local-isomorphism",) if want is None else ())


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_local_stage_matches_reference_on_honest_certificates(tid, monkeypatch):
    # The per-edge and per-vertex loops run only where the accept-only pass
    # fails, which never happens on an honest certificate.
    def refuse(*args):
        raise AssertionError("a loop ran on an honest certificate")

    monkeypatch.setattr(cover_module, "_adjacency_failure", refuse)
    monkeypatch.setattr(cover_module, "_local_failure", refuse)
    for mat in ((1, 0, 0, 2), (2, 1, 0, 3), (1, -2, 3, 1), (3, 0, 0, 3)):
        for r in (1, 2):
            y, x, cert = cover_maps(QuotientSpec(tid, SublatticeMat(*mat)), r=r)
            assert_local_stage_matches_reference(y, x, cert)


def test_local_stage_matches_reference_when_a_degree_differs():
    # X = T4444 / I has one vertex of degree 4, two loops and one square.
    # Y has two vertices of degrees 2 and 6, four edges and two squares.
    # With the numbers of the fold-2 cover of T4444 / (1, 0; 0, 2), whose
    # maps are not polyhedral either, every stage before the local one
    # passes, and Y-vertex 0 has fewer darts than its image.
    x = build_quotient(spec_of("T4444", (1, 0, 0, 1)))
    y = FlagMap([2, 3, 0, 1, 5, 4, 7, 6], [(0, 1), (2, 4, 6, 3, 5, 7)])
    assert (y.n_edges, y.face_sizes, x.n_vertices) == (4, (4, 4), 1)
    _, _, cert = cover_maps(spec_of("T4444", (1, 0, 0, 2)))
    bad = cert._replace(vertex_map=(0, 0), edge_map=(0, 1, 0, 1), face_map=(0, 0))
    assert_local_stage_matches_reference(y, x, bad)
    assert verify_covering(y, x, bad).failure == "local: face-cycle at vertex 0 does not match vertex 0"


# Small quotients, some with loops or parallel edges, so that swapping the
# images of two edges can keep their ends.
MUTATED_SPECS = (
    ("T4444", (2, 0, 0, 2)),
    ("T4444", (1, 0, 0, 2)),
    ("E1", (1, 0, 0, 2)),
    ("T333333", (2, 0, 0, 2)),
    ("T666", (1, 0, 0, 1)),
    ("E7", (1, 1, 0, 2)),
)


@functools.lru_cache(maxsize=None)
def cover_and_symmetries(code: str, mat: tuple[int, int, int, int], r: int):
    """(y, x, cert) and the vertex, edge and face maps of those
    automorphisms of X that tiling symmetries induce: the translations by
    e1 and e2 and the point-group elements that preserve X's lattice."""
    spec = spec_of(code, mat)
    y, x, cert = cover_maps(spec, r=r)
    tpl = template(spec.tiling)
    elems = [translation(tpl, (1, 0)), translation(tpl, (0, 1))]
    elems += [g for g in tpl.point_group if spec.mat.preserved_by(g.matrix)]
    t = reference_flag_tables(x)
    actions = []
    for g in (to_flags(*descend(x, elem)) for elem in elems):
        actions.append((
            [t["flag_vertex"][g[2 * ds[0]]] for ds in x.vertex_darts],
            [x.dart_edge[g[2 * d] // 2] for d in x.edge_dart],
            [t["flag_face"][g[2 * x.face_walks[i]]] for i in x.face_offsets[:-1]],
        ))
    return y, x, cert, actions


def draw_mutated(data, swap_vertices: bool = False):
    """(y, x, cert): an honest certificate of a small cover, followed by
    up to two automorphisms of X and then swaps that keep the fibers.
    With swap_vertices, the images of up to two pairs of Y-vertices are
    swapped first, which may break adjacency; the other swaps keep every
    stage before the local one."""
    code, mat = data.draw(st.sampled_from(MUTATED_SPECS))
    y, x, cert, actions = cover_and_symmetries(code, mat, data.draw(st.sampled_from((1, 2))))
    vm, em, fm = list(cert.vertex_map), list(cert.edge_map), list(cert.face_map)
    # Followed by automorphisms of X the projection is still a covering,
    # but its cycles may be rotated or reflected ones of their images'.
    for gv, ge, gf in data.draw(st.lists(st.sampled_from(actions), max_size=2)):
        vm, em, fm = [gv[v] for v in vm], [ge[e] for e in em], [gf[f] for f in fm]
    # Two Y-vertices of one rep with different images exchange them: every
    # fiber keeps its size.  In E1, E7 and T666 every vertex of the last
    # rep holds only the larger dart of each of its edges, so a swap there
    # moves no edge's smaller dart and no face's first dart.
    ncos = y.coset_system.size()
    for _ in range(data.draw(st.integers(0, 2)) if swap_vertices else 0):
        u = data.draw(st.integers(0, y.n_vertices - 1))
        rep = range(u - u % ncos, u - u % ncos + ncos)
        mates = [w for w in rep if vm[w] != vm[u]]
        if mates:
            w = data.draw(st.sampled_from(mates))
            vm[u], vm[w] = vm[w], vm[u]
    # Swaps that keep every earlier stage: the images of two Y-edges whose
    # images have the same ends, and of two Y-faces whose images have the
    # same size.
    x_ends = [sorted(x.edge_endpoints(e)) for e in range(x.n_edges)]
    for _ in range(data.draw(st.integers(0, 3))):
        e = data.draw(st.integers(0, y.n_edges - 1))
        mates = [f for f in range(y.n_edges) if em[f] != em[e] and x_ends[em[f]] == x_ends[em[e]]]
        if mates:
            f = data.draw(st.sampled_from(mates))
            em[e], em[f] = em[f], em[e]
    for _ in range(data.draw(st.integers(0, 2))):
        f = data.draw(st.integers(0, y.n_faces - 1))
        sizes = x.face_sizes
        mates = [g for g in range(y.n_faces) if fm[g] != fm[f] and sizes[fm[g]] == sizes[fm[f]]]
        if mates:
            g = data.draw(st.sampled_from(mates))
            fm[f], fm[g] = fm[g], fm[f]
    return y, x, cert._replace(vertex_map=tuple(vm), edge_map=tuple(em), face_map=tuple(fm))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_local_stage_matches_reference_on_mutated_maps(data):
    assert_local_stage_matches_reference(*draw_mutated(data))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_adjacency_and_local_stages_match_the_references_on_mutated_maps(data):
    # The accept-only pass never accepts what the per-edge and per-vertex
    # references reject, and on a rejection the reference names the
    # failure.  These moves keep the fibers and the face sizes.
    y, x, cert = draw_mutated(data, swap_vertices=True)
    report = verify_covering(y, x, cert)
    adjacency = reference_adjacency(y, x, cert)
    if adjacency is not None:
        assert report == (False, adjacency, FIVE_STAGES[:3])
        return
    local = reference_local_isomorphism(y, x, cert)
    assert report == (local is None, local, FIVE_STAGES + (("local-isomorphism",) if local is None else ()))


# --- the accept-only pass against the stages ---


def staged_report(y, x, cert):
    """verify_covering's report with the accept-only pass switched off,
    so the stages decide every certificate."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cover_module, "_projection_covers", lambda *args: False)
        return verify_covering(y, x, cert)


def assert_pass_changes_nothing(y, x, cert):
    report = verify_covering(y, x, cert)
    assert report == staged_report(y, x, cert)
    return report


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_the_pass_accepts_honest_certificates_as_the_stages_do(tid):
    for mat in ((1, 0, 0, 2), (2, 1, 0, 3), (1, -2, 3, 1), (3, 0, 0, 3)):
        for r in (1, 2):
            y, x, cert = cover_maps(QuotientSpec(tid, SublatticeMat(*mat)), r=r)
            assert cover_module._projection_covers(y, x, cert), (mat, r)
            assert assert_pass_changes_nothing(y, x, cert).ok


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_pass_changes_no_report_on_mutated_maps(data):
    assert_pass_changes_nothing(*draw_mutated(data, swap_vertices=True))


def octagon_cover():
    """(y, x, cert): a 4-fold dart map onto X = T4444 / I (one vertex of
    degree 4, two loops, one square) that commutes with cw and rev, from a
    genus-2 map Y of two octagons in build_quotient's layout.  The edge
    and face maps are the induced ones, so only the face sizes, and the
    fibers of X's square (2 preimages, not 4), tell it from a covering."""
    x = build_quotient(spec_of("T4444", (1, 0, 0, 1)))
    assert x.dart_rev == [2, 3, 0, 1]
    y = FlagMap(
        [2, 11, 0, 9, 6, 15, 4, 13, 14, 3, 12, 1, 10, 7, 8, 5], SlotRotations(4, 4)
    )
    assert y.face_sizes == (8, 8) and y.slot_degree == 4
    dmap = _dart_projection(y, x, (0, 0, 0, 0))
    cert = cover_module.CoverCertificate(
        tiling=x.spec.tiling,
        base_mat=x.spec.mat,
        exponent=2,
        fold=4,
        cover_mat=scaled_identity(2),
        vertex_map=(0, 0, 0, 0),
        edge_map=tuple(x.dart_edge[dmap[d]] for d in y.edge_dart),
        face_map=tuple(x.dart_face_left[dmap[y.face_walks[i]]] for i in y.face_offsets[:-1]),
        area_value=1,
        area_factor="1",
        base_polyhedral=x.polyhedral,
        cover_polyhedral=y.polyhedral,
    )
    return y, x, cert


def hand_made_certificates():
    """(name, y, x, cert, the stage that rejects it)."""
    y, x, cert = cover_maps(spec_of("E2", (2, 1, 0, 3)))
    yield "negative vertex", y, x, cert._replace(
        vertex_map=(cert.vertex_map[0] - x.n_vertices, *cert.vertex_map[1:])
    ), "shape"
    yield "fold", y, x, cert._replace(fold=cert.fold + 1), "arithmetic"
    # The certificate of the r = 2 cover over the r = 1 maps: the arithmetic
    # holds, and every table is the r = 1 one.
    yield "fold of r = 2", y, x, cert._replace(
        exponent=2 * cert.exponent, fold=4 * cert.fold, cover_mat=scaled_identity(2 * cert.exponent)
    ), "fibers"
    yield "polyhedral", y, x, cert._replace(cover_polyhedral=not cert.cover_polyhedral), "faces"
    crossed_x = build_quotient(spec_of("E2", (2, 1, 0, 3)))
    crossed_x.dart_rev = crossed_reverses(x)
    yield "crossed reverses", y, crossed_x, cert, "adjacency"
    y, x, cert = cover_maps(spec_of("E1", (2, 0, 0, 2)))
    sq = next(f for f in range(x.n_faces) if x.face_sizes[f] == 4)
    oc = next(f for f in range(x.n_faces) if x.face_sizes[f] == 8)
    fm = list(cert.face_map)
    i, j = fm.index(sq), fm.index(oc)
    fm[i], fm[j] = fm[j], fm[i]
    yield "face size", y, x, cert._replace(face_map=tuple(fm)), "faces"
    yield ("octagons", *octagon_cover(), "fibers")


@pytest.mark.parametrize(
    "y, x, cert, stage", [pytest.param(*case, id=name) for name, *case in hand_made_certificates()]
)
def test_the_pass_changes_no_report_on_hand_made_certificates(y, x, cert, stage):
    # Each certificate fails, at the stage named; the pass must refuse it
    # so that the stage names the failure.
    report = assert_pass_changes_nothing(y, x, cert)
    assert not report.ok and report.failure.startswith(stage), report
    assert report.checks_passed == tuple(_STAGES[: _STAGES.index(stage)])


def test_swapped_images_of_two_larger_dart_tails_fail_adjacency():
    # Y-vertices 12 and 13 of E1's fold-2 cover hold only the larger dart
    # of each of their edges.  With their images exchanged, every edge's
    # smaller dart and every face's first dart still land where the
    # certificate says; only the projection's commuting with rev fails.
    y, x, cert = cover_maps(spec_of("E1", (1, 0, 0, 2)))
    assert all(y.dart_rev[d] < d for v in (12, 13) for d in y.vertex_darts[v])
    vm = list(cert.vertex_map)
    assert vm[12] != vm[13]
    vm[12], vm[13] = vm[13], vm[12]
    swapped = cert._replace(vertex_map=tuple(vm))
    want = reference_adjacency(y, x, swapped)
    assert want is not None
    assert verify_covering(y, x, swapped) == (False, want, FIVE_STAGES[:3])


def projection_covers(y, x, vm, em, fm) -> bool:
    """Whether the dart projection of the vertex map commutes with rev
    and sends every Y dart into the X edge and the X face that the edge
    and face maps claim for it, decided dart by dart: what the accept-only
    pass of verify_covering checks of the projection."""
    dmap = _dart_projection(y, x, vm)
    return all(
        dmap[y.dart_rev[d]] == x.dart_rev[dmap[d]]
        and x.dart_edge[dmap[d]] == em[y.dart_edge[d]]
        and x.dart_face_left[dmap[d]] == fm[y.dart_face_left[d]]
        for d in range(y.n_darts)
    )


def test_a_rotated_cycle_fails_the_column_tier_and_passes_the_per_vertex_tier(monkeypatch):
    # Y's darts renumbered so that the rotation of vertex v starts at its
    # second dart.  The result is the same map, still in build_quotient's
    # layout, and the certificate carried along the renumbering is honest,
    # but v's cycle is its image's turned by one slot: the dart projection
    # breaks at v alone, so the per-edge and per-vertex loops both run, and
    # both pass.
    y, x, cert = cover_maps(spec_of("E2", (2, 1, 0, 3)))
    deg, v = y.slot_degree, 5
    old = list(range(y.n_darts))  # new dart -> Y dart
    old[v * deg : (v + 1) * deg] = [v * deg + (k + 1) % deg for k in range(deg)]
    new = inverse(old)
    turned = FlagMap(
        [new[y.dart_rev[old[d]]] for d in range(y.n_darts)], SlotRotations(y.n_vertices, deg)
    )
    assert turned.slot_degree == deg
    em = [cert.edge_map[y.dart_edge[old[d]]] for d in turned.edge_dart]
    fm = [cert.face_map[y.dart_face_left[old[turned.face_walks[i]]]] for i in turned.face_offsets[:-1]]
    moved = cert._replace(edge_map=tuple(em), face_map=tuple(fm))
    vm = cert.vertex_map
    assert projection_covers(y, x, vm, cert.edge_map, cert.face_map)
    assert not projection_covers(turned, x, vm, em, fm)
    reached = []

    def recorded(name):
        loop = getattr(cover_module, name)
        return lambda *args: reached.append(name) or loop(*args)

    for name in ("_adjacency_failure", "_local_failure"):
        monkeypatch.setattr(cover_module, name, recorded(name))
    assert verify_covering(turned, x, moved).ok
    assert reached == ["_adjacency_failure", "_local_failure"]
    assert_local_stage_matches_reference(turned, x, moved)


@pytest.mark.parametrize("code, mat", MUTATED_SPECS[:2] + MUTATED_SPECS[3:5], ids=lambda p: str(p))
def test_local_stage_matches_reference_when_images_swap_within_a_slot_column(code, mat):
    # Two Y-edges at slot k of their tails whose images have the same ends
    # exchange images: every earlier stage still passes, and the dart
    # projection no longer covers.  These four quotients have such pairs
    # (E1 and E7 have none); on T666 / I the per-vertex tier then accepts
    # every swap as a turn or a reflection, on the other three it rejects
    # it.
    y, x, cert = cover_maps(spec_of(code, mat))
    deg, em = y.slot_degree, list(cert.edge_map)
    x_ends = [sorted(x.edge_endpoints(e)) for e in range(x.n_edges)]
    e, f = next(
        (e, f)
        for k in range(deg)
        for e in y.dart_edge[k::deg]
        for f in y.dart_edge[k::deg]
        if em[e] != em[f] and x_ends[em[e]] == x_ends[em[f]]
    )
    em[e], em[f] = em[f], em[e]
    swapped = cert._replace(edge_map=tuple(em))
    assert not projection_covers(y, x, cert.vertex_map, em, cert.face_map)
    assert verify_covering(y, x, swapped).ok == (code == "T666")
    assert_local_stage_matches_reference(y, x, swapped)


@pytest.mark.parametrize(
    "area", [(7, "1"), (4, "sqrt(3)/2"), (999, "pi"), (-4, "1")], ids=["value", "factor", "both", "sign"]
)
def test_verify_rejects_false_area_claim(area):
    y, x, cert = cover_maps(spec_of("T4444", (1, 0, 0, 2)))
    assert (cert.area_value, cert.area_factor) == (2, "1")
    bad = cert._replace(area_value=area[0], area_factor=area[1])
    report = verify_covering(y, x, bad)
    assert not report.ok and report.failure.startswith("arithmetic: area")
    assert report.checks_passed == ()


@pytest.mark.parametrize("field", ["base_polyhedral", "cover_polyhedral"])
def test_verify_rejects_false_polyhedral_claim(field):
    # X = T4444 / (1, 0; 0, 2) has loops; its cover, the 2x2 grid, has
    # parallel edges.  Neither is polyhedral, so a True claim is false.
    y, x, cert = cover_maps(spec_of("T4444", (1, 0, 0, 2)))
    assert (cert.base_polyhedral, cert.cover_polyhedral) == (False, False)
    report = verify_covering(y, x, cert._replace(**{field: True}))
    assert not report.ok and report.failure.startswith("faces: certificate claims")
    assert report.checks_passed == ("arithmetic", "shape", "fibers", "adjacency")
    # and a polyhedral map claimed non-polyhedral
    y, x, cert = cover_maps(spec_of("T4444", (3, 0, 0, 3)))
    assert cert.base_polyhedral and cert.cover_polyhedral
    report = verify_covering(y, x, cert._replace(**{field: False}))
    assert not report.ok and report.failure.startswith("faces: certificate claims")


# --- symmetry descent ---


def test_rotation_descends_to_scalar_quotient():
    spec = spec_of("E3", (2, 0, 0, 2))
    rho = max(template(spec.tiling).point_group, key=lambda e: e.order)
    assert rho.order == 6 and rho.kind == "rotation"
    m = build_quotient(spec)
    auto, reverses = descend(m, rho)
    assert not reverses
    assert order(auto) == 6
    assert is_automorphism(m, auto, reverses)


def test_reflection_descends_on_truncated_trihexagonal():
    spec = spec_of("E7", (3, 0, 0, 3))
    tau = next(e for e in template(spec.tiling).point_group if e.kind == "reflection")
    auto = to_flags(*descend(build_quotient(spec), tau))
    assert order(auto) == 2
    assert not is_identity(auto)


def test_point_group_needs_scalar_lattice():
    spec = spec_of("E3", (2, 1, 0, 2))
    rho = template(spec.tiling).point_group[0]
    with pytest.raises(ValueError):
        descend(build_quotient(spec), rho)


def test_descend_refuses_an_element_that_is_not_a_symmetry():
    # Two slots of the rotation's slot map exchanged: the dart list it
    # induces fails is_automorphism, so descend raises instead.
    spec = spec_of("E3", (2, 0, 0, 2))
    rho = template(spec.tiling).point_group[0]
    row = list(rho.slot_maps[0])
    row[0], row[1] = row[1], row[0]
    bad = rho._replace(slot_maps=(tuple(row), *rho.slot_maps[1:]))
    m = build_quotient(spec)
    with pytest.raises(RuntimeError, match="not a map automorphism"):
        descend(m, bad)
    perm, reverses = descend(m, rho)
    assert not is_automorphism(m, perm[:-1], reverses)


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_column_descend_equals_the_per_vertex_reference(tid):
    # Every point symmetry that preserves K, and the translations by the
    # unit vectors and by the Smith generators.
    tpl, group = template(tid), full_point_group(tid)
    for mat in [*enumerate_hnf(12), *NON_HERMITE_MATS]:
        m = build_quotient(QuotientSpec(tid, mat))
        elems = [g for g in group if mat.preserved_by(g.matrix)]
        elems += [translation(tpl, d) for d in ((1, 0), (0, 1), *smith_generator_shifts(m.coset_system))]
        for elem in elems:
            assert descend(m, elem) == reference_descend(m, elem), (mat, elem.name)


def test_descend_needs_a_quotient_map():
    # A map not made by build_quotient has no coset numbering to act on.
    loop = FlagMap([1, 0], [(0, 1)])
    with pytest.raises(ValueError, match="build_quotient"):
        descend(loop, translation(template(TilingId.SQUARE), (1, 0)))


def test_rotation_descends_to_preserved_non_scalar_lattice():
    # The checkerboard lattice (1, 1; 1, -1) is not scalar, but the
    # quarter turn maps its rows to -(1, -1) and (1, 1), so it descends.
    spec = spec_of("T4444", (1, 1, 1, -1))
    rot4 = template(spec.tiling).point_group[0]
    assert rot4.order == 4 and rot4.kind == "rotation"
    m = build_quotient(spec)
    auto, reverses = descend(m, rot4)
    assert is_automorphism(m, auto, reverses)
    assert order(auto) == 4


def test_translations_descend_on_any_quotient():
    spec = spec_of("E2", (2, 1, 0, 3))
    tpl = template(spec.tiling)
    y = build_quotient(spec)
    t10, _ = descend(y, translation(tpl, (1, 0)))
    t01, _ = descend(y, translation(tpl, (0, 1)))
    for t in (t10, t01):
        assert is_automorphism(y, t, False)
    # translating by a lattice vector is the identity on the quotient
    assert descend(y, translation(tpl, (2, 1))) == (list(range(y.n_darts)), False)
    assert descend(y, translation(tpl, (0, 3))) == (list(range(y.n_darts)), False)
    assert not is_identity(t10)


def test_translation_group_is_abelian_here():
    spec = spec_of("E4", (2, 0, 0, 2))
    tpl = template(spec.tiling)
    y = build_quotient(spec)
    t10, _ = descend(y, translation(tpl, (1, 0)))
    t01, _ = descend(y, translation(tpl, (0, 1)))
    assert compose(t10, t01) == compose(t01, t10)
    assert is_identity(compose(t10, t10))  # delta (2,0) is in the lattice


# --- areas, certificates, serialization ---


def test_torus_area_examples():
    assert torus_area(spec_of("T4444", (5, 3, 1, 2))) == (7, "1")
    assert torus_area(spec_of("T333333", (2, 0, 0, 2))) == (4, "sqrt(3)/2")
    for tid in TilingId:
        value, factor = torus_area(QuotientSpec(tid, SublatticeMat(2, 1, 0, 3)))
        assert value == 6
        assert factor == template(tid).cell_area_factor


def test_certificate_round_trip():
    _, _, cert = cover_maps(spec_of("E4", (1, 1, 0, 2)))
    again = certificate_from_dict(cert.as_dict())
    assert again == cert


def test_certificate_rejects_malformed_documents():
    _, _, cert = cover_maps(spec_of("E4", (1, 1, 0, 2)))
    good = cert.as_dict()
    for breakage in (
        lambda d: d.pop("M"),
        lambda d: d.__setitem__("M", [1, 2, 3]),
        lambda d: d.__setitem__("tiling", "dodecahedral"),
        lambda d: d.__setitem__("m", "seven"),
        lambda d: d.pop("polyhedral"),
    ):
        bad = {k: (v.copy() if isinstance(v, (dict, list)) else v) for k, v in good.items()}
        breakage(bad)
        with pytest.raises(ValueError):
            certificate_from_dict(bad)


@pytest.mark.parametrize(
    "path, value",
    [
        (("M", 0), 1.0),
        (("M", 3), True),
        (("m",), 2.0),
        (("n",), "2"),
        (("vertex_map", 0), 0.4),
        (("edge_map", 1), "1"),
        (("face_map", 0), False),
        (("area", "value"), 2.0),
        (("area", "factor"), 1),
        (("polyhedral", "X"), 0),
        (("polyhedral", "Y"), "false"),
        (("tiling",), 4),
    ],
    ids=lambda v: repr(v),
)
def test_certificate_rejects_values_of_the_wrong_json_type(path, value):
    _, _, cert = cover_maps(spec_of("T4444", (1, 0, 0, 2)))
    doc = copy.deepcopy(cert.as_dict())
    *outer, last = path
    target = doc
    for key in outer:
        target = target[key]
    target[last] = value
    with pytest.raises(ValueError, match="malformed certificate"):
        certificate_from_dict(doc)


@settings(max_examples=40, deadline=None)
@given(
    tid=st.sampled_from(list(TilingId)),
    entries=st.tuples(*[st.integers(min_value=-4, max_value=4)] * 4).filter(
        lambda t: t[0] * t[3] - t[1] * t[2] != 0
    ),
)
def test_cover_property_random_specs(tid, entries):
    spec = QuotientSpec(tid, SublatticeMat(*entries))
    m = cover_exponent(spec.mat)
    tpl = template(tid)
    if 2 * tpl.degree * tpl.rep_count * m * m > 6000:
        return  # keep the random sweep fast; big cases run in the batch CLI
    y, x, cert = cover_maps(spec)
    assert verify_covering(y, x, cert).ok
