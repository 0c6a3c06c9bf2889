"""Tests for the automorphism engine and vertex-transitivity decisions.

Flag maps are chosen small enough (at most a few hundred flags) that
the full automorphism group can be enumerated and group axioms checked
directly, with no reliance on the orbit bookkeeping under test.
"""

from __future__ import annotations

import gc
import re
import tracemalloc
from itertools import chain

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricover import (
    QuotientSpec,
    SublatticeMat,
    TilingId,
    build_quotient,
    descend,
    is_polyhedral,
    is_vertex_transitive,
    orbit_report,
    parse_tiling,
    quotient_report,
    search_non_vt,
    template,
)
from toricover import symmetry, tilings
from toricover.lattice import cosets, enumerate_hnf, scaled_identity
from toricover.map_core import _translation_maps, is_automorphism
from toricover.symmetry import ccw_table, flag_extension, full_point_group
from toricover.tilings import _validate_element

from helpers import are_isomorphic, automorphism_group, crossed_reverses, exists_automorphism_mapping, face_vertices
from helpers import from_faces, inverse, is_identity, order, smith_generator_shifts, vertex_at
from helpers import isomorphism_extension, probe_point_group, reference_flag_tables, to_darts, to_flags, vertex_orbits
from helpers import compose as compose_flags


def small_map(code: str, mat: tuple[int, int, int, int]):
    return build_quotient(QuotientSpec(parse_tiling(code), SublatticeMat(*mat)))


def test_square_grid_group_order():
    # 9 vertices, dihedral point symmetry of order 8, so 72 = 9 * 8;
    # the map is regular: the group is transitive on its 72 flags.
    m = small_map("T4444", (3, 0, 0, 3))
    group = automorphism_group(m)
    assert len(group) == 72
    rep = orbit_report(m)
    assert rep.group_order == 72
    assert rep.flag_orbit_count == 1
    assert len(rep.rep_orbits) == 1


def test_group_axioms_and_freeness():
    m = small_map("E3", (2, 0, 0, 2))
    group = automorphism_group(m)
    assert len(group) == 24
    perms = {tuple(g) for g in group}
    assert len(perms) == 24
    assert any(is_identity(g) for g in group)
    for g in group:
        assert is_automorphism(m, *to_darts(g))
        assert tuple(inverse(g)) in perms
        assert order(g) >= 1
        # free action: only the identity fixes a flag
        if not is_identity(g):
            assert all(g[t] != t for t in range(m.n_flags))
    sample = group[:5]
    for g in sample:
        for h in sample:
            assert tuple(compose_flags(g, h)) in perms


def test_orbit_size_times_group_order_is_flag_count():
    # Freeness makes every flag orbit a free Aut-orbit of full size.
    for code, mat in [("E3", (2, 0, 0, 2)), ("E2", (1, 2, 0, 6)), ("T4444", (3, 0, 0, 3))]:
        m = small_map(code, mat)
        rep = orbit_report(m)
        assert rep.group_order * rep.flag_orbit_count == m.n_flags, code


def test_scaled_identity_quotients_are_vertex_transitive():
    assert is_vertex_transitive(small_map("E3", (7, 0, 0, 7)))
    assert is_vertex_transitive(small_map("E7", (2, 0, 0, 2)))


def test_flag_extension_identity_seed():
    m = small_map("E4", (1, 1, 0, 2))
    assert flag_extension(m, 0, 0, ccw_table(m)) == (list(range(m.n_darts)), False)


@pytest.mark.parametrize("code, mat", [("E3", (2, 0, 0, 2)), ("E2", (1, 2, 0, 6)), ("T4444", (2, 1, 0, 5))])
def test_flag_extension_matches_the_flag_oracle(code, mat):
    # Every target of flag 0, both sides: the dart walk succeeds exactly
    # when the flag engine does, with the same automorphism.
    m = small_map(code, mat)
    ccw = ccw_table(m)
    for target in range(m.n_flags):
        got = flag_extension(m, 0, target, ccw)
        want = isomorphism_extension(m, m, 0, target)
        assert (got is None) == (want is None), target
        if got is not None:
            assert to_flags(*got) == want, target
            assert got[1] == bool(target & 1) and is_automorphism(m, *got), target


def test_snub_square_witness_has_two_orbits():
    m = small_map("E2", (1, 2, 0, 6))
    rep = orbit_report(m)
    assert len(rep.rep_orbits) == 2
    assert rep.group_order == 12
    orbits = vertex_orbits(m, rep)
    # independent confirmation through the single-pair search
    v0 = min(orbits[0])
    v1 = min(orbits[1])
    assert exists_automorphism_mapping(m, v0, v0)
    assert exists_automorphism_mapping(m, v1, v1)
    assert not exists_automorphism_mapping(m, v0, v1)
    assert not exists_automorphism_mapping(m, v1, v0)
    # orbits partition the vertex set
    seen = sorted(v for orbit in orbits for v in orbit)
    assert seen == list(range(m.n_vertices))


def test_search_nonvt_trivial_tilings_empty():
    for code in ("T333333", "T4444", "T666", "T33344"):
        assert search_non_vt(parse_tiling(code), 10) == []


def test_search_nonvt_snub_square_bound_six():
    found = search_non_vt(parse_tiling("E2"), 6)
    mats = [spec.mat.as_tuple() for spec, _, _ in found]
    assert mats == [(1, 2, 0, 6), (1, 4, 0, 6), (2, 1, 0, 3), (2, 2, 0, 3)]
    for spec, _, _ in found:
        m = build_quotient(spec)
        assert is_polyhedral(m).ok
        assert not is_vertex_transitive(m)


def test_search_nonvt_rejects_bad_bound():
    with pytest.raises(ValueError):
        search_non_vt(TilingId.SQUARE, 0)


def test_isomorphism_under_lattice_rotation():
    # The two lattices differ by the order-4 rotation, a symmetry of the
    # square tiling, so the quotients are isomorphic maps.
    m1 = small_map("T4444", (2, 1, 0, 5))
    m2 = small_map("T4444", (-1, 2, -5, 0))
    hit = are_isomorphic(m1, m2)
    assert hit is not None
    perm = list(hit)
    assert sorted(perm) == list(range(m1.n_flags))
    t1, t2 = reference_flag_tables(m1), reference_flag_tables(m2)
    for name in ("s0", "s1", "s2"):
        assert all(perm[t1[name][x]] == t2[name][perm[x]] for x in range(m1.n_flags)), name


def test_non_isomorphic_same_size_quotients():
    # Same vertex count, but one map has loops and the grid does not.
    assert are_isomorphic(small_map("T4444", (1, 0, 0, 9)), small_map("T4444", (3, 0, 0, 3))) is None


def test_isomorphism_rejects_different_sizes():
    assert are_isomorphic(small_map("T4444", (2, 0, 0, 2)), small_map("T4444", (3, 0, 0, 3))) is None


# --- the translation-class orbit scan against the definition ---


def orbits_by_definition(m):
    """(group order, vertex orbits, flag-orbit count) read off the full
    automorphism group, with no translation classes and no pruning."""
    group = automorphism_group(m)
    flag_vertex = reference_flag_tables(m)["flag_vertex"]
    vertex_orbits = {
        tuple(sorted({flag_vertex[g[2 * m.vertex_darts[v][0]]] for g in group}))
        for v in range(m.n_vertices)
    }
    flag_orbits = {frozenset(g[x] for g in group) for x in range(m.n_flags)}
    return len(group), tuple(sorted(vertex_orbits)), len(flag_orbits)


def assert_scan_matches_definition(m):
    rep = orbit_report(m)
    assert (rep.group_order, vertex_orbits(m, rep), rep.flag_orbit_count) == orbits_by_definition(m), m.spec
    assert is_vertex_transitive(m) == (len(rep.rep_orbits) == 1), m.spec


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_orbit_scan_matches_group_on_hermite_forms(tid):
    for mat in enumerate_hnf(6):
        assert_scan_matches_definition(build_quotient(QuotientSpec(tid, mat)))


@settings(max_examples=40, deadline=None)
@given(
    tid=st.sampled_from(list(TilingId)),
    entries=st.tuples(*[st.integers(min_value=-6, max_value=6)] * 4).filter(
        lambda t: t[2] != 0 and t[0] * t[3] - t[1] * t[2] != 0
    ),
)
def test_orbit_scan_matches_group_on_random_lattices(tid, entries):
    m = build_quotient(QuotientSpec(tid, SublatticeMat(*entries)))
    assume(m.n_flags <= 1500)
    assert_scan_matches_definition(m)


def test_orbit_scan_of_maps_without_coset_system():
    base = small_map("T4444", (3, 0, 0, 3))
    faces = [list(face_vertices(base, f)) for f in range(base.n_faces)]
    torus = from_faces(faces)
    a, b, c, d = faces.pop()
    x = base.n_vertices
    subdivided = from_faces(faces + [[a, b, x], [b, c, x], [c, d, x], [d, a, x]])
    for m in (torus, subdivided):
        assert m.coset_system is None
        assert_scan_matches_definition(m)
    assert orbit_report(torus).group_order == 72
    assert not is_vertex_transitive(subdivided)


@pytest.mark.parametrize("code", ["T4444", "E2"])
def test_orbit_scan_rejects_a_numbering_that_is_not_a_translation(code):
    # Same index 4, but Z/4 instead of Z/2 x Z/2: the index formula's
    # box shift is no automorphism of the map.
    m = small_map(code, (2, 0, 0, 2))
    m.coset_system = cosets(SublatticeMat(1, 0, 0, 4))
    with pytest.raises(RuntimeError):
        orbit_report(m)
    with pytest.raises(RuntimeError):
        is_vertex_transitive(m)


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_projected_translations_are_the_flag_engines_automorphisms(tid):
    # The scan checks each Smith-generator translation as the dart map
    # that cover_maps projects by, from the map to itself.  It takes dart 0
    # to dart 0 of the vertex (rep 0, gen), and the flag engine, extended
    # from there, is the second path: it must find the same dart map,
    # keeping the orientation.
    for mat in enumerate_hnf(12):
        m = build_quotient(QuotientSpec(tid, mat))
        ccw = ccw_table(m)
        for gen in smith_generator_shifts(m.coset_system):
            perm = _translation_maps(m, m, gen)[1]
            assert perm[0] == m.vertex_darts[vertex_at(m, 0, gen)][0] != 0, (mat, gen)
            assert flag_extension(m, 0, 2 * perm[0], ccw) == (perm, False), (mat, gen)


@pytest.mark.parametrize(
    "code, mat, box",
    [("E2", (2, 1, 0, 3), (0, 1)), ("T4444", (3, 1, -1, 2), (0, 1)), ("E7", (3, 0, 0, 3), (1, 0))],
)
def test_orbit_scan_rejects_a_map_whose_reverses_are_crossed(code, mat, box):
    # The coset system is sound and the map is not: the reverses of its
    # first two edges are crossed after construction, so the translation
    # by the first Smith generator with a box side over 1 no longer
    # commutes with rev, and the scan names that box shift.
    m = small_map(code, mat)
    m.dart_rev = crossed_reverses(m)
    message = f"box shift {box} of {m.coset_system.mat} is not an automorphism"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        orbit_report(m)


# --- the closed form Aut(T/K) = N(K)/K against the flag engine ---

GROUP_ORDERS = {
    "T333333": 12, "T4444": 8, "T666": 12, "T33344": 4,
    "E1": 8, "E2": 8, "E3": 6, "E4": 12, "E5": 12, "E6": 12, "E7": 12,
}


def compose(g, h):
    """(sigma, R, shifts, slot maps) of g after h on the tiling."""
    (a, b), (c, d) = g.matrix
    (p, q), (r, s) = h.matrix
    sigma = tuple(g.sigma[x] for x in h.sigma)
    matrix = ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))
    shifts = tuple(
        (a * x + b * y + g.shifts[t][0], c * x + d * y + g.shifts[t][1])
        for (x, y), t in zip(h.shifts, h.sigma)
    )
    slot_maps = tuple(
        tuple(g.slot_maps[t][k] for k in row) for row, t in zip(h.slot_maps, h.sigma)
    )
    return sigma, matrix, shifts, slot_maps


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_full_point_group_is_a_group_of_the_expected_order(tid):
    group = full_point_group(tid)
    assert len(group) == GROUP_ORDERS[tid.code]
    by_matrix = {g.matrix: g for g in group}
    assert len(by_matrix) == len(group)  # R alone names a class of G/T
    assert group[0].matrix == ((1, 0), (0, 1)) and group[0].sigma == tuple(range(len(group[0].sigma)))
    for g in group:
        for h in group:
            sigma, matrix, shifts, slot_maps = compose(g, h)
            gh = by_matrix[matrix]
            assert (gh.sigma, gh.slot_maps) == (sigma, slot_maps)
            # The composite is gh followed by one translation.
            assert len({(x - u, y - w) for (x, y), (u, w) in zip(shifts, gh.shifts)}) == 1


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_full_point_group_descends_to_scalar_quotients(tid):
    # descend checks each image with is_automorphism.
    for scale in (2, 3):
        m = build_quotient(QuotientSpec(tid, scaled_identity(scale)))
        perms = {tuple(descend(m, g)[0]) for g in full_point_group(tid)}
        assert len(perms) == len(full_point_group(tid))


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_descended_automorphisms_commute_with_the_flag_oracle(tid):
    # descend's (perm, reverses), expanded to flags, commutes with the
    # three involutions of reference_flag_tables, which share no code
    # with is_automorphism's dart check.
    for scale in (2, 3):
        m = build_quotient(QuotientSpec(tid, scaled_identity(scale)))
        t = reference_flag_tables(m)
        for elem in full_point_group(tid):
            perm, reverses = descend(m, elem)
            assert reverses == elem.reverses_orientation, elem.name
            g = to_flags(perm, reverses)
            for name in ("s0", "s1", "s2"):
                s = t[name]
                assert all(g[s[x]] == s[g[x]] for x in range(m.n_flags)), (elem.name, name)


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_descended_perm_with_the_other_orientation_bit_is_no_automorphism(tid):
    # A descended perm fixes its orientation bit: with the other bit it
    # fails is_automorphism, for rotations and reflections alike.
    m = build_quotient(QuotientSpec(tid, scaled_identity(3)))
    elems = full_point_group(tid)
    assert any(not g.reverses_orientation and g.order > 1 for g in elems)
    for elem in elems:
        perm, reverses = descend(m, elem)
        assert is_automorphism(m, perm, reverses), elem.name
        assert not is_automorphism(m, perm, not reverses), elem.name


def _corruptions(elem):
    """Copies of a point-group element that are not tiling symmetries.
    With one rep a moved shift only composes with a translation, so it
    is still a symmetry and is not among them."""
    row = list(elem.slot_maps[0])
    row[0], row[1] = row[1], row[0]
    yield "slot map", elem._replace(slot_maps=(tuple(row), *elem.slot_maps[1:]))
    (a, b), (c, d) = elem.matrix
    yield "matrix", elem._replace(matrix=((-a, -b), (-c, -d)))
    if len(elem.sigma) > 1:
        sigma = (elem.sigma[1], elem.sigma[0], *elem.sigma[2:])
        yield "sigma", elem._replace(sigma=sigma)
        x, y = elem.shifts[-1]
        yield "shift", elem._replace(shifts=(*elem.shifts[:-1], (x + 1, y)))


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_corrupted_point_group_elements_are_reported(tid):
    tpl = template(tid)
    for elem in (*tpl.point_group, *full_point_group(tid)):
        assert _validate_element(tpl, elem) == [], elem.name
        for what, bad in _corruptions(elem):
            assert _validate_element(tpl, bad), (elem.name, what)


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_quotient_report_matches_scan_on_hermite_forms(tid):
    for mat in enumerate_hnf(20):
        spec = QuotientSpec(tid, mat)
        assert quotient_report(spec) == orbit_report(build_quotient(spec)), mat


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_both_engines_rep_orbits_partition_the_reps(tid):
    reps = template(tid).rep_count
    for mat in enumerate_hnf(3):
        spec = QuotientSpec(tid, mat)
        for rep in (quotient_report(spec), orbit_report(build_quotient(spec))):
            assert all(rep.rep_orbits), mat
            assert sorted(chain.from_iterable(rep.rep_orbits)) == list(range(reps)), mat


def test_quotient_report_size_does_not_grow_with_the_determinant():
    # The report holds the rep orbits, not every vertex: E7 at index 10
    # and at index 10000 retain the same couple of KiB.
    def retained(mat):
        spec = QuotientSpec(parse_tiling("E7"), SublatticeMat(*mat))
        quotient_report(spec)  # the template and G/T caches are not the report's
        gc.collect()
        tracemalloc.start()
        try:
            rep = quotient_report(spec)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.group_order % spec.mat.index() == 0
        return size

    small, big = retained((1, 0, 0, 10)), retained((1, 0, 0, 10000))
    assert small < 4096
    assert big - small < 1024


@settings(max_examples=60, deadline=None)
@given(
    tid=st.sampled_from(list(TilingId)),
    entries=st.tuples(*[st.integers(min_value=-9, max_value=9)] * 4).filter(
        lambda t: t[2] != 0 and t[0] * t[3] - t[1] * t[2] != 0
    ),
)
def test_quotient_report_matches_scan_on_random_lattices(tid, entries):
    spec = QuotientSpec(tid, SublatticeMat(*entries))
    tpl = template(tid)
    assume(2 * tpl.degree * tpl.rep_count * spec.mat.index() <= 1500)
    assert quotient_report(spec) == orbit_report(build_quotient(spec))


@pytest.fixture
def fresh_point_groups():
    full_point_group.cache_clear()
    yield
    full_point_group.cache_clear()


def _facts(group):
    return {(g.sigma, g.matrix, g.shifts, g.slot_maps, g.kind, g.order) for g in group}


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_full_point_group_matches_the_flag_engine_oracle(tid):
    group = full_point_group(tid)
    assert _facts(group) == _facts(probe_point_group(tid))
    assert len(_facts(group)) == len(group)
    assert all(g.shifts[0] == (0, 0) for g in group)
    assert group[0].matrix == ((1, 0), (0, 1)) and group[0].sigma == tuple(range(len(group[0].sigma)))


def test_quotient_report_needs_neither_a_map_nor_the_flag_engine(monkeypatch, fresh_point_groups):
    specs = [QuotientSpec(tid, mat) for tid in TilingId for mat in enumerate_hnf(4)]
    expected = [quotient_report(spec) for spec in specs]
    full_point_group.cache_clear()

    def forbidden(*args, **kwargs):
        raise RuntimeError("the closed form called the flag engine or built a map")

    monkeypatch.setattr(symmetry, "flag_extension", forbidden)
    monkeypatch.setattr(symmetry, "build_quotient", forbidden)
    assert [quotient_report(spec) for spec in specs] == expected


def test_derived_element_failing_the_tiling_check_is_rejected(monkeypatch, fresh_point_groups):
    # With a wrong order the identity claims to be a rotation by 72
    # degrees, which the check on the infinite tiling refuses.  The
    # template, whose generators also read _order, is built before the
    # patch.
    template(parse_tiling("E4"))
    monkeypatch.setattr(tilings, "_order", lambda elem: 5)
    with pytest.raises(AssertionError, match="not a tiling symmetry"):
        full_point_group(parse_tiling("E4"))
