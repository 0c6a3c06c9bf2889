"""Tests for the automorphism engine and vertex-transitivity decisions.

Flag maps are chosen small enough (at most a few hundred flags) that
the full automorphism group can be enumerated and group axioms checked
directly, with no reliance on the orbit bookkeeping under test.
"""

from __future__ import annotations

import dataclasses

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
from toricover import symmetry
from toricover.lattice import cosets, enumerate_hnf, scaled_identity
from toricover.map_core import is_automorphism
from toricover.symmetry import are_isomorphic, exists_automorphism_mapping, flag_extension, full_point_group
from toricover.tilings import _validate_element

from helpers import automorphism_group, from_faces, inverse, is_identity, order
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
    assert len(rep.vertex_orbits) == 1


def test_group_axioms_and_freeness():
    m = small_map("E3", (2, 0, 0, 2))
    group = automorphism_group(m)
    assert len(group) == 24
    perms = {tuple(g) for g in group}
    assert len(perms) == 24
    assert any(is_identity(g) for g in group)
    for g in group:
        assert is_automorphism(m, g)
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
    perm = flag_extension(m, m, 0, 0)
    assert perm == list(range(m.n_flags))


def test_snub_square_witness_has_two_orbits():
    m = small_map("E2", (1, 2, 0, 6))
    rep = orbit_report(m)
    assert len(rep.vertex_orbits) == 2
    assert rep.group_order == 12
    # independent confirmation through the single-pair search
    v0 = min(rep.vertex_orbits[0])
    v1 = min(rep.vertex_orbits[1])
    assert exists_automorphism_mapping(m, v0, v0)
    assert exists_automorphism_mapping(m, v1, v1)
    assert not exists_automorphism_mapping(m, v0, v1)
    assert not exists_automorphism_mapping(m, v1, v0)
    # orbits partition the vertex set
    seen = sorted(v for orbit in rep.vertex_orbits for v in orbit)
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
    for t in range(m1.n_flags):
        assert perm[m1.s0[t]] == m2.s0[perm[t]]
        assert perm[m1.s1[t]] == m2.s1[perm[t]]
        assert perm[m1.s2[t]] == m2.s2[perm[t]]


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
    vertex_orbits = {
        tuple(sorted({m.flag_vertex[g[2 * m.vertex_darts[v][0]]] for g in group}))
        for v in range(m.n_vertices)
    }
    flag_orbits = {frozenset(g[x] for g in group) for x in range(m.n_flags)}
    return len(group), tuple(sorted(vertex_orbits)), len(flag_orbits)


def assert_scan_matches_definition(m):
    rep = orbit_report(m)
    assert (rep.group_order, rep.vertex_orbits, rep.flag_orbit_count) == orbits_by_definition(m), m.spec
    assert is_vertex_transitive(m) == (len(rep.vertex_orbits) == 1), m.spec


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
    faces = [list(base.face_vertices(f)) for f in range(base.n_faces)]
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
    # descend checks that each image commutes with the flag involutions.
    for scale in (2, 3):
        m = build_quotient(QuotientSpec(tid, scaled_identity(scale)))
        perms = {tuple(descend(m, g)) for g in full_point_group(tid)}
        assert len(perms) == len(full_point_group(tid))


def _corruptions(elem):
    """Copies of a point-group element that are not tiling symmetries.
    With one rep a moved shift only composes with a translation, so it
    is still a symmetry and is not among them."""
    row = list(elem.slot_maps[0])
    row[0], row[1] = row[1], row[0]
    yield "slot map", dataclasses.replace(elem, slot_maps=(tuple(row), *elem.slot_maps[1:]))
    (a, b), (c, d) = elem.matrix
    yield "matrix", dataclasses.replace(elem, matrix=((-a, -b), (-c, -d)))
    if len(elem.sigma) > 1:
        sigma = (elem.sigma[1], elem.sigma[0], *elem.sigma[2:])
        yield "sigma", dataclasses.replace(elem, sigma=sigma)
        x, y = elem.shifts[-1]
        yield "shift", dataclasses.replace(elem, shifts=(*elem.shifts[:-1], (x + 1, y)))


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_corrupted_point_group_elements_are_reported(tid):
    tpl = template(tid)
    for elem in (*tpl.point_group, *full_point_group(tid)):
        assert _validate_element(tpl, elem) == [], elem.name
        for what, bad in _corruptions(elem):
            assert _validate_element(tpl, bad), (elem.name, what)


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_quotient_report_matches_scan_on_hermite_forms(tid):
    for mat in enumerate_hnf(8):
        spec = QuotientSpec(tid, mat)
        assert quotient_report(spec) == orbit_report(build_quotient(spec)), mat


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


def test_group_read_off_too_small_a_probe_is_rejected(monkeypatch, fresh_point_groups):
    # Mod 4, a shift of 2 is lifted to -2, so one element of the
    # trihexagonal group comes out wrong and fails the tiling check.
    monkeypatch.setattr(symmetry, "_PROBE_SCALE", 4)
    with pytest.raises(AssertionError, match="not a tiling symmetry"):
        full_point_group(parse_tiling("E4"))
