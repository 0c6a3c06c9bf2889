"""Template data tests: every tiling's combinatorial data is validated
against its declared signature, and the point-group bookkeeping against
hand-checked orbit structure."""

from __future__ import annotations

import pytest

from toricover.tilings import (
    _MATCH_TOL,
    TilingId,
    _derive_neighbors,
    _seed,
    face_classes,
    face_sizes_at_rep,
    face_trace,
    full_point_group,
    parse_tiling,
    rep_orbits,
    template,
    template_as_dict,
    validate_template,
)

from helpers import corrupt_dart, reference_neighbors, sheared, two_copies

REP_COUNTS = {
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


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.value)
def test_template_is_valid(tid):
    tpl = template(tid)
    assert validate_template(tpl) == []


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.value)
def test_rep_counts(tid):
    assert template(tid).rep_count == REP_COUNTS[tid]


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.value)
def test_degree_matches_signature_length(tid):
    tpl = template(tid)
    assert tpl.degree == len(tid.signature)
    for darts in tpl.neighbors:
        assert len(darts) == tpl.degree


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.value)
def test_face_tracing_reproduces_signature_at_every_rep(tid):
    tpl = template(tid)
    for r in range(tpl.rep_count):
        sizes = face_sizes_at_rep(tpl, r)
        assert sorted(set(sizes)) == sorted(set(tid.signature))
        # Cyclic equality is part of validate_template; spot-check the
        # multiset here as an independent angle.
        assert sorted(sizes) == sorted(tid.signature)


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.value)
def test_face_classes_hold_each_dart_of_a_cell_once(tid):
    # One walk per translation class of faces: together they hold every
    # (rep, slot) once, each is face_trace from its least (rep, slot) moved
    # so that its least dart is in cell (0, 0), and a cell holds
    # reps · (count of s in the vertex type) / s faces of size s.
    tpl = template(tid)
    classes = face_classes(tid)
    darts = sorted((rep, slot) for walk in classes for rep, _, slot in walk)
    assert darts == [(r, k) for r in range(tpl.rep_count) for k in range(tpl.degree)]
    assert [walk[0][0::2] for walk in classes] == sorted(walk[0][0::2] for walk in classes)
    for walk in classes:
        (r, (x, y), k), (_, least, _) = walk[0], min(walk)
        assert (r, k) == min((rep, slot) for rep, _, slot in walk) and least == (0, 0)
        assert [(rep, (cx - x, cy - y), slot) for rep, (cx, cy), slot in walk] == face_trace(tpl, r, k)
    sizes = [len(walk) for walk in classes]
    for s in set(tid.signature):
        assert sizes.count(s) * s == tpl.rep_count * tid.signature.count(s)


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.value)
def test_dart_symmetry(tid):
    tpl = template(tid)
    for r, darts in enumerate(tpl.neighbors):
        for k, (s, (ox, oy)) in enumerate(darts):
            assert (r, (-ox, -oy)) in tpl.neighbors[s]
            rev = tpl.reverse_slots[r][k]
            assert tpl.neighbors[s][rev] == (r, (-ox, -oy))


def test_truncated_square_single_rotation_orbit():
    tpl = template(TilingId.TRUNCATED_SQUARE)
    assert rep_orbits(tpl.rep_count, [e.sigma for e in tpl.point_group if e.kind == "rotation"]) == ((0, 1, 2, 3),)


def test_snub_hexagonal_rotation_cycles_all_six_reps():
    tpl = template(TilingId.SNUB_HEXAGONAL)
    rot = next(e for e in tpl.point_group if e.kind == "rotation")
    assert rot.order == 6
    # sigma is a single 6-cycle.
    seen = [0]
    while True:
        nxt = rot.sigma[seen[-1]]
        if nxt == 0:
            break
        seen.append(nxt)
    assert sorted(seen) == list(range(6))
    assert rep_orbits(tpl.rep_count, [e.sigma for e in tpl.point_group if e.kind == "rotation"]) == ((0, 1, 2, 3, 4, 5),)


def test_truncated_trihexagonal_orbit_fusion():
    """Rotations alone split the 12 reps into two orbits; the mirror
    fuses them into one."""
    tpl = template(TilingId.TRUNCATED_TRIHEXAGONAL)
    rot_orbits = rep_orbits(tpl.rep_count, [e.sigma for e in tpl.point_group if e.kind == "rotation"])
    assert len(rot_orbits) == 2
    assert sorted(len(o) for o in rot_orbits) == [6, 6]
    assert rep_orbits(tpl.rep_count, [e.sigma for e in tpl.point_group]) == (tuple(range(12)),)
    kinds = {e.kind for e in tpl.point_group}
    assert kinds == {"rotation", "reflection"}


def test_reflection_only_on_truncated_trihexagonal():
    for tid in TilingId:
        tpl = template(tid)
        has_mirror = any(e.kind == "reflection" for e in tpl.point_group)
        assert has_mirror == (tid is TilingId.TRUNCATED_TRIHEXAGONAL)


def test_template_generators_are_group_elements_up_to_a_translation():
    # Each seeded generator is one element of G/T times one translation:
    # the same sigma, R and slot maps, and shifts that differ from that
    # element's by one vector, which is zero except for T33344's rot2.
    translations = {}
    for tid in TilingId:
        group = full_point_group(tid)
        for g in template(tid).point_group:
            (h,) = [h for h in group if (h.sigma, h.matrix, h.slot_maps) == (g.sigma, g.matrix, g.slot_maps)]
            assert (h.kind, h.order) == (g.kind, g.order), (tid.code, g.name)
            (delta,) = {(x - u, y - w) for (x, y), (u, w) in zip(g.shifts, h.shifts)}
            translations[tid.code, g.name] = delta
    assert len(translations) == 12
    assert translations.pop(("T33344", "rot2")) == (1, 0)
    assert set(translations.values()) == {(0, 0)}


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.value)
def test_point_group_acts_transitively_on_reps(tid):
    tpl = template(tid)
    assert len(rep_orbits(tpl.rep_count, [e.sigma for e in tpl.point_group])) == 1


def test_corrupted_dart_is_reported():
    tpl = template(TilingId.SNUB_HEXAGONAL)
    bad = corrupt_dart(tpl, rep=0, slot=0, offset=(5, 5))
    problems = validate_template(bad)
    assert problems
    assert any("dart" in p or "reverse" in p for p in problems)


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.value)
def test_a_negated_offset_is_refused(tid):
    # The first dart of rep 0 that leaves its cell: it and its reverse then
    # point the same way, so the reverse slots are no involution with
    # opposite offsets.
    tpl = template(tid)
    k, (ox, oy) = next((k, off) for k, (_, off) in enumerate(tpl.neighbors[0]) if off != (0, 0))
    problems = validate_template(corrupt_dart(tpl, rep=0, slot=k, offset=(-ox, -oy)))
    assert any(f"dart (0,{k})" in p or p == "duplicate dart at rep 0" for p in problems), problems


def test_a_reverse_slot_that_wraps_or_a_dart_its_own_reverse_is_refused():
    # Slot −2 reads the right dart of a four-dart rep from the end, but
    # build_quotient would index the slot column −2, and dart (0, 2), the
    # reverse of dart (0, 0), is no longer reversed back.  A dart to its own
    # rep in its own cell would be its own reverse in every quotient.
    tpl = template(TilingId.SQUARE)
    assert tpl.reverse_slots == ((2, 3, 0, 1),)
    wrapped = tpl._replace(reverse_slots=((-2, 3, 0, 1),))
    assert validate_template(wrapped) == [f"reverse_slots wrong for dart (0,{k})" for k in (0, 2)]
    loop = tpl._replace(neighbors=(((0, (0, 0)), (0, (1, 0)), (0, (-1, 0))),), reverse_slots=((0, 2, 1),))
    assert "dart (0,0) is its own reverse" in validate_template(loop)


@pytest.mark.parametrize(
    "half, whole",
    [
        (TilingId.HEXAGONAL, TilingId.TRUNCATED_SQUARE),
        (TilingId.ELONGATED_TRIANGULAR, TilingId.SNUB_SQUARE),
        (TilingId.TRIHEXAGONAL, TilingId.RHOMBITRIHEXAGONAL),
    ],
    ids=lambda t: t.value,
)
def test_reps_in_two_parts_are_refused(half, whole):
    # Two copies of a template with half the reps, under a tiling of the
    # same degree and twice the reps: every dart has its reverse, but no
    # walk leads from one copy to the other.
    n = template(half).rep_count
    bad = two_copies(template(half), whole)
    assert bad.rep_count == template(whole).rep_count and bad.degree == template(whole).degree
    assert f"the darts join {n} of {2 * n} reps" in validate_template(bad)


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.value)
def test_closed_walks_spanning_an_index_2_sublattice_are_refused(tid):
    bad = sheared(template(tid))
    problems = validate_template(bad)
    assert "the closed walks' offsets do not span Z²: their 2×2 minors have gcd 2" in problems
    if bad.rep_count == 1:  # no point group reaches every rep of a one-rep tiling
        assert len(problems) == 1, problems


def test_hexagonal_family_basis_relation():
    """The rhombic-basis tilings rotate by 120 degrees, whose matrix in
    lattice coordinates is [[0,-1],[1,1]]; the square-basis ones by 90
    or 180 degrees."""
    for tid in TilingId:
        tpl = template(tid)
        rot = next(e for e in tpl.point_group if e.kind == "rotation")
        if tpl.cell_area_factor == "sqrt(3)/2":
            assert rot.matrix == ((0, -1), (1, 1))
        else:
            assert rot.matrix in (((0, -1), (1, 0)), ((-1, 0), (0, -1)))


def test_unit_basis_normalization():
    for tid in TilingId:
        tpl = template(tid)
        ax, ay = tpl.basis_a
        assert abs((ax * ax + ay * ay) - 1.0) < 1e-12


def test_area_factor_tags():
    square_like = {
        TilingId.SQUARE,
        TilingId.ELONGATED_TRIANGULAR,
        TilingId.TRUNCATED_SQUARE,
        TilingId.SNUB_SQUARE,
    }
    for tid in TilingId:
        want = "1" if tid in square_like else "sqrt(3)/2"
        assert template(tid).cell_area_factor == want


def test_parse_tiling_aliases():
    assert parse_tiling("E1") is TilingId.TRUNCATED_SQUARE
    assert parse_tiling("e7") is TilingId.TRUNCATED_TRIHEXAGONAL
    assert parse_tiling("T44") is TilingId.SQUARE
    assert parse_tiling("T4444") is TilingId.SQUARE
    assert parse_tiling("T33336") is TilingId.SNUB_HEXAGONAL
    assert parse_tiling("T31212") is TilingId.TRUNCATED_HEXAGONAL
    assert parse_tiling("3.3.4.3.4") is TilingId.SNUB_SQUARE
    assert parse_tiling("4.3.4.3.3") is TilingId.SNUB_SQUARE  # any rotation/reversal
    assert parse_tiling("snub-square") is TilingId.SNUB_SQUARE
    assert parse_tiling("Snub_Square") is TilingId.SNUB_SQUARE
    assert parse_tiling("4.6.12") is TilingId.TRUNCATED_TRIHEXAGONAL
    with pytest.raises(ValueError):
        parse_tiling("dodecagonal")
    with pytest.raises(ValueError):
        parse_tiling("3.3.3")
    with pytest.raises(ValueError, match="unknown tiling name"):
        parse_tiling("3.x.4")


def test_template_as_dict_shape():
    d = template_as_dict(template(TilingId.TRUNCATED_SQUARE))
    assert d["tiling"] == "truncated-square"
    assert d["code"] == "E1"
    assert d["rep_count"] == 4
    assert len(d["neighbors"]) == 4
    assert all(len(row) == 3 for row in d["neighbors"])
    assert d["point_group"][0]["order"] == 4


def test_templates_are_cached():
    assert template(TilingId.SQUARE) is template(TilingId.SQUARE)


def _moved(seed, rep: int, dx: float, dy: float):
    reps = list(seed.reps)
    x, y = reps[rep]
    reps[rep] = (x + dx, y + dy)
    return seed._replace(reps=tuple(reps))


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.value)
def test_derive_neighbors_matches_the_hypot_scan(tid):
    seed = _seed(tid)
    assert _derive_neighbors(seed) == reference_neighbors(seed) == template(tid).neighbors


def test_derive_neighbors_matches_the_hypot_scan_near_the_tolerance():
    # Rep 0 moved by 0.9·tol keeps every neighbour (a dart at angle 0 may
    # wrap to the end of its rotation), and by 1.1·tol loses those within
    # about 25 degrees of the move; the squared-distance prefilter must
    # not change either decision.
    def dart_sets(neighbors):
        return [set(darts) for darts in neighbors]

    dropped = 0
    for tid in TilingId:
        seed = _seed(tid)
        for factor in (0.9, 1.1):
            for sign in (1, -1):
                delta = sign * factor * _MATCH_TOL
                for dx, dy in ((delta, 0.0), (0.0, delta)):
                    moved = _moved(seed, 0, dx, dy)
                    got = _derive_neighbors(moved)
                    assert got == reference_neighbors(moved), (tid, factor, dx, dy)
                    kept = dart_sets(got) == dart_sets(template(tid).neighbors)
                    if factor < 1:
                        assert kept, (tid, dx, dy)
                    else:
                        dropped += not kept
    assert dropped > 0
