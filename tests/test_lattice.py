"""Lattice arithmetic tests.

The brute-force oracles here are deliberately independent of the library
implementation: membership is solved by scanning scales, and coset
structure is checked against direct difference-membership tests.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricover.lattice import (
    MAX_ENTRY,
    CosetSystem,
    SublatticeMat,
    contains_scaled_identity,
    cosets,
    cover_exponent,
    enumerate_hnf,
    fold_index,
    random_nonsingular,
    scaled_identity,
)
from toricover.tilings import TilingId, full_point_group

from helpers import NON_HERMITE_MATS, smith_generator_shifts


def oracle_cover_exponent(mat: SublatticeMat) -> int:
    """Smallest m >= 1 with both scaled unit vectors in the lattice, by scan.

    m always exists and is at most |det| because |det| * inverse(mat) is
    the integer adjugate.
    """
    bound = abs(mat.a * mat.d - mat.b * mat.c)
    for m in range(1, bound + 1):
        if mat.contains((m, 0)) and mat.contains((0, m)):
            return m
    raise AssertionError(f"no exponent up to {bound} for {mat}")


def oracle_contains(mat: SublatticeMat, v: tuple[int, int]) -> bool:
    """Membership by solving p*(a,b) + q*(c,d) = v in exact rationals."""
    det = Fraction(mat.a * mat.d - mat.b * mat.c)
    p = Fraction(v[0] * mat.d - v[1] * mat.c) / det
    q = Fraction(v[1] * mat.a - v[0] * mat.b) / det
    return p.denominator == 1 and q.denominator == 1


def nonsingular(bound: int = 30):
    entry = st.integers(min_value=-bound, max_value=bound)
    return (
        st.tuples(entry, entry, entry, entry)
        .filter(lambda t: t[0] * t[3] - t[1] * t[2] != 0)
        .map(lambda t: SublatticeMat(*t))
    )


def test_det_and_index():
    m = SublatticeMat(2, 1, -1, 3)
    assert m.det() == 7
    assert m.index() == 7
    assert SublatticeMat(0, 1, -1, 0).det() == 1


def test_rejects_singular():
    with pytest.raises(ValueError):
        SublatticeMat(2, 4, 1, 2)
    with pytest.raises(ValueError):
        SublatticeMat(0, 0, 0, 0)


def test_rejects_oversized_entries():
    with pytest.raises(ValueError):
        SublatticeMat(MAX_ENTRY + 1, 0, 0, 1)
    # The bound itself is fine.
    SublatticeMat(MAX_ENTRY, 0, 0, 1)


def test_rejects_non_int():
    with pytest.raises(TypeError):
        SublatticeMat(1.0, 0, 0, 1)


def test_contains_basics():
    m = SublatticeMat(2, 0, 0, 2)
    assert m.contains((2, 0))
    assert m.contains((0, -2))
    assert m.contains((4, 6))
    assert not m.contains((1, 0))
    assert not m.contains((2, 1))


@given(nonsingular(bound=8), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=150, deadline=None)
def test_contains_matches_oracle(m, x, y):
    assert m.contains((x, y)) == oracle_contains(m, (x, y))


def test_cover_exponent_examples():
    # Scaled identities: m equals the scale.
    assert cover_exponent(scaled_identity(1)) == 1
    assert cover_exponent(scaled_identity(5)) == 5
    # det 7 with coprime entries: m = 7 (oracle-confirmed).
    assert cover_exponent(SublatticeMat(5, 3, 1, 2)) == 7
    assert oracle_cover_exponent(SublatticeMat(5, 3, 1, 2)) == 7
    # Common factor 2 across all entries halves the exponent.
    assert cover_exponent(SublatticeMat(2, 0, 0, 4)) == 4
    assert cover_exponent(SublatticeMat(2, 2, -2, 2)) == 4
    # Rectangular: lcm-like behaviour, m = 6 for diag(2, 3).
    assert cover_exponent(SublatticeMat(2, 0, 0, 3)) == 6
    assert oracle_cover_exponent(SublatticeMat(2, 0, 0, 3)) == 6


def test_fold_index_examples():
    # diag(2,3): det 6, m 6, fold 6.
    assert fold_index(SublatticeMat(2, 0, 0, 3)) == 6
    # Scaled identity: already its own cover.
    assert fold_index(scaled_identity(4)) == 1
    # det 7 coprime: fold 7.
    assert fold_index(SublatticeMat(5, 3, 1, 2)) == 7


@given(nonsingular(bound=12))
@settings(max_examples=200, deadline=None)
def test_cover_exponent_matches_oracle(m):
    assert cover_exponent(m) == oracle_cover_exponent(m)


@given(nonsingular(bound=12))
@settings(max_examples=200, deadline=None)
def test_exponent_divisibility_chain(m):
    """fold | exponent | index, and fold * index == exponent^2."""
    n = m.index()
    e = cover_exponent(m)
    f = fold_index(m)
    assert n % e == 0
    assert e % f == 0
    assert f * n == e * e
    assert contains_scaled_identity(m, e)
    assert e == 1 or not contains_scaled_identity(m, e - 1)


@given(nonsingular(bound=12), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_exponent_invariant_under_unimodular_row_ops(m, k):
    """Row operations change the basis, not the lattice, so m is unchanged."""
    e = cover_exponent(m)
    swapped = SublatticeMat(m.c, m.d, m.a, m.b)
    sheared = SublatticeMat(m.a + k * m.c, m.b + k * m.d, m.c, m.d)
    negated = SublatticeMat(-m.a, -m.b, m.c, m.d)
    assert cover_exponent(swapped) == e
    assert cover_exponent(sheared) == e
    assert cover_exponent(negated) == e


def test_cosets_count_and_uniqueness_exhaustive():
    """Every HNF lattice of index <= 12: reps are pairwise inequivalent."""
    for m in enumerate_hnf(12):
        cs = cosets(m)
        assert cs.size() == m.index()
        for i, u in enumerate(cs.representatives):
            for w in cs.representatives[i + 1 :]:
                assert not m.contains((u[0] - w[0], u[1] - w[1])), (m, u, w)


@given(nonsingular(bound=9), st.integers(-40, 40), st.integers(-40, 40))
@settings(max_examples=200, deadline=None)
def test_reduce_is_canonical(m, x, y):
    cs = cosets(m)
    r = cs.representatives[cs.index_of((x, y))]
    # The representative is in the table, in the coset of the input, and fixed.
    assert r in cs.representatives
    assert m.contains((r[0] - x, r[1] - y))
    assert cs.representatives[cs.index_of(r)] == r
    assert cs.index_of((x, y)) == cs.index_of(r) == cs.representatives.index(r)


@given(nonsingular(bound=9), st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=150, deadline=None)
def test_reduce_respects_translation_by_lattice(m, x, y):
    cs = cosets(m)
    shifted = (x + m.a, y + m.b)
    assert cs.index_of((x, y)) == cs.index_of(shifted)
    shifted2 = (x - m.c, y - m.d)
    assert cs.index_of((x, y)) == cs.index_of(shifted2)


def test_index_of_is_a_bijection_on_representatives():
    for m in (SublatticeMat(5, 3, 1, 2), SublatticeMat(4, 2, 0, 3), scaled_identity(4)):
        cs = cosets(m)
        seen = {cs.index_of(r) for r in cs.representatives}
        assert seen == set(range(cs.size()))


def index_oracle(src, dst, matrix, shift) -> list[int]:
    """dst.index_of(R·w + shift) for each representative w of src."""
    (r00, r01), (r10, r11) = matrix
    sx, sy = shift
    return [dst.index_of((r00 * x + r01 * y + sx, r10 * x + r11 * y + sy)) for x, y in src.representatives]


@pytest.mark.parametrize("tid", list(TilingId), ids=lambda t: t.name)
def test_cell_map_matches_index_of_on_every_representative(tid):
    # The identity, each Smith-generator translation, each point symmetry
    # of the tiling that preserves K (with every rep's shift), and the
    # cover projection from m·Z² onto K.
    identity = ((1, 0), (0, 1))
    group = full_point_group(tid)
    for mat in [*enumerate_hnf(12), *NON_HERMITE_MATS]:
        cs = cosets(mat)
        cases = [(cs, identity, (0, 0)), (cosets(scaled_identity(cover_exponent(mat))), identity, (0, 0))]
        cases += [(cs, identity, shift) for shift in smith_generator_shifts(cs)]
        cases += [(cs, g.matrix, shift) for g in group if mat.preserved_by(g.matrix) for shift in g.shifts]
        for src, matrix, shift in cases:
            assert src.cell_map(cs, matrix, shift) == index_oracle(src, cs, matrix, shift), (mat, matrix, shift)


@given(nonsingular(bound=9), st.integers(-40, 40), st.integers(-40, 40))
@settings(max_examples=150, deadline=None)
def test_cell_map_of_a_translation_matches_index_of(m, x, y):
    cs = cosets(m)
    assert cs.cell_map(cs, shift=(x, y)) == index_oracle(cs, cs, ((1, 0), (0, 1)), (x, y))


def test_enumerate_hnf_counts():
    """Sublattice counts per index follow the divisor-sum rule."""

    def sigma(n: int) -> int:
        return sum(d for d in range(1, n + 1) if n % d == 0)

    mats = list(enumerate_hnf(10))
    assert len(mats) == len(set(mats))
    for n in range(1, 11):
        assert sum(1 for m in mats if m.index() == n) == sigma(n)


def test_enumerate_hnf_refuses_a_bound_over_the_entry_limit():
    # (1, 0; 0, MAX_ENTRY + 1) has an entry over the limit, so the bound is
    # refused before any of the smaller forms is built.
    with pytest.raises(ValueError, match=f"over the limit of {MAX_ENTRY}"):
        enumerate_hnf(MAX_ENTRY + 1)


def test_enumerate_hnf_refuses_a_bound_under_one():
    # Checked when called, not when the first form is drawn.
    with pytest.raises(ValueError, match="^index bound must be positive, got 0$"):
        enumerate_hnf(0)


def test_enumerate_hnf_lattices_are_distinct():
    """Different Hermite forms of index <= 6 give genuinely different lattices."""
    mats = list(enumerate_hnf(6))
    probe = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    fingerprints = {tuple(m.contains(p) for p in probe) for m in mats}
    assert len(fingerprints) == len(mats)


def test_random_nonsingular_is_seeded_and_in_range():
    r1 = random.Random(99)
    r2 = random.Random(99)
    ms1 = [random_nonsingular(r1, 6) for _ in range(25)]
    ms2 = [random_nonsingular(r2, 6) for _ in range(25)]
    assert ms1 == ms2
    assert all(abs(e) <= 6 for m in ms1 for e in m.as_tuple())
    assert all(m.det() != 0 for m in ms1)


def test_random_nonsingular_rejects_empty_range():
    for bound in (0, -1):
        with pytest.raises(ValueError):
            random_nonsingular(random.Random(0), bound)


def test_gcd_closed_form_shape():
    """The exponent is |det| / gcd(|det|, entries); spot-check the shape."""
    for m in (SublatticeMat(6, 0, 0, 10), SublatticeMat(3, 3, -3, 3), SublatticeMat(7, 1, 0, 7)):
        n = m.index()
        g = gcd(n, m.a, m.b, m.c, m.d)
        assert cover_exponent(m) == n // g
