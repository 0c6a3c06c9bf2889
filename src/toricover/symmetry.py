"""Map automorphisms by flag extension.

An automorphism of a connected map is determined by the image of one
flag: choose that image and propagate through s0/s1/s2 equivariance;
the attempt either closes into a bijection or hits a contradiction.
The group is recovered by trying every candidate image of a fixed base
flag (worst case O(|flags|^2)).

The orbit scan works on translation classes.  In a quotient T/K from
`build_quotient`, with D darts per vertex and ncos cosets, flag x lies
in class (x // (2·D·ncos))·2D + x % 2D: the ncos flags (rep, slot,
side), one Z²/K-orbit.  The scan first checks that the Smith-generator
translations are the automorphisms this numbering says, then tries one
extension of flag 0 per class, and spreads each verdict through the
automorphisms found so far (an automorphism maps a class onto a class
with the same verdict).  A map without a coset system is the case
ncos = 1, one class per flag.  Results do not depend on the pruning.

`quotient_report` answers the same question for a quotient without
building it: Aut(T/K) = N(K)/K, from the full group G/T of the tiling
modulo translations, which `full_point_group` reads off the flag engine
once per tiling.  `search-nonvt` uses it; `analyze`, `batch` and the
tests keep the scan, the independent path.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache

from .lattice import enumerate_hnf, scaled_identity
from .map_core import FlagMap, QuotientSpec, _anchors, build_quotient
from .tilings import PointGroupElem, TilingId, _validate_element, rep_orbits, template


@dataclass(frozen=True)
class OrbitReport:
    vertex_orbits: tuple[tuple[int, ...], ...]
    flag_orbit_count: int
    group_order: int


def flag_extension(
    src: FlagMap, dst: FlagMap, base: int, target: int
) -> list[int] | None:
    """The unique involution-equivariant extension of base -> target, or
    None when no automorphism/isomorphism takes base to target."""
    n = src.n_flags
    if dst.n_flags != n:
        return None
    pairs = ((src.s0, dst.s0), (src.s1, dst.s1), (src.s2, dst.s2))
    img = [-1] * n
    used = bytearray(n)
    img[base] = target
    used[target] = 1
    stack = [base]
    while stack:
        x = stack.pop()
        gx = img[x]
        for sa, sb in pairs:
            y = sa[x]
            gy = sb[gx]
            iy = img[y]
            if iy < 0:
                if used[gy]:
                    return None
                img[y] = gy
                used[gy] = 1
                stack.append(y)
            elif iy != gy:
                return None
    # Connectivity makes the extension total; `used` makes it injective.
    return img


def _candidate_keys(m: FlagMap, flags: Iterable[int]) -> list[tuple[int, int]]:
    # An automorphism must preserve vertex degree and the size of the
    # flag's own face, so mismatched candidates are skipped up front.
    fv, ff, vd, fs = m.flag_vertex, m.flag_face, m.vertex_darts, m.face_sizes
    return [(len(vd[fv[x]]), fs[ff[x]]) for x in flags]


def _extensions(src: FlagMap, dst: FlagMap, base: int, targets: Iterable[int]) -> Iterator[list[int]]:
    """The extensions of base -> target that succeed, over the targets in
    order; a target whose key differs from base's is not tried."""
    (key,) = _candidate_keys(src, (base,))
    targets = list(targets)
    for target, k in zip(targets, _candidate_keys(dst, targets)):
        if k == key and (img := flag_extension(src, dst, base, target)) is not None:
            yield img


def _translation_cell(m: FlagMap) -> tuple[int, int, Sequence[int]]:
    """(ncos, cell, firsts) of a quotient: its number of translations,
    its flags per vertex 2D and the first flag of each translation
    class, after checking that the Smith-generator box shifts are the
    automorphisms the index formula says (RuntimeError otherwise).  A
    map without a coset system gets (1, n_flags, every flag)."""
    cs = m.coset_system
    if cs is None or cs.size() == 1:
        return 1, m.n_flags, range(m.n_flags)
    s1, s2, ncos = cs.s1, cs.s2, cs.size()
    cell = 2 * len(m.vertex_darts[0])
    block = cell * ncos
    if m.n_flags % block:
        raise RuntimeError(f"{m.n_flags} flags do not split into {ncos} translates")
    for di, dj, order in ((1, 0, s1), (0, 1, s2)):
        if order == 1:
            continue
        moved = [((i + di) % s1 * s2 + (j + dj) % s2) * cell for i in range(s1) for j in range(s2)]
        perm = [b + t + q for b in range(0, m.n_flags, block) for t in moved for q in range(cell)]
        if flag_extension(m, m, 0, perm[0]) != perm:
            raise RuntimeError(f"box shift ({di}, {dj}) of {cs.mat} is not an automorphism")
    return ncos, cell, [c // cell * block + c % cell for c in range(m.n_flags // ncos)]


def orbit_report(m: FlagMap) -> OrbitReport:
    ncos, cell, firsts = _translation_cell(m)
    block = cell * ncos
    # Vertex v = rep·ncos + coset, so the reps are the translation orbits,
    # and an automorphism permutes them as it moves the anchors.
    anchors = _anchors(m)
    keys = _candidate_keys(m, firsts)
    verdict = bytearray(len(firsts))  # 1: in the orbit of flag 0, 2: not
    verdict[0] = 1
    found: list[list[int]] = []
    sigmas: list[list[int]] = []
    fv = m.flag_vertex
    rep_flags = [2 * m.vertex_darts[v][0] for v in anchors]
    for c, f in enumerate(firsts):
        if verdict[c] or keys[c] != keys[0]:
            continue
        img = flag_extension(m, m, 0, f)
        if img is None:
            verdict[c] = 2
            todo = [c]
        else:
            verdict[c] = 1
            found.append(img)
            sigmas.append([fv[img[x]] // ncos for x in rep_flags])
            todo = [k for k in range(len(firsts)) if verdict[k]]
        # An automorphism maps a class onto a class with the same verdict.
        while todo:
            k = todo.pop()
            for g in found:
                y = g[firsts[k]]
                j = y // block * cell + y % cell
                if not verdict[j]:
                    verdict[j] = verdict[k]
                    todo.append(j)

    group_order = ncos * verdict.count(1)
    return OrbitReport(
        vertex_orbits=_vertex_orbits(rep_orbits(len(anchors), sigmas), ncos),
        flag_orbit_count=m.n_flags // group_order,
        group_order=group_order,
    )


def _vertex_orbits(orbits: tuple[tuple[int, ...], ...], ncos: int) -> tuple[tuple[int, ...], ...]:
    """The vertex orbits of rep orbits, vertex v = rep·ncos + coset."""
    return tuple(tuple(v for r in orbit for v in range(r * ncos, (r + 1) * ncos)) for orbit in orbits)


def is_vertex_transitive(m: FlagMap) -> bool:
    return len(orbit_report(m).vertex_orbits) == 1


def exists_automorphism_mapping(m: FlagMap, v0: int, v1: int) -> bool:
    """Direct search for an automorphism with v0 -> v1; an independent
    code path from the orbit machinery."""
    base = 2 * m.vertex_darts[v0][0]
    return any(
        flag_extension(m, m, base, target) is not None
        for d in m.vertex_darts[v1]
        for target in (2 * d, 2 * d + 1)
    )


def are_isomorphic(m1: FlagMap, m2: FlagMap) -> list[int] | None:
    """A flag bijection m1 -> m2 commuting with the involutions, if any."""
    return next(_extensions(m1, m2, 0, range(m2.n_flags)), None)


# The full group is read off T/(5·I): every element has a representative
# whose per-rep shifts lie in [-2, 2], so they survive reduction mod 5.
_PROBE_SCALE = 5


@lru_cache(maxsize=None)
def full_point_group(tiling: TilingId) -> tuple[PointGroupElem, ...]:
    """Every element of G/T, the tiling's symmetry group modulo its
    translations, with shifts[0] = (0, 0); the identity comes first.

    Read off the flag engine: one extension of flag 0 per translation
    class of T/(5·I) gives one automorphism per element.  Its sigma,
    slot maps and shifts (lifted to [-2, 2]) are read at the reps of
    cell (0, 0), and R from g t_w g^-1 = t_(Rw).  Each element is
    checked on the infinite tiling (`_validate_element`); a failure
    raises AssertionError.  Glide reflections have order 0 (infinite),
    like `tilings.translation`.
    """
    tpl = template(tiling)
    n, deg = _PROBE_SCALE, tpl.degree
    m = build_quotient(QuotientSpec(tiling, scaled_identity(n)))
    ncos, _, firsts = _translation_cell(m)
    cells = m.coset_system.representatives

    def lift(x: int) -> int:
        return (x + n // 2) % n - n // 2

    def cell_of(flag: int) -> tuple[int, int]:
        return tuple(lift(x) for x in cells[m.flag_vertex[flag] % ncos])

    elems: list[PointGroupElem] = []
    for img in _extensions(m, m, 0, firsts):
        # Flag 0 goes to cell (0, 0), so the cells of the images of
        # (0, e1) and (0, e2) are R's columns.
        rows = [img[2 * v * deg : 2 * (v + 1) * deg : 2] for v in _anchors(m)]
        cols = [cell_of(img[2 * m.vertex_at(0, e) * deg]) for e in ((1, 0), (0, 1))]
        elem = PointGroupElem(
            name=f"g{len(elems)}",
            kind="",
            order=0,
            sigma=tuple(row[0] // (2 * deg * ncos) for row in rows),
            matrix=tuple(zip(*cols)),
            shifts=tuple(cell_of(row[0]) for row in rows),
            slot_maps=tuple(tuple(x // 2 % deg for x in row) for row in rows),
        )
        kind = "reflection" if elem.reverses_orientation else "rotation"
        elem = replace(elem, kind=kind, order=_order(elem))
        problems = _validate_element(tpl, elem)
        if problems:
            raise AssertionError(f"element read off {tiling.code}/({n}·I) is not a tiling symmetry: {problems}")
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


def quotient_report(spec: QuotientSpec) -> OrbitReport:
    """`orbit_report(build_quotient(spec))` in closed form, with no map.

    Every automorphism of X = T/K lifts to a symmetry of T that
    normalises K, so Aut X = N(K)/K: the |det K| translations times the
    stabiliser S = {g in G/T : R_g K = K}.  Vertex (rep, coset) is
    numbered rep·|det K| + coset, the translations are transitive on the
    cosets of a rep, and S is a group, so the vertex orbits are the
    sigma-orbits of S on the reps.  The action on flags is free, so
    there are 2·degree·reps / |S| flag orbits.
    """
    tpl = template(spec.tiling)
    ncos = spec.mat.index()
    stab = [g for g in full_point_group(spec.tiling) if spec.mat.preserved_by(g.matrix)]
    return OrbitReport(
        vertex_orbits=_vertex_orbits(rep_orbits(tpl.rep_count, [g.sigma for g in stab]), ncos),
        flag_orbit_count=2 * tpl.degree * tpl.rep_count // len(stab),
        group_order=ncos * len(stab),
    )


def search_non_vt(tiling: TilingId, det_bound: int) -> list[tuple[QuotientSpec, int, OrbitReport]]:
    """(spec, vertex count, orbit report) of every polyhedral Hermite-form
    quotient of the tiling with |det| <= det_bound that is not
    vertex-transitive.  The report is `quotient_report`; a map is built
    only to decide polyhedrality of a quotient that is not transitive.

    The four trivially vertex-transitive tilings have none, so the
    search is skipped for them by construction, after the bound is
    checked as for any tiling.
    """
    mats = enumerate_hnf(det_bound)
    if tiling.trivially_vertex_transitive:
        return []
    witnesses = []
    for mat in mats:
        spec = QuotientSpec(tiling, mat)
        report = quotient_report(spec)
        if len(report.vertex_orbits) == 1:
            continue
        m = build_quotient(spec)
        if m.polyhedral:
            witnesses.append((spec, m.n_vertices, report))
    return witnesses
