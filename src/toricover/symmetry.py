"""Map automorphisms by flag extension.

An automorphism of a connected map is determined by the image of one
flag: choose that image and propagate through s0/s1/s2 equivariance;
the attempt either closes into a bijection or hits a contradiction.
The whole group, every candidate image of a fixed base flag tried in
turn (worst case O(|flags|^2)), is the test helper
`automorphism_group`; the library only runs the orbit scan below.

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
modulo translations, which `tilings.full_point_group` reads off the
template's geometry once per tiling.  It needs no map and no flag
extension.  `search-nonvt` uses it; `analyze`, `batch` and the tests
keep the scan, the independent path.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .lattice import enumerate_hnf
from .map_core import FlagMap, QuotientSpec, _anchors, build_quotient
from .tilings import TilingId, full_point_group, rep_orbits, template


class OrbitReport(NamedTuple):
    """Orbits per rep.  Vertex v is rep v // ncos (build_quotient), and
    the translations are transitive on a rep's vertices, so each vertex
    orbit is the vertices of one of the rep_orbits.  A map without a
    coset system has one rep per vertex."""

    rep_orbits: tuple[tuple[int, ...], ...]
    flag_orbit_count: int
    group_order: int


def flag_extension(m: FlagMap, base: int, target: int) -> list[int] | None:
    """The unique involution-equivariant extension of base -> target, or
    None when no automorphism of m takes base to target."""
    n = m.n_flags
    involutions = (m.s0, m.s1, m.s2)
    img = [-1] * n
    used = bytearray(n)
    img[base] = target
    used[target] = 1
    stack = [base]
    while stack:
        x = stack.pop()
        gx = img[x]
        for s in involutions:
            y = s[x]
            gy = s[gx]
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
        if flag_extension(m, 0, perm[0]) != perm:
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
        img = flag_extension(m, 0, f)
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
        rep_orbits=rep_orbits(len(anchors), sigmas),
        flag_orbit_count=m.n_flags // group_order,
        group_order=group_order,
    )


def is_vertex_transitive(m: FlagMap) -> bool:
    return len(orbit_report(m).rep_orbits) == 1


def quotient_report(spec: QuotientSpec) -> OrbitReport:
    """`orbit_report(build_quotient(spec))` in closed form, with no map.

    Every automorphism of X = T/K lifts to a symmetry of T that
    normalises K, so Aut X = N(K)/K: the |det K| translations times the
    stabiliser S = {g in G/T : R_g K = K}.  Vertex (rep, coset) is
    numbered rep·|det K| + coset, the translations are transitive on the
    cosets of a rep, and S is a group, so the rep orbits are the
    sigma-orbits of S on the reps.  The action on flags is free, so
    there are 2·degree·reps / |S| flag orbits.
    """
    tpl = template(spec.tiling)
    stab = [g for g in full_point_group(spec.tiling) if spec.mat.preserved_by(g.matrix)]
    return OrbitReport(
        rep_orbits=rep_orbits(tpl.rep_count, [g.sigma for g in stab]),
        flag_orbit_count=2 * tpl.degree * tpl.rep_count // len(stab),
        group_order=spec.mat.index() * len(stab),
    )


# The largest determinant bound search_non_vt takes: 33,044 Hermite forms.
# The count grows as the square of the bound; E7 at 200 takes about 195 s
# and 82 MiB on 2 cores with Python 3.11.
MAX_DET_BOUND = 200


def search_non_vt(tiling: TilingId, det_bound: int) -> list[tuple[QuotientSpec, int, OrbitReport]]:
    """(spec, vertex count, orbit report) of every polyhedral Hermite-form
    quotient of the tiling with |det| <= det_bound that is not
    vertex-transitive.  The report is `quotient_report`; a map is built
    only to decide polyhedrality of a quotient that is not transitive.
    A bound over MAX_DET_BOUND raises ValueError.

    The four trivially vertex-transitive tilings have none, so the
    search is skipped for them by construction, after the bound is
    checked as for any tiling.
    """
    if det_bound > MAX_DET_BOUND:
        raise ValueError(f"determinant bound {det_bound} is over the limit of {MAX_DET_BOUND}")
    mats = enumerate_hnf(det_bound)
    if tiling.trivially_vertex_transitive:
        return []
    witnesses = []
    for mat in mats:
        spec = QuotientSpec(tiling, mat)
        report = quotient_report(spec)
        if len(report.rep_orbits) == 1:
            continue
        m = build_quotient(spec)
        if m.polyhedral:
            witnesses.append((spec, m.n_vertices, report))
    return witnesses
