"""Map automorphisms as dart permutations with one orientation bit.

Every map here is an oriented rotation system, so an automorphism is a
dart permutation φ that commutes with rev, plus one bit ε (the map is
connected): φ takes cw to cw when ε = 0, and to ccw when ε = 1 (it
reverses orientation).  It acts on flags as 2d + s -> 2φ(d) + (s XOR ε).
rev and cw are transitive on the darts, so the image of one dart fixes
φ: `flag_extension` propagates it, into a bijection or a contradiction.
The flag engine on the three flag involutions is the test oracle.

The orbit scan works on translation classes.  In a quotient T/K from
`build_quotient`, with D darts per vertex and ncos cosets, dart d lies
in class (d // (D·ncos))·D + d % D: the ncos darts (rep, slot), one
Z²/K-orbit.  A candidate is a class and a bit ε, scanned as index
2·class + ε, which is the class of the flag 2d + ε.  The scan first
checks each Smith-generator translation: its dart map, from the map to
itself, is map_core's `_translation_maps` (the projection pair,
`_vertex_projection` and `_dart_projection`, with every rep and slot
fixed; the same call makes cover_maps' projection, and the pair makes
`cover.descend`'s automorphisms), so it moves the classes as this
numbering says, and it must commute with rev and cw
(`is_automorphism`), which on a connected map makes it the
automorphism `flag_extension` would find through its image of dart 0.
Then it tries one extension of dart 0 per candidate, and spreads each
verdict through the automorphisms found so far (an automorphism maps a
candidate onto a candidate with the same verdict).
A map without a coset system is the case ncos = 1, one class per dart.
Results do not depend on the pruning.

`quotient_report` answers the same question for a quotient without
building it: Aut(T/K) = N(K)/K, from the full group G/T of the tiling
modulo translations, which `tilings.full_point_group` reads off the
template's geometry once per tiling.  It needs no map and no
extension.  `search-nonvt` uses it; `analyze`, `batch` and the tests
keep the scan, the independent path.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .lattice import enumerate_hnf
from .map_core import FlagMap, QuotientSpec, _anchors, _rep_blocks, _translation_maps, build_quotient
from .map_core import is_automorphism
from .tilings import TilingId, full_point_group, rep_orbits, template


class OrbitReport(NamedTuple):
    """Orbits per rep.  Vertex v is rep v // ncos (build_quotient), and
    the translations are transitive on a rep's vertices, so each vertex
    orbit is the vertices of one of the rep_orbits.  A map without a
    coset system has one rep per vertex."""

    rep_orbits: tuple[tuple[int, ...], ...]
    flag_orbit_count: int
    group_order: int


def ccw_table(m: FlagMap) -> list[int]:
    """ccw, the inverse of m's cw (FlagMap stores none): the darts, the
    map's own ints, sorted by their cw successor."""
    return sorted(m.dart_cw, key=m.dart_cw.__getitem__)


def flag_extension(m: FlagMap, base: int, target: int, ccw: Sequence[int]) -> tuple[list[int], bool] | None:
    """The automorphism of m that takes flag base to flag target, as
    (perm, reverses): the image of each dart and the bit ε = (base XOR
    target) & 1.  None when there is none.  ccw is `ccw_table(m)`, read
    only when ε = 1."""
    rev, cw = m.dart_rev, m.dart_cw
    reverses = bool((base ^ target) & 1)
    steps = ((rev, rev), (cw, ccw if reverses else cw))
    x0, g0 = base >> 1, target >> 1
    img = [-1] * len(rev)
    used = bytearray(len(rev))
    img[x0] = g0
    used[g0] = 1
    stack = [x0]
    while stack:
        x = stack.pop()
        gx = img[x]
        for s, t in steps:
            y = s[x]
            gy = t[gx]
            iy = img[y]
            if iy < 0:
                if used[gy]:
                    return None
                img[y] = gy
                used[gy] = 1
                stack.append(y)
            elif iy != gy:
                return None
    # rev and cw are transitive on the darts, so img is total; `used` makes it injective.
    return img, reverses


def _candidate_keys(m: FlagMap, flags: Iterable[int]) -> list[tuple[int, int]]:
    # An automorphism must preserve vertex degree and the size of the
    # flag's own face, so mismatched candidates are skipped up front.
    # Flag 2d + ε has d's tail and the face left of d, or of rev(d).
    tail, rev, left = m.dart_vertex, m.dart_rev, m.dart_face_left
    vd, fs = m.vertex_darts, m.face_sizes
    return [(len(vd[tail[x >> 1]]), fs[left[rev[x >> 1] if x & 1 else x >> 1]]) for x in flags]


def _translation_cell(m: FlagMap) -> tuple[int, int, Sequence[int]]:
    """(ncos, cell, firsts) of a quotient: its number of translations,
    its darts per vertex D and the first dart of each translation class,
    after checking that the Smith-generator box shifts, as projected dart
    maps, are automorphisms (RuntimeError otherwise; see the module
    docstring).  A map without a coset system gets (1, n_darts, every dart)."""
    nd = m.n_darts
    cs = m.coset_system
    if cs is None or cs.size() == 1:
        return 1, nd, range(nd)
    ncos = cs.size()
    cell = len(m.vertex_darts[0])
    block = _rep_blocks(m).step
    if block != cell * ncos:
        raise RuntimeError(f"{nd} darts do not split into {ncos} translates")
    # The Smith generators u and w shift every coset by the boxes (1, 0) and
    # (0, 1); a translation fixes every rep and slot.
    for box, gen, order in zip(((1, 0), (0, 1)), cs.gens, (cs.s1, cs.s2)):
        if order > 1 and not is_automorphism(m, _translation_maps(m, m, gen)[1], False):
            raise RuntimeError(f"box shift {box} of {cs.mat} is not an automorphism")
    return ncos, cell, [c // cell * block + c % cell for c in range(nd // ncos)]


def orbit_report(m: FlagMap) -> OrbitReport:
    ncos, cell, firsts = _translation_cell(m)
    ccw = ccw_table(m)
    block = cell * ncos
    # Candidate c is the class c >> 1 with ε = c & 1: the flag 2·first + ε.
    candidates = range(2 * len(firsts))
    flags = [2 * firsts[c >> 1] + (c & 1) for c in candidates]
    keys = _candidate_keys(m, flags)
    verdict = bytearray(len(candidates))  # 1: in the orbit of flag 0, 2: not
    verdict[0] = 1
    # (images of the first darts, ε) per automorphism found: all the spreading reads.
    found: list[tuple[list[int], bool]] = []
    sigmas: list[list[int]] = []
    # Vertex v = rep·ncos + coset, so the reps are the translation orbits,
    # and an automorphism permutes them as it moves the anchors.
    anchors = _anchors(m)
    tail = m.dart_vertex
    rep_darts = [m.vertex_darts[v][0] for v in anchors]
    for c in candidates:
        if verdict[c] or keys[c] != keys[0]:
            continue
        auto = flag_extension(m, 0, flags[c], ccw)
        if auto is None:
            verdict[c] = 2
            todo = [c]
        else:
            verdict[c] = 1
            img, reverses = auto
            found.append((list(map(img.__getitem__, firsts)), reverses))
            sigmas.append([tail[img[d]] // ncos for d in rep_darts])
            todo = [k for k in candidates if verdict[k]]
        # An automorphism maps a candidate onto one with the same verdict.
        while todo:
            k = todo.pop()
            for g, reverses in found:
                y = g[k >> 1]
                j = 2 * (y // block * cell + y % cell) + ((k & 1) ^ reverses)
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
# The count grows as the square of the bound; E7 at 200 took 20.6–22.0 s
# wall (20.1–20.5 s CPU) and 72.7–73.9 MiB peak RSS, three runs, each in a
# fresh process timed by os.wait4, Python 3.11.7 on a 2-core VM shared with
# other work.
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
