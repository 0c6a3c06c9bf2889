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
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .lattice import enumerate_hnf
from .map_core import FlagMap, QuotientSpec, build_quotient, is_polyhedral
from .tilings import TilingId


@dataclass(frozen=True)
class MapAutomorphism:
    flag_perm: tuple[int, ...]

    def __call__(self, flag: int) -> int:
        return self.flag_perm[flag]

    def compose(self, other: "MapAutomorphism") -> "MapAutomorphism":
        """self after other."""
        return MapAutomorphism(tuple(self.flag_perm[g] for g in other.flag_perm))

    @property
    def is_identity(self) -> bool:
        return all(i == g for i, g in enumerate(self.flag_perm))

    def commutes_with_involutions(self, m: FlagMap) -> bool:
        p = self.flag_perm
        return all(
            p[s[x]] == s[p[x]] for s in (m.s0, m.s1, m.s2) for x in range(len(p))
        )


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


def _translation_cell(m: FlagMap) -> tuple[int, int]:
    """(ncos, cell) of a quotient: its number of translations and its
    flags per vertex 2D, after checking that the Smith-generator box
    shifts are the automorphisms the index formula says (RuntimeError
    otherwise).  A map without a coset system gets (1, n_flags)."""
    cs = m.coset_system
    if cs is None or cs.size() == 1:
        return 1, m.n_flags
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
    return ncos, cell


def _orbit_scan(m: FlagMap, stop_when_vertex_transitive: bool) -> OrbitReport | bool:
    ncos, cell = _translation_cell(m)
    block = cell * ncos
    # Vertex v = rep·ncos + coset, so the reps are the translation orbits;
    # orbit_of labels each rep with its vertex orbit found so far.
    orbit_of = list(range(m.n_vertices // ncos))
    if stop_when_vertex_transitive and len(orbit_of) == 1:
        return True

    firsts = [c // cell * block + c % cell for c in range(m.n_flags // ncos)]
    keys = _candidate_keys(m, firsts)
    verdict = bytearray(len(firsts))  # 1: in the orbit of flag 0, 2: not
    verdict[0] = 1
    found: list[list[int]] = []
    fv = m.flag_vertex
    vertex_flags = [2 * ds[0] for ds in m.vertex_darts]
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
            todo = [k for k in range(len(firsts)) if verdict[k]]
            for a, b in {(v // ncos, fv[img[x]] // ncos) for v, x in enumerate(vertex_flags)}:
                la, lb = orbit_of[a], orbit_of[b]
                if la != lb:
                    orbit_of = [la if o == lb else o for o in orbit_of]
            if stop_when_vertex_transitive and len(set(orbit_of)) == 1:
                return True
        # An automorphism maps a class onto a class with the same verdict.
        while todo:
            k = todo.pop()
            for g in found:
                y = g[firsts[k]]
                j = y // block * cell + y % cell
                if not verdict[j]:
                    verdict[j] = verdict[k]
                    todo.append(j)

    if stop_when_vertex_transitive:
        return len(set(orbit_of)) == 1

    orbit_members: dict[int, list[int]] = {}
    for v in range(m.n_vertices):
        orbit_members.setdefault(orbit_of[v // ncos], []).append(v)
    group_order = ncos * verdict.count(1)
    return OrbitReport(
        vertex_orbits=tuple(tuple(o) for o in sorted(orbit_members.values())),
        flag_orbit_count=m.n_flags // group_order,
        group_order=group_order,
    )


def orbit_report(m: FlagMap) -> OrbitReport:
    report = _orbit_scan(m, stop_when_vertex_transitive=False)
    assert isinstance(report, OrbitReport)
    return report


def is_vertex_transitive(m: FlagMap) -> bool:
    return bool(_orbit_scan(m, stop_when_vertex_transitive=True))


def automorphism_group(m: FlagMap) -> list[MapAutomorphism]:
    """All automorphisms, ordered by the image of flag 0: every extension
    of flag 0 to a flag with the same key that succeeds.  Shares no
    pruning with the orbit scan, so each can check the other."""
    keys = _candidate_keys(m, range(m.n_flags))
    images = (flag_extension(m, m, 0, g) for g in range(m.n_flags) if keys[g] == keys[0])
    return [MapAutomorphism(tuple(img)) for img in images if img is not None]


def exists_automorphism_mapping(m: FlagMap, v0: int, v1: int) -> bool:
    """Direct search for an automorphism with v0 -> v1; an independent
    code path from the orbit machinery."""
    base = 2 * m.vertex_darts[v0][0]
    return any(
        flag_extension(m, m, base, target) is not None
        for target in m.flags_at_vertex(v1)
    )


def are_isomorphic(m1: FlagMap, m2: FlagMap) -> tuple[int, ...] | None:
    """A flag bijection m1 -> m2 commuting with the involutions, if any."""
    if m1.n_flags != m2.n_flags:
        return None
    if sorted(m1.face_sizes) != sorted(m2.face_sizes):
        return None
    if sorted(map(len, m1.vertex_darts)) != sorted(map(len, m2.vertex_darts)):
        return None
    keys2 = _candidate_keys(m2, range(m2.n_flags))
    key1 = _candidate_keys(m1, (0,))[0]
    for target in range(m2.n_flags):
        if keys2[target] != key1:
            continue
        img = flag_extension(m1, m2, 0, target)
        if img is not None:
            return tuple(img)
    return None


def non_vt_witnesses(
    tiling: TilingId, det_bound: int
) -> Iterator[tuple[QuotientSpec, int, OrbitReport]]:
    """(spec, vertex count, orbit report) of every polyhedral Hermite-form
    quotient of the tiling with |det| <= det_bound that is not
    vertex-transitive.  Each quotient is built and scanned once.

    The four trivially vertex-transitive tilings have none, so the
    search is skipped for them by construction.
    """
    if det_bound < 1:
        raise ValueError(f"determinant bound must be positive, got {det_bound}")
    if tiling.trivially_vertex_transitive:
        return
    for mat in enumerate_hnf(det_bound):
        spec = QuotientSpec(tiling, mat)
        m = build_quotient(spec)
        if not is_polyhedral(m).ok:
            continue
        report = orbit_report(m)
        if len(report.vertex_orbits) > 1:
            yield spec, m.n_vertices, report


def search_non_vt(tiling: TilingId, det_bound: int) -> list[QuotientSpec]:
    """The specs of `non_vt_witnesses`."""
    return [spec for spec, _, _ in non_vt_witnesses(tiling, det_bound)]
