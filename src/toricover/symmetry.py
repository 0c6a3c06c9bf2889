"""Map automorphisms by flag extension.

An automorphism of a connected map is determined by the image of one
flag: choose that image and propagate through s0/s1/s2 equivariance;
the attempt either closes into a bijection or hits a contradiction.
The group is recovered by trying every candidate image of a fixed base
flag (worst case O(|flags|^2)).

Orbit computations fold successes into a union-find as they appear,
which allows two prunings without changing results: a candidate already
in the base flag's orbit is a known success, and a candidate in the
orbit of a failed one is a known failure (compose with the group found
so far).  Output order is by candidate flag index, so results are
deterministic.
"""

from __future__ import annotations

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


class _DSU:
    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def _candidate_keys(m: FlagMap) -> list[tuple[int, int]]:
    # An automorphism must preserve vertex degree and the size of the
    # flag's own face, so mismatched candidates are skipped up front.
    return [
        (len(m.vertex_darts[m.flag_vertex[x]]), m.face_sizes[m.flag_face[x]])
        for x in range(m.n_flags)
    ]


def _orbit_scan(m: FlagMap, stop_when_vertex_transitive: bool) -> OrbitReport | bool:
    nf = m.n_flags
    flags = _DSU(nf)
    verts = _DSU(m.n_vertices)
    vertex_classes = m.n_vertices
    bad = bytearray(nf)  # consulted/stored at DSU roots
    keys = _candidate_keys(m)
    base_key = keys[0]

    if stop_when_vertex_transitive and m.n_vertices == 1:
        return True

    for g in range(nf):
        root = flags.find(g)
        if root == flags.find(0):
            continue  # known success: g is already an image of the base flag
        if bad[root] or keys[g] != base_key:
            continue
        img = flag_extension(m, m, 0, g)
        if img is None:
            bad[flags.find(g)] = 1
            continue
        fv = m.flag_vertex
        for x in range(nf):
            y = img[x]
            ra, rb = flags.find(x), flags.find(y)
            if ra != rb:
                merged_bad = bad[ra] | bad[rb]
                flags.union(ra, rb)
                bad[flags.find(ra)] = merged_bad
            va, vb = verts.find(fv[x]), verts.find(fv[y])
            if va != vb:
                verts.union(va, vb)
                vertex_classes -= 1
        if stop_when_vertex_transitive and vertex_classes == 1:
            return True

    if stop_when_vertex_transitive:
        return vertex_classes == 1

    orbit_members: dict[int, list[int]] = {}
    for v in range(m.n_vertices):
        orbit_members.setdefault(verts.find(v), []).append(v)
    vertex_orbits = tuple(tuple(sorted(o)) for o in sorted(orbit_members.values()))
    flag_roots = {flags.find(x) for x in range(nf)}
    group_order = flags.size[flags.find(0)]
    return OrbitReport(
        vertex_orbits=vertex_orbits,
        flag_orbit_count=len(flag_roots),
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
    keys = _candidate_keys(m)
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
    keys2 = _candidate_keys(m2)
    key1 = _candidate_keys(m1)[0]
    for target in range(m2.n_flags):
        if keys2[target] != key1:
            continue
        img = flag_extension(m1, m2, 0, target)
        if img is not None:
            return tuple(img)
    return None


def search_non_vt(tiling: TilingId, det_bound: int) -> list[QuotientSpec]:
    """All polyhedral Hermite-form quotients of the tiling with
    |det| <= det_bound that are not vertex-transitive.

    The four trivially vertex-transitive tilings have none, so the
    search is skipped for them by construction.
    """
    if det_bound < 1:
        raise ValueError(f"determinant bound must be positive, got {det_bound}")
    if tiling.trivially_vertex_transitive:
        return []
    out = []
    for mat in enumerate_hnf(det_bound):
        spec = QuotientSpec(tiling, mat)
        m = build_quotient(spec)
        if not is_polyhedral(m).ok:
            continue
        if not is_vertex_transitive(m):
            out.append(spec)
    return out
