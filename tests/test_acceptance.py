"""Acceptance gate: the nine headline guarantees, one test each.

Run with `pytest -v tests/test_acceptance.py`; the verbose report shows
one PASSED/FAILED line per criterion, and each test also prints an
`ACCEPTANCE n: ...` line (visible with -s or on failure).

Random sweeps are seeded with fixed strings, so every run checks the
same instances.  Size caps keep each criterion within its runtime
budget; the caps are part of the criterion statements below.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from math import gcd

from toricover import (
    QuotientSpec,
    SublatticeMat,
    TilingId,
    build_quotient,
    cover_maps,
    descend,
    is_polyhedral,
    is_vertex_transitive,
    orbit_report,
    parse_tiling,
    search_non_vt,
    template,
)
from toricover.cli import main
from toricover.lattice import cover_exponent, enumerate_hnf
from toricover.map_core import euler_characteristic, is_automorphism

from helpers import exists_automorphism_mapping, reference_flag_tables, to_flags, translation, vertex_orbits

NONTRIVIAL = [parse_tiling(f"E{i}") for i in range(1, 8)]
TRIVIAL = [parse_tiling(c) for c in ("T333333", "T4444", "T666", "T33344")]

# Every map any criterion builds lands here; criterion 7 replays the
# flag axioms over the whole collection.
BUILT_MAPS: list = []


def _track(m):
    BUILT_MAPS.append(m)
    return m


def _sample_matrix(rng: random.Random, tid: TilingId, entry_bound: int, flag_cap: int) -> SublatticeMat:
    tpl = template(tid)
    per_cell = 2 * tpl.degree * tpl.rep_count
    while True:
        a, b, c, d = (rng.randint(-entry_bound, entry_bound) for _ in range(4))
        if a * d - b * c == 0:
            continue
        mat = SublatticeMat(a, b, c, d)
        if per_cell * cover_exponent(mat) ** 2 <= flag_cap:
            return mat


_SWEEP = None


def cover_sweep():
    """100 seeded matrices per non-trivial tiling, entries in [-6, 6],
    det != 0, Y-flag-count <= 600; shared by criteria 1 and 2."""
    global _SWEEP
    if _SWEEP is not None:
        return _SWEEP
    records = []
    for tid in NONTRIVIAL:
        rng = random.Random(f"acc1:{tid.code}")
        for _ in range(100):
            mat = _sample_matrix(rng, tid, entry_bound=6, flag_cap=600)
            spec = QuotientSpec(tid, mat)
            y, x, cert = cover_maps(spec)
            _track(x), _track(y)
            from toricover import verify_covering

            records.append(
                {
                    "tiling": tid,
                    "mat": mat,
                    "m": cert.exponent,
                    "n": cert.fold,
                    "det": mat.index(),
                    "x_counts": (x.n_vertices, x.n_edges, x.n_faces),
                    "y_counts": (y.n_vertices, y.n_edges, y.n_faces),
                    "y_flags": y.n_flags,
                    "y_polyhedral": cert.cover_polyhedral,
                    "verify_ok": verify_covering(y, x, cert).ok,
                    "vt": is_vertex_transitive(y) if cert.cover_polyhedral else None,
                }
            )
    _SWEEP = records
    return records


def report(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_1_vt_cover_sweep_seven_tilings():
    t0 = time.monotonic()
    records = cover_sweep()
    bad_verify = [r for r in records if not r["verify_ok"]]
    bad_vt = [r for r in records if r["vt"] is False]
    polyhedral = sum(1 for r in records if r["y_polyhedral"])
    elapsed = time.monotonic() - t0
    assert len(records) == 700
    assert all(r["y_flags"] <= 600 for r in records)
    assert elapsed < 300, f"sweep took {elapsed:.1f}s, budget 300s"
    report(
        1,
        not bad_verify and not bad_vt,
        f"700 covers verified, {polyhedral} polyhedral Y all vertex-transitive "
        f"({elapsed:.1f}s)",
    )


def test_criterion_2_fold_arithmetic_exact():
    records = cover_sweep()
    bad = []
    for r in records:
        m, n, det = r["m"], r["n"], r["det"]
        ratios = tuple(yc / xc for yc, xc in zip(r["y_counts"], r["x_counts"]))
        if not (
            n * det == m * m
            and det % m == 0
            and m % n == 0
            and r["y_counts"] == tuple(n * c for c in r["x_counts"])
        ):
            bad.append((r["tiling"].code, r["mat"].as_tuple(), ratios))
    report(2, not bad, f"n*|det| = m^2, m | |det|, n | m, cell ratios = n on all 700 (bad: {bad[:3]})")


def test_criterion_3_trivial_tilings_always_vt():
    checked = 0
    exceptions = []
    for tid in TRIVIAL:
        for mat in enumerate_hnf(10):
            m = _track(build_quotient(QuotientSpec(tid, mat)))
            if not is_polyhedral(m).ok:
                continue
            checked += 1
            if not is_vertex_transitive(m):
                exceptions.append((tid.code, mat.as_tuple()))
    report(
        3,
        checked > 0 and not exceptions,
        f"{checked} polyhedral quotients of the 4 always-transitive types, 0 exceptions",
    )


def test_criterion_4_nonvt_witnesses_dual_confirmation():
    summary = []
    ok = True
    for tid in NONTRIVIAL:
        found = search_non_vt(tid, 12)
        if not found:
            ok = False
            summary.append(f"{tid.code}:none")
            continue
        spec, _, _ = found[0]
        m = _track(build_quotient(spec))
        rep = orbit_report(m)
        two_orbits = len(rep.rep_orbits) >= 2
        orbits = vertex_orbits(m, rep)
        v0 = min(orbits[0])
        v1 = min(orbits[1])
        independent = (
            not exists_automorphism_mapping(m, v0, v1)
            and not exists_automorphism_mapping(m, v1, v0)
            and exists_automorphism_mapping(m, v0, v0)
        )
        ok = ok and two_orbits and independent
        summary.append(f"{tid.code}:{len(found)}w")
    report(4, ok, "witnesses at det-bound 12 with orbit + single-pair confirmation: " + " ".join(summary))


def test_criterion_5_cover_exponent_closed_form_vs_brute_force():
    def oracle_least_m(mat: SublatticeMat) -> int:
        det = Fraction(mat.a * mat.d - mat.b * mat.c)

        def inside(v):
            p = Fraction(v[0] * mat.d - v[1] * mat.c) / det
            q = Fraction(v[1] * mat.a - v[0] * mat.b) / det
            return p.denominator == 1 and q.denominator == 1

        m = 1
        while not (inside((m, 0)) and inside((0, m))):
            m += 1
        return m

    rng = random.Random("acc5")
    mismatches = []
    for _ in range(1000):
        while True:
            a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
            if a * d - b * c != 0:
                break
        mat = SublatticeMat(a, b, c, d)
        if cover_exponent(mat) != oracle_least_m(mat):
            mismatches.append(mat.as_tuple())
    report(5, not mismatches, f"closed form == brute-force least m on 1000 matrices (bad: {mismatches[:3]})")


def test_criterion_6_point_group_descends_and_acts_transitively():
    cases = 0
    failures = []
    for tid in TilingId:
        tpl = template(tid)
        per_cell = 2 * tpl.degree * tpl.rep_count
        for k in range(1, 6):
            if per_cell * k * k > 600:
                break
            spec = QuotientSpec(tid, SublatticeMat(k, 0, 0, k))
            y = _track(build_quotient(spec))
            flag_vertex = reference_flag_tables(y)["flag_vertex"]
            autos = []
            for elem in tpl.point_group:
                perm, reverses = descend(y, elem)  # raises if not an automorphism
                if not is_automorphism(y, perm, reverses):
                    failures.append((tid.code, k, elem.name))
                autos.append(to_flags(perm, reverses))
            autos.append(to_flags(*descend(y, translation(tpl, (1, 0)))))
            autos.append(to_flags(*descend(y, translation(tpl, (0, 1)))))
            # orbit of vertex 0 under the generated group
            seen = {0}
            frontier = [0]
            while frontier:
                v = frontier.pop()
                for auto in autos:
                    w = flag_vertex[auto[2 * v * tpl.degree]]
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            if len(seen) != y.n_vertices:
                failures.append((tid.code, k, "orbit"))
            cases += 1
    report(
        6,
        cases >= 11 and not failures,
        f"{cases} scalar quotients: all point-group elements descend, generated group transitive "
        f"(bad: {failures[:3]})",
    )


def test_criterion_7_euler_and_involutions_on_every_built_map():
    # Fresh exhaustive layer on top of everything the earlier criteria built.
    for tid in TilingId:
        for mat in enumerate_hnf(6):
            _track(build_quotient(QuotientSpec(tid, mat)))
    bad = 0
    for m in BUILT_MAPS:
        if euler_characteristic(m) != 0:
            bad += 1
            continue
        n = m.n_flags
        if n != 4 * m.n_edges:
            bad += 1
            continue
        t = reference_flag_tables(m)
        s0, s2 = t["s0"], t["s2"]
        for s in (s0, t["s1"], s2):
            if any(s[s[x]] != x for x in range(n)):
                bad += 1
                break
        else:
            if any(s0[x] == x or s2[x] == x or s0[s2[x]] != s2[s0[x]] for x in range(n)):
                bad += 1
    report(7, bad == 0, f"V-E+F = 0 and involution laws on {len(BUILT_MAPS)} built maps")


def test_criterion_8_r_family_verifies():
    from toricover import verify_covering

    tilings = list(TilingId)
    failures = []
    for i in range(20):
        tid = tilings[i % len(tilings)]
        rng = random.Random(f"acc8:{i}")
        mat = _sample_matrix(rng, tid, entry_bound=3, flag_cap=600)
        spec = QuotientSpec(tid, mat)
        m_exp = cover_exponent(mat)
        for r in (2, 3):
            y, x, cert = cover_maps(spec, r=r)
            _track(x), _track(y)
            want_fold = (r * m_exp) ** 2 // mat.index()
            if not (
                cert.exponent == r * m_exp
                and cert.fold == want_fold
                and cert.fold * mat.index() == (r * m_exp) ** 2
                and verify_covering(y, x, cert).ok
            ):
                failures.append((tid.code, mat.as_tuple(), r))
    report(8, not failures, f"r in {{2,3}} on 20 specs: fold (rm)^2/|det| exact, all verified (bad: {failures[:3]})")


def test_criterion_9_batch_byte_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rc1 = main(["batch", "--samples", "50", "--seed", "7", "--out", str(a)])
    rc2 = main(["batch", "--samples", "50", "--seed", "7", "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    report(
        9,
        rc1 == 0 and rc2 == 0 and identical and doc["all_ok"],
        f"two `batch --samples 50 --seed 7` runs byte-identical ({len(a.read_bytes())} bytes)",
    )
