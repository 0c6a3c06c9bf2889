"""Command-line interface.

Subcommands mirror the library: info, analyze, cover, verify,
search-nonvt, batch, render.  Output is deterministic JSON (sorted
keys); exit status is 0 on success, 1 when a verification fails, 2
on invalid input, and 3 on an internal error (an `AssertionError` or
`RuntimeError` raised by the library, such as a failed consistency
check of a quotient's translations), reported as one `internal error:`
line on stderr.

The batch sweep uses one PRNG per sample, seeded with the string
"{seed}:{index}", so runs are reproducible and samples independent of
evaluation order.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import cache

from . import __version__
from .cover import (
    CoverCertificate,
    VerifyReport,
    certificate_from_dict,
    cover_maps,
    quotient_pair,
    verify_covering,
)
from .lattice import SublatticeMat, cover_exponent, random_nonsingular
from .map_core import (
    QuotientSpec,
    VertexTypeSig,
    _gather,
    build_quotient,
    euler_characteristic,
    is_polyhedral,
    is_semi_equivelar,
    map_summary,
)
from .symmetry import is_vertex_transitive, orbit_report, search_non_vt
from .tilings import TilingId, parse_tiling, template, template_as_dict

# Ceilings for the randomized sweep: covers larger than this are
# resampled (construction cost), and vertex-transitivity is only decided
# below the second bound (automorphism cost).
BATCH_COVER_FLAG_CAP = 20_000
BATCH_VT_FLAG_CAP = 800
# Draws per sample before the sweep gives up on an entry bound whose
# matrices almost never give a cover under the flag cap.
BATCH_MAX_DRAWS = 100_000
# The most samples one batch takes, since the payload is built in memory:
# 10,000 with --seed 7 took 62 s and 52 MiB peak RSS for 4.9 MB of JSON
# (69 s and 55 MiB at --max-entry 12), on 2 cores with Python 3.11.
BATCH_MAX_SAMPLES = 10_000
# The keys of a whole `cover` output document: all required and no
# others, as in schemas/cover.schema.json.
COVER_DOCUMENT_KEYS = frozenset(("command", "r", "certificate", "cover_spec", "verified"))


_encode_leaf = json.JSONEncoder().encode


class _Numbers:
    """A list of ints each in range(count), such as a verified
    certificate's map onto X's vertices, edges or faces, for _json_text
    to write with no per-entry type scan."""

    __slots__ = ("entries", "count")

    def __init__(self, entries, count: int):
        self.entries = entries
        self.count = count


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True), with every line after
    the first shifted right by `indent`.

    json.dumps leaves its C encoder when `indent` is set and writes each
    int of a certificate's maps from Python.  This writer makes the same
    text with the C encoder for the leaves and one `repr` for a list of
    ints (`type` exactly int, so no bool or float).  A `_Numbers` value
    skips that type scan.  When its count is below its length, as for a
    map of an n-fold cover with n > 1, it is written from a table of the
    count decimal strings, one `str` per number, and one gather of its
    entries from that table, so each of X's numbers is formatted once,
    not n times; else with one `repr`, which is faster than a `str` per
    entry.  A dict with a key that is not a str is left to json.dumps."""
    inner = indent + "  "
    if type(value) is _Numbers:
        entries, count = value.entries, value.count
        if not entries:
            return "[]"
        if count < len(entries):
            body = (",\n" + inner).join(_gather(list(map(str, range(count))), entries))
        else:
            body = repr(list(entries))[1:-1].replace(", ", ",\n" + inner)
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(value, dict) and value:
        if set(map(type, value)) != {str}:
            return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)
        items = [_encode_leaf(k) + ": " + _json_text(v, inner) for k, v in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {int}:
            body = repr(list(value))[1:-1].replace(", ", ",\n" + inner)
        else:
            body = (",\n" + inner).join([_json_text(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + indent + "]"
    return _encode_leaf(value)


def _emit(args: argparse.Namespace, payload: dict) -> None:
    text = _json_text(payload) + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spec_from_args(args: argparse.Namespace) -> QuotientSpec:
    tiling = parse_tiling(args.tiling)
    mat = SublatticeMat(args.a, args.b, args.c, args.d)
    return QuotientSpec(tiling, mat)


def _cmd_info(args: argparse.Namespace) -> int:
    tpl = template(parse_tiling(args.tiling))
    _emit(args, {"command": "info", **template_as_dict(tpl)})
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    m = build_quotient(spec)
    rep = orbit_report(m)
    payload = {
        "command": "analyze",
        "spec": spec.as_dict(),
        "summary": map_summary(m),
        "vertex_transitive": len(rep.rep_orbits) == 1,
        "vertex_orbit_count": len(rep.rep_orbits),
        "flag_orbit_count": rep.flag_orbit_count,
        "group_order": rep.group_order,
    }
    _emit(args, payload)
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    y, x, cert = cover_maps(spec, r=args.r)
    report = verify_covering(y, x, cert)
    counts = (x.n_vertices, x.n_edges, x.n_faces)
    del y, x  # the maps go before the certificate text is built; cert's tuples keep the ints
    certificate = cert.as_dict()
    if report.ok:  # its shape stage proved every entry of each map lies in range(count)
        for key, count in zip(("vertex_map", "edge_map", "face_map"), counts):
            certificate[key] = _Numbers(certificate[key], count)
    payload = {
        "command": "cover",
        "r": args.r,
        "certificate": certificate,
        "cover_spec": {
            "tiling": spec.tiling.value,
            "matrix": list(cert.cover_mat.as_tuple()),
        },
        "verified": report.as_dict(),
    }
    _emit(args, payload)
    return 0 if report.ok else 1


def _verify_input(data) -> CoverCertificate:
    """The certificate `verify` reads: data itself, or, when data holds a
    `certificate` key, data as a whole `cover` output document.  That has
    exactly COVER_DOCUMENT_KEYS, command "cover", an integer r of at least
    1 with r·cover_exponent(M) = m, as cover_spec its certificate's tiling
    and m·I, and as `verified` a report of the schema's shape: exactly the
    keys ok (a boolean), failure (a string or null) and checks_passed (a
    list of strings).  What that report says is not trusted: verify makes
    its own."""
    if type(data) is not dict or "certificate" not in data:
        return certificate_from_dict(data)
    for key in data:
        if key not in COVER_DOCUMENT_KEYS:
            raise ValueError(f"malformed cover document: unknown key {key!r}")
    for key in sorted(COVER_DOCUMENT_KEYS.difference(data)):
        raise ValueError(f"malformed cover document: missing key {key!r}")
    if data["command"] != "cover":
        raise ValueError(f"malformed cover document: command must be 'cover', got {data['command']!r}")
    r = data["r"]
    if type(r) is not int or r < 1:
        raise ValueError(f"malformed cover document: r must be an integer of at least 1, got {r!r}")
    report = data["verified"]
    if (
        type(report) is not dict
        or set(report) != set(VerifyReport._fields)
        or type(report["ok"]) is not bool
        or not (report["failure"] is None or type(report["failure"]) is str)
        or type(report["checks_passed"]) is not list
        or not set(map(type, report["checks_passed"])) <= {str}
    ):
        raise ValueError(
            "malformed cover document: verified must be an object of ok (a boolean), failure (a string "
            f"or null) and checks_passed (a list of strings), got {report!r}"
        )
    cert = certificate_from_dict(data["certificate"])
    exponent = cover_exponent(cert.base_mat)
    if r * exponent != cert.exponent:
        raise ValueError(
            f"malformed cover document: r = {r} times M's cover exponent {exponent} "
            f"is not the certificate's m = {cert.exponent}"
        )
    want = {"tiling": cert.tiling.value, "matrix": list(cert.cover_mat.as_tuple())}
    spec = data["cover_spec"]
    matrix = spec.get("matrix") if type(spec) is dict else None
    if type(matrix) is not list or not set(map(type, matrix)) <= {int} or spec != want:
        raise ValueError(f"malformed cover document: cover_spec {spec!r} is not the certificate's cover {want!r}")
    return cert


def _cmd_verify(args: argparse.Namespace) -> int:
    with open(args.certificate) as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:  # a RuntimeError, which main maps to exit 3
            raise ValueError(f"malformed certificate: {exc}") from exc
    cert = _verify_input(data)
    del data  # the parsed lists go before the maps are built; cert's tuples keep the ints
    y, x = quotient_pair(cert.tiling, cert.base_mat, cert.cover_mat)
    report = verify_covering(y, x, cert)
    _emit(
        args,
        {
            "command": "verify",
            "certificate_file": args.certificate,
            "tiling": cert.tiling.value,
            "M": list(cert.base_mat.as_tuple()),
            "m": cert.exponent,
            "n": cert.fold,
            "verified": report.as_dict(),
        },
    )
    return 0 if report.ok else 1


def _cmd_search_nonvt(args: argparse.Namespace) -> int:
    tiling = parse_tiling(args.tiling)
    items = [
        {
            "matrix": list(spec.mat.as_tuple()),
            "det": spec.mat.det(),
            "vertices": n_vertices,
            "vertex_orbit_count": len(rep.rep_orbits),
            "group_order": rep.group_order,
        }
        for spec, n_vertices, rep in search_non_vt(tiling, args.det_bound)
    ]
    _emit(
        args,
        {
            "command": "search-nonvt",
            "tiling": tiling.value,
            "det_bound": args.det_bound,
            "witness_count": len(items),
            "witnesses": items,
        },
    )
    return 0


def _batch_sample(tiling: TilingId, rng: random.Random, max_entry: int) -> SublatticeMat:
    tpl = template(tiling)
    per_cell_flags = 2 * tpl.degree * tpl.rep_count
    for _ in range(BATCH_MAX_DRAWS):
        mat = random_nonsingular(rng, max_entry)
        if per_cell_flags * cover_exponent(mat) ** 2 <= BATCH_COVER_FLAG_CAP:
            return mat
    raise ValueError(
        f"no {tiling.code} matrix with entries up to {max_entry} gave a cover of at most "
        f"{BATCH_COVER_FLAG_CAP} flags in {BATCH_MAX_DRAWS} draws"
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.samples > BATCH_MAX_SAMPLES:
        raise ValueError(f"sample count {args.samples} is over the limit of {BATCH_MAX_SAMPLES}")
    tilings = list(TilingId)
    samples = []
    failures = 0
    for i in range(args.samples):
        tiling = tilings[i % len(tilings)]
        rng = random.Random(f"{args.seed}:{i}")
        mat = _batch_sample(tiling, rng, args.max_entry)
        spec = QuotientSpec(tiling, mat)
        y, x, cert = cover_maps(spec)
        report = verify_covering(y, x, cert)
        sig_x = is_semi_equivelar(x)
        sig_y = is_semi_equivelar(y)
        checks = {
            "verify_covering": report.ok,
            "euler": euler_characteristic(x) == 0 and euler_characteristic(y) == 0,
            "signature": sig_x == sig_y == VertexTypeSig.from_cycle(tiling.signature),
            "fold_arithmetic": (
                cert.fold * mat.index() == cert.exponent**2
                and mat.index() % cert.exponent == 0
                and cert.exponent % cert.fold == 0
                and y.n_vertices == cert.fold * x.n_vertices
            ),
        }
        vt: bool | None = None
        if cert.cover_polyhedral and y.n_flags <= BATCH_VT_FLAG_CAP:
            vt = is_vertex_transitive(y)
            checks["cover_vertex_transitive"] = vt
        ok = all(checks.values())
        if not ok:
            failures += 1
        samples.append(
            {
                "index": i,
                "tiling": tiling.value,
                "matrix": list(mat.as_tuple()),
                "det": mat.det(),
                "m": cert.exponent,
                "n": cert.fold,
                "flags_X": x.n_flags,
                "flags_Y": y.n_flags,
                "polyhedral_X": cert.base_polyhedral,
                "polyhedral_Y": cert.cover_polyhedral,
                "vertex_transitive_Y": vt,
                "checks": checks,
                "ok": ok,
            }
        )
    payload = {
        "command": "batch",
        "config": {
            "samples": args.samples,
            "seed": args.seed,
            "max_entry": args.max_entry,
            "vt_flag_cap": BATCH_VT_FLAG_CAP,
            "generator": "random.Random('{seed}:{index}') per sample",
            "version": __version__,
        },
        "results": samples,
        "summary": {
            "total": args.samples,
            "failed": failures,
            "vt_checked": sum(1 for s in samples if s["vertex_transitive_Y"] is not None),
        },
        "all_ok": failures == 0,
    }
    _emit(args, payload)
    return 0 if failures == 0 else 1


def _cmd_render(args: argparse.Namespace) -> int:
    from .render import render_svg  # loaded here: xml.etree is for this command only

    spec = _spec_from_args(args)
    doc = render_svg(template(spec.tiling), spec.mat)
    if args.out == "-":
        sys.stdout.write(doc)
    else:
        with open(args.out, "w") as fh:
            fh.write(doc)
    return 0


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def _add_spec_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("tiling", help="tiling name, code (E1..E7, T4444), or vertex type (3.3.4.3.4)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("d", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricover",
        description="Semi-equivelar toroidal maps and their vertex-transitive covers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="dump a tiling template as JSON")
    p.add_argument("tiling")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("analyze", help="counts, signature, polyhedrality, symmetry of a quotient")
    _add_spec_arguments(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("cover", help="build and verify the vertex-transitive cover")
    _add_spec_arguments(p)
    p.add_argument("--r", type=int, default=1, help="cover family index (lattice scale r*m)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("verify", help="recheck a stored cover certificate")
    p.add_argument("certificate", help="path to a certificate JSON file")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search-nonvt", help="non-vertex-transitive quotients up to a det bound")
    p.add_argument("tiling")
    p.add_argument("--det-bound", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_search_nonvt)

    p = sub.add_parser("batch", help="randomized cover sweep across all tilings")
    p.add_argument("--samples", type=_count, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-entry", type=int, default=6)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("render", help="SVG of the tiling with the sublattice domain")
    _add_spec_arguments(p)
    p.add_argument("--out", required=True, help="output SVG path, or - for stdout")
    p.set_defaults(func=_cmd_render)

    return parser


# argparse keeps no state between parse_args calls (each makes a fresh
# Namespace and reads the defaults as set here), so one tree serves them all.
_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit status.

    The parser is built on the first call and reused by every later call
    in the process.  A tree of 8 parsers holds about 350 objects in
    reference cycles, so rebuilding it per call left garbage that only the
    cyclic collector frees, and the gen-0 collections it forced walked
    every table the call still held, such as a large certificate's.  A
    warm call leaves no cyclic garbage; a fresh process builds one parser
    either way."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
