"""The record types are immutable, hashable NamedTuples whose repr text
is the one they had as frozen dataclasses; SublatticeMat checks its
entries on every path that makes one; and importing the CLI loads
neither dataclasses nor the SVG renderer."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import toricover
from toricover.cover import cover_maps, verify_covering
from toricover.lattice import MAX_ENTRY, SublatticeMat, cosets
from toricover.map_core import QuotientSpec, VertexTypeSig, build_quotient
from toricover.symmetry import orbit_report
from toricover.tilings import TilingId, _seed, template


def _records() -> list:
    """One instance of each of the ten record types."""
    spec = QuotientSpec(TilingId.SNUB_SQUARE, SublatticeMat(1, 2, 0, 3))
    y, x, cert = cover_maps(spec)
    tpl = template(TilingId.SNUB_SQUARE)
    return [
        SublatticeMat(1, 2, 0, 3),
        cosets(SublatticeMat(2, 1, 0, 3)),
        tpl.point_group[0],
        tpl,
        _seed(TilingId.SNUB_SQUARE),
        spec,
        VertexTypeSig.from_cycle((3, 3, 4, 3, 4)),
        orbit_report(build_quotient(spec)),
        cert,
        verify_covering(y, x, cert),
    ]


RECORDS = _records()

# sha256 of each record's repr, recorded while the records were frozen
# dataclasses.  CosetSystem's was re-recorded when it stopped listing a
# representative per coset and kept its two Smith generators instead.
REPR_SHA256 = {
    "SublatticeMat": "e434642a12d7b1cae8cda9d7af372932d863f1392ac69858d6a702d33d7fb248",
    "CosetSystem": "6cb916710ca004bf1ab719f7110b61472f419e5cafa43780902cc7b2bdc1dc36",
    "PointGroupElem": "272dc65538013103f89a86b400aea5ee88db8e8f02c5163550ca03c0b79c37f3",
    "TilingTemplate": "2f1f0c87ef4728dde5d6ff953e16afc3f05e82e9808f167d245637e8854f31cf",
    "_Seed": "ba40777846ed02a09a552e07900d8b2a0576c806581cc0c83f9f7fa6786b53fc",
    "QuotientSpec": "624f45b4b622800b744bd5359691d5f4d41205270abebc495648f985d9fa08a6",
    "VertexTypeSig": "0b0bd80867f69477d774b6e9a9be4fd87677071d2661f5436323dc70b19c745c",
    "OrbitReport": "7cbdc730d42919cad76084a9a3a94600b849d288f9e08875f4aebc26e735fc57",
    "CoverCertificate": "4a90b3fbc563c84c6cb27746767f18d29ff478d00092bac8f9dc9666be359591",
    "VerifyReport": "1f0b7a698da3f5991c2e9db5f56f497b1e8a7f83b7dd604425469d848cd6c3f1",
}


def test_there_is_one_record_of_each_type():
    assert sorted(type(r).__name__ for r in RECORDS) == sorted(REPR_SHA256)


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_record_refuses_attribute_assignment(rec):
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], getattr(rec, rec._fields[0]))
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_hashable(rec):
    assert hash(rec) == hash(copy.copy(rec))
    assert {rec: 1}[copy.copy(rec)] == 1


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_record_repr_is_unchanged(rec):
    name = type(rec).__name__
    text = repr(rec)
    assert text.startswith(name + "(" + rec._fields[0] + "=")
    assert hashlib.sha256(text.encode()).hexdigest() == REPR_SHA256[name]


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_record_replace_keeps_the_type(rec):
    field = rec._fields[0]
    same = rec._replace(**{field: getattr(rec, field)})
    assert type(same) is type(rec) and same == rec


# (entries, exception type, message) for each bad matrix.
BAD_MATRICES = [
    ((1, 2, 2, 4), ValueError, "singular matrix does not define a finite-index sublattice"),
    ((MAX_ENTRY + 1, 0, 0, 1), ValueError, f"matrix entry {MAX_ENTRY + 1} exceeds bound {MAX_ENTRY}"),
    ((True, 0, 0, 1), TypeError, "matrix entries must be ints, got True"),
    ((1, 0, 0, 2.0), TypeError, "matrix entries must be ints, got 2.0"),
]


def _unchecked(entries) -> SublatticeMat:
    """A SublatticeMat that skipped its checks, as a corrupted pickle
    or a tuple.__new__ call could make one."""
    return tuple.__new__(SublatticeMat, entries)


PATHS = {
    "constructor": lambda e: SublatticeMat(*e),
    "_make": lambda e: SublatticeMat._make(e),
    "_replace": lambda e: SublatticeMat(1, 0, 0, 1)._replace(**dict(zip("abcd", e))),
    "copy": lambda e: copy.copy(_unchecked(e)),
    "pickle": lambda e: pickle.loads(pickle.dumps(_unchecked(e))),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("entries, exc, message", BAD_MATRICES)
def test_sublattice_mat_checks_every_path(path, entries, exc, message):
    with pytest.raises(exc) as info:
        PATHS[path](entries)
    assert str(info.value) == message


@pytest.mark.parametrize("path", PATHS)
def test_sublattice_mat_paths_keep_a_good_matrix(path):
    mat = PATHS[path]((2, -1, 3, 4))
    assert type(mat) is SublatticeMat and mat == SublatticeMat(2, -1, 3, 4)


def test_cli_import_leaves_out_dataclasses_and_the_renderer():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import json, sys; before = set(sys.modules); import toricover.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    new = set(json.loads(proc.stdout))
    assert "toricover.cli" in new
    assert not new & {"dataclasses", "toricover.render", "xml.etree.ElementTree"}


def test_render_svg_loads_on_first_use():
    from toricover import render, render_svg

    assert toricover.render_svg is render_svg is render.render_svg
    assert "render_svg" in toricover.__all__
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        toricover.no_such_name
