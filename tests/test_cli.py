"""End-to-end tests of the command line interface.

Commands run in-process through main(argv); outputs are parsed back
from stdout or files and validated against the JSON schemas shipped in
schemas/.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import gc
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from referencing import Registry, Resource

from toricover import SublatticeMat, build_quotient, certificate_from_dict, cli, lattice, map_core, render, symmetry, tilings
from toricover.cover import _STAGES, CERTIFICATE_KEYS, VerifyReport
from toricover.cli import COVER_DOCUMENT_KEYS, main
from toricover.lattice import cosets

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def _registry() -> Registry:
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        res = Resource.from_contents(schema)
        resources.append((path.name, res))
        if "$id" in schema:
            resources.append((schema["$id"], res))
    return Registry().with_resources(resources)


def validate(doc: dict, schema_name: str) -> None:
    schema = load_schema(schema_name)
    jsonschema.Draft202012Validator.check_schema(schema)
    jsonschema.Draft202012Validator(schema, registry=_registry()).validate(doc)


def run_json(capsys, argv: list[str]) -> tuple[int, dict]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_info_is_schema_valid(capsys):
    code, doc = run_json(capsys, ["info", "E2"])
    assert code == 0
    validate(doc, "template")
    assert doc["code"] == "E2"
    assert doc["vertex_type"] == "3.3.4.3.4"
    assert doc["rep_count"] == len(doc["reps"]) == 4


def test_info_accepts_every_code(capsys):
    for code in ("T333333", "T4444", "T666", "T33344", "E1", "E2", "E3", "E4", "E5", "E6", "E7"):
        rc, doc = run_json(capsys, ["info", code])
        assert rc == 0 and doc["code"] == code


def test_analyze_square_grid(capsys):
    code, doc = run_json(capsys, ["analyze", "T44", "3", "0", "0", "3"])
    assert code == 0
    validate(doc, "analysis")
    s = doc["summary"]
    assert (s["vertices"], s["edges"], s["faces"]) == (9, 18, 9)
    assert doc["vertex_transitive"] is True
    assert doc["group_order"] == 72


def test_analyze_non_vt_witness(capsys):
    code, doc = run_json(capsys, ["analyze", "E2", "1", "2", "0", "6"])
    assert code == 0
    assert doc["vertex_transitive"] is False
    assert doc["vertex_orbit_count"] == 2


def test_cover_writes_valid_certificate(tmp_path, capsys):
    out = tmp_path / "cover.json"
    code = main(["cover", "E1", "1", "0", "0", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    cert = doc["certificate"]
    validate(cert, "certificate")
    validate(doc, "cover")
    assert cert["m"] == 2 and cert["n"] == 2
    assert doc["verified"]["ok"] is True
    assert doc["cover_spec"]["matrix"] == [2, 0, 0, 2]


def test_cover_then_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "cover.json"
    assert main(["cover", "T4444", "5", "3", "1", "2", "--out", str(out)]) == 0
    code, doc = run_json(capsys, ["verify", str(out)])
    assert code == 0
    assert doc["m"] == 7 and doc["n"] == 7
    assert doc["verified"]["ok"] is True


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    out = tmp_path / "cover.json"
    assert main(["cover", "E3", "2", "1", "0", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    cert = doc["certificate"]
    cert["vertex_map"][0], cert["vertex_map"][-1] = cert["vertex_map"][-1], cert["vertex_map"][0]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(cert))
    code, report = run_json(capsys, ["verify", str(bad)])
    assert code == 1
    assert report["verified"]["ok"] is False
    assert report["verified"]["failure"]


def _cover_certificate(tmp_path) -> dict:
    out = tmp_path / "cover.json"
    assert main(["cover", "T44", "1", "0", "0", "2", "--out", str(out)]) == 0
    return json.loads(out.read_text())["certificate"]


@pytest.mark.parametrize("path", [("vt_witness",), ("area", "unit"), ("polyhedral", "Z")], ids=str)
def test_verify_refuses_unknown_keys(tmp_path, capsys, path):
    # Each of these once verified with "ok": true; the schema refuses them.
    out = tmp_path / "cover.json"
    assert main(["cover", "E7", "-8", "-7", "-4", "3", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())["certificate"]
    *level, key = path
    target = cert[level[0]] if level else cert
    target[key] = True
    with pytest.raises(jsonschema.ValidationError):
        validate(cert, "certificate")
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed certificate") and repr(key) in captured.err, captured.err


def test_certificate_keys_match_the_schema():
    # The parser's key sets and the schema are two copies of one fact.
    schema = load_schema("certificate")
    levels = {"": schema, **{k: v for k, v in schema["properties"].items() if v.get("type") == "object"}}
    assert set(levels) == set(CERTIFICATE_KEYS)
    for level, node in levels.items():
        assert set(node["properties"]) == set(node["required"]) == CERTIFICATE_KEYS[level], level
        assert node["additionalProperties"] is False, level


def test_cover_document_keys_match_the_schema():
    schema = load_schema("cover")
    assert set(schema["properties"]) == set(schema["required"]) == COVER_DOCUMENT_KEYS
    assert schema["additionalProperties"] is False


def _nest(doc: dict) -> dict:
    # A bare certificate that holds a copy of itself under `certificate`.
    cert = copy.deepcopy(doc["certificate"])
    return {**cert, "certificate": copy.deepcopy(cert)}


COVER_DOCUMENT_MUTATIONS = {
    "extra key": (lambda doc: {**doc, "vt_witness": True}, "unknown key 'vt_witness'"),
    "nested certificate": (_nest, "unknown key 'M'"),
    "missing key": (lambda doc: {k: v for k, v in doc.items() if k != "verified"}, "missing key 'verified'"),
    "command": (lambda doc: {**doc, "command": "verify"}, "command must be 'cover', got 'verify'"),
    "r zero": (lambda doc: {**doc, "r": 0}, "r must be an integer of at least 1, got 0"),
    "r bool": (lambda doc: {**doc, "r": True}, "r must be an integer of at least 1, got True"),
    "r float": (lambda doc: {**doc, "r": 1.0}, "r must be an integer of at least 1, got 1.0"),
    "cover matrix": (
        lambda doc: {**doc, "cover_spec": {**doc["cover_spec"], "matrix": [52, 0, 0, 51]}},
        "cover_spec {'matrix': [52, 0, 0, 51], 'tiling': 'truncated-trihexagonal'} is not the certificate's cover",
    ),
    "cover matrix of floats": (
        lambda doc: {**doc, "cover_spec": {**doc["cover_spec"], "matrix": [52.0, 0, 0, 52]}},
        "cover_spec {'matrix': [52.0, 0, 0, 52], 'tiling': 'truncated-trihexagonal'} is not the certificate's cover",
    ),
    "cover tiling": (
        lambda doc: {**doc, "cover_spec": {**doc["cover_spec"], "tiling": "E7"}},
        "cover_spec {'matrix': [52, 0, 0, 52], 'tiling': 'E7'} is not the certificate's cover",
    ),
    "cover spec extra key": (
        lambda doc: {**doc, "cover_spec": {**doc["cover_spec"], "r": 1}},
        "is not the certificate's cover {'tiling': 'truncated-trihexagonal', 'matrix': [52, 0, 0, 52]}",
    ),
    "cover spec not an object": (lambda doc: {**doc, "cover_spec": [52, 0, 0, 52]}, "cover_spec [52, 0, 0, 52] is not"),
    "r of another cover": (
        lambda doc: {**doc, "r": 2},
        "r = 2 times M's cover exponent 52 is not the certificate's m = 52",
    ),
    "report not an object": (lambda doc: {**doc, "verified": 7}, "verified must be an object of ok"),
    "report extra key": (lambda doc: {**doc, "verified": {**doc["verified"], "n": 1}}, "verified must be"),
    "report missing key": (
        lambda doc: {**doc, "verified": {k: v for k, v in doc["verified"].items() if k != "failure"}},
        "verified must be",
    ),
    "report ok not a boolean": (lambda doc: {**doc, "verified": {**doc["verified"], "ok": 1}}, "verified must be"),
    "report failure a number": (lambda doc: {**doc, "verified": {**doc["verified"], "failure": 0}}, "verified must be"),
    "report stages not strings": (
        lambda doc: {**doc, "verified": {**doc["verified"], "checks_passed": ["shape", 2]}},
        "verified must be",
    ),
    "report stages not a list": (
        lambda doc: {**doc, "verified": {**doc["verified"], "checks_passed": "shape"}},
        "verified must be",
    ),
}


@pytest.mark.parametrize("name", list(COVER_DOCUMENT_MUTATIONS))
def test_verify_reads_a_cover_document_only_when_it_is_one(tmp_path, capsys, name):
    # The first two once verified with "ok": true.
    out = tmp_path / "cover.json"
    assert main(["cover", "E7", "-8", "-7", "-4", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    mutate, message = COVER_DOCUMENT_MUTATIONS[name]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(doc)))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed cover document: ") and message in captured.err, captured.err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("verified", 7, "verified must be an object of ok (a boolean), failure (a string or null) and "
         "checks_passed (a list of strings), got 7"),
        ("r", 5, "r = 5 times M's cover exponent 7 is not the certificate's m = 7"),
    ],
)
def test_verify_holds_a_cover_document_to_its_r_and_report(tmp_path, capsys, key, value, message):
    # Both documents once verified with "ok": true: the report was not
    # read, and r was not checked against M and m.
    out = tmp_path / "cover.json"
    assert main(["cover", "T4444", "5", "3", "1", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["r"], doc["certificate"]["m"]) == (1, 7)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, key: value}))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed cover document: {message}\n"


def test_verify_makes_its_own_report_of_a_cover_document(tmp_path, capsys):
    # A report of the schema's shape is read and not trusted: a document
    # claiming a failure verifies as what it holds.
    out = tmp_path / "cover.json"
    assert main(["cover", "T4444", "5", "3", "1", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    validate(doc, "cover")
    claimed = {"ok": False, "failure": "shape: made up", "checks_passed": ["arithmetic"]}
    out.write_text(json.dumps({**doc, "verified": claimed}))
    validate(json.loads(out.read_text()), "cover")
    code, report = run_json(capsys, ["verify", str(out)])
    assert code == 0 and report["verified"] == {"ok": True, "failure": None, "checks_passed": list(_STAGES)}


def test_verify_report_keys_match_the_schemas():
    for name in ("cover", "verify"):
        node = load_schema(name)["properties"]["verified"]
        assert tuple(node["properties"]) == tuple(node["required"]) == VerifyReport._fields, name
        assert node["additionalProperties"] is False, name


def test_verify_reads_a_cover_document_of_the_r_family(tmp_path, capsys):
    out = tmp_path / "cover.json"
    assert main(["cover", "E1", "1", "0", "0", "2", "--r", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["r"] == 2 and doc["cover_spec"]["matrix"] == [4, 0, 0, 4]
    code, report = run_json(capsys, ["verify", str(out)])
    assert code == 0 and report["m"] == 4 and report["verified"]["ok"] is True
    out.write_text(json.dumps({**doc, "cover_spec": {**doc["cover_spec"], "matrix": [2, 0, 0, 2]}}))
    assert main(["verify", str(out)]) == 2


def test_verify_rejects_false_claims(tmp_path, capsys):
    cert = _cover_certificate(tmp_path)
    assert cert["polyhedral"] == {"X": False, "Y": False}
    assert cert["area"] == {"value": 2, "factor": "1"}
    for key, value, stage in (
        ("polyhedral", {"X": True, "Y": False}, "faces"),
        ("area", {"value": 999, "factor": "pi"}, "arithmetic"),
    ):
        bad = tmp_path / f"{key}.json"
        bad.write_text(json.dumps({**cert, key: value}))
        code, report = run_json(capsys, ["verify", str(bad)])
        assert code == 1, key
        assert report["verified"]["ok"] is False
        assert report["verified"]["failure"].startswith(stage + ":")


def test_verify_rejects_non_integer_map_entries(tmp_path, capsys):
    cert = _cover_certificate(tmp_path)
    bad = tmp_path / "floats.json"
    bad.write_text(json.dumps({**cert, "vertex_map": [v + 0.4 for v in cert["vertex_map"]]}))
    assert main(["verify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed certificate")


def test_verify_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"tiling": "square"}')
    assert main(["verify", str(bad)]) == 2
    bad.write_text("not json at all")
    assert main(["verify", str(bad)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "text",
    ["5", "[]", '"x"', "null", '"a certificate"', '{"certificate": 5}', '{"certificate": []}',
     '{"certificate": "x"}', '{"certificate": null}'],
)
def test_verify_non_object_document_exits_two(tmp_path, capsys, text):
    bad = tmp_path / "cert.json"
    bad.write_text(text)
    assert main(["verify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_deeply_nested_json_exits_two(tmp_path, capsys):
    # Decoding recurses once per level of nesting; past the recursion limit
    # the file is malformed input, not an internal error.
    cert = json.dumps({**_cover_certificate(tmp_path), "vertex_map": None})
    nested_map = cert.replace('"vertex_map": null', '"vertex_map": ' + "[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    bad = tmp_path / "deep.json"
    for text in ("[" * 200_000 + "]" * 200_000, nested_map):
        bad.write_text(text)
        assert main(["verify", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed certificate") and captured.err.count("\n") == 1, captured.err


def test_verify_directory_exits_two(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_search_nonvt_output(capsys):
    code, doc = run_json(capsys, ["search-nonvt", "E2", "--det-bound", "6"])
    assert code == 0
    validate(doc, "search")
    assert doc["witness_count"] == 4
    assert [w["matrix"] for w in doc["witnesses"]] == [
        [1, 2, 0, 6],
        [1, 4, 0, 6],
        [2, 1, 0, 3],
        [2, 2, 0, 3],
    ]


def test_search_nonvt_trivial_tiling_empty(capsys):
    code, doc = run_json(capsys, ["search-nonvt", "square", "--det-bound", "8"])
    assert code == 0
    assert doc["witness_count"] == 0 and doc["witnesses"] == []


def test_batch_deterministic_and_valid(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["batch", "--samples", "7", "--seed", "11", "--out", str(a)]) == 0
    assert main(["batch", "--samples", "7", "--seed", "11", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    validate(doc, "batch")
    assert doc["all_ok"] is True
    assert doc["summary"]["total"] == 7
    assert [r["index"] for r in doc["results"]] == list(range(7))


def test_batch_different_seeds_differ(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["batch", "--samples", "5", "--seed", "1", "--out", str(a)]) == 0
    assert main(["batch", "--samples", "5", "--seed", "2", "--out", str(b)]) == 0
    ra = [r["matrix"] for r in json.loads(a.read_text())["results"]]
    rb = [r["matrix"] for r in json.loads(b.read_text())["results"]]
    assert ra != rb


def test_render_writes_svg(tmp_path):
    out = tmp_path / "snub.svg"
    assert main(["render", "E2", "2", "1", "0", "2", "--out", str(out)]) == 0
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    assert any(e.tag.endswith("polygon") for e in root.iter())


def test_render_out_dash_writes_the_svg_to_stdout(tmp_path, monkeypatch, capsys):
    # `-` means stdout, as for every other command, and names no file.
    monkeypatch.chdir(tmp_path)
    assert main(["render", "E5", "2", "1", "0", "2", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_RENDER_E5


def test_invalid_inputs_exit_two(capsys):
    assert main(["analyze", "nonagonal", "1", "0", "0", "1"]) == 2
    assert main(["analyze", "E1", "1", "0", "0", "0"]) == 2  # det 0
    assert main(["search-nonvt", "E2", "--det-bound", "-3"]) == 2
    assert main(["cover", "E1", "2", "0", "0", "99999999"]) == 2


def python_subprocess(*args: str) -> subprocess.CompletedProcess:
    """Python in a subprocess that imports this checkout's package, with a
    timeout, so a sampler that never stops fails the test instead of
    hanging the suite."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def cli_subprocess(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a subprocess (`python_subprocess`)."""
    return python_subprocess("-m", "toricover.cli", *argv)


def test_batch_rejects_empty_entry_range():
    proc = cli_subprocess("batch", "--samples", "1", "--max-entry", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "entry bound" in proc.stderr


def test_batch_rejects_negative_sample_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["batch", "--samples", "-3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_batch_over_the_sample_limit_exits_two(monkeypatch, capsys):
    # One over cli.BATCH_MAX_SAMPLES is refused before any sample is drawn.
    def forbidden(*args):
        pytest.fail("batch drew a sample over the limit")

    monkeypatch.setattr(cli, "_batch_sample", forbidden)
    n = cli.BATCH_MAX_SAMPLES + 1
    assert main(["batch", "--samples", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sample count {n} is over the limit of {cli.BATCH_MAX_SAMPLES}\n"


def test_argparse_errors_use_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "E1", "one", "0", "0", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_stdout_json_is_sorted_and_newline_terminated(capsys):
    assert main(["info", "T666"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Any JSON value: leaves with escaped and non-ASCII strings, big and
# negative ints, signed zero and extreme floats; lists, tuples and dicts
# of them, and lists of ints only, which the writer prints in one piece.
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.sampled_from([-0.0, 1e300, -1e-300, 2.0**63]),
    st.text(),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(), children, max_size=5),
        st.lists(st.integers(), min_size=1, max_size=8),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({"é\u2028\x00\"\\/": "\ud83d\ude00\t", "": [-0.0, 1e300, None, True]})
@example({"a": [[], {}, ()], "b": ((),), "c": {"d": {}}})
@example([[True, 1], [1, 2.0], [1, True], [2**64, -(2**70), 0, -1]])
@example((1,))
def test_emit_writes_what_json_dumps_writes(value):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(argparse.Namespace(out="-"), value)
    assert buf.getvalue() == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_emit_leaves_dicts_with_non_string_keys_to_json(tmp_path):
    value = {"a": [{1: [2, 3], 2.5: None, True: "t"}], "b": {None: {0: []}}}
    out = tmp_path / "doc.json"
    cli._emit(argparse.Namespace(out=str(out)), value)
    assert out.read_text() == json.dumps(value, indent=2, sort_keys=True) + "\n"


# Lists of ints below a count, with the count: what cli._Numbers wraps.
# The count is below the length (a table) or not (one repr).
NUMBERED = st.lists(st.integers(0, 40), max_size=80).flatmap(
    lambda entries: st.tuples(st.just(entries), st.integers(max(entries, default=-1) + 1, 60))
)


@settings(max_examples=200, deadline=None)
@given(NUMBERED, st.sampled_from(["", "  ", "      "]))
@example(([], 0), "")
@example(([0], 1), "  ")
@example(([2], 3), "")
@example(([1, 0], 2), "  ")
def test_numbers_write_what_json_dumps_writes(numbered, indent):
    entries, count = numbered
    want = json.dumps({"m": entries}, indent=2, sort_keys=True).replace("\n", "\n" + indent)
    assert "{\n" + indent + '  "m": ' + cli._json_text(cli._Numbers(entries, count), indent + "  ") + "\n" + indent + "}" == want


def _spy_gather(monkeypatch) -> list[int]:
    """The table lengths of the gathers cli makes from here on."""
    tables = []

    def gather(table, idx):
        tables.append(len(table))
        return map_core._gather(table, idx)

    monkeypatch.setattr(cli, "_gather", gather)
    return tables


# Every tiling at 1·I and 2·I, where X is Y and each map is as long as X's
# table, and at one non-scalar M of fold 6, where `cover` writes each map
# from a table of X's numbers: a gather per map.  T4444's and T333333's
# vertex maps at 1·I have one entry.
COVER_WRITER_CASES = [
    ([tid.code, *entries], gathers)
    for tid in tilings.TilingId
    for entries, gathers in ((["1", "0", "0", "1"], 0), (["2", "0", "0", "2"], 0), (["2", "1", "0", "3"], 3))
]


@pytest.mark.parametrize("spec, gathers", COVER_WRITER_CASES, ids=[" ".join(spec) for spec, _ in COVER_WRITER_CASES])
def test_cover_writes_what_json_dumps_writes(tmp_path, monkeypatch, capsys, spec, gathers):
    tables = _spy_gather(monkeypatch)
    out = tmp_path / "cover.json"
    assert main(["cover", *spec]) == 0
    text = capsys.readouterr().out
    assert main(["cover", *spec, "--out", str(out)]) == 0
    assert out.read_text() == text
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    cert = doc["certificate"]
    assert (cert["n"] > 1) == (gathers > 0)
    assert len(tables) == 2 * gathers
    for count, key in zip(tables, ["edge_map", "face_map", "vertex_map"] * 2):  # in sorted key order
        assert max(cert[key]) < count == len(cert[key]) // cert["n"], key


def test_cover_writes_a_refused_certificate_by_the_generic_path(tmp_path, monkeypatch):
    # An entry out of X's range fails the shape stage (exit 1); such maps
    # are not known to lie in range(count), so no table is read.
    real = cli.cover_maps

    def tampered(spec, r=1):
        y, x, cert = real(spec, r=r)
        return y, x, cert._replace(vertex_map=(x.n_vertices, *cert.vertex_map[1:]))

    monkeypatch.setattr(cli, "cover_maps", tampered)
    tables = _spy_gather(monkeypatch)
    out = tmp_path / "cover.json"
    assert main(["cover", "E2", "2", "1", "0", "3", "--out", str(out)]) == 1
    text = out.read_text()
    doc = json.loads(text)
    assert doc["verified"]["failure"].startswith("shape:")
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert tables == []


def test_verify_output_is_schema_valid(tmp_path, capsys):
    out = tmp_path / "cover.json"
    assert main(["cover", "E6", "1", "0", "0", "3", "--out", str(out)]) == 0
    code, doc = run_json(capsys, ["verify", str(out)])
    assert code == 0
    validate(doc, "verify")


def test_all_shipped_schemas_are_well_formed():
    names = {p.name for p in SCHEMA_DIR.glob("*.schema.json")}
    assert names == {
        "template.schema.json",
        "analysis.schema.json",
        "certificate.schema.json",
        "cover.schema.json",
        "verify.schema.json",
        "search.schema.json",
        "batch.schema.json",
    }
    for name in names:
        jsonschema.Draft202012Validator.check_schema(load_schema(name.removesuffix(".schema.json")))


# Default-output fingerprints, recorded from the package before the
# single-implementation refactor (the three non-polyhedral `analyze`
# outputs, which list violations, before polyhedrality was decided on
# one translation cell); any byte of drift in these commands changes a
# hash.  The `info` outputs of the other ten tilings were recorded before
# point-group generators were derived through `PointGroupElem.apply_dart`.
GOLDEN_STDOUT = [
    (["info", "E7"], "295e810a54234053ea1a8d4c4ac0f53d03b29b199c5f4b5838fdda5c7c112f57"),
    (["info", "T333333"], "5541d661b542c5747194700a276bdfb58a4fe298f88438e705970f593b9c35aa"),
    (["info", "T4444"], "02a3d27a31aa966f09f840726d1d8c8bc14aca40328138b2ca7fbd5a76ee2529"),
    (["info", "T666"], "b689d8ba8472df8830afec485edb51d3d30278cdcaa7110d95a4ca3d7e74c555"),
    (["info", "T33344"], "a9f318a2da74d245d715813c4ccaad152064ed766babdb46b00c7ed796005085"),
    (["info", "E1"], "11cd773f4daf49d8eec9b988cc0fbb97a268d83833e0d0da5469267ecfc21d3e"),
    (["info", "E2"], "5f2b46f9ce6dfb13a13b46ececa7019392975141645777b5e1dc8b48f80bf3aa"),
    (["info", "E3"], "8a4352f91568bca22dc359db0f8090d462572f92d8f759f6077ff295d7b9b636"),
    (["info", "E4"], "b3a91a034ae76d4c8e7d6a290523efcef09dd496c2d0492807a9da72c1ba2668"),
    (["info", "E5"], "99d4ff8c062ab120518ec0c1b4f76227dcd360b6b5752b58c6b84b2fc3df8553"),
    (["info", "E6"], "28412f227789dda9a8b8ee075067a0cda5aa8bc33d2f60738fa94756f59f4d8f"),
    (["analyze", "T44", "3", "0", "0", "3"], "f4270599131252aeba83e50b232289f007ad96b2799a2f2b265fe82a326f5b54"),
    (["analyze", "E2", "1", "2", "0", "6"], "0c129a536b48dc8f5069cefb5a858b17b9e1d4d7794c3dcf152e5317e6f4cacd"),
    (["analyze", "T44", "2", "0", "0", "2"], "7c07191445714f3f01cda33911682b54bb3442ab31d904171109c2a302f44233"),
    (["analyze", "E1", "1", "0", "0", "1"], "bb6ec59164ebeed8996a2ccf369c0619f4af7d6b3a862e4db3e0d754bccba7b3"),
    (["analyze", "T666", "1", "0", "0", "1"], "d11125ca5f5705ba3014c1b5732d65b72b80590f9b002315a447b56dceb9df7a"),
    (["cover", "E1", "1", "0", "0", "2"], "4f16070206e6440be2c4093da6a8ccc5bbbde36f41dad42dfaf3b43c2cda946a"),
    (["cover", "E6", "1", "0", "0", "3", "--r", "2"], "7a71fc5afae3ae75ce34e32048b859c9493bcca90de936321516b60efd01d10f"),
    (["verify", "cover.json"], "fdfacba321b38c5932fbc4c1f9085d7b513a42e19690636d5797ba51de62f37b"),
    (["search-nonvt", "E2", "--det-bound", "12"], "603b543e2700017dcea20d7a5a4f3240ea6b181b74e7cd98304cf7dd8561a83b"),
    (["batch", "--samples", "50", "--seed", "7"], "a6cba58ba19b38d819c6a4901adf98ca2b14ed873af09a0895e702e316fd1145"),
]
GOLDEN_RENDER_E5 = "9efb24309046aa620d47b99bc068ddd68df9e6efffdd920bbdf0dbb79bce147b"
# Two more drawings, of a tiling with one face class and of one with three,
# recorded before the renderer read its faces from tilings.face_classes.
GOLDEN_RENDER = [
    (["T4444", "3", "1", "-1", "2"], "5db30c5dd4c66ddd43d8b9e12a035450864879e673b12a87c8b93d22b545988f"),
    (["E6", "2", "1", "0", "2"], "c1aea589e6e7c8393fd9f5f40d9de7cf1af0d22b61a6c81727ab9da159edfa44"),
]
# `cover --out` files of two non-scalar covers large enough for face and
# edge numbering to go wrong unseen in the tiny covers above: 47,600 and
# 22,032 flags (X plus Y), recorded before faces were stored as one flat
# list of walks.
GOLDEN_COVER_OUT = [
    (["E2", "5", "-6", "9", "-4"], "ca62a9ebc7bfd89981ce07f0fb7debcbfcd7b1389784a1a704acf5af042232e9"),
    (["E7", "3", "1", "-2", "5"], "63327ce9268e91bf98d767f05bb7241bb9e888ca4485462511a8f32787b5fd73"),
    # Covers whose faces meet their least rep more than once, so a face's
    # smallest dart is a min over several of its darts: 9,520, 14,280 and
    # 19,872 flags, each Y of over map_core.MIN_COLUMN_CELLS cells, recorded
    # before faces were numbered by slot columns.
    (["T4444", "5", "-6", "9", "-4"], "fd97dd03298738dd1a1987eb05cf08a92c8bde2cfbf585a06b7c526b659452c6"),
    (["T666", "5", "-6", "9", "-4"], "de7c8d5cd18154b42d833b01ee2897acb584fb20796965730a3bc878cf96f760"),
    (["E6", "4", "1", "-3", "5"], "819251dc6449e6a8a6f913a331166e398c4cf98d4a57ad6bd8f389992312091d"),
]


def test_default_outputs_match_golden_hashes(tmp_path, monkeypatch, capsys):
    # Relative paths, because `verify` echoes the certificate path.
    monkeypatch.chdir(tmp_path)
    for argv, want in GOLDEN_STDOUT:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[:2] == ["cover", "E6"]:
            Path("cover.json").write_text(out)
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv
    assert main(["render", "E5", "2", "1", "0", "2", "--out", "e5.svg"]) == 0
    assert hashlib.sha256(Path("e5.svg").read_bytes()).hexdigest() == GOLDEN_RENDER_E5
    for spec, want in GOLDEN_RENDER:
        assert main(["render", *spec, "--out", "tiling.svg"]) == 0, spec
        assert hashlib.sha256(Path("tiling.svg").read_bytes()).hexdigest() == want, spec
    for spec, want in GOLDEN_COVER_OUT:
        m = lattice.cover_exponent(SublatticeMat(*map(int, spec[1:])))
        assert m * m >= map_core.MIN_COLUMN_CELLS, spec  # Y's edges and faces by slot columns
        assert main(["cover", *spec, "--out", "large.json"]) == 0, spec
        assert hashlib.sha256(Path("large.json").read_bytes()).hexdigest() == want, spec


# `cover T4444 3 0 0 3`: M = 3·I, so Y is X.  The hashes were recorded
# while both maps were still built, so sharing one map changes no byte.
GOLDEN_SCALAR_COVER = "2e397409b61e18b3326fce0f530054599f748e8438f5e8d2f134f416fbd95275"
GOLDEN_SCALAR_VERIFY = "b6b3c3f668ca38a51b190b5609dc84b06384c04739bfc23d90278fe5f42cc689"


def test_scalar_cover_and_its_verify_match_golden_hashes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    spec = ["T4444", "3", "0", "0", "3"]
    assert main(["cover", *spec]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_SCALAR_COVER
    assert main(["cover", *spec, "--out", "t4444.json"]) == 0
    assert hashlib.sha256(Path("t4444.json").read_bytes()).hexdigest() == GOLDEN_SCALAR_COVER
    capsys.readouterr()
    assert main(["verify", "t4444.json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_SCALAR_VERIFY


@pytest.mark.parametrize(
    "spec, builds", [(["T4444", "3", "0", "0", "3"], 1), (["E2", "2", "1", "0", "3"], 2)], ids=["scalar", "skew"]
)
def test_verify_builds_each_distinct_quotient_once(tmp_path, monkeypatch, capsys, spec, builds):
    # verify rebuilds Y and X from the certificate's matrices.  When M is
    # already m·I they are one matrix, so one map serves as both.
    path = str(tmp_path / "cert.json")
    assert main(["cover", *spec, "--out", path]) == 0
    built, pairs = [], []
    real_verify = cli.verify_covering

    def counted(s):
        built.append(s)
        return build_quotient(s)

    def spy(y, x, cert):
        pairs.append((y, x))
        return real_verify(y, x, cert)

    monkeypatch.setattr("toricover.cover.build_quotient", counted)
    monkeypatch.setattr("toricover.cli.verify_covering", spy)
    assert main(["verify", path]) == 0
    assert len(built) == builds
    ((y, x),) = pairs
    assert (y is x) == (builds == 1)


def test_batch_rejects_negative_vt_flag_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["batch", "--samples", "1", "--vt-flag-cap", "-5"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("error", [AssertionError, RuntimeError])
def test_internal_errors_exit_three(monkeypatch, capsys, error):
    def broken(*args, **kwargs):
        raise error("broken invariant")

    monkeypatch.setattr(cli, "cover_maps", broken)
    assert main(["cover", "E1", "1", "0", "0", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: broken invariant\n"


def test_failed_translation_check_exits_three(monkeypatch, capsys):
    # A quotient whose coset system is that of another lattice of the same
    # index: the orbit scan's translation check must fail, not answer.
    def mislabelled(spec):
        m = build_quotient(spec)
        m.coset_system = cosets(SublatticeMat(1, 0, 0, 4))
        return m

    monkeypatch.setattr(cli, "build_quotient", mislabelled)
    assert main(["analyze", "T4444", "2", "0", "0", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")


def test_batch_gives_up_on_an_entry_bound_with_no_small_covers():
    # Almost no matrix with entries up to 10000 has a cover under the flag
    # cap, so the sampler must stop drawing.
    proc = cli_subprocess("batch", "--samples", "3", "--seed", "1", "--max-entry", "10000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and f"{cli.BATCH_MAX_DRAWS} draws" in proc.stderr


def test_maps_over_the_flag_budget_exit_two(tmp_path):
    # E7/(1000·I) would have 36 million flags, and the cover of a
    # T4444 certificate claiming m = 5000 over 200 million: both are refused
    # before the coset system is allocated.
    cert = tmp_path / "huge.json"
    cert.write_text(json.dumps({**_cover_certificate(tmp_path), "m": 5000}))
    for argv in (("analyze", "E7", "1000", "0", "0", "1000"), ("verify", str(cert))):
        proc = cli_subprocess(*argv)
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert f"limit of {map_core.MAX_FLAGS}" in proc.stderr


@pytest.mark.parametrize("code", ["E7", "T4444"])
def test_search_nonvt_over_the_entry_limit_exits_two(code):
    # Hermite forms of index 10001 include (1, 0; 0, 10001), whose entry is
    # over the limit: refused before the smaller forms are enumerated, and
    # before the shortcut for a trivially vertex-transitive tiling.
    proc = cli_subprocess("search-nonvt", code, "--det-bound", "10001")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("code", ["E7", "T4444"])
def test_search_nonvt_over_the_det_bound_limit_exits_two(code):
    # One over symmetry.MAX_DET_BOUND is refused before any Hermite form is
    # enumerated, for a trivially vertex-transitive tiling as for E7.
    proc = cli_subprocess("search-nonvt", code, "--det-bound", str(symmetry.MAX_DET_BOUND + 1))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert f"limit of {symmetry.MAX_DET_BOUND}" in proc.stderr


def test_render_over_the_cell_budget_exits_two(tmp_path):
    # E7 at 10000·I would draw 10^8 translation cells: refused before any
    # polygon is built, and no file is written.
    out = tmp_path / "huge.svg"
    proc = cli_subprocess("render", "E7", "10000", "0", "0", "10000", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert f"limit of {render.MAX_RENDER_CELLS}" in proc.stderr
    assert not out.exists()


def test_failed_group_derivation_exits_three(monkeypatch, capsys):
    # With a wrong order the derived trihexagonal group fails its check
    # on the infinite tiling.  The template, whose generators also read
    # _order, is built before the patch.
    tilings.template(tilings.parse_tiling("E4"))
    tilings.full_point_group.cache_clear()
    monkeypatch.setattr(tilings, "_order", lambda elem: 5)
    try:
        assert main(["search-nonvt", "E4", "--det-bound", "3"]) == 3
    finally:
        tilings.full_point_group.cache_clear()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: element derived for E4")
    assert captured.err.count("\n") == 1, captured.err


# --- mutation fuzz of certificates through `verify` ---

# Polyhedral X and Y, so no two different cell maps are both coverings
# (in a map with loops or parallel edges a swap can be one).
FUZZ_SPECS = {"E2": ["E2", "2", "1", "0", "3"], "E5": ["E5", "2", "1", "0", "2"]}
MAPS = ("vertex_map", "edge_map", "face_map")
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(min_value=-3, max_value=3), max_size=2),
)


@functools.lru_cache(maxsize=None)
def fuzz_document(name: str) -> str:
    """The whole `cover` output document; its certificate is fuzzed."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "cover.json"
        assert main(["cover", *FUZZ_SPECS[name], "--out", str(out)]) == 0
        return out.read_text()


def parent_of(doc: dict, path: tuple):
    """The container that holds the last key of path."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutations(draw, document: dict):
    """(description, mutated certificate or cover document)."""
    doc = copy.deepcopy(document["certificate"])
    nested = [("area", "value"), ("area", "factor"), ("polyhedral", "X"), ("polyhedral", "Y")]
    entries = [(name, draw(st.integers(0, len(doc[name]) - 1))) for name in MAPS]
    paths = [(k,) for k in doc] + nested + [("M", i) for i in range(4)] + entries
    kind = draw(st.sampled_from(["drop", "flip", "retype", "swap", "set_int", "tiling", "extra", "wrapped", "nested"]))
    if kind == "wrapped":
        # The whole cover document with a key its schema does not list.
        key = draw(st.sampled_from(["comment", "vt_witness", "x", "", "M", "tiling"]))
        return f"wrapped with {key!r}", {**copy.deepcopy(document), key: draw(JSON_VALUES)}
    if kind == "nested":
        return "nested copy", {**doc, "certificate": copy.deepcopy(doc)}
    if kind == "swap":
        name = draw(st.sampled_from(MAPS))
        i, j = (draw(st.integers(0, len(doc[name]) - 1)) for _ in range(2))
        doc[name][i], doc[name][j] = doc[name][j], doc[name][i]
        return f"swap {name}[{i}] and [{j}]", doc
    if kind == "set_int":
        # m stays at most 40: verify builds Y = T/(m·I) before any check,
        # and a certificate-size budget is not enforced yet.
        path, values = draw(st.sampled_from([
            (("m",), st.integers(-2, 40)),
            (("n",), st.integers(-50, 50)),
            *[(("M", i), st.integers(-12, 12)) for i in range(4)],
            *[((name, i), st.integers(-3, len(doc[name]) + 3)) for name, i in entries],
        ]))
        value = draw(values)
    elif kind == "tiling":
        path, value = ("tiling",), draw(st.sampled_from(["E1", "E2", "E5", "E7", "T4444", "square", "3.3.4.3.4", "E9", ""]))
    elif kind == "extra":
        # A key the schema does not list, at any level of the certificate.
        level = draw(st.sampled_from([(), ("area",), ("polyhedral",)]))
        key = draw(st.sampled_from(["comment", "vt_witness", "x", "", "M "]).filter(lambda k: k not in parent_of(doc, (*level, k))))
        path, value = (*level, key), draw(JSON_VALUES)
    else:
        path = draw(st.sampled_from(paths))
        if kind == "drop":
            del parent_of(doc, path)[path[-1]]
            return f"drop {path}", doc
        old = parent_of(doc, path)[path[-1]]
        if kind == "flip":
            if not isinstance(old, (bool, int)):
                return f"flip {path} (not a boolean or integer: unchanged)", doc
            value = (not old) if isinstance(old, bool) else -old
        else:
            value = draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)))
    parent_of(doc, path)[path[-1]] = value
    return f"{kind} {path} = {value!r}", doc


def same_meaning(doc: dict, original: dict) -> bool:
    """Does doc parse to the original certificate, up to a matrix M that
    spans the same lattice?"""
    try:
        cert = certificate_from_dict(doc)
    except ValueError:
        return False
    want = certificate_from_dict(original)
    k = want.base_mat
    same_lattice = cert.base_mat.index() == k.index() and all(map(k.contains, cert.base_mat.rows))
    return same_lattice and cert._replace(base_mat=k) == want


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_verify_survives_certificate_mutations(tmp_path, data):
    name = data.draw(st.sampled_from(sorted(FUZZ_SPECS)))
    document = json.loads(fuzz_document(name))
    original = document["certificate"]
    what, doc = data.draw(mutations(document))
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])  # any other exception is a traceback
    if what.startswith("extra "):
        assert code == 2 and "unknown key" in err.getvalue(), (what, code, err.getvalue())
    elif what.startswith(("wrapped ", "nested ")):
        assert code == 2 and "malformed cover document: unknown key" in err.getvalue(), (what, code, err.getvalue())
    elif json.dumps(doc, sort_keys=True) == json.dumps(original, sort_keys=True):
        assert code == 0, what
    elif code == 0:
        assert same_meaning(doc, original), what
    else:
        assert code in (1, 2), (what, code, err.getvalue())


# --- one exit-code contract over every command ---

# Integer arguments are drawn from edge values only: mid-range ones do
# legitimate long work (`batch --samples 9999` takes about a minute).
EDGE_INTEGERS = ("0", "1", "-1", "2", "3", str(10**30), str(-(10**30)), "0x10", "1_000", "٣", "", "abc")
TILING_NAMES = ("E1", "E7", "T4444", "T666", "3.3.4.3.4", "E8", "nonagonal", "", "٣")


def edge_integers(limit: int, mid_range: tuple[str, ...] = ()) -> st.SearchStrategy[str]:
    """An edge value, or one over the option's limit; `mid_range` names
    edge values that this option turns into long work."""
    return st.sampled_from([v for v in (*EDGE_INTEGERS, str(limit + 1)) if v not in mid_range])


def cli_files(tmp_path: Path) -> dict[str, str]:
    """Inputs for `verify`: an honest certificate, a tampered one, a
    missing file, a directory and a file that is not JSON."""
    files = {name: str(tmp_path / name) for name in ("cert.json", "tampered.json", "missing.json", "text.json")}
    files["dir"] = str(tmp_path)
    if not Path(files["cert.json"]).exists():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["cover", "E1", "1", "0", "0", "2", "--out", files["cert.json"]]) == 0
        cert = json.loads(Path(files["cert.json"]).read_text())["certificate"]
        cert["vertex_map"][0], cert["vertex_map"][-1] = cert["vertex_map"][-1], cert["vertex_map"][0]
        Path(files["tampered.json"]).write_text(json.dumps(cert))
        Path(files["text.json"]).write_text("not json {")
    return files


COMMANDS = ("info", "analyze", "cover", "verify", "search-nonvt", "batch", "render")


@st.composite
def cli_argvs(draw, command: str, files: dict[str, str], out: str) -> list[str]:
    argv = [command]
    if command not in ("verify", "batch"):
        argv.append(draw(st.sampled_from(TILING_NAMES)))
    if command in ("analyze", "cover", "render"):
        argv += [draw(edge_integers(lattice.MAX_ENTRY)) for _ in range(4)]
    options = {
        "cover": {"--r": edge_integers(lattice.MAX_ENTRY)},
        "search-nonvt": {"--det-bound": edge_integers(symmetry.MAX_DET_BOUND)},
        "batch": {
            "--samples": edge_integers(cli.BATCH_MAX_SAMPLES, mid_range=("1_000",)),
            "--seed": edge_integers(0),
            "--max-entry": edge_integers(lattice.MAX_ENTRY, mid_range=("1_000",)),
        },
    }.get(command, {})
    if command == "verify":
        argv.append(draw(st.sampled_from(sorted(files.values()))))
    for option, values in options.items():
        if draw(st.booleans()):  # a required option left out is an argparse error
            argv += [option, draw(values)]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(["-", out, files["dir"]]))]
    return argv


class Expired(BaseException):
    """Raised by `alarm`.  Not an Exception, so no handler in the CLI
    (which turns OSError, TimeoutError included, into exit 2) catches it."""


@contextlib.contextmanager
def alarm(seconds: int):
    def expire(signum, frame):
        raise Expired(f"the call took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_command_exits_zero_one_or_two_without_a_traceback(tmp_path, monkeypatch, command, data):
    monkeypatch.chdir(tmp_path)  # a command that wrote a relative path would write here
    files = cli_files(tmp_path)
    argv = data.draw(cli_argvs(command, files, str(tmp_path / "out.json")), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with alarm(30), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)  # any other exception is a traceback
        except SystemExit as exc:  # argparse
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


# --- one parser per process ---


def _warm_argvs(tmp_path: Path) -> dict[str, list[str]]:
    """One small call of each command, and an input error (exit 2)."""
    files = cli_files(tmp_path)
    return {
        "info": ["info", "E1"],
        "analyze": ["analyze", "E2", "2", "1", "0", "3"],
        "cover": ["cover", "E2", "2", "1", "0", "3", "--out", str(tmp_path / "cover.json")],
        "verify": ["verify", files["cert.json"]],
        "search-nonvt": ["search-nonvt", "E1", "--det-bound", "6"],
        "batch": ["batch", "--samples", "3", "--seed", "7"],
        "render": ["render", "E2", "2", "1", "0", "3", "--out", str(tmp_path / "out.svg")],
        "input error": ["analyze", "nonagonal", "1", "0", "0", "1"],
    }


def _quiet_main(argv: list[str]) -> tuple[int | str | None, str, str]:
    """main(argv) with stdout and stderr captured: (exit code, out, err),
    an argparse exit read from its SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", [*COMMANDS, "input error"])
def test_a_warm_main_call_leaves_no_cyclic_garbage(tmp_path, name):
    # Garbage in reference cycles waits for the cyclic collector, and each
    # collection it forces walks every young container the call still
    # holds, such as a large certificate's tables.  A rebuilt argparse
    # tree was about 350 such objects per call; a map or report with a
    # back-reference would be some more.
    argv = _warm_argvs(tmp_path)[name]
    expected = 2 if name == "input error" else 0
    assert _quiet_main(argv)[0] == expected  # the warm-up: the parser, templates and caches
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = _quiet_main(argv)[0]
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert code == expected
    assert found == 0, kinds.most_common()


def test_main_builds_its_parser_on_the_first_call_only():
    # Importing the CLI builds no parser; the first call builds the root
    # and its 7 subparsers; later calls, argparse errors included, none.
    script = """
import argparse, contextlib, io
built = 0
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from toricover.cli import main
counts = [built]
for argv in (["info", "E1"], ["info", "E2"], ["analyze", "E1", "x", "0", "0", "1"], ["info", "X9"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass
    counts.append(built)
print(counts)
"""
    proc = python_subprocess("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 8, 8, 8, 8]\n"


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> tuple[object, str]:
    """The namespace of argv as a dict, or the exit code of argparse's
    exit, with what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv)), err.getvalue()
        except SystemExit as exc:
            return exc.code, err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_the_reused_parser_parses_as_a_fresh_one(tmp_path, command, data):
    # The examples run one after another on the one parser main keeps.
    files = cli_files(tmp_path)
    argv = data.draw(cli_argvs(command, files, str(tmp_path / "out.json")), label="argv")
    assert _parse(cli._parser(), argv) == _parse(cli.build_parser(), argv)


def test_an_option_does_not_carry_over_to_the_next_call(capsys):
    argv = ["cover", "E1", "1", "0", "0", "2"]
    doc = run_json(capsys, [*argv, "--r", "2"])[1]
    assert (doc["r"], doc["certificate"]["m"]) == (2, 4)
    code, doc = run_json(capsys, argv)
    assert (code, doc["r"], doc["certificate"]["m"]) == (0, 1, 2)


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["cover", "--help"], ["batch", "--help"]])
def test_version_and_help_text_match_a_fresh_parser(argv):
    fresh = io.StringIO()
    with contextlib.redirect_stdout(fresh), pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 0
    for _ in range(2):  # the reused parser, before and after a call that used it
        assert _quiet_main(argv) == (0, fresh.getvalue(), "")
    if argv == ["--version"]:
        assert fresh.getvalue() == f"toricover {cli.__version__}\n"
