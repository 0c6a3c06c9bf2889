#!/usr/bin/env python3
"""toricover benchmark: drives `toricover.cli.main` in this process.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record      # rewrite perfbench/reference.json

With `--trace 0` the workload runs untraced for `--seconds` seconds and
the end-to-end metrics are printed; with `--trace 1` a fixed slice of
the workload runs untraced and under `spans.Tracer` in turn, twice each,
and the per-layer metrics are printed.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
sys.path.insert(0, str(BENCH))

from spans import SPAN_NAMES, Tracer  # noqa: E402

SETUP_REPEATS = 15
BATCH_MAX_ENTRY = 12
BATCH_CHUNK = 11  # samples per `batch` call: one per tiling
BATCH_POOL = 240  # recorded `batch` seeds
BATCH_STRATA = 4  # chunks per round, one from each cost stratum
SEARCH_TILINGS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7")
SEARCH_DET_BOUND = 12
# Large certificates: tiling, flags per translation cell, scalar M or
# not, and the range of the cover exponent m (Y has cell_flags * m^2
# flags).  The ranges are narrow so that seeds do comparable work, and
# E7 is always the biggest map so that peak memory has one source.
LARGE = (
    ("T4444", 8, True, (48, 56)),
    ("E2", 40, False, (32, 38)),
    ("E5", 48, True, (36, 40)),
    ("E7", 72, False, (52, 52)),
)
STAGES = ["arithmetic", "shape", "fibers", "adjacency", "faces", "local-isomorphism"]
TRACE_PASSES = 2
# A call's reference seconds are its wall seconds times CAL_REF_S over
# the calibration kernel's time measured around it; 2.5 ms is about the
# kernel's time on an idle 2-core host.
CAL_REF_S = 0.0025


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    units: float  # work done by the op, in the workload's throughput unit
    key: object  # what the correctness check looks up


def invoke(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cover_exponent(a: int, b: int, c: int, d: int) -> int:
    det = abs(a * d - b * c)
    return det // math.gcd(det, a, b, c, d)


# --- workloads ---------------------------------------------------------


def batch_op(c: int) -> Op:
    argv = ("batch", "--samples", str(BATCH_CHUNK), "--seed", str(c), "--max-entry", str(BATCH_MAX_ENTRY))
    return Op(argv, BATCH_CHUNK, c)


class Batch:
    """`batch --samples 11 --seed c --max-entry 12` over recorded seeds c.

    The recorded seeds are split into cost strata by their flag totals,
    and every round takes one seed from each stratum, so runs with
    different seeds do comparable work."""

    unit = "samples"

    def __init__(self, seed: int, ref: dict):
        chunks = sorted(ref["batch"]["chunks"], key=lambda c: (c["flags"], c["seed"]))
        self.ref = {c["seed"]: c["sha256"] for c in chunks}
        rng = random.Random(f"batch:{seed}")
        size = len(chunks) // BATCH_STRATA
        self.strata = []
        for s in range(BATCH_STRATA):
            stratum = [c["seed"] for c in chunks[s * size : (s + 1) * size]]
            rng.shuffle(stratum)
            self.strata.append(stratum)

    def rounds(self):
        r = 0
        while True:
            yield [batch_op(stratum[r % len(stratum)]) for stratum in self.strata]
            r += 1

    def trace_rounds(self):
        gen = self.rounds()
        return [next(gen), next(gen)]

    def check(self, op: Op, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        if sha256(out) != self.ref[op.key]:
            return "stdout differs from the recorded reference"
        if json.loads(out)["all_ok"] is not True:
            return "all_ok is not true"
        return None


def hnf_count(bound: int) -> int:
    """Hermite forms of index <= bound: the sum of divisor sums."""
    return sum(d for n in range(1, bound + 1) for d in range(1, n + 1) if n % d == 0)


class Search:
    """`search-nonvt T --det-bound 12` for T in E1..E7, in a seeded order."""

    unit = "quotients"

    def __init__(self, seed: int, ref: dict):
        self.ref = ref["search"]["witnesses"]
        order = list(SEARCH_TILINGS)
        random.Random(f"search:{seed}").shuffle(order)
        units = hnf_count(SEARCH_DET_BOUND)
        self.ops = [Op(("search-nonvt", t, "--det-bound", str(SEARCH_DET_BOUND)), units, t) for t in order]

    def rounds(self):
        while True:
            yield self.ops

    def trace_rounds(self):
        return [self.ops]

    def check(self, op: Op, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        doc = json.loads(out)
        if doc["witness_count"] < 1:
            return "no witness"
        if doc["witnesses"] != self.ref[op.key]:
            return "witness list differs from the recorded reference"
        return None


@dataclass(frozen=True)
class LargeItem:
    tiling: str
    mat: tuple[int, int, int, int]
    exponent: int
    flags: int  # flags of X plus flags of Y
    path: Path


def large_items(seed: int) -> list[LargeItem]:
    rng = random.Random(f"large:{seed}")
    items = []
    for k, (tiling, cell_flags, scalar, (lo, hi)) in enumerate(LARGE):
        if scalar:
            m = rng.randint(lo, hi)
            mat = (m, 0, 0, m)
        else:
            while True:
                mat = tuple(rng.randint(-BATCH_MAX_ENTRY, BATCH_MAX_ENTRY) for _ in range(4))
                det = mat[0] * mat[3] - mat[1] * mat[2]
                if det and mat[1:3] != (0, 0) and lo <= cover_exponent(*mat) <= hi:
                    break
        m = cover_exponent(*mat)
        det = abs(mat[0] * mat[3] - mat[1] * mat[2])
        path = OUT / f"large-{seed}-{k}-{tiling}.json"
        items.append(LargeItem(tiling, mat, m, cell_flags * (det + m * m), path))
    return items


def check_verified(item: LargeItem, doc: dict) -> str | None:
    """The six verify stages passed and n * |det M| = m^2."""
    cert = doc.get("certificate", doc)
    a, b, c, d = cert["M"]
    if tuple(cert["M"]) != item.mat or cert["m"] != item.exponent:
        return f"certificate is for M={cert['M']}, m={cert['m']}"
    if cert["n"] * abs(a * d - b * c) != cert["m"] ** 2:
        return "n * |det M| != m^2"
    verified = doc["verified"]
    if verified["ok"] is not True or verified["checks_passed"] != STAGES:
        return f"verification stopped: {verified['failure']}"
    return None


class LargeCover:
    """`cover T a b c d --out FILE` for one large certificate per tiling."""

    unit = "flags"  # of X plus Y

    def __init__(self, seed: int, ref: dict):
        self.items = large_items(seed)
        self.round_trip: dict[int, str | None] = {}

    def argv(self, it: LargeItem) -> tuple[str, ...]:
        return ("cover", it.tiling, *map(str, it.mat), "--out", str(it.path))

    def rounds(self):
        while True:
            yield self.trace_rounds()[0]

    def trace_rounds(self):
        return [[Op(self.argv(it), it.flags, k) for k, it in enumerate(self.items)]]

    def check(self, op: Op, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        if op.key not in self.round_trip:
            self.round_trip[op.key] = self._read_back(self.items[op.key])
        return self.round_trip[op.key]

    def _read_back(self, item: LargeItem) -> str | None:
        """Check the written certificate, then `verify` it."""
        with open(item.path) as fh:
            problem = check_verified(item, json.load(fh))
        if problem:
            return problem
        rc, out = invoke(load_cli(), ("verify", str(item.path)))
        return f"verify exit {rc}" if rc != 0 else check_verified(item, json.loads(out))


class LargeVerify(LargeCover):
    """`verify FILE` of the certificates `cover --out FILE` wrote.  The
    certificates are made by child processes during set-up, so this
    process's peak memory is that of `verify` alone."""

    def prepare(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for it in self.items:
            try:
                subprocess.run([sys.executable, "-m", "toricover.cli", *super().argv(it)], env=env, cwd=ROOT,
                               stdout=subprocess.DEVNULL, timeout=120, check=False)
            except subprocess.TimeoutExpired:
                print(f"set-up: cover {it.tiling} {it.mat} timed out", file=sys.stderr)

    def argv(self, it: LargeItem) -> tuple[str, ...]:
        return ("verify", str(it.path))

    def check(self, op: Op, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        return check_verified(self.items[op.key], json.loads(out))


WORKLOADS = {"batch": Batch, "search": Search, "large-cover": LargeCover, "large-verify": LargeVerify}


# --- running -------------------------------------------------------------


def load_cli():
    return sys.modules["toricover.cli"]


def _kernel(n: int = 8192) -> int:
    """Fixed pure-Python work shaped like the package's inner loops:
    list indexing, union-find, dict writes."""
    perm = [(i * 1103515245 + 12345) % n for i in range(n)]
    parent = list(range(n))
    last = {}
    for x in range(n):
        a, b = x, perm[x]
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[a] = b
        last[b & 255] = a
    return len(last)


def kernel_seconds() -> float:
    """Median wall seconds of three kernel runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_seconds(wall: float, kernel_before: float) -> float:
    """Scale wall seconds by CAL_REF_S over the kernel time measured
    just before and just after.  This cancels the swings in machine
    speed that a shared host shows over seconds."""
    return wall * CAL_REF_S * 2 / (kernel_before + kernel_seconds())


def cold_setup() -> tuple[float, float]:
    """Wall and reference seconds to import the package and build all
    11 templates, with every toricover module dropped from the import
    cache first."""
    for name in [n for n in sys.modules if n == "toricover" or n.startswith("toricover.")]:
        del sys.modules[name]
    before = kernel_seconds()
    start = time.perf_counter()
    importlib.import_module("toricover.cli")
    sys.modules["toricover.tilings"].all_templates()
    wall = time.perf_counter() - start
    return wall, reference_seconds(wall, before)


def run_rounds(rounds, seconds: float, records: list, tracer: Tracer | None = None) -> list[tuple[float, float, float]]:
    """Run rounds of ops until `seconds` have passed; returns the work
    units, wall seconds and reference seconds of each round.
    Every op is appended to `records` as (op, rc, stdout, traceback);
    an exception fails that op only."""
    cli = load_cli()
    rounds_done = []
    start = time.perf_counter()
    for ops in rounds:
        wall = ref = 0.0
        for op in ops:
            if tracer:
                tracer.item = len(records)
            before = kernel_seconds()
            t0 = time.perf_counter()
            try:
                rc, out = invoke(cli, op.argv)
                err = None
            except Exception:
                rc, out, err = None, "", traceback.format_exc()
            dt = time.perf_counter() - t0
            wall += dt
            ref += reference_seconds(dt, before)
            records.append((op, rc, out, err))
        rounds_done.append((sum(op.units for op in ops), wall, ref))
        if time.perf_counter() - start >= seconds:
            break
    return rounds_done


def gate(workload, records: list) -> int:
    """Check every op's output outside the timed region; returns the
    number of failed ops and reports each failure on stderr."""
    failed = 0
    for op, rc, out, err in records:
        if err is None:
            try:
                err = workload.check(op, rc, out)
            except Exception:
                err = traceback.format_exc()
        if err:
            failed += 1
            print(f"failed: {' '.join(op.argv)}: {err}", file=sys.stderr)
    return failed


def layer_metrics(rows: dict, overhead: float, fail_share: float) -> dict:
    def row(name):
        return rows.get(name, {"calls": 0, "successes": 0, "flags": 0, "self_ns": 0})

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in SPAN_NAMES:
        r = row(name)
        out[f"{name}.calls"] = (r["calls"], "count")
        out[f"{name}.self_s"] = (r["self_ns"] / TRACE_PASSES / 1e9, "s")
    for name in ("map_core.build_quotient", "map_core.FlagMap", "map_core.is_polyhedral", "cover.verify_covering"):
        r = row(name)
        out[f"{name}.ns_per_flag"] = (ratio(r["self_ns"], r["flags"]), "ns")
    out["map_core.FlagMap.flags"] = (row("map_core.FlagMap")["flags"], "count")
    r = row("map_core.is_polyhedral")
    out["map_core.is_polyhedral.ok_share"] = (ratio(r["successes"], r["calls"]), "share")
    r = row("symmetry.flag_extension")
    out["symmetry.flag_extension.successes"] = (r["successes"], "count")
    out["symmetry.flag_extension.success_ratio"] = (ratio(r["successes"], r["calls"]), "share")
    out["trace.overhead_share"] = (overhead, "share")
    out["run.fail_share"] = (fail_share, "share")
    return out


def traced_run(workload, records: list, trace_path: Path) -> tuple[dict, float, list[dict]]:
    """Untraced and traced passes, alternating, TRACE_PASSES of each,
    over the same fixed ops.  Returns the per-layer rows (calls and
    flags of one pass, self times summed over the traced passes), the
    traced over the untraced reference seconds, and each traced pass's
    work counts: {span name: [calls, successes, flags]}."""
    rounds = workload.trace_rounds()
    template = sys.modules["toricover.tilings"].template
    tracer = Tracer()
    bounds, ref_s = [0], {False: 0.0, True: 0.0}
    for traced in [False, True] * TRACE_PASSES:
        template.cache_clear()
        if traced:
            tracer.install()
        try:
            done = run_rounds(rounds, math.inf, records, tracer if traced else None)
        finally:
            tracer.uninstall()
        ref_s[traced] += sum(ref for _, _, ref in done)
        if traced:
            bounds.append(len(tracer.spans))
    passes = [tracer.aggregate(a, b) for a, b in zip(bounds, bounds[1:])]
    counts = [{n: [r["calls"], r["successes"], r["flags"]] for n, r in sorted(p.items())} for p in passes]
    rows = {n: dict(r) for n, r in passes[0].items()}
    for n in rows:
        rows[n]["self_ns"] = sum(p[n]["self_ns"] for p in passes if n in p)
    tracer.write(trace_path)
    return rows, ref_s[True] / ref_s[False], counts


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "toricover").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "seed": args.seed,
        "command": [Path(sys.executable).name, *sys.argv],
    }


def record() -> None:
    """Write the reference outputs the correctness gate compares with.
    Run this only at a commit whose output is known to be right."""
    cli = load_cli()
    chunks = []
    for c in range(BATCH_POOL):
        rc, out = invoke(cli, batch_op(c).argv)
        doc = json.loads(out)
        if rc != 0 or doc["all_ok"] is not True:
            raise SystemExit(f"batch seed {c} failed; not recording")
        flags = sum(s["flags_X"] + s["flags_Y"] for s in doc["results"])
        chunks.append({"seed": c, "sha256": sha256(out), "flags": flags})
    witnesses = {}
    for t in SEARCH_TILINGS:
        rc, out = invoke(cli, ("search-nonvt", t, "--det-bound", str(SEARCH_DET_BOUND)))
        witnesses[t] = json.loads(out)["witnesses"]
    ref = {
        "python": sys.version.split()[0],
        "source_sha256": source_sha256(),
        "batch": {"max_entry": BATCH_MAX_ENTRY, "samples": BATCH_CHUNK, "chunks": chunks},
        "search": {"det_bound": SEARCH_DET_BOUND, "witnesses": witnesses},
    }
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json and exit")
    args = parser.parse_args()
    if not args.record and not args.workload:
        parser.error("--workload is required")

    if not (SRC / "toricover" / "cli.py").is_file():
        print(f"error: no toricover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setups = [cold_setup() for _ in range(SETUP_REPEATS)]
    if not Path(load_cli().__file__).resolve().is_relative_to(SRC):
        print("error: toricover was not imported from this checkout", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, json.loads(REFERENCE.read_text()))
    records: list = []
    try:
        if hasattr(workload, "prepare"):
            workload.prepare()
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            rows, overhead, counts = traced_run(workload, records, trace_path)
        else:
            done = run_rounds(workload.rounds(), args.seconds, records)
            units, wall, ref = (sum(col) for col in zip(*done))
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = gate(workload, records)
    finally:
        for it in getattr(workload, "items", ()):
            it.path.unlink(missing_ok=True)

    attempted = len(records)
    correct = failed == 0
    if args.trace:
        metrics = layer_metrics(rows, overhead, failed / attempted)
        if any(c != counts[0] for c in counts):
            correct = False
            print("failed: traced passes made different calls", file=sys.stderr)
    else:
        metrics = {
            "setup_s": (statistics.median(r for _, r in setups), "s"),
            "throughput": (units / ref, "1/s"),
            "peak_rss_mib": (peak_mib, "MiB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report = {
        "workload": args.workload,
        "throughput_unit": f"{workload.unit} per reference second",
        "environment": environment(args),
        "accounting": {"attempted": attempted, "failed": failed, "fail_share": failed / attempted},
        "metrics": metrics,
    }
    if args.trace:
        report["work_counts"] = counts[0]
    else:
        report["wall_clock"] = {
            "setup_s": statistics.median(w for w, _ in setups),
            "throughput": units / wall,
            "rounds": len(done),
        }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    print("report " + json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
