"""traced_gate.py WORKLOAD: the gate of one traced benchmark run.

Reads the result object, the last line that `perfbench/run.py --trace 1`
prints, on stdin.  Exits 0 when every condition for WORKLOAD holds, and
1 when one fails or a metric is missing, naming it.  --trace 1 runs the
span wrappers, which the untraced gates never do, so a wrapped name that
disappears or a changed result fails here.  Used by the workflow's
traced step."""

import json
import sys


def conditions(workload: str, d: dict):
    """(holds, reason) for each condition of the workload, in order."""

    def calls(name: str) -> int:
        return d["metrics"][name + ".calls"]["value"]

    yield d["correct"] is True, "the run's correctness gate holds"
    yield d["failed"] == 0, "no operation failed"
    yield calls("map_core.FlagMap") > 0, "quotient maps keep going through the FlagMap constructor"
    # Every map the benchmark builds is a quotient, so every map takes the path
    # whose reverse involution and connectivity validate_template proved.
    yield calls("map_core.build_quotient") == calls("map_core.FlagMap"), "every map is a quotient, on the proven path"
    if workload == "search":
        # The command reaching the witness loop by another name would silence this span.
        yield calls("symmetry.search_non_vt") > 0, "search_non_vt runs"
        # The witness loop reads each group off the template and the lattice.
        yield calls("symmetry.flag_extension") == 0, "the search never runs the flag engine"
    if workload == "batch":
        yield calls("map_core.is_semi_equivelar") > 0, "batch checks semi-equivelarity"
        yield calls("symmetry.is_vertex_transitive") > 0, "batch checks vertex-transitivity"
        # The cover check keeps the flag engine as its path independent of the closed form.
        yield calls("symmetry.flag_extension") > 0, "batch runs the flag engine"
        yield calls("cover.cover_maps") > 0, "batch builds the certificate of each sample"
        # cover_maps does not check its own certificate, so each cover needs one verify.
        yield calls("cover.verify_covering") == calls("cover.cover_maps"), "batch verifies each cover once"
    if workload == "large-cover":
        yield calls("cover.cover_maps") > 0, "cover builds its certificate"
        yield calls("cover.verify_covering") == calls("cover.cover_maps"), "cover verifies each cover once"
    if workload == "large-verify":
        yield calls("cover.verify_covering") > 0, "verify checks the certificate"
        yield calls("cover.certificate_from_dict") > 0, "verify parses the certificate"
        # Seed 1's T4444 and E5 certificates have M = m·I, so each of their
        # verifies builds one map for both X and Y (8 calls if it built two).
        yield calls("map_core.build_quotient") == 6, "verify builds each distinct quotient once"


def main(workload: str) -> int:
    try:
        d = json.loads(sys.stdin.read())
        for holds, reason in conditions(workload, d):
            if not holds:
                print(f"traced gate, {workload}: fails: {reason}")
                return 1
    except (ValueError, KeyError, TypeError) as exc:
        print(f"traced gate, {workload}: unreadable result: {exc!r}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
