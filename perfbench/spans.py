"""Spans around toricover's public functions, installed from outside.

`Tracer.install` replaces each traced function at every module attribute
that holds it (so `toricover.cover.build_quotient` and
`toricover.symmetry.build_quotient` are both wrapped) and wraps
`FlagMap.__init__` on the class.  Each call appends one span to an
in-memory list: name, parent span, workload item, start and end in
perf_counter nanoseconds, the flag count it worked on, and whether it
succeeded.  Nothing is written until the run ends.  `uninstall` puts the
original objects back.
"""

from __future__ import annotations

import json
import sys
import time

# (span name, module, attribute) of every traced function.  `flags_of`
# and `ok_of` read the work size and the outcome of one call from its
# arguments and result.
TARGETS = (
    ("tilings.template", "tilings", "template", None, None),
    ("lattice.cosets", "lattice", "cosets", None, None),
    ("map_core.build_quotient", "map_core", "build_quotient", lambda a, r: r.n_flags, None),
    ("map_core.is_polyhedral", "map_core", "is_polyhedral", lambda a, r: a[0].n_flags, lambda a, r: bool(r.ok)),
    ("map_core.is_semi_equivelar", "map_core", "is_semi_equivelar", lambda a, r: a[0].n_flags, lambda a, r: r is not None),
    ("symmetry.flag_extension", "symmetry", "flag_extension", None, lambda a, r: r is not None),
    ("symmetry.is_vertex_transitive", "symmetry", "is_vertex_transitive", lambda a, r: a[0].n_flags, None),
    ("symmetry.orbit_report", "symmetry", "orbit_report", lambda a, r: a[0].n_flags, None),
    ("symmetry.search_non_vt", "symmetry", "search_non_vt", None, None),
    ("cover.cover_maps", "cover", "cover_maps", None, None),
    ("cover.verify_covering", "cover", "verify_covering", lambda a, r: a[0].n_flags, lambda a, r: r.ok),
    ("cover.certificate_from_dict", "cover", "certificate_from_dict", None, None),
    ("cli", "cli", "main", None, lambda a, r: r == 0),
)
FLAGMAP = "map_core.FlagMap"
SPAN_NAMES = tuple(t[0] for t in TARGETS) + (FLAGMAP,)


class Tracer:
    def __init__(self) -> None:
        # One tuple per finished span:
        # (name, parent_id, item, start_ns, end_ns, flags, ok).
        self.spans: list[tuple | None] = []
        self.item = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, flags_of, ok_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, self.item, start, end, None, None)
            if flags_of or ok_of:
                flags = flags_of(args, result) if flags_of else None
                ok = ok_of(args, result) if ok_of else None
                spans[sid] = (name, parent, self.item, start, end, flags, ok)
            return result

        return traced

    def install(self, package: str = "toricover") -> None:
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for name, modname, attr, flags_of, ok_of in TARGETS:
            orig = getattr(sys.modules[f"{package}.{modname}"], attr)
            wrapper = self._wrap(name, orig, flags_of, ok_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        flagmap = sys.modules[f"{package}.map_core"].FlagMap
        init = flagmap.__init__
        self._undo.append((flagmap, "__init__", init))
        flagmap.__init__ = self._wrap(FLAGMAP, init, lambda a, r: a[0].n_flags, None)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def aggregate(self, first: int, last: int) -> dict[str, dict]:
        """Per span name: calls, successes, flags and self time (ns) of
        spans first..last-1.  Self time is a span's duration minus the
        durations of its direct children."""
        child_ns: dict[int, int] = {}
        for sid in range(first, last):
            name, parent, _, start, end, _, _ = self.spans[sid]
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        out: dict[str, dict] = {}
        for sid in range(first, last):
            name, _, _, start, end, flags, ok = self.spans[sid]
            row = out.setdefault(name, {"calls": 0, "successes": 0, "flags": 0, "self_ns": 0})
            row["calls"] += 1
            row["successes"] += bool(ok)
            row["flags"] += flags or 0
            row["self_ns"] += end - start - child_ns.get(sid, 0)
        return out

    def write(self, path) -> None:
        keys = ("name", "parent", "item", "start_ns", "end_ns", "flags", "ok")
        with open(path, "w") as fh:
            for sid in range(len(self.spans)):
                fh.write(json.dumps({"id": sid, **dict(zip(keys, self.spans[sid]))}) + "\n")
