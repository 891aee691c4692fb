"""Outside-in tracing of solves: spans around calls into the program's layers.

The tracer replaces public functions, by name, in the namespaces the solve
path looks them up in, and restores them afterwards; nothing under src/ is
edited. A hook whose attribute no longer exists, or whose row counter no
longer fits the call, is reported as absent instead of failing the run.
Spans are kept in flat in-memory arrays and aggregated (or written out)
after the run. A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager


def _vertices_rows(args, kwargs, result):
    P = args[0] if args else kwargs.get("P")
    points = getattr(P, "points", None)
    rows_in = len(points) if points is not None else 2 ** int(P.dim)
    return rows_in, len(result)


def _convex_rows(args, kwargs, result):
    V = args[1] if len(args) > 1 else kwargs.get("V")
    return len(V), 0


# (module, attribute, span name, row counter)
HOOKS = (
    ("solver", "eig_decompose", "linalg.eig_decompose", None),
    ("solver", "reduce_affine", "solver.reduce_affine", None),
    ("solver", "classify", "qpcore.classify", None),
    ("solver", "build_spectral_data", "bounds.build_spectral_data", None),
    ("solver", "vertices", "geometry.vertices", _vertices_rows),
    ("solver", "SteppedObjective", "qpcore.SteppedObjective", None),
    ("solver", "maximize_convex_vertices", "qpcore.maximize_convex_vertices", _convex_rows),
    ("solver", "maximize_concave_qp", "qpcore.maximize_concave_qp", None),
    ("solver", "k_diag", "bounds.k_diag", None),
    ("bounds", "gram_inverse", "linalg.gram_inverse", None),
    ("bounds", "mu", "geometry.mu", None),
    ("geometry", "vertices", "geometry.vertices", _vertices_rows),
)
PACKAGE = "reachmax"
ROOT = "solver.solve"
SPANS = (ROOT,) + tuple(dict.fromkeys(h[2] for h in HOOKS))


class Tracer:
    """Records spans for calls made while `installed()` is active."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPANS)}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.rows_in = array("q")
        self.rows_out = array("q")
        self._stack = [-1]
        self.absent: list[str] = []

    def wrap(self, fn, span: str, counter=None):
        nid = self.ids[span]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.rows_in.append(0)
            self.rows_out.append(0)
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None and f"rows:{span}" not in self.absent:
                try:
                    self.rows_in[idx], self.rows_out[idx] = counter(args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    # the call signature changed: stop counting rows, keep timing
                    self.absent.append(f"rows:{span}")
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every present hook for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, span, counter in HOOKS:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
                fn = getattr(mod, attr, None)
                if fn is None:
                    if f"{mod_name}.{attr}" not in self.absent:
                        self.absent.append(f"{mod_name}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(fn, span, counter))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
        """Per span name over spans lo..hi: calls, total and self seconds, rows."""
        hi = len(self) if hi is None else hi
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0, "rows_in": 0, "rows_out": 0, "max_rows_out": 0}
               for name in SPANS}
        for i in range(lo, hi):
            a = out[SPANS[self.name[i]]]
            dur = self.end[i] - self.start[i]
            a["calls"] += 1
            a["total"] += dur
            a["self"] += dur - child[i - lo]
            a["rows_in"] += self.rows_in[i]
            a["rows_out"] += self.rows_out[i]
            a["max_rows_out"] = max(a["max_rows_out"], self.rows_out[i])
        return out

    def write(self, path, lo: int, hi: int) -> None:
        """One JSON line per solve in spans lo..hi, numbered in order: [name, parent offset, start us, duration us]."""
        roots = [i for i in range(lo, hi) if self.parent[i] == -1]
        roots.append(hi)
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": list(SPANS)}) + "\n")
            for j, (r, nxt) in enumerate(zip(roots, roots[1:])):
                t0 = self.start[r]
                rows = [
                    [self.name[i], self.parent[i] - r if self.parent[i] >= 0 else -1,
                     round((self.start[i] - t0) * 1e6, 1), round((self.end[i] - self.start[i]) * 1e6, 1)]
                    for i in range(r, nxt)
                ]
                fh.write(json.dumps({"solve": j, "spans": rows}) + "\n")
