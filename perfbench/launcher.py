"""Traced entry point: `python launcher.py <trace-prefix> <fgmod argv...>`.

Imports `fgmod.cli`, wraps the public functions of each layer module (and a
few methods that carry per-layer metrics) with span recording, then calls
`fgmod.cli.main`.  Each wrapper replaces the original in every `fgmod.*`
namespace that bound it, so `modules.smith_normal_form` is traced as well as
`linalg.smith_normal_form`.  Spans stay in memory and are written at exit:

- `<prefix>.spans`: four native arrays (name id, parent index, start, end);
- `<prefix>.json`: span names, import time, `cache_info()` of every
  `lru_cache` table in fgmod, and Smith-normal-form input statistics.

Work done by the tracer itself between spans (the SNF statistics) is taken
off the span clock, so it inflates no span.
"""

import time

_T0 = time.perf_counter()

import atexit  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from array import array  # noqa: E402

import fgmod.cli  # noqa: E402

_T_IMPORT = time.perf_counter()

from layers import SNF_ROW_LIMITS  # noqa: E402

LAYERS = ("linalg", "modules", "functors", "adic", "cohomology", "verify", "grammar")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_arr = array("i")
        self.parent_arr = array("i")
        self.start_arr = array("d")
        self.end_arr = array("d")
        self.stack = [-1]
        self.paused = 0.0
        self.snf = {
            "calls": 0,
            "split": 0,
            "cells_max": 0,
            "transform_bits_max": 0,
            "s_by_rows": [0.0] * (len(SNF_ROW_LIMITS) + 1),
        }
        self.exponent_max = 0

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, fn, name: str, after=None):
        """A wrapper recording one span per call; `after(args, result, dt)`
        runs off the span clock once the span has closed, also when the call
        was cut short (with result None)."""
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.name_arr, self.parent_arr, self.start_arr, self.end_arr, self.stack
        )
        now = self.now

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(now())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[idx] = now()
                stack.pop()
                if after is not None:  # result is None if stopped by a signal
                    p0 = time.perf_counter()
                    after(args, result, ends[idx] - starts[idx])
                    self.paused += time.perf_counter() - p0

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- per-call statistics -------------------------------------------------

    def snf_stats(self, args, result, dt):
        A = args[0]
        s = self.snf
        s["calls"] += 1
        bucket = sum(A.rows > b for b in SNF_ROW_LIMITS)
        s["s_by_rows"][bucket] += dt
        s["cells_max"] = max(s["cells_max"], A.rows * A.cols)
        if nonzero_components(A.entries, A.rows) >= 2:
            s["split"] += 1
        if result is None:
            return
        bits = 0
        for M in (result.U, result.V):
            for row in M.entries:
                for x in row:
                    if x:
                        b = abs(x).bit_length()
                        if b > bits:
                            bits = b
        s["transform_bits_max"] = max(s["transform_bits_max"], bits)

    def exponent_stats(self, args, result, dt):
        if result is None:
            return
        k = result[1] if isinstance(result, tuple) else result
        if k > self.exponent_max:
            self.exponent_max = k

    def claim_span(self, fn):
        """check_claim gets one span name per claim id."""
        wrapped = {}

        @functools.wraps(fn)
        def wrapper(claim_id, *args, **kwargs):
            w = wrapped.get(claim_id)
            if w is None:
                w = wrapped[claim_id] = self.span(fn, f"verify.claim.{claim_id}")
            return w(claim_id, *args, **kwargs)

        return wrapper

    # -- output ----------------------------------------------------------------

    def write(self, prefix: str, modules: list[types.ModuleType]):
        for idx in self.stack[1:]:  # spans a stop signal left open
            self.end_arr[idx] = self.now()
        with open(prefix + ".spans", "wb") as fh:
            for arr in (self.name_arr, self.parent_arr, self.start_arr, self.end_arr):
                arr.tofile(fh)
        caches = {}
        for mod in modules:
            for attr, val in vars(mod).items():
                info = getattr(val, "cache_info", None)
                if callable(info) and getattr(val, "__module__", None) == mod.__name__:
                    ci = info()
                    caches[f"{mod.__name__}.{attr}"] = [ci.hits, ci.misses]
        stats = {
            "names": self.names,
            "count": len(self.start_arr),
            "import_s": _T_IMPORT - _T0,
            "caches": caches,
            "snf": self.snf,
            "exponent_max": self.exponent_max,
        }
        with open(prefix + ".json", "w") as fh:
            json.dump(stats, fh)


def nonzero_components(entries, nrows: int) -> int:
    """Connected components of the bipartite row/column graph of the nonzero
    entries (union-find); rows and columns without a nonzero are ignored."""
    parent: dict[int, int] = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for i, row in enumerate(entries):
        for j, v in enumerate(row):
            if v:
                c = nrows + j
                parent.setdefault(i, i)
                parent.setdefault(c, c)
                ri, rc = find(i), find(c)
                if ri != rc:
                    parent[ri] = rc
    return sum(1 for x in parent if parent[x] == x)


def install(tracer: Tracer) -> list[types.ModuleType]:
    """Wrap every layer's public functions and rebind them everywhere."""
    pkg = [m for n, m in sorted(sys.modules.items()) if n == "fgmod" or n.startswith("fgmod.")]
    layer = {name: sys.modules[f"fgmod.{name}"] for name in LAYERS}
    after = {
        "linalg.smith_normal_form": tracer.snf_stats,
        "adic.torsion_submodule": tracer.exponent_stats,
        "adic.completion_exponent": tracer.exponent_stats,
    }
    replace: dict[int, object] = {}
    for lname, mod in layer.items():
        for attr, val in list(vars(mod).items()):
            if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                continue
            if not (isinstance(val, types.FunctionType) or hasattr(val, "cache_info")):
                continue
            if lname == "verify" and attr == "check_claim":
                replace[id(val)] = tracer.claim_span(val)
            else:
                name = f"{lname}.{attr}"
                replace[id(val)] = tracer.span(val, name, after.get(name))
    replace[id(fgmod.cli.main)] = tracer.span(fgmod.cli.main, "cli.main")
    for mod in pkg:
        for attr, val in list(vars(mod).items()):
            if id(val) in replace and not isinstance(val, type):
                setattr(mod, attr, replace[id(val)])

    linalg, modules = layer["linalg"], layer["modules"]
    methods = (
        (linalg._Solver, "solve", "linalg.solve"),
        (modules.ModuleMap, "__post_init__", "modules.map_certify"),
        (modules.Submodule, "contains", "modules.contains"),
        (modules.Submodule, "to_presentation", "modules.to_presentation"),
    )
    for cls, attr, name in methods:
        setattr(cls, attr, tracer.span(getattr(cls, attr), name))
    return pkg


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    pkg = install(tracer)
    atexit.register(tracer.write, prefix, pkg)
    # stopped at its deadline, unwind so the spans so far are still written
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return fgmod.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
