"""Per-layer tracing for the traced run.

Every binding of a layer's public functions is replaced by a wrapper that
records a span (name, start, end, parent).  That includes names imported
into other modules with `from .arith import factor`, since each importing
module holds its own binding.  Spans live in flat arrays and are written
out when the run ends.  A span's self time is its duration minus the
durations of its children; each layer's self time is the sum over its
functions, so the layers' self times add up to the time of the root spans,
the traced operation time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("arith", "quadfield", "classgroup", "selmer", "etacusp", "modforms", "descent", "cli")

# named parts of a layer, as the functions whose self time they own
PARTS = {
    "selmer.bruteforce": ("selmer.selmer_group_bruteforce", "selmer.member_local"),
    "selmer.partitions": ("selmer.count_even_partitions",),
    "selmer.graph": ("selmer.build_graph", "selmer.build_conjugate_graph", "selmer.verify_conjugation_isomorphism"),
    "etacusp.lattice": ("etacusp.eta_exponent_lattice",),
    "etacusp.snf": ("etacusp.lattice_order", "etacusp.invariant_factors"),
    "arith.jacobi": ("arith.jacobi",),
}

CALLS = (
    "quadfield.is_local_square",
    "quadfield.residue_symbol",
    "arith.jacobi",
    "arith.factor",
    "arith.is_prime",
    "etacusp.divisors",
    "classgroup.reduced_forms",
    "classgroup.compose",
    "modforms.sigma",
    "descent.heegner_setup",
)

# (metric, unit, better) for every per-layer metric the traced run reports
METRICS = (
    [(f"{layer}.{what}", unit, "lower") for layer in LAYERS for what, unit in (("self_s", "s"), ("share", "ratio"))]
    + [(f"{part}.{what}", unit, "lower") for part in PARTS for what, unit in (("self_s", "s"), ("share", "ratio"))]
    + [(f"{name}.calls", "count", "lower") for name in CALLS]
    + [
        ("selmer.bruteforce.candidates", "count", "lower"),
        ("selmer.partitions.subsets", "count", "lower"),
        ("selmer.partitions.even_ratio", "ratio", "higher"),
        ("etacusp.lattice.residues", "count", "lower"),
        ("etacusp.lattice.kept_ratio", "ratio", "higher"),
        ("classgroup.reduced_forms.forms", "count", "lower"),
        ("classgroup.reduced_forms.distinct_ratio", "ratio", "higher"),
        ("cli.output_bytes", "bytes", "lower"),
    ]
)


def _divisor_count(n: int) -> int:
    count, d = 0, 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.discs: set = set()
        self._restore: list = []

    # --- recording -----------------------------------------------------------

    def _wrap(self, qualname: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(qualname)
        start, end, name, parent, stack = self.start, self.end, self.name, self.parent, self.stack
        clock = time.perf_counter

        def enter() -> int:
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            return idx

        def leave(idx: int):
            end[idx] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the body's time lands on this name
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = enter()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(idx)
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observers(self):
        c = self.counts

        def bruteforce(args, result):
            c["selmer.bruteforce.candidates"] += 2 * 2 ** args[0].width

        def partitions(args, result):
            c["selmer.partitions.subsets"] += 2 ** args[0].size
            c["selmer.partitions.even"] += 2 ** (result[0] + 1)

        def lattice(args, result):
            tau = _divisor_count(args[0])
            c["etacusp.lattice.residues"] += 24 ** (tau - 1) - 1 + (tau - 1)
            c["etacusp.lattice.kept"] += len(result)

        def reduced_forms(args, result):
            c["classgroup.reduced_forms.forms"] += len(result)
            self.discs.add(args[0])

        return {
            "selmer.selmer_group_bruteforce": bruteforce,
            "selmer.count_even_partitions": partitions,
            "etacusp.eta_exponent_lattice": lattice,
            "classgroup.reduced_forms": reduced_forms,
        }

    def install(self, mods: dict):
        """Wrap every binding of every layer's public functions in mods."""
        observers = self._observers()
        wrappers = {}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    qual = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(qual, obj, observers.get(qual))
        for layer in LAYERS:
            mod = mods[layer]
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, attr, wrappers[id(obj)])
                    self._restore.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in self._restore:
            setattr(mod, attr, obj)
        self._restore.clear()

    # --- results ---------------------------------------------------------------

    def write(self, path: Path):
        """Spans as four little-endian arrays (start, end: float64; name,
        parent: int32) in one file, and the name table beside it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for arr in (self.start, self.end, self.name, self.parent):
                arr.tofile(fh)
        meta = {"spans": len(self.name), "names": self.names, "layout": ["start:f8", "end:f8", "name:i4", "parent:i4"]}
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")

    def summary(self) -> tuple[dict, float, float]:
        """(metrics, traced operation time, sum of all self times)."""
        n = len(self.name)
        start, end, name, parent = self.start, self.end, self.name, self.parent
        child = [0.0] * n
        root_time = 0.0
        for i in range(n):
            dur = end[i] - start[i]
            pi = parent[i]
            if pi >= 0:
                child[pi] += dur
            else:
                root_time += dur
        self_by_name = [0.0] * len(self.names)
        calls_by_name = [0] * len(self.names)
        for i in range(n):
            nid = name[i]
            self_by_name[nid] += end[i] - start[i] - child[i]
            calls_by_name[nid] += 1
        self_s = dict(zip(self.names, self_by_name))
        calls = dict(zip(self.names, calls_by_name))
        total_self = sum(self_by_name)

        def share(x):
            return x / root_time if root_time else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        m: dict[str, float] = {}
        for layer in LAYERS:
            s = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
            m[f"{layer}.self_s"], m[f"{layer}.share"] = s, share(s)
        for part, funcs in PARTS.items():
            s = sum(self_s.get(f, 0.0) for f in funcs)
            m[f"{part}.self_s"], m[f"{part}.share"] = s, share(s)
        for fn in CALLS:
            m[f"{fn}.calls"] = calls.get(fn, 0)
        c = self.counts
        m["selmer.bruteforce.candidates"] = c["selmer.bruteforce.candidates"]
        m["selmer.partitions.subsets"] = c["selmer.partitions.subsets"]
        m["selmer.partitions.even_ratio"] = ratio(c["selmer.partitions.even"], c["selmer.partitions.subsets"])
        m["etacusp.lattice.residues"] = c["etacusp.lattice.residues"]
        m["etacusp.lattice.kept_ratio"] = ratio(c["etacusp.lattice.kept"], c["etacusp.lattice.residues"])
        m["classgroup.reduced_forms.forms"] = c["classgroup.reduced_forms.forms"]
        m["classgroup.reduced_forms.distinct_ratio"] = ratio(len(self.discs), calls.get("classgroup.reduced_forms", 0))
        m["cli.output_bytes"] = c["cli.output_bytes"]
        return m, root_time, total_self
