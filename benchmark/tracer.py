"""Outside-in tracer: spans around polysym's public functions, taken from the benchmark.

``Tracer.install`` replaces every public function of the seven layer
modules with a wrapper, at every place polysym binds the name (the
defining module and each ``from .x import y`` site), and wraps the
constructor and public methods of each public class in place.  Each call
records a span (name, layer, start, end, parent, job) in memory; counts
are derived from arguments and return values only.  ``uninstall`` puts
every original back.

``reduce_spans`` turns the spans and counts of one pass into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from math import comb, factorial
from time import perf_counter

import numpy as np

LAYERS = ("geometry", "izmestiev", "colorings", "autgroup", "reconstruct", "oracle", "cli")

# Per-element helpers left unwrapped: ``compose`` costs about as much as a
# wrapper and runs |G|^2 times inside group verification (147 456 calls on
# the 4-cube, 1.3M on the 24-cell), so a span per call would double the
# time it measures and hold millions of spans.  Its time counts as self time of its caller.
UNWRAPPED = {("autgroup", "compose")}

# Per-layer metric names and units: counts are exact and repeat for a seed,
# times vary from run to run.
COUNT_METRICS = {
    "geometry.hyperplane_calls": "count", "geometry.subsets_scanned": "count",
    "geometry.relvol_calls": "count", "geometry.dual_volume_calls": "count",
    "izmestiev.fd_volume_calls_per_entry": "ratio", "autgroup.elements": "count",
    "reconstruct.maps_lifted": "count", "oracle.candidates": "count",
    "oracle.accept_ratio": "ratio", "cli.stdout_bytes": "bytes",
}
TIME_METRICS = {
    "geometry.self_s": "s", "izmestiev.self_s": "s", "izmestiev.fd_s": "s",
    "autgroup.self_s": "s", "autgroup.verify_s": "s", "autgroup.us_per_element": "us",
    "colorings.self_s": "s", "colorings.orbit_s": "s", "reconstruct.self_s": "s",
    "oracle.self_s": "s", "cli.self_s": "s",
}
ERROR_METRICS = tuple(f"{layer}.errors" for layer in LAYERS)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _count_hyperplane_subsets(counts, args, kwargs, result):
    m, d = np.shape(_arg(args, kwargs, 0, "points"))
    if d > 1:
        counts["subsets_scanned"] += comb(m, d)


def _count_dual_volume(counts, args, kwargs, result):
    poly = _arg(args, kwargs, 0, "poly")
    counts["subsets_scanned"] += comb(poly.n, poly.dim)


def _count_fd(counts, args, kwargs, result):
    n = _arg(args, kwargs, 0, "poly").n
    counts["fd_entries"] += n * (n + 1) // 2


def _count_brute_force(counts, args, kwargs, result):
    cands = _arg(args, kwargs, 1, "candidates")
    n = np.shape(_arg(args, kwargs, 0, "phi"))[1]
    counts["candidates"] += factorial(n) if cands is None else len(cands)
    counts["accepted"] += result.order


COUNTERS = {
    "supporting_hyperplanes": _count_hyperplane_subsets,
    "volume_generalized_dual": _count_dual_volume,
    "izmestiev_matrix_fd": _count_fd,
    "automorphisms": lambda c, a, k, r: c.update(elements=r.order),
    "brute_force_group": _count_brute_force,
}


class Tracer:
    """Span recorder for one worker process; spans are lists [name, layer, t0, t1, parent, job]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, layer, 0.0, 0.0, parent, self.job]
            spans.append(span)
            stack.append(idx)
            ok = False
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span[3] = perf_counter()
                stack.pop()
                if not ok and (parent < 0 or spans[parent][1] != layer):
                    self.errors[layer] += 1
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and class of the layer modules."""
        modules = {layer: sys.modules[f"polysym.{layer}"] for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (layer, attr) not in UNWRAPPED:
                    replaced[id(obj)] = (obj, self._wrap(obj, attr, layer))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        for mod in [m for k, m in sys.modules.items() if k == "polysym" or k.startswith("polysym.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    setattr(mod, attr, replaced[id(obj)][1])
                    self._undo.append((mod, attr, obj))

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr == "__init__" or (not attr.startswith("_") and inspect.isfunction(obj)):
                name = cls.__name__ if attr == "__init__" else f"{cls.__name__}.{attr}"
                setattr(cls, attr, self._wrap(obj, name, layer))
                self._undo.append((cls, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()


def reduce_spans(spans, counts, stdout_bytes: int) -> dict:
    """Per-layer metrics of one pass from its spans and argument-derived counts."""
    counts = Counter(counts)
    child = [0.0] * len(spans)
    for name, layer, t0, t1, parent, job in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s = Counter()
    total = Counter()
    calls = Counter(span[0] for span in spans)
    fd_volume_calls = 0
    for idx, (name, layer, t0, t1, parent, job) in enumerate(spans):
        self_s[layer] += (t1 - t0) - child[idx]
        total[name] += t1 - t0
        if name == "volume_generalized_dual":
            p = parent
            while p >= 0 and spans[p][0] != "izmestiev_matrix_fd":
                p = spans[p][4]
            fd_volume_calls += p >= 0
    elements = counts["elements"]
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({
        "geometry.hyperplane_calls": calls["supporting_hyperplanes"],
        "geometry.subsets_scanned": counts["subsets_scanned"],
        "geometry.relvol_calls": calls["relative_volume"],
        "geometry.dual_volume_calls": calls["volume_generalized_dual"],
        "izmestiev.fd_s": total["izmestiev_matrix_fd"],
        # base: n(n+1)/2 distinct entries of each finite-difference matrix
        "izmestiev.fd_volume_calls_per_entry":
            fd_volume_calls / counts["fd_entries"] if counts["fd_entries"] else 0.0,
        "autgroup.verify_s": total["PermutationSet"],
        "autgroup.elements": elements,
        "autgroup.us_per_element": 1e6 * total["automorphisms"] / elements if elements else 0.0,
        "colorings.orbit_s": total["orbit_coloring"],
        "reconstruct.maps_lifted": calls["linear_map_from_perm"],
        "oracle.candidates": counts["candidates"],
        # base: candidate permutations tested by brute_force_group
        "oracle.accept_ratio":
            counts["accepted"] / counts["candidates"] if counts["candidates"] else 0.0,
        "cli.stdout_bytes": stdout_bytes,
    })
    return out
