"""Layer tracing from outside the program.

Tracer.install() replaces lunenn's public functions with timing wrappers,
in every lunenn module that bound them by name (``from .predicates import
orientation_sign`` makes a second binding), and uninstall() puts the
originals back.  The program itself is not changed.

Layer boundaries (SampleSet, hull, lune angles, Delaunay build, Sibson
weights, file I/O, cli.main) record spans: name, start, end, parent and
the operation they serve, kept in memory and written out once at the end.
The leaf predicates and circumcircle run millions of times, so they only
add to a count and an accumulated time.  A span's self time is its
duration minus its child spans and the leaf calls made directly under it.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer name, kind).  "span" records a span; "leaf" only
# counts and times; the extra counters are filled from the call's result.
_TARGETS = (
    ("lunenn.predicates", "orientation_sign", "predicates.orientation", "leaf"),
    ("lunenn.predicates", "incircle_sign_unchecked", "predicates.incircle", "leaf"),
    ("lunenn.predicates", "_orientation_exact", "predicates.orientation.exact", "leaf"),
    ("lunenn.predicates", "_incircle_exact", "predicates.incircle.exact", "leaf"),
    ("lunenn.geometry", "circumcircle", "geometry.circumcircle", "leaf"),
    ("lunenn.hull", "convex_hull", "hull.convex_hull", "span"),
    ("lunenn.hull", "turning_angles", "hull.turning_angles", "span"),
    ("lunenn.interpolate", "classify_query", "interpolate.classify_query", "span"),
    ("lunenn.interpolate", "lune_angles", "interpolate.lune_angles", "span"),
    ("lunenn.interpolate", "weights_from_angles", "interpolate.weights_from_angles", "span"),
    ("lunenn.interpolate", "interpolate", "interpolate.interpolate", "span"),
    ("lunenn.delaunay", "build_delaunay", "delaunay.build", "span"),
    ("lunenn.delaunay", "sibson_interpolate", "delaunay.sibson_interpolate", "span"),
    ("lunenn.fileio", "load_samples_csv", "fileio.load_samples_csv", "span"),
    ("lunenn.fileio", "evaluate_grid", "fileio.evaluate_grid", "span"),
    ("lunenn.fileio", "write_pgm", "fileio.write_pgm", "span"),
    ("lunenn.cli", "main", "cli.main", "span"),
)

# Methods, patched on the class so that every caller sees them.
_METHODS = (
    ("lunenn.interpolate", "SampleSet", "__init__", "interpolate.sampleset"),
    ("lunenn.delaunay", "Triangulation", "sibson_weights", "delaunay.sibson_weights"),
)

#: Extra counts taken from arguments or results, per layer.
_EXTRA = {
    "hull.convex_hull": lambda args, result: (("hull.convex_hull.points", len(args[0])),),
    "interpolate.lune_angles": lambda args, result: (("interpolate.neighbours", len(result.entries)),),
    "delaunay.build": lambda args, result: (("delaunay.triangles", len(result.triangles)),),
    "delaunay.sibson_weights": lambda args, result: (("delaunay.neighbours", len(result.entries)),),
}


class Tracer:
    """Counts, self times and spans, split by phase ("setup" or "query")."""

    def __init__(self):
        self.phase = "setup"
        self.operation = 0
        self.spans = []
        self.calls = defaultdict(int)
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [span index, time spent in children]
        self._leaf_depth = 0
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        extra = _EXTRA.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.operation, self.phase])
            frame = [index, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                span = self.spans[index]
                span[1], span[2] = start, end
                duration = end - start
                key = (self.phase, name)
                self.calls[key] += 1
                self.self_time[key] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
            if extra is not None:
                for counter, amount in extra(args, result):
                    self.counts[(self.phase, counter)] += amount
            return result

        return traced

    def _leaf(self, name, fn):
        def traced(*args):
            self._leaf_depth += 1
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - start
                self._leaf_depth -= 1
                key = (self.phase, name)
                self.calls[key] += 1
                self.time[key] += duration
                if self._leaf_depth == 0 and self._stack:
                    self._stack[-1][1] += duration

        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target in every loaded lunenn module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "lunenn" or n.startswith("lunenn.")]
        for module_name, attr, name, kind in _TARGETS:
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._span(name, original) if kind == "span" else self._leaf(name, original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, original))
                        setattr(module, binding, wrapper)
        for module_name, cls_name, attr, name in _METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._span(name, original))

    def uninstall(self):
        for owner, binding, original in reversed(self._patches):
            setattr(owner, binding, original)
        self._patches = []

    # -- results ----------------------------------------------------------

    def layer_totals(self, phase):
        """Totals of one phase: leaf calls and times, span self times and
        the extra counters, keyed by metric name."""
        out = {}
        for (p, name), n in self.calls.items():
            if p == phase:
                out[name + ".calls"] = n
        for (p, name), t in self.time.items():
            if p == phase:
                out[name + "_s"] = t
        for (p, name), t in self.self_time.items():
            if p == phase:
                out[name + "_s"] = t
        for (p, name), n in self.counts.items():
            if p == phase:
                out[name] = n
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "operation", "phase"],
                    "spans": self.spans,
                },
                handle,
            )
