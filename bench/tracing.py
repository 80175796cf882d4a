"""In-memory span recorder for the traced benchmark run.

`Tracer.install()` wraps the public calls of each layer of `badicdim`
(the table in README.md) and rebinds every module attribute that names
them, so a call reaches the wrapper whichever module looks it up.
`Tracer.uninstall()` puts the originals back.

A span is `[name, start, end, parent, busy, child_busy, pass_id]`.  For
a plain call `busy` is `end - start`; for a generator (`levels`,
`iter_leaf_paths`) it is the time spent inside its resumptions only,
since the consumer's code runs between them.  Self time is
`busy - child_busy`.  Bookkeeping done by the wrappers (counting the
nodes of a tree, measuring a text) runs inside a `trace.book` span, so
it is charged to no layer.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT, BUSY, CHILD, PASS = range(7)
BOOK = "trace.book"

# (module, attribute, span name, kind); kind is "call", "gen",
# "classmethod" or "method"
TARGETS = [
    ("core", "read_bdt", "core.read", "call"),
    ("core", "read_wdt", "core.read", "call"),
    ("core", "write_bdt", "core.write", "call"),
    ("core", "write_wdt", "core.write", "call"),
    ("core", "CubeTree.from_leaves", "core.build", "classmethod"),
    ("core", "CubeTree.iter_leaf_paths", "core.leaf_enum", "gen"),
    ("core", "CubeTree.levels", "core.levels", "gen"),
    ("core", "CubeTree.rebase", "core.transform", "method"),
    ("core", "CubeTree.debase", "core.transform", "method"),
    ("core", "CubeTree.subtree", "core.transform", "method"),
    ("core", "CubeTree.contains_tree", "core.transform", "method"),
    ("estimators", "star_dimension_report", "estimators.star", "call"),
    ("estimators", "lower_dimension_report", "estimators.lower", "call"),
    ("estimators", "_tree_h_star", "estimators.h_star_tree", "call"),
    ("estimators", "_windowed_h_star", "estimators.h_star_windowed",
     "call"),
    ("extract_assouad", "construct_subset_assouad",
     "extract_assouad.construct", "call"),
    ("extract_assouad", "find_dense_window",
     "extract_assouad.dense_window", "call"),
    ("extract_assouad", "prune", "extract_assouad.prune", "call"),
    ("extract_assouad", "prune_with_caps", "extract_assouad.prune", "call"),
    ("extract_assouad", "sandwich_assemble", "extract_assouad.ladder",
     "call"),
    ("extract_assouad", "construct_subset_assouad_global",
     "extract_assouad.global", "call"),
    ("extract_assouad", "check_gap_condition", "extract_assouad.gap_check",
     "call"),
    ("exactmath", "badic_power_sum_le", "exactmath.power_sum", "call"),
    ("exactmath", "iroot", "exactmath.iroot", "call"),
    ("extract_lower", "construct_subset_lower", "extract_lower.construct",
     "call"),
    ("extract_lower", "select_packing_children", "extract_lower.select",
     "call"),
    ("extract_lower", "verify_lower_bounds", "extract_lower.verify", "call"),
    ("extract_lower", "LowerParams.radius", "extract_lower.radius",
     "method"),
    ("geometry", "greedy_packing", "geometry.greedy", "call"),
    ("geometry", "exact_packing", "geometry.exact", "call"),
    ("generators", "random_branching_tree", "generators.gen", "call"),
    ("generators", "prop5_union", "generators.gen", "call"),
    ("generators", "integer_cantor", "generators.gen", "call"),
    ("generators", "full_cube", "generators.gen", "call"),
    ("generators", "digit_cantor", "generators.gen", "call"),
    ("cli", "main", "cli", "call"),
]

# Calls whose first argument is the tree (or windowed set) a layer
# works on; its leaves and distinct nodes are counted once per pass.
TREE_INPUTS = {"estimators.star", "estimators.lower",
               "extract_assouad.construct", "extract_assouad.ladder",
               "extract_assouad.global", "extract_lower.construct"}

# Per-layer metrics: name -> (unit, better, how).  `how` is
# ("self", span names) for a self time, ("count", counter) for a count.
PER_LAYER = {
    "core.read_s": ("s", "lower", ("self", ["core.read"])),
    "core.bytes_read": ("bytes", "lower", ("count", "core.bytes_read")),
    "core.build_s": ("s", "lower", ("self", ["core.build"])),
    "core.write_s": ("s", "lower", ("self", ["core.write"])),
    "core.bytes_written": ("bytes", "lower",
                           ("count", "core.bytes_written")),
    "core.leaf_enum_s": ("s", "lower", ("self", ["core.leaf_enum"])),
    "core.levels_walks": ("count", "lower", ("count", "core.levels")),
    "core.levels_s": ("s", "lower", ("self", ["core.levels"])),
    "core.transform_s": ("s", "lower", ("self", ["core.transform"])),
    "core.leaves_in": ("count", "lower", ("count", "core.leaves_in")),
    "core.nodes_in": ("count", "lower", ("count", "core.nodes_in")),
    "estimators.star_s": ("s", "lower", ("self", ["estimators.star"])),
    "estimators.lower_s": ("s", "lower", ("self", ["estimators.lower"])),
    "estimators.h_star_tree_s": ("s", "lower",
                                 ("self", ["estimators.h_star_tree"])),
    "estimators.h_star_tree_calls": ("count", "lower",
                                     ("count", "estimators.h_star_tree")),
    "estimators.report_rows": ("count", "higher",
                               ("count", "estimators.report_rows")),
    "estimators.h_star_windowed_s": (
        "s", "lower", ("self", ["estimators.h_star_windowed"])),
    "estimators.h_star_windowed_calls": (
        "count", "lower", ("count", "estimators.h_star_windowed")),
    "extract_assouad.construct_s": (
        "s", "lower", ("self", ["extract_assouad.construct"])),
    "extract_assouad.dense_window_s": (
        "s", "lower", ("self", ["extract_assouad.dense_window"])),
    "extract_assouad.prune_s": ("s", "lower",
                                ("self", ["extract_assouad.prune"])),
    "extract_assouad.ladder_s": ("s", "lower",
                                 ("self", ["extract_assouad.ladder"])),
    "extract_assouad.global_s": ("s", "lower",
                                 ("self", ["extract_assouad.global"])),
    "extract_assouad.gap_check_s": (
        "s", "lower", ("self", ["extract_assouad.gap_check"])),
    "exactmath.power_sum_s": ("s", "lower",
                              ("self", ["exactmath.power_sum"])),
    "exactmath.power_sum_calls": ("count", "lower",
                                  ("count", "exactmath.power_sum")),
    "exactmath.iroot_calls": ("count", "lower",
                              ("count", "exactmath.iroot")),
    "extract_lower.construct_s": ("s", "lower",
                                  ("self", ["extract_lower.construct"])),
    "extract_lower.select_s": ("s", "lower",
                               ("self", ["extract_lower.select"])),
    "extract_lower.select_calls": ("count", "lower",
                                   ("count", "extract_lower.select")),
    "extract_lower.centers_selected": (
        "count", "higher", ("count", "extract_lower.centers_selected")),
    "extract_lower.verify_s": ("s", "lower",
                               ("self", ["extract_lower.verify"])),
    "extract_lower.verify_rows": ("count", "higher",
                                  ("count", "extract_lower.verify_rows")),
    "extract_lower.radius_s": ("s", "lower",
                               ("self", ["extract_lower.radius"])),
    "extract_lower.radius_calls": ("count", "lower",
                                   ("count", "extract_lower.radius")),
    "geometry.greedy_s": ("s", "lower", ("self", ["geometry.greedy"])),
    "geometry.greedy_calls": ("count", "lower",
                              ("count", "geometry.greedy")),
    "geometry.exact_s": ("s", "lower", ("self", ["geometry.exact"])),
    "geometry.exact_calls": ("count", "lower", ("count", "geometry.exact")),
    "geometry.candidates": ("count", "lower",
                            ("count", "geometry.candidates")),
    "generators.gen_s": ("s", "lower", ("setup", ["generators.gen"])),
    "cli.self_s": ("s", "lower", ("self", ["cli"])),
    "trace.overhead_s": ("s", "lower", ("overhead", None)),
}


def _resolve(modules, module, attr):
    owner = modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.pass_id = 0
        self._patches = []
        self._seen_trees = {}
        self._levels = None

    # -- span bookkeeping ----------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0, 0.0,
                           self.pass_id])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        end = perf_counter()
        span = self.spans[idx]
        span[END] = end
        span[BUSY] = end - span[START]
        self.stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[BUSY]

    def exclude(self, seconds):
        """Leave `seconds` of time spent outside the program (the speed
        probe's samples) out of the current span's self time."""
        if self.stack:
            self.spans[self.stack[-1]][CHILD] += seconds

    def span(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _book(self, fn, *args):
        self.span(BOOK, fn, *args)

    def _gen(self, name, it):
        """Wrap a generator so only its own resumptions are timed."""
        self.counts[name] += 1
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        now = perf_counter()
        span = [name, now, now, parent, 0.0, 0.0, self.pass_id]
        self.spans.append(span)
        spans, stack = self.spans, self.stack

        def resumed():
            while True:
                t0 = perf_counter()
                stack.append(idx)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    t1 = perf_counter()
                    span[BUSY] += t1 - t0
                    span[END] = t1
                    if stack:
                        spans[stack[-1]][CHILD] += t1 - t0
                yield item

        return resumed()

    # -- counters --------------------------------------------------------

    def _count_tree(self, obj):
        trees = [w.tree for w in obj.windows] if hasattr(obj, "windows") \
            else [obj]
        for tree in trees:
            if id(tree) in self._seen_trees:
                continue
            self._seen_trees[id(tree)] = tree  # keep alive for the pass
            self.counts["core.leaves_in"] += tree.leaf_count
            self.counts["core.nodes_in"] += sum(
                len(layer) for layer in self._levels(tree))

    def _count_text(self, key, text):
        self.counts[key] += len(text.encode("utf-8"))

    def _count_result(self, name, result):
        if name in ("estimators.star", "estimators.lower"):
            self.counts["estimators.report_rows"] += len(result.records)
        elif name == "extract_lower.select":
            self.counts["extract_lower.centers_selected"] += len(result)
        elif name == "extract_lower.verify":
            self.counts["extract_lower.verify_rows"] += len(result.rows)
        elif name == "core.write":
            self._count_text("core.bytes_written", result)

    def _count_args(self, name, first):
        """Counters of a call's first argument (every caller passes it
        by position)."""
        if name in TREE_INPUTS:
            self._count_tree(first)
        elif name == "core.read":
            self._count_text("core.bytes_read", first)
        elif name in ("geometry.greedy", "geometry.exact"):
            self.counts["geometry.candidates"] += len(first)

    # -- installation ----------------------------------------------------

    def _wrap_call(self, name, fn):
        tracer = self
        counted_args = name in TREE_INPUTS or name in (
            "core.read", "geometry.greedy", "geometry.exact")
        counted_result = name in (
            "estimators.star", "estimators.lower", "extract_lower.select",
            "extract_lower.verify", "core.write")

        def traced(*args, **kwargs):
            tracer.counts[name] += 1
            if counted_args:
                tracer._book(tracer._count_args, name, args[0])
            result = tracer.span(name, fn, *args, **kwargs)
            if counted_result:
                tracer._book(tracer._count_result, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._gen(name, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def install(self, modules, extra_namespaces=()):
        """Wrap every target.  `modules` maps short module names to the
        imported `badicdim` modules; module-level functions are also
        rebound in every other namespace that holds them."""
        core = modules["core"]
        self._levels = core.CubeTree.levels
        namespaces = [vars(m) for m in modules.values()]
        namespaces += [vars(sys.modules["badicdim"])]
        namespaces += list(extra_namespaces)
        for module, attr, name, kind in TARGETS:
            owner, short = _resolve(modules, module, attr)
            raw = vars(owner)[short]
            if kind == "classmethod":
                wrapped = classmethod(self._wrap_call(name, raw.__func__))
            elif kind == "gen":
                wrapped = self._wrap_gen(name, raw)
            else:
                wrapped = self._wrap_call(name, raw)
            self._patches.append((owner, short, raw))
            setattr(owner, short, wrapped)
            if kind == "call":
                for ns in namespaces:
                    for key, val in list(ns.items()):
                        if val is raw:
                            self._patches.append((ns, key, raw))
                            ns[key] = wrapped

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._patches = []

    def start_pass(self, pass_id):
        self.pass_id = pass_id
        self.counts = Counter()
        self._seen_trees = {}

    # -- reporting -------------------------------------------------------

    def self_times(self, pass_id):
        out = defaultdict(float)
        for span in self.spans:
            if span[PASS] == pass_id:
                out[span[NAME]] += span[BUSY] - span[CHILD]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START],
                    "end": s[END], "parent": s[PARENT], "busy": s[BUSY],
                    "pass": s[PASS]}) + "\n")


def per_layer_metrics(tracer, setup_passes, traced_passes, overhead_s):
    """The per-layer metric values: self times are medians over the
    traced passes (generator time over the set-up runs), counts come
    from one traced pass, which repeats exactly."""
    setup_times = [tracer.self_times(p) for p in setup_passes]
    pass_times = [tracer.self_times(p) for p in traced_passes]
    metrics = {}
    for metric, (unit, _better, (how, names)) in PER_LAYER.items():
        if how == "self":
            value = statistics.median(
                sum(t.get(n, 0.0) for n in names) for t in pass_times)
        elif how == "setup":
            value = statistics.median(
                sum(t.get(n, 0.0) for n in names) for t in setup_times)
        elif how == "count":
            value = tracer.counts.get(names, 0)
        else:
            value = overhead_s
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
