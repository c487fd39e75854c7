"""Span tracer that wraps orientw's layer entry points from outside the package.

Each target below is one public call into a layer.  Installing the tracer
replaces the function in every orientw module that binds it (several
modules import the same name with ``from .x import y``) and replaces the two
monotone-cache ``query`` methods on their classes.  Every wrapped call
records a span (name, start, end, parent span, solve id) in memory; the
per-layer metrics are derived from the spans after the run.  A target that
no longer exists in the package is skipped and reports zero calls.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

PACKAGE = "orientw"

# (span name, module, attribute); "Class.method" patches the method on its class
TARGETS = (
    ("metric.closure", "metric", "metric_closure"),
    ("serialize.loads", "serialize", "loads"),
    ("oracles.deadline", "oracles", "best_deadline_walk"),
    ("oracles.orienteering", "oracles", "best_orienteering_walk"),
    ("oracles.pareto", "oracles", "pareto_profiles"),
    ("oracles.monotone", "oracles", "MonotoneOracle.query"),
    ("oracles.monotone", "oracles", "MonotoneDeadlineOracle.query"),
    ("modular.dp", "modular", "solve_time_indexed"),
    ("modular.dp", "modular", "solve_reward_indexed"),
    ("modular.dp", "modular", "solve_exact_pareto"),
    ("modular.push_label", "modular", "push_label"),
    ("modular.assemble", "modular", "assemble_walk"),
    ("decompose", "decompose", "dyadic_family"),
    ("decompose", "decompose", "three_split_floor"),
    ("decompose", "decompose", "three_split_ceil"),
    ("decompose", "decompose", "five_split"),
    ("instance.evaluate_walk", "instance", "evaluate_walk"),
    ("instance.transforms", "instance", "scale_times"),
    ("instance.transforms", "instance", "restrict"),
    ("instance.transforms", "instance", "drop_vertices"),
    ("instance.transforms", "instance", "time_reversed"),
    ("algorithms.solver.auto", "algorithms", "solve_auto"),
    ("algorithms.solver.integer-endpoints", "algorithms", "solve_integer_endpoints"),
    ("algorithms.solver.l2", "algorithms", "solve_l_le_2"),
    ("algorithms.solver.general", "algorithms", "solve_general"),
    ("algorithms.solver.free-l2", "algorithms", "solve_free_l_le_2"),
    ("algorithms.solver.free-general", "algorithms", "solve_free_general"),
    ("algorithms.solver.zero-window", "algorithms", "zero_window_dp"),
)

SOLVERS = ("auto", "integer-endpoints", "l2", "general", "free-l2", "free-general",
           "zero-window")

# spans whose self time is reported as "<name>.self_s" next to "<name>.calls"
TIMED = ("metric.closure", "serialize.loads", "oracles.deadline", "oracles.orienteering",
         "oracles.pareto", "modular.dp", "modular.push_label", "modular.assemble",
         "decompose", "instance.evaluate_walk", "instance.transforms")

# (metric, unit) in the order the traced run reports them
METRICS = (
    [("trace.overhead", "ratio"), ("trace.solve_s", "s"), ("trace.solves", "count")]
    + [(m, u) for name in TIMED for (m, u) in ((name + ".calls", "count"),
                                               (name + ".self_s", "s"))]
    + [("oracles.deadline.useful_ratio", "ratio"),
       ("oracles.monotone.queries", "count"), ("oracles.monotone.hit_ratio", "ratio"),
       ("oracles.monotone.self_s", "s"),
       ("modular.labels_pushed", "count"), ("modular.push_label.accept_ratio", "ratio"),
       ("modular.frontier_max", "count")]
    + [("algorithms.solver.%s.calls" % s, "count") for s in SOLVERS]
    + [("algorithms.versions", "count"), ("algorithms.self_s", "s")]
)

_MISS_CHILDREN = ("oracles.deadline", "oracles.orienteering")


class Tracer:
    """Spans of one traced run, kept in memory until write()."""

    def __init__(self):
        # span i: [name, start_ns, end_ns, parent index or -1, solve id]
        self.spans: List[list] = []
        self.current = -1
        self.solve_id = -1
        self.useful_deadline = 0
        self.accepted_labels = 0
        self.frontier_max = 0
        self.versions = 0
        self._patches: list = []

    # ----- installation ---------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every target while the block runs; always restore."""
        try:
            for (name, module, attr) in TARGETS:
                self._patch(name, module, attr)
            yield self
        finally:
            for (owner, attr, original) in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches = []

    def _patch(self, name: str, module: str, attr: str):
        mod = sys.modules.get("%s.%s" % (PACKAGE, module))
        if mod is None:
            return
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            original = cls.__dict__.get(meth) if cls is not None else None
            if original is None:
                return
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original))
            return
        original = getattr(mod, attr, None)
        if original is None:
            return
        wrapper = self._wrap(name, original)
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, key, original))
                    setattr(other, key, wrapper)

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        if observe is None and name.startswith("algorithms.solver.") and not name.endswith(".auto"):
            observe = _count_versions
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.current
            idx = len(spans)
            span = [name, clock(), 0, parent, tracer.solve_id]
            spans.append(span)
            tracer.current = idx
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(tracer, args, result)
                return result
            finally:
                span[2] = clock()
                tracer.current = parent

        return wrapper

    # ----- results ----------------------------------------------------------

    def metrics(self, overhead: float, solve_s: float, solves: int) -> Dict[str, float]:
        spans = self.spans
        child_ns = [0] * len(spans)
        missed = set()
        for (name, start, end, parent, _sid) in spans:
            if parent >= 0:
                child_ns[parent] += end - start
                if name in _MISS_CHILDREN and spans[parent][0] == "oracles.monotone":
                    missed.add(parent)
        calls: Dict[str, int] = {}
        self_ns: Dict[str, int] = {}
        for i, (name, start, end, _parent, _sid) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[i])

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        out: Dict[str, float] = {"trace.overhead": overhead, "trace.solve_s": solve_s,
                                 "trace.solves": solves}
        for name in TIMED:
            out[name + ".calls"] = calls.get(name, 0)
            out[name + ".self_s"] = self_ns.get(name, 0) / 1e9
        queries = calls.get("oracles.monotone", 0)
        pushed = calls.get("modular.push_label", 0)
        out.update({
            "oracles.deadline.useful_ratio": ratio(self.useful_deadline,
                                                   calls.get("oracles.deadline", 0)),
            "oracles.monotone.queries": queries,
            "oracles.monotone.hit_ratio": ratio(queries - len(missed), queries),
            "oracles.monotone.self_s": self_ns.get("oracles.monotone", 0) / 1e9,
            "modular.labels_pushed": pushed,
            "modular.push_label.accept_ratio": ratio(self.accepted_labels, pushed),
            "modular.frontier_max": self.frontier_max,
        })
        algo_ns = 0
        for solver in SOLVERS:
            name = "algorithms.solver." + solver
            out[name + ".calls"] = calls.get(name, 0)
            algo_ns += self_ns.get(name, 0)
        out["algorithms.versions"] = self.versions
        out["algorithms.self_s"] = algo_ns / 1e9
        return out

    def write(self, path: str):
        """Spans as JSON: names once, then [name, start, end, parent, solve]
        rows with times in ns from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": %s, "columns": ["name", "start_ns", "end_ns", "parent", '
                     '"solve"], "spans": [\n' % json.dumps(names))
            fh.write(",\n".join("[%d,%d,%d,%d,%d]" % (index[n], s - t0, e - t0, p, sid)
                                for (n, s, e, p, sid) in self.spans))
            fh.write("\n]}\n")


def _observe_deadline(tracer: Tracer, args, result):
    if result.feasible and result.reward > 0:
        tracer.useful_deadline += 1


def _observe_push(tracer: Tracer, args, result):
    frontier, entry = args[0], args[1]
    if any(e is entry for e in frontier):
        tracer.accepted_labels += 1
    if len(frontier) > tracer.frontier_max:
        tracer.frontier_max = len(frontier)


def _count_versions(tracer: Tracer, args, result):
    tracer.versions += len(result.version_rewards)


_OBSERVERS = {"oracles.deadline": _observe_deadline, "modular.push_label": _observe_push}
