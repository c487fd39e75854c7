"""Closed-loop benchmark of orientw.solve_auto on seeded instance sets.

    python3 perfbench/run.py --workload dense-exact --seed 1 --seconds 30 --trace 0

One caller loads the workload's instance set from its JSON texts LOADS
times, then solves the set in order, one solve after another, cycling over
the set, until --seconds seconds have passed since the first load and at
least one pass is done.  The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run instead makes one untraced
and one traced pass over the set and reports the per-layer metrics from
the traced pass, together with the tracing overhead (traced over untraced
solve time).

Times are in reference seconds (see Meter): every load and every solve is
timed on the wall clock and scaled by how fast the interpreter ran a fixed
piece of reference work just around it.

Exit status: 0 when every output check passes, 1 when one fails (the
result line then says correct: false), 2 when the program or its inputs
cannot be used (no source tree, or generated inputs that differ from the
recorded digests); no result line is printed then.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

sys.path.insert(0, HERE)
from workloads import WORKLOADS, Workload, gate, instance_texts  # noqa: E402
from tracer import METRICS as LAYER_METRICS, Tracer  # noqa: E402

END_TO_END = (("solves_per_s", "1/s"), ("solve_p50_s", "s"), ("solve_p90_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("reward_total", "reward"),
              ("solved_share", "ratio"))
LOADS = 3  # set-up loads of the whole set; setup_s is their median

# About the time reference_work() takes on a quiet 2-vCPU Intel Xeon virtual
# machine, so that reference seconds are close to wall seconds there.
REFERENCE_S = 0.001
# A timed operation is scaled by the median of the WINDOW reference runs
# before it and the WINDOW after it.
WINDOW = 5


def reference_work():
    """A fixed piece of pure-Python work shaped like the solver's inner
    loops: Fraction arithmetic, tuple-keyed dict updates and a sort."""
    best = {}
    for i in range(1, 300):
        key = (i % 13, i % 5)
        t = Fraction(i, 4) + Fraction(key[0], 3)
        if key not in best or t < best[key]:
            best[key] = t
    return sorted(best.items())


class Meter:
    """Times operations in reference seconds.

    The speed of a shared virtual machine swings by up to 2.4x within tens
    of seconds, because other machines' work runs on the same cores.  So before every
    timed operation the meter runs reference_work() (with the garbage
    collector off, so the program's heap does not slow it), and
    an operation's wall time is scaled by REFERENCE_S over the median
    reference time around it.  The program's own code never runs inside
    the reference work, so a change to the program moves the scaled times
    as much as the wall times."""

    def __init__(self):
        self.reference = []  # seconds of each reference run
        self.raw = []  # wall seconds of each operation
        self._before = []  # index of the reference run just before each operation

    def _reference(self):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_work()
        self.reference.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()

    def run(self, fn, *args):
        """fn(*args), timed; returns (operation index, result)."""
        self._reference()
        t0 = time.perf_counter()
        result = fn(*args)
        self.raw.append(time.perf_counter() - t0)
        self._before.append(len(self.reference) - 1)
        return len(self.raw) - 1, result

    def scaled(self):
        """Every operation's time in reference seconds; call once, at the end."""
        self._reference()
        out = []
        for raw, c in zip(self.raw, self._before):
            around = self.reference[max(0, c + 1 - WINDOW): c + 1 + WINDOW]
            out.append(raw * REFERENCE_S / statistics.median(around))
        return out


def import_program():
    """Import orientw from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "orientw", "__init__.py")):
        raise ImportError("no orientw source tree under %s" % SRC)
    sys.path.insert(0, SRC)
    import orientw
    if not os.path.abspath(orientw.__file__).startswith(SRC + os.sep):
        raise ImportError("orientw imported from %s, not from %s" % (orientw.__file__, SRC))
    return orientw


def solver_kwargs(orientw, w: Workload) -> dict:
    if not w.greedy:
        return {}
    oracle = orientw.GREEDY_ORACLE
    return {"oracle": oracle, "deadline_oracle": orientw.layered_deadline_oracle(oracle)}


def _solve(algorithms, x, kwargs):
    try:
        return algorithms.solve_auto(x, **kwargs)
    except Exception:  # a failed solve is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return None


def measure(orientw, texts, kwargs, seconds: float, loads: int, tracer=None):
    """Load the set from its JSON texts `loads` times, then solve it in
    order, cycling, until at least one pass is done and `seconds` have
    passed since the first load.

    Returns (instances, records, set-up samples, wall seconds of the solves).
    A record is (instance index, latency in reference seconds, report or
    None when the solve raised); a set-up sample is one load of the whole
    set, in reference seconds."""
    algorithms, serialize = orientw.algorithms, orientw.serialize
    meter = Meter()
    start = time.perf_counter()
    load_ops = []
    for _ in range(loads):
        ops, instances = [], []
        for text in texts:
            op, x = meter.run(serialize.loads, text)
            ops.append(op)
            instances.append(x)
        load_ops.append(ops)
    solves = []
    while True:
        k = len(solves) % len(texts)
        if tracer is not None:
            tracer.solve_id = len(solves)
        op, report = meter.run(_solve, algorithms, instances[k], kwargs)
        solves.append((k, op, report))
        if len(solves) >= len(texts) and time.perf_counter() - start >= seconds:
            break
    scaled = meter.scaled()
    setup = [sum(scaled[op] for op in ops) for ops in load_ops]
    records = [(k, scaled[op], report) for (k, op, report) in solves]
    wall = sum(meter.raw[op] for (_k, op, _r) in solves)
    return instances, records, setup, wall


def check_outputs(orientw, w: Workload, instances, records):
    """Problems found in the solve results; runs outside any timed region.

    Every walk must re-evaluate on the loaded instance as feasible and to
    the reported reward, every bound must be at least 1, every repeat of an
    instance must return the reward of its first solve, and on referee
    workloads reward * bound must reach the brute-force optimum."""
    problems = []
    first = {}
    for (k, _lat, rep) in records:
        if rep is None:
            continue
        x = instances[k]
        order = [(v, c) for (v, _t, c) in rep.walk.schedule]
        sol = orientw.evaluate_walk(x, order)
        if not sol.feasible:
            problems.append("instance %d: walk infeasible (%s)" % (k, sol.reason))
        elif sol.reward != rep.walk.reward:
            problems.append("instance %d: walk re-evaluates to %s, reported %s"
                            % (k, sol.reward, rep.walk.reward))
        if rep.bound < 1:
            problems.append("instance %d: bound %s below 1" % (k, rep.bound))
        if first.setdefault(k, rep.walk.reward) != rep.walk.reward:
            problems.append("instance %d: reward %s differs from its first solve's %s"
                            % (k, rep.walk.reward, first[k]))
    if w.referee:
        for k in sorted(first):
            opt = orientw.brute_force_opt(instances[k]).reward
            bound = next(r.bound for (kk, _l, r) in records if kk == k and r is not None)
            if first[k] * bound < opt:
                problems.append("instance %d: reward %s * bound %s below optimum %s"
                                % (k, first[k], bound, opt))
    return problems, first


def end_to_end(records, setup, first) -> dict:
    """End-to-end metrics.  An instance's latency is the median of its
    solves in the run; throughput and percentiles are over those
    per-instance latencies."""
    samples = {}
    for (k, lat, rep) in records:
        if rep is not None:
            samples.setdefault(k, []).append(lat)
    lat = sorted(statistics.median(v) for v in samples.values())
    solved = sum(1 for r in records if r[2] is not None)
    return {
        "solves_per_s": len(lat) / sum(lat),
        "solve_p50_s": statistics.median(lat),
        "solve_p90_s": statistics.quantiles(lat, n=10)[8],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reward_total": float(sum(first.values())),
        "solved_share": solved / len(records),
    }


def run(args) -> int:
    try:
        orientw = import_program()
    except ImportError as exc:
        print("perfbench: cannot import the program: %s" % exc, file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    texts = instance_texts(w, args.seed)
    mismatch = gate(w, args.seed, texts)
    if mismatch is not None:
        print("perfbench: input gate failed: %s" % mismatch, file=sys.stderr)
        return 2
    kwargs = solver_kwargs(orientw, w)

    if not args.trace:
        instances, records, setup, wall = measure(orientw, texts, kwargs, args.seconds, LOADS)
        problems, first = check_outputs(orientw, w, instances, records)
        values = end_to_end(records, setup, first)
        units = END_TO_END
        print("perfbench: %s seed %d: %d solves (%.2f wall s, %.2f reference s), "
              "%.2f passes over %d instances; latency percentiles over the %d "
              "per-instance medians"
              % (w.name, args.seed, len(records), wall, sum(r[1] for r in records),
                 len(records) / len(texts), len(texts), len(first)))
    else:
        instances, plain, _, _ = measure(orientw, texts, kwargs, 0, 1)
        tracer = Tracer()
        with tracer.installed():
            traced_instances, records, _, solve_s = measure(orientw, texts, kwargs, 0, 1, tracer)
        problems, _first = check_outputs(orientw, w, instances, plain)
        more, _ = check_outputs(orientw, w, traced_instances, records)
        problems += more
        overhead = sum(r[1] for r in records) / sum(r[1] for r in plain)
        values = tracer.metrics(overhead, solve_s, len(records))
        units = LAYER_METRICS
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (w.name, args.seed))
        tracer.write(spans_path)
        print("perfbench: %s seed %d: traced %d solves, %d spans in %s; overhead %.2fx"
              % (w.name, args.seed, len(records), len(tracer.spans),
                 os.path.relpath(spans_path, ROOT), overhead))

    for p in problems:
        print("perfbench: check failed: %s" % p, file=sys.stderr)
    failed = sum(1 for r in records if r[2] is None)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for (name, unit) in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
