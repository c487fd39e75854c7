"""Fixed instants through the one recipe: zero_window_dp is algorithms._compose
with a split that refuses every positive-length window, and every solver's
"Z" version is the reward-indexed DP over the fixed instants grouped by
instant (blocks_from_identical_windows).  Each must give the walks of the
zero-window DP it replaced, one one-member block per fixed instant
(conftest.ref_zero_window), and of the recipe that ran that DP for "Z"
(conftest.ref_compose), also where fixed instants are shared and edges
weigh 0, so that one block holds several vertices.  The "Z" version runs on
the exact oracle whatever oracles the solver is given.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from orientw import (ALGORITHMS, EXACT_DEADLINE, EXACT_ORACLE, GREEDY_ORACLE,
                     PreconditionError, TwInstance, layered_deadline_oracle, zero_window_dp)
import orientw.algorithms as algorithms
from orientw.generate import gen_zero_window_instance, generate_instance

from conftest import build_instance, ref_compose, ref_zero_window

MODES = ("anchored", "free", "start-only")
ORACLES = ((EXACT_ORACLE, EXACT_DEADLINE),
           (GREEDY_ORACLE, layered_deadline_oracle(GREEDY_ORACLE)))


def _shared_instants(seed: int) -> TwInstance:
    """A random instance whose fixed instants come from three times, some
    of its edges weighing 0, with positive-length windows on every third
    seed; the mode cycles with the seed, and an anchor earns nothing."""
    rng = random.Random("shared-%d" % seed)
    n = rng.randint(5, 8)
    edges = [(u, v, rng.choice((0, 0, 1, 2, F(1, 2))))
             for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
    edges += [(i, i + 1, 3) for i in range(n - 1)]  # keeps the graph connected
    at = [F(rng.randint(0, 8), rng.choice((1, 2))) for _ in range(3)]
    windows = []
    for _v in range(n):
        t = rng.choice(at)
        windows.append((t, t + 2) if seed % 3 == 0 and rng.random() < 0.3 else (t, t))
    rewards = [rng.choice((1, 2)) for _ in range(n)]
    s, t = ((0, n - 1), (None, None), (0, None))[seed % 3]
    for a in {s, t} - {None}:
        windows[a], rewards[a] = (0, 12), 0
    return build_instance(n, edges, windows, rewards, s, t, 12)


def _instances():
    for seed in range(30):
        yield gen_zero_window_instance(seed)
    for mode in MODES:
        for (lo, hi) in ((0, 0), (0, 2)):
            for seed in range(4):
                yield generate_instance("random-metric", 7 + seed % 2, seed, mode=mode,
                                        l_low=F(lo), l_high=F(hi))
    for seed in range(30):
        yield _shared_instants(seed)


def _run(solver, *args):
    try:
        return solver(*args)
    except PreconditionError as refusal:
        return str(refusal)


@pytest.mark.parametrize("oracles", ORACLES, ids=("exact", "greedy-layered"))
def test_zero_window_and_every_z_version_keep_their_walks(monkeypatch, oracles):
    shared = solved = 0
    for i, x in enumerate(_instances()):
        got, ref = _run(zero_window_dp, x), _run(ref_zero_window, x)
        if isinstance(ref, str):
            assert got == ref, i
        else:
            assert got.walk == ref.walk, i
            solved += 1
        fixed = [v for v in x.positive_vertices() if x.windows[v].length == 0]
        shared += any(x.windows[u].release == x.windows[v].release and x.metric.d[u][v] == 0
                      for u in fixed for v in fixed if u < v)
        for name, solver in sorted(ALGORITHMS.items()):
            if name == "auto":
                continue
            # the composed solvers meet a start-only instance at a zero-cost sink
            y = algorithms._with_sink(x) if x.mode == "start-only" and name != "zero-window" else x
            got = _run(solver, y, *oracles)
            with monkeypatch.context() as m:
                m.setattr(algorithms, "_compose", ref_compose)
                ref = _run(solver, y, *oracles)
            if isinstance(ref, str):
                assert got == ref, (i, name)
                continue
            case = (i, name, got.version_rewards, ref.version_rewards)
            assert (got.algorithm, got.walk) == (ref.algorithm, ref.walk), case
            if None in (r for (_label, r) in got.version_rewards):
                # a skipped version counts at ratio 1, its own at least
                assert got.bound <= ref.bound, case
                assert [l for (l, _r) in got.version_rewards] == \
                    [l for (l, _r) in ref.version_rewards], case
            else:
                assert (got.version_rewards, got.bound) == (ref.version_rewards, ref.bound), case
    assert solved and shared


def test_zero_window_without_a_rewarded_vertex_reports_no_version():
    x = generate_instance("random-metric", 6, 0, l_low=F(0), l_high=F(0))
    bare = TwInstance(x.metric, x.windows, (F(0),) * x.n, x.s, x.t, x.budget)
    rep = zero_window_dp(bare)
    assert (rep.version_rewards, rep.bound, rep.beta) == ((), 1, 1)
    assert [v for (v, _t, _c) in rep.walk.schedule] == [x.s, x.t]


def test_integer_endpoints_refuses_a_free_instance_as_every_anchored_solver_does():
    x = generate_instance("random-metric", 6, 0, mode="free")
    texts = {_run(ALGORITHMS[name], x) for name in ("integer-endpoints", "l2", "general")}
    assert texts == {"this solver needs both anchors"}
