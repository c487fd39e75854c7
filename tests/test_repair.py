"""The insertion repair (instance.repair_by_insertion) and its tries
(instance._insertions).

Each try is decided in integer units from per-position visit times and
latest visit times, and is never scored by evaluate_walk.  On seeded
feasible walks of every anchor mode, both grids, dense and default windows
and directed metrics, the tries must be exactly the insertions that
evaluate_walk, and its Fraction referee, finds feasible, each worth the
inserted vertex's reward, in the repair's order of preference; a repaired
walk is never worth less than its input, and no try is left in it.

solve_auto repairs every solver's walk (algorithms._keep_best) and cites
the least bound of the solvers run.  Against the finisher that kept the
best walk unrepaired (conftest.ref_solve_auto), no reward may be lower,
optimal may only turn from False to True, and a report that is not optimal
may not cite a larger bound.  The report's repair_gain is its reward less
that of the kept solver's own walk.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from orientw import (EXACT_DEADLINE, EXACT_ORACLE, GREEDY_ORACLE, evaluate_walk,
                     layered_deadline_oracle, run_algorithm, solve_auto)
from orientw.generate import FAMILIES, generate_instance
from orientw.instance import _insertions, repair_by_insertion

from conftest import line4_instance, ref_evaluate_walk, ref_solve_auto, solver_runs, window
from test_regression import CASES

DENSE = dict(horizon=F(20), l_low=F(8), l_high=F(16))


def _seeded_walks(x, rng, count):
    """count feasible walk orders of x, each grown from the bare anchors by
    random tries that evaluate_walk keeps: collected and passing visits,
    repeats included."""
    for _ in range(count):
        order = [(v, False) for v in (x.s, x.t) if v is not None]
        for _try in range(rng.randint(0, 3 * x.n)):
            lo = 0 if x.s is None else 1
            hi = len(order) - (x.t is not None)
            grown = list(order)
            grown.insert(rng.randint(lo, max(lo, hi)), (rng.randrange(x.n), rng.random() < 0.7))
            if evaluate_walk(x, grown).feasible:
                order = grown
        yield order


def _tries(x, order) -> list:
    """Every insertion of an uncovered positive-reward vertex, collected,
    between the anchors, as (vertex, position, the order tried)."""
    collected = {v for (v, c) in order if c}
    first = 0 if x.s is None else 1
    stop = len(order) + (x.t is None)
    return [(u, i, order[:i] + [(u, True)] + order[i:])
            for u in x.positive_vertices() if u not in collected
            for i in range(first, stop)]


@pytest.mark.parametrize("mode", ["anchored", "start-only", "free"])
@pytest.mark.parametrize("integral", [True, False])
def test_each_try_agrees_with_evaluate_walk(mode, integral):
    rng = random.Random("tries-%s-%s" % (mode, integral))
    tried = fitted = 0
    for seed in range(12):
        family = FAMILIES[seed % 4]
        x = generate_instance(family, 5 + seed % 6, seed, mode=mode, integral=integral,
                              **(DENSE if seed % 2 else {}))
        for order in _seeded_walks(x, rng, 4):
            base = evaluate_walk(x, order)
            assert base.feasible
            fits = list(_insertions(x, order))
            expected = []
            for (u, i, tried_order) in _tries(x, order):
                walk = evaluate_walk(x, tried_order)
                assert walk.feasible == ref_evaluate_walk(x, tried_order).feasible
                if walk.feasible:
                    assert walk.reward == base.reward + x.rewards[u]
                    expected.append((u, i))
                tried += 1
            # exactly the feasible tries, the highest reward first, then the
            # smallest id, then the earliest position
            assert fits == sorted(expected, key=lambda ui: (-x.rewards[ui[0]], ui[0], ui[1]))
            fitted += len(fits)
            repaired = repair_by_insertion(x, order)
            assert repaired.feasible and repaired.reward >= base.reward
            assert next(_insertions(x, [(v, c) for (v, _t, c) in repaired.schedule]), None) is None
            if fits:
                assert repaired.reward >= base.reward + x.rewards[fits[0][0]]
    # the seeded walks leave both kinds of try
    assert 0 < fitted < tried


def test_a_try_waits_for_the_release_and_pushes_back_the_next_visit():
    # the unit path 0-1-2-3 from 0 to 3 by 5: vertex 1 opens at 1, vertex 2
    # is open in [2, 3]; the walk 0, 2, 3 visits 2 at 2 and ends at 3
    x = line4_instance(rewards=(F(0), F(1), F(1), F(0)))
    order = [(0, False), (2, True), (3, False)]
    assert evaluate_walk(x, order).reward == 1
    # 1 fits before 2 (1 at 1, 2 at 2) but not after it (1 at 3, past its
    # deadline 2)
    assert list(_insertions(x, order)) == [(1, 1)]
    repaired = repair_by_insertion(x, order)
    assert [(v, c) for (v, _t, c) in repaired.schedule] == [(0, False), (1, True), (2, True),
                                                           (3, False)]
    assert repaired.reward == 2
    # with the budget at 3 and 1 open all along, 1 after 2 is in its window
    # (at 3), but the end then comes at 5, past the end's latest time, 3
    tight = line4_instance(budget=F(3), windows=(window(0, 3), window(0, 3), window(2, 3),
                                                 window(0, 3)),
                           rewards=(F(0), F(1), F(1), F(0)))
    assert list(_insertions(tight, [(0, False), (3, False)])) == [(1, 1), (2, 1)]
    assert list(_insertions(tight, [(0, False), (2, True), (3, False)])) == [(1, 1)]


# ----- solve_auto's one finishing step ---------------------------------------

ORACLES = ((EXACT_ORACLE, EXACT_DEADLINE),
           (GREEDY_ORACLE, layered_deadline_oracle(GREEDY_ORACLE)))
MODES = ("anchored", "free", "start-only")


def _finisher_cases(block):
    """Block 0: the instances of PINNED (test_regression) and REPORT_PIN
    (test_staircase_memo), each on its oracle pairs.  Block 1: seeded sparse
    n=20 and dense n=16 instances in every anchor mode on both oracle
    pairs."""
    if block == 0:
        for i, (family, n, mode, integral, dense, heuristic) in enumerate(CASES):
            yield (generate_instance(family, n, 100 + i, mode=mode, integral=integral,
                                     **(DENSE if dense else {})), ORACLES[heuristic])
        for n in range(6, 13):
            for shape in (DENSE, {}):
                for mode in MODES:
                    for integral in (True, False):
                        for pair in ORACLES:
                            yield (generate_instance("random-metric", n, n, mode=mode,
                                                     integral=integral, **shape), pair)
        return
    for seed in range(4):
        for mode in MODES:
            for pair in ORACLES:
                yield (generate_instance(FAMILIES[seed], 20, seed, mode=mode,
                                         integral=seed % 2 == 0), pair)
                yield (generate_instance("random-metric", 16, seed, mode=mode,
                                         integral=seed % 2 == 0, **DENSE), pair)


@pytest.mark.parametrize("block", [0, 1], ids=["pinned", "seeded"])
def test_the_repair_never_loses_to_the_unrepaired_finisher(block):
    rose = turned = 0
    for k, (x, pair) in enumerate(_finisher_cases(block)):
        rep, ref = solve_auto(x, *pair), ref_solve_auto(x, *pair)
        assert rep.walk.reward >= ref.walk.reward, k
        assert rep.optimal >= ref.optimal, k
        assert rep.optimal or rep.bound <= ref.bound, k
        rose += rep.walk.reward > ref.walk.reward
        turned += rep.optimal > ref.optimal
    # the repair moves rewards and optimal on both blocks
    assert rose and turned


def test_the_report_says_what_the_repair_added(monkeypatch):
    runs = solver_runs(monkeypatch)
    gained = 0
    for k, (x, pair) in enumerate(_finisher_cases(1)):
        runs.clear()
        rep = solve_auto(x, *pair)
        own = {r.algorithm: r for (_y, r) in runs}[rep.algorithm]
        assert type(rep.repair_gain) is F, k
        assert rep.repair_gain == rep.walk.reward - own.walk.reward >= 0, k
        # a solver run alone repairs nothing
        assert own.repair_gain == 0, k
        gained += rep.repair_gain > 0
    assert gained
    # the start-only CI smoke: the sink solve's best version walk collects
    # 4, and the repair lifts it to 11
    x = generate_instance("random-metric", 12, 3, mode="start-only", **DENSE)
    rep = solve_auto(x, *ORACLES[1])
    assert (rep.walk.reward, rep.repair_gain) == (11, 7)
    assert rep.version_rewards == (("B1", 4), ("B3", 2))
    assert run_algorithm("general", line4_instance()).repair_gain == 0
