"""brute_force_opt, the subset DP for the exact optimum, and the checks it
referees past the branch and bound's sizes.

ref_brute_force (tests/conftest.py), a branch and bound over visit orders,
is the independent referee at n <= 8: both must find the same reward, and
brute_force_opt's walk must re-score to it.  They need not return the same
walk: per (claimed set, last claim) the DP keeps the earliest arrival, so a
smaller optimal order that reaches some state later is dropped there.  From
n = 12 to 17 the DP's optimum checks every solver's guarantee, solve_auto's
optimal flag, the reachability bound and time reversal.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from orientw import (ALGORITHMS, EXACT_DEADLINE, EXACT_ORACLE, PreconditionError, TimeWindow,
                     brute_force_opt, evaluate_walk, run_algorithm, solve_auto, time_reversed)
import orientw.algorithms as algorithms
from orientw.generate import FAMILIES, generate_instance
from orientw.instance import ANCHORED

from conftest import build_instance, ref_brute_force

DENSE = dict(horizon=F(20), l_low=F(8), l_high=F(16))
MODES = ("anchored", "start-only", "free")
EXACT = (EXACT_ORACLE, EXACT_DEADLINE)


def _agrees(x):
    """brute_force_opt(x), checked against the branch and bound."""
    sol = brute_force_opt(x)
    assert sol.feasible
    assert sol.reward == ref_brute_force(x).reward
    assert evaluate_walk(x, [(v, c) for (v, _t, c) in sol.schedule]) == sol
    return sol


@pytest.mark.parametrize("dense", (False, True), ids=("default", "dense"))
@pytest.mark.parametrize("integral", (False, True), ids=("quarter", "integral"))
@pytest.mark.parametrize("mode", MODES)
def test_brute_force_matches_the_branch_and_bound(mode, integral, dense):
    for family in FAMILIES:
        for n in range(3, 9):
            for seed in range(4):
                _agrees(generate_instance(family, n, seed, mode=mode, integral=integral,
                                          **(DENSE if dense else {})))


def test_brute_force_matches_the_branch_and_bound_with_rewarded_anchors():
    # the generators never reward an anchor; here every vertex pays, each
    # in a random window, so an anchor is claimed after waiting for it
    rng = random.Random(21)
    anchor_claims = 0
    for i in range(120):
        x = generate_instance(FAMILIES[i % 4], rng.randint(3, 7), i, mode=MODES[i % 3],
                              integral=i % 2 == 0)
        quarters = int(x.budget) * 4
        windows = []
        for _v in range(x.n):
            lo, hi = sorted(rng.randint(0, quarters) for _ in range(2))
            windows.append(TimeWindow(F(lo, 4), F(hi, 4)))
        y = replace(x, windows=tuple(windows),
                    rewards=tuple(F(rng.randint(1, 5)) for _ in range(x.n)))
        anchor_claims += bool(_agrees(y).collected & {y.s, y.t})
    assert anchor_claims > 0


def test_the_earliest_arrival_wins_a_state_before_the_smaller_order():
    # claims 1, 2, 3 and 2, 1, 3 both collect everything and end at 3, but
    # 1 is released at 5 and lies between 2 and 3: 2, 1, 3 reaches 3 at 7
    # and 1, 2, 3 only at 11.  The DP keeps 2, 1, 3 at that state, and no
    # other kept full state has a smaller claim tuple (1, 3, 2 misses 2's
    # deadline); the branch and bound returns the smaller order 1, 2, 3
    x = build_instance(4, [(0, 2, 1), (2, 1, 2), (1, 3, 2)],
                       [(0, 12), (5, 12), (0, 8), (0, 12)], [0, 1, 1, 1], 0, None, 12)
    sol = _agrees(x)
    assert sol.order == (0, 2, 1, 3)
    assert [t for (_v, t, _c) in sol.schedule] == [0, 1, 5, 7]
    assert ref_brute_force(x).order == (0, 1, 2, 3)


# ----- referee checks past the branch and bound ------------------------------

def _referee(x):
    """Check x's solvers against its optimum; return (OPT, solve_auto's report)."""
    opt = brute_force_opt(x).reward
    assert opt <= algorithms._reach(x)
    for name in sorted(ALGORITHMS):
        try:
            rep = run_algorithm(name, x, *EXACT)
        except PreconditionError:
            continue
        assert rep.walk.reward * rep.bound >= opt, name
    rep = solve_auto(x, *EXACT)
    assert rep.walk.reward * rep.bound >= opt
    assert not rep.optimal or rep.walk.reward == opt
    if x.mode == ANCHORED:
        assert brute_force_opt(time_reversed(x)).reward == opt
    return opt, rep


@pytest.mark.parametrize("mode", MODES)
def test_the_exact_optimum_referees_every_solver_to_n17(mode):
    # sparse windows (the default horizon 4n) keep the searches small
    for n in range(12, 18):
        for integral in (False, True):
            _referee(generate_instance(FAMILIES[(n + integral) % 4], n, n, mode=mode,
                                       integral=integral))


def test_the_exact_optimum_of_the_dense_n17_instance():
    # the branch and bound had not finished here after a minute
    x = generate_instance("random-metric", 17, 3, integral=True, **DENSE)
    opt, rep = _referee(x)
    assert (opt, algorithms._reach(x)) == (14, 15)
    assert (rep.algorithm, rep.walk.reward, rep.bound, rep.optimal) == ("l2", 13, 3, False)
