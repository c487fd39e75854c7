"""Checks that need no referee.

Each test compares solvers with one another instead of with the brute-force
optimum, so it runs at sizes brute force cannot reach.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from orientw import (ALGORITHMS, EXACT_DEADLINE, EXACT_ORACLE, GREEDY_ORACLE,
                     PreconditionError, TwInstance, evaluate_walk, is_finite,
                     layered_deadline_oracle, run_algorithm, scale_times, solve_auto)
from orientw.generate import generate_instance

DENSE = dict(horizon=F(20), l_low=F(8), l_high=F(16))

# (family, n, generator options); the generator's default horizon is 4n
SHAPES = [
    ("random-metric", 6, DENSE),
    ("directed-random", 14, {}),
    ("euclidean-grid", 20, {}),
    ("line", 20, {}),
]


def _rivals(x: TwInstance, oracle=EXACT_ORACLE, deadline_oracle=EXACT_DEADLINE) -> dict:
    """Reward of every registered solver other than auto that accepts x."""
    out = {}
    for name in sorted(ALGORITHMS):
        if name == "auto":
            continue
        try:
            out[name] = run_algorithm(name, x, oracle, deadline_oracle).walk.reward
        except PreconditionError:
            continue
    return out


def _anchored_variants(x: TwInstance):
    """A start-only instance with its end anchored at each reachable vertex;
    a start-only walk may end at any of them."""
    for t in range(x.n):
        leg = x.metric.d[x.s][t]
        if is_finite(leg) and leg <= x.budget:
            yield TwInstance(x.metric, x.windows, x.rewards, x.s, t, x.budget, x.wait_policy)


@pytest.mark.parametrize("integral", [True, False], ids=["integral", "quarter"])
@pytest.mark.parametrize("mode", ["anchored", "free", "start-only"])
def test_auto_is_at_least_every_solver_that_succeeds(mode, integral):
    for i, (family, n, options) in enumerate(SHAPES):
        x = generate_instance(family, n, 40 + i, mode=mode, integral=integral, **options)
        rep = solve_auto(x)
        again = evaluate_walk(x, [(v, c) for (v, _t, c) in rep.walk.schedule])
        assert again.feasible and again.reward == rep.walk.reward, (family, n)
        targets = list(_anchored_variants(x)) if mode == "start-only" else [x]
        compared = 0
        for y in targets:
            for name, reward in _rivals(y).items():
                assert rep.walk.reward >= reward, (family, n, y.t, name)
                compared += 1
        assert compared, (family, n)


@pytest.mark.parametrize("n", [16, 20, 30])
def test_auto_scales_on_dense_quarter_grids(n):
    # no step around the oracle caps the size: with greedy and layered oracles
    # l2 and general both run in about a second, where exact oracles take minutes
    x = generate_instance("random-metric", n, 3, **DENSE)
    layered = layered_deadline_oracle(GREEDY_ORACLE)
    rep = solve_auto(x, GREEDY_ORACLE, layered)
    again = evaluate_walk(x, [(v, c) for (v, _t, c) in rep.walk.schedule])
    assert again.feasible and again.reward == rep.walk.reward
    rivals = _rivals(x, GREEDY_ORACLE, layered)
    assert {"l2", "general"} <= set(rivals)
    assert all(rep.walk.reward >= reward for reward in rivals.values()), rivals


def _outcome(name: str, x: TwInstance) -> tuple:
    try:
        rep = run_algorithm(name, x)
    except PreconditionError as exc:
        return ("refused", str(exc))
    return (rep.walk.reward, rep.bound, rep.version_rewards)


@pytest.mark.parametrize("c", [F(3), F(2, 5)], ids=["3", "2/5"])
def test_scaling_time_leaves_every_outcome_unchanged(c):
    # windows, budget and distances all scale by c, so every window ratio and
    # every feasible claim set stays the same; integer-endpoints is left out
    # because integral endpoints need not stay integral
    solved = 0
    for seed in range(30):
        for mode in ("anchored", "free"):
            for integral in (True, False):
                x = generate_instance("random-metric", 7, seed, mode=mode, integral=integral)
                y = scale_times(x, c)
                for name in ("l2", "general", "free-l2", "free-general"):
                    got = _outcome(name, x)
                    assert _outcome(name, y) == got, (name, seed, mode, integral)
                    solved += got[0] != "refused"
    assert solved == 240
