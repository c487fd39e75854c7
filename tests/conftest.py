"""Shared builders for the test suite.

The four-vertex unit path shows up everywhere: it is the smallest instance
where ordering, windows and the budget all interact.  ref_pareto is the
exhaustive referee of the Pareto staircases the block DPs build.
"""

from __future__ import annotations

from fractions import Fraction as F
from typing import Optional, Sequence, Tuple

import pytest

from orientw import (EXACT_ORACLE, INF, WAIT, Graph, Metric, OrienteeringQuery,
                     TimeWindow, TwInstance, WalkResult, best_orienteering_walk,
                     metric_closure)
from orientw.oracles import earliest_limits


def line_metric(n: int = 4) -> Metric:
    edges = [(i, i + 1, F(1)) for i in range(n - 1)]
    return metric_closure(Graph.build(False, n, edges))


def window(a, b) -> TimeWindow:
    return TimeWindow(F(a), F(b))


def line4_instance(budget=F(5), windows: Optional[Sequence[TimeWindow]] = None,
                   rewards: Optional[Sequence[F]] = None, s: Optional[int] = 0,
                   t: Optional[int] = 3, policy: str = WAIT) -> TwInstance:
    if windows is None:
        windows = (window(0, 5), window(1, 2), window(2, 3), window(0, 5))
    if rewards is None:
        rewards = (F(1), F(1), F(1), F(1))
    return TwInstance(line_metric(4), tuple(windows), tuple(rewards),
                      s, t, F(budget), policy)


@pytest.fixture
def line4() -> TwInstance:
    return line4_instance()


def build_instance(n: int, edges, windows, rewards, s, t, budget,
                   directed: bool = False, policy: str = WAIT) -> TwInstance:
    edges = [(u, v, F(w)) for (u, v, w) in edges]
    metric = metric_closure(Graph.build(directed, n, edges))
    wins = tuple(window(a, b) for (a, b) in windows)
    rews = tuple(F(r) for r in rewards)
    return TwInstance(metric, wins, rews, s, t, F(budget), policy)


# ----- the exact Pareto frontier and its referee ----------------------------

def exact_profile(m: Metric, eligible, u, v, span) -> list:
    """The exact oracle walked down the grid: the Pareto frontier of the
    u -> v walks within span that the block DPs use."""
    return earliest_limits(
        lambda budget: best_orienteering_walk(
            EXACT_ORACLE, OrienteeringQuery(m, eligible, u, v, budget)),
        F(0), span, m.scale)


def ref_reward(eligible, order) -> F:
    return sum((eligible[v] for v in set(order) if v in eligible), F(0))


def ref_pareto(m: Metric, eligible, u, v, horizon) -> tuple:
    """Every undominated (duration, reward) pair of the u -> v walks within
    horizon, strictly increasing in both, each with a witness walk.

    A subset DP over Fractions: dp[mask][i] is the shortest walk
    u -> cand[i] visiting exactly mask, first found on ties.  It enumerates
    every subset, so it is the referee of the exact walk-down
    (earliest_limits on EXACT_ORACLE), which the solvers use instead."""
    d = m.d
    cand = sorted(w for w in eligible if w != u and w != v)
    k = len(cand)
    dp = [dict() for _ in range(1 << k)]
    parent = [dict() for _ in range(1 << k)]
    for i, w in enumerate(cand):
        if d[u][w] != INF:
            dp[1 << i][i], parent[1 << i][i] = d[u][w], None
    for mask in range(1, 1 << k):
        for i, ti in sorted(dp[mask].items()):
            for j, w in enumerate(cand):
                nm = mask | (1 << j)
                if nm == mask or d[cand[i]][w] == INF:
                    continue
                if j not in dp[nm] or ti + d[cand[i]][w] < dp[nm][j]:
                    dp[nm][j], parent[nm][j] = ti + d[cand[i]][w], i
    direct = (u, v) if u != v else (u,)
    raw = []
    dur = d[u][v] if u != v else F(0)
    if dur != INF and dur <= horizon:
        raw.append((dur, ref_reward(eligible, direct), direct))
    for mask in range(1, 1 << k):
        for i, ti in dp[mask].items():
            if d[cand[i]][v] == INF or ti + d[cand[i]][v] > horizon:
                continue
            seq, mm, ii = [], mask, i
            while ii is not None:
                seq.append(cand[ii])
                mm, ii = mm & ~(1 << ii), parent[mm][ii]
            order = (u,) + tuple(reversed(seq)) + (v,)
            raw.append((ti + d[cand[i]][v], ref_reward(eligible, order), order))
    raw.sort(key=lambda e: (e[0], -e[1], e[2]))
    entries, best = [], None
    for (dur, rew, order) in raw:
        if best is None or rew > best:
            entries.append(WalkResult(order, rew, dur))
            best = rew
    return tuple(entries)
