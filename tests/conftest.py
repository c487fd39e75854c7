"""Shared builders for the test suite.

The four-vertex unit path shows up everywhere: it is the smallest instance
where ordering, windows and the budget all interact.  ref_evaluate_walk is
the Fraction referee of evaluate_walk, which runs in integer units, and
ref_greedy_orienteering, ref_layered_deadline and ref_checked those of the
greedy and layered heuristics and their contract check, which do too;
ref_pareto is the exhaustive referee of the Pareto staircases the block DPs
build; ref_brute_force, a branch and bound over visit orders, is that of
the subset DP brute_force_opt; solve_time_indexed is the independent
referee of the modular DP the solvers run (modular.solve_reward_indexed):
one oracle point query per integral budget instead of one staircase search
per entry; and ref_label_loop and ref_push_label are those of the label
DP's loop and frontier insert: every frontier copied per block, and each
push filtered, appended and sorted.  ref_solve_auto is the referee of
solve_auto's one finishing step, the insertion repair of every solver's
walk (algorithms._keep_best): solve_auto as it ran before, which kept the
best solver report unrepaired (ref_keep_best) and repaired a start-only
walk alone.  ref_compose is the referee of the composition recipe
(algorithms._compose), which skips a version that cannot beat the best
walk before it: the recipe as it ran before, every version solved, with
ref_cap, the Fraction referee of each version's cap.  ref_fan_out is the
referee of the start-only solve: one unrepaired anchored solve per
reachable end vertex, the best kept; and
solver_runs records the solvers that a solve_auto call runs, with the
instance each solves.  ref_window_stats, ref_length_split,
ref_reach, ref_blocks_from_identical_windows, ref_verify_modular and
ref_release_groups are the Fraction referees of the functions that read an
instance's integer view (instance._view), and assert_fresh_view holds a
view, built or derived, to a fresh one by value.  ref_band_split is the
referee of free-general's split (decompose.band_family): the band split as
solve_free_general built it before, one drop_vertices per band.
ref_dyadic_family, ref_band_family, ref_three_split_floor,
ref_three_split_ceil, ref_five_split and ref_shifted_five_split are the
Fraction referees of decompose's six cut rules, which cut in the integer
units of the base instance's view: each rule as it cut Fraction windows,
on the same skeleton (_ref_family), giving the family's scale and each
version's label, windows and rewards.
"""

from __future__ import annotations

import math
from fractions import Fraction as F
from functools import partial
from typing import Optional, Sequence, Tuple

import pytest

import orientw.algorithms as algorithms
import orientw.modular as modular
from orientw import (ALGORITHMS, EXACT_DEADLINE, EXACT_ORACLE, INF, WAIT, DeadlineQuery, Graph,
                     InfeasibleInstanceError, Metric, ModularBlock, ModularPartition,
                     OrienteeringOracle, OrienteeringQuery, PreconditionError, SolveReport,
                     TimeWindow, TwInstance, WalkResult, WalkSolution, WindowStats,
                     best_orienteering_walk, drop_vertices, evaluate_walk, metric_closure,
                     walk_from_claims, window_stats)
from orientw.instance import (ANCHORED, FREE, START_ONLY, _scoring, ensure_reachable_anchors,
                              repair_by_insertion, restrict)
from orientw.memo import _one_solve
from orientw.modular import DpResult
from orientw.oracles import INFEASIBLE_RESULT, _result_better, earliest_limits
from orientw.decompose import dyadic_partition
from orientw.rational import ZERO, as_fraction, floor_log2, is_finite


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


# ----- walk evaluation in Fractions, referee of evaluate_walk -------------

def _infeasible(reason: str) -> WalkSolution:
    return WalkSolution((), ZERO, feasible=False, reason=reason)


def ref_evaluate_walk(x: TwInstance, order: Sequence, times: Optional[Sequence] = None
                      ) -> WalkSolution:
    """evaluate_walk in Fraction arithmetic on the distance table d, step by
    step: the same schedule rule, checks in the same order and the same
    reasons."""
    order = [(v, bool(flag)) for (v, flag) in order]
    if not order:
        if x.mode != FREE:
            return _infeasible("an anchored walk cannot be empty")
        return WalkSolution((), ZERO)
    for (v, _flag) in order:
        if not 0 <= v < x.n:
            return _infeasible("unknown vertex %r" % (v,))
    if x.s is not None and order[0][0] != x.s:
        return _infeasible("walk must start at vertex %d" % x.s)
    if x.t is not None and order[-1][0] != x.t:
        return _infeasible("walk must end at vertex %d" % x.t)

    d = x.metric.d
    waiting = x.wait_policy == WAIT

    if times is None:
        sched_times = []
        for i, (v, flag) in enumerate(order):
            if i == 0:
                if x.mode == FREE:
                    t0 = max(ZERO, x.windows[v].release) if flag else ZERO
                else:
                    t0 = ZERO
                sched_times.append(t0)
                continue
            prev = order[i - 1][0]
            step = d[prev][v]
            if not is_finite(step):
                return _infeasible("no path from %d to %d" % (prev, v))
            arrived = sched_times[-1] + step
            if waiting and flag:
                arrived = max(arrived, x.windows[v].release)
            sched_times.append(arrived)
    else:
        if len(times) != len(order):
            return _infeasible("times must match the walk length")
        sched_times = [as_fraction(t) for t in times]
        first = sched_times[0]
        if x.mode == FREE:
            if first < 0:
                return _infeasible("walk cannot start before time 0")
        elif first != 0:
            return _infeasible("anchored walks start at time 0")
        for i in range(1, len(order)):
            step = d[order[i - 1][0]][order[i][0]]
            if not is_finite(step):
                return _infeasible("no path from %d to %d" % (order[i - 1][0], order[i][0]))
            gap = sched_times[i] - sched_times[i - 1]
            if waiting:
                if gap < step:
                    return _infeasible("gap %s shorter than travel %s at step %d" % (gap, step, i))
            elif gap != step:
                return _infeasible("no-wait gaps must equal travel exactly (step %d)" % i)

    collected = set()
    for (v, flag), tv in zip(order, sched_times):
        if not flag:
            continue
        w = x.windows[v]
        inside = w.release <= tv <= w.deadline
        if inside:
            collected.add(v)
        elif waiting:
            return _infeasible(
                "vertex %d flagged at time %s outside its window [%s, %s]"
                % (v, tv, w.release, w.deadline))

    end = sched_times[-1]
    if x.mode != FREE and end > x.budget:
        return _infeasible("walk ends at %s, after the budget %s" % (end, x.budget))

    schedule = tuple((v, tv, flag and v in collected and tv >= x.windows[v].release
                      and tv <= x.windows[v].deadline)
                     for (v, flag), tv in zip(order, sched_times))
    reward = sum((x.rewards[v] for v in collected), ZERO)
    return WalkSolution(schedule, reward)


# ----- the heuristics in Fractions, referees of greedy and layered -----------

def ref_duration(m: Metric, order) -> F:
    total = F(0)
    for a, b in zip(order, order[1:]):
        if m.d[a][b] == INF:
            return INF
        total += m.d[a][b]
    return total


def ref_deadline_reward(m: Metric, eligible, order, t0) -> F:
    reward, seen, time = F(0), set(), t0
    for i, v in enumerate(order):
        if i:
            time += m.d[order[i - 1]][v]
        if v in eligible and v not in seen and time <= eligible[v][1]:
            seen.add(v)
            reward += eligible[v][0]
    return reward


def _ref_ratio_better(r1: F, d1: F, r2: F, d2: F) -> bool:
    """Is reward r1 per detour d1 strictly better than r2 per d2?"""
    if d1 == 0 and d2 == 0:
        return r1 > r2
    if d1 == 0:
        return True
    if d2 == 0:
        return False
    return r1 * d2 > r2 * d1


def ref_greedy_orienteering(q: OrienteeringQuery) -> WalkResult:
    """greedy_orienteering in Fraction arithmetic on the distance table d:
    the same insertions and the same tie rules (on an equal reward per
    detour the smaller id, per vertex the smallest detour, then the
    leftmost position)."""
    d = q.metric.d
    u, v, budget = q.u, q.v, q.budget
    if not is_finite(d[u][v]) or d[u][v] > budget:
        return INFEASIBLE_RESULT
    order = [u, v]
    duration = d[u][v]
    remaining = sorted(w for w in q.eligible if w != u and w != v)
    while True:
        best_pick = None  # (w, pos, detour)
        for w in remaining:
            w_best = None
            for pos in range(len(order) - 1):
                a, b = order[pos], order[pos + 1]
                da, db = d[a][w], d[w][b]
                if not (is_finite(da) and is_finite(db)):
                    continue
                detour = da + db - d[a][b]
                if duration + detour > budget:
                    continue
                if w_best is None or detour < w_best[2]:
                    w_best = (w, pos, detour)
            if w_best is None:
                continue
            if best_pick is None or _ref_ratio_better(q.eligible[w_best[0]], w_best[2],
                                                      q.eligible[best_pick[0]], best_pick[2]):
                best_pick = w_best
        if best_pick is None:
            break
        w, pos, detour = best_pick
        order.insert(pos + 1, w)
        duration += detour
        remaining.remove(w)
    if u == v and len(order) == 2:
        order = [u]
    reward = sum((q.eligible[w] for w in set(order) if w in q.eligible), ZERO)
    return WalkResult(tuple(order), reward, duration)


def ref_checked(fn, q) -> WalkResult:
    """The oracle contract in Fractions around an honest fn: vertices due
    before t0 dropped, the base walk (u alone, or u then the end), the fn
    asked only when a vertex other than the ends can pay, and the better of
    its answer and the base walk."""
    if isinstance(q, OrienteeringQuery):
        eligible = {w: (r, q.budget) for w, r in q.eligible.items()}
        t0, end, limit = ZERO, q.v, q.budget
    else:
        q = DeadlineQuery(q.metric, {v: rd for v, rd in q.eligible.items() if rd[1] >= q.t0},
                          q.u, q.t0, q.end, q.horizon)
        eligible, t0, end, limit = q.eligible, q.t0, q.end, q.horizon
    base = _ref_base_walk(q.metric, eligible, q.u, end, t0, limit)
    if not base.feasible or all(w in (q.u, end) for w in eligible):
        return base
    res = fn(q)
    return res if res.feasible and _result_better(res, base) else base


def _ref_base_walk(m: Metric, eligible, u, end, t0, limit) -> WalkResult:
    order = (u,) if end is None or end == u else (u, end)
    duration = ref_duration(m, order)
    if duration == INF or t0 + duration > limit:
        return INFEASIBLE_RESULT
    return WalkResult(order, ref_deadline_reward(m, eligible, order, t0), duration)


def ref_layered_deadline(fn):
    """layered_deadline_oracle's fn in Fraction arithmetic around an orienteering fn:
    classes floor(log2(deadline)), class j asked with the budget
    min(2**j, horizon) - t0 (the deadline-0 class with budget 0) through
    ref_checked, each answer rescored on the deadlines, the best kept."""

    def layered(q: DeadlineQuery) -> WalkResult:
        classes = {}
        for v, (rew, dl) in q.eligible.items():
            classes.setdefault(floor_log2(dl) if dl > 0 else None, {})[v] = rew
        best = _ref_base_walk(q.metric, q.eligible, q.u, q.end, q.t0, q.horizon)
        if not best.feasible:
            return best
        for j in sorted(classes, key=lambda k: (k is None, k)):
            members = classes[j]
            cutoff = min(F(2) ** j, q.horizon) if j is not None else q.t0
            budget = cutoff - q.t0
            if budget < 0:
                continue
            ends = [q.end] if q.end is not None else sorted(set(members) | {q.u})
            for end in ends:
                res = ref_checked(fn, OrienteeringQuery(q.metric, members, q.u, end, budget))
                if not res.feasible:
                    continue
                scored = WalkResult(res.order,
                                    ref_deadline_reward(q.metric, q.eligible, res.order, q.t0),
                                    res.duration)
                if _result_better(scored, best):
                    best = scored
        return best

    return layered


# ----- the exact Pareto frontier and its referee ----------------------------

def exact_profile(m: Metric, eligible, u, v, span) -> list:
    """The exact oracle walked down the grid: the Pareto frontier of the
    u -> v walks within span that the block DPs use."""
    return earliest_limits(
        lambda budget: best_orienteering_walk(
            EXACT_ORACLE, OrienteeringQuery(m, eligible, u, v, budget)),
        F(0), span, F(1, m.scale))


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


# ----- branch and bound over visit orders, referee of brute_force_opt -------

def ref_brute_force(x: TwInstance) -> WalkSolution:
    """Exact optimum by branch and bound over visit orders of collected
    subsets on the metric closure, using the earliest-feasible schedule rule.

    Only the waiting-allowed policy is supported; intended for n up to about
    twelve.  Ties break toward the lexicographically smallest visit order.
    Raises InfeasibleInstanceError for an anchored instance where t cannot
    be reached from s within the budget at all.
    """
    if x.wait_policy != WAIT:
        raise PreconditionError("ref_brute_force handles the waiting-allowed policy only")
    d = x.metric.d
    T = x.budget
    mode = x.mode

    if mode == ANCHORED:
        base = d[x.s][x.t]
        if not is_finite(base) or base > T:
            raise InfeasibleInstanceError(
                "cannot reach %d from %d within budget %s" % (x.t, x.s, T))

    rewards = x.rewards
    windows = x.windows

    def tail_ok(v: int, tv: F) -> bool:
        # can the walk still finish after claiming v at time tv?
        if mode == ANCHORED:
            leg = d[v][x.t]
            return is_finite(leg) and tv + leg <= T
        if mode == START_ONLY:
            return tv <= T
        return True

    cand = []
    for v in x.positive_vertices():
        if mode == FREE:
            e = max(ZERO, windows[v].release)
        else:
            leg = d[x.s][v]
            if not is_finite(leg):
                continue
            e = max(leg, windows[v].release)
        if e <= windows[v].deadline and tail_ok(v, e):
            cand.append(v)
    cand.sort()

    best_reward = ZERO
    best_claims: tuple = ()

    def dfs(cur: Optional[int], now: F, used: set, claims: list, acc: F):
        nonlocal best_reward, best_claims
        avail = []
        for w in cand:
            if w in used:
                continue
            if cur is None:
                tw = max(ZERO, windows[w].release)
            else:
                leg = d[cur][w]
                if not is_finite(leg):
                    continue
                tw = max(now + leg, windows[w].release)
            if tw <= windows[w].deadline and tail_ok(w, tw):
                avail.append((w, tw))
        bound = acc + sum((rewards[w] for (w, _tw) in avail), ZERO)
        if bound <= best_reward:
            return
        for (w, tw) in avail:
            acc2 = acc + rewards[w]
            claims.append(w)
            if acc2 > best_reward:
                best_reward = acc2
                best_claims = tuple(claims)
            used.add(w)
            dfs(w, tw, used, claims, acc2)
            used.remove(w)
            claims.pop()

    if mode == FREE:
        dfs(None, ZERO, set(), [], ZERO)
    else:
        dfs(x.s, ZERO, set(), [], ZERO)

    return walk_from_claims(x, best_claims)


# ----- the time-indexed modular DP, referee of solve_reward_indexed ---------

def solve_time_indexed(x: TwInstance, part: ModularPartition,
                       oracle: OrienteeringOracle) -> DpResult:
    """The modular label loop whose block walks are one oracle answer per
    integral budget, integral data only.

    Block entry times and oracle budgets stay integral, so the state space
    is finite without any rounding.  Per block and (entry, exit) the answers
    at ascending budgets are kept as a running best, so a larger budget
    never offers a worse walk.  With an exact oracle this solves the
    modular instance exactly.  It reads modular._label_loop at call time,
    so a test may patch the loop to watch the moves offered.
    """
    modular.require_modular(x, part)
    modular.ensure_reachable_anchors(x)
    bounds = [t for b in part.blocks for t in (b.release, b.deadline)]
    assert all(t.denominator == 1 for t in bounds + [x.budget] +
               [d for row in x.metric.d for d in row if d != INF]), \
        "the time-indexed DP needs integral distances, budget and block bounds"
    units = modular.dp_units(x, times=bounds)

    def steps():
        for bi, b, eligible, ids in modular._eligible_blocks(x, part):
            deadline = units.time(b.deadline)
            # (u, w) -> (running best at budgets 0, 1, 2, ..., each new walk in
            # it as (the first budget it is best at, its move in units))
            answers = {}

            def moves(u, e):
                budgets = (deadline - e) // units.tscale + 1  # budgets 0 .. budgets - 1 fit
                for w in ids:
                    best, offers = answers.setdefault((u, w), ([], []))
                    for budget in range(len(best), budgets):
                        res = best_orienteering_walk(
                            oracle, OrienteeringQuery(x.metric, eligible, u, w, F(budget)))
                        prev = best[-1] if best else INFEASIBLE_RESULT
                        if _result_better(prev, res):
                            res = prev
                        elif res.feasible and res.order != prev.order:
                            offers.append((budget, (w, units.time(res.duration),
                                                    units.reward(res.reward), res.order)))
                        best.append(res)
                    for (first, move) in offers:
                        if first >= budgets:
                            break
                        yield move

            yield bi, units.time(b.release), deadline, ids, moves

    return modular.harvest_labels(x, units, modular._label_loop(x, units, steps()),
                                  [b.members for b in part.blocks])


# ----- the label loop and its frontier insert, referees of modular's -------

def ref_label_loop(x: TwInstance, units, steps) -> dict:
    """modular._label_loop with every frontier copied per block and the
    positions visited in key order, pushing through ref_push_label."""
    table = units.table
    labels = {x.s: [(0, 0, None)]}
    for (bi, release, deadline, entries, moves) in steps:
        new_labels = {p: list(ls) for p, ls in labels.items()}
        for p in sorted(labels, key=lambda p: (p is not None, p if p is not None else -1)):
            row = None if p is None else table[p]
            for (tau, rew, back) in labels[p]:
                for u in entries:
                    if row is None:
                        e = release
                    else:
                        leg = row[u]
                        if leg is None:
                            continue
                        e = tau + leg
                        if e < release:
                            e = release
                    if e > deadline:
                        continue
                    for (w, duration, gain, order) in moves(u, e):
                        ref_push_label(new_labels.setdefault(w, []),
                                       (e + duration, rew + gain, (bi, order, back)))
        labels = new_labels
    return labels


def ref_push_label(frontier: list, entry: tuple):
    """modular.push_label by filter, append and sort: a label as late and as
    poor as one already there is rejected, and the ones it dominates go."""
    t, r = entry[0], entry[1]
    for (t2, r2, _b) in frontier:
        if t2 <= t and r2 >= r:
            return
    frontier[:] = [e for e in frontier if not (t <= e[0] and r >= e[1])]
    frontier.append(entry)
    frontier.sort(key=lambda e: (e[0], -e[1]))


# ----- the unrepaired finisher, referee of solve_auto's repair ---------------

def ref_keep_best(tries, ceiling) -> SolveReport:
    """_keep_best before it repaired: run each (name, attempt) of tries and
    keep the first report with the highest reward, at its own bound, noting
    each PreconditionError as "name: text"; stop once the best reward meets
    ceiling, and mark the report optimal exactly when it does."""
    best = None
    refusals = []
    for (name, attempt) in tries:
        try:
            rep = attempt()
        except PreconditionError as exc:
            refusals.append("%s: %s" % (name, exc))
            continue
        if best is None or rep.walk.reward > best.walk.reward:
            best = rep
            if best.walk.reward == ceiling:
                break
    if best is None:
        raise PreconditionError("every solver refused (%s)" % "; ".join(refusals))
    best.optimal = best.walk.reward == ceiling
    return best


def ref_solve_auto(x: TwInstance, oracle=EXACT_ORACLE, deadline_oracle=EXACT_DEADLINE
                   ) -> SolveReport:
    """solve_auto as it ran before every solver's walk was repaired: an
    anchored or free instance keeps its first best solver report as the
    solver returned it (ref_keep_best), and a start-only instance is that
    solve of its sink instance (algorithms._with_sink), the only walk
    repaired, with the sink solve's algorithm, versions and bound and
    optimal judged on x.  It runs inside one memo (memo._one_solve), which
    moves no report."""
    with _one_solve():
        if x.mode == START_ONLY:
            sub = ref_solve_auto(algorithms._with_sink(x), oracle, deadline_oracle)
            walk = repair_by_insertion(x, [(v, c) for (v, _t, c) in sub.walk.schedule[:-1]])
            return SolveReport(sub.algorithm, walk, sub.version_rewards, sub.bound,
                               walk.reward == algorithms._reach(x))
        if not ref_length_split(x)[1]:
            names = ("zero-window",)
        elif x.mode == ANCHORED:
            names = ("integer-endpoints", "l2", "general")
        elif ref_window_stats(x).l_ratio < 2:
            names = ("free-l2",)
        else:
            names = ("free-l2", "free-general")
        return ref_keep_best(((name, partial(ALGORITHMS[name], x, oracle, deadline_oracle))
                              for name in names), algorithms._reach(x))


# ----- the compose that solves every version, referee of the skip ----------

def ref_cap(x: TwInstance, ver: TwInstance) -> F:
    """algorithms._cap: what ver's reachable vertices other than x's anchors
    earn, plus x's anchor rewards."""
    anchors = {x.s, x.t} - {None}
    return ref_reach(ver, anchors) + sum((x.rewards[a] for a in anchors), ZERO)


@_one_solve()
def ref_compose(name: str, x: TwInstance, split, solve_version, trail=None) -> SolveReport:
    """algorithms._compose as it ran before a version could be skipped:
    every version is solved and counted at its own ratio.  When trail is a
    list, the call appends (name, x, ((label, version, reward, ref_cap),
    ...)) to it as it returns, so an outer call's record follows its inner
    ones'."""
    zero, pos = ref_length_split(x)
    z = restrict(x, dict.fromkeys(pos)) if zero else None
    xp = restrict(x, dict.fromkeys(zero)) if zero and pos else x
    split_versions = tuple(split(xp)) if pos else ()
    ensure_reachable_anchors(x)

    def claims_of(walk):
        return tuple(v for (v, _t, c) in walk.schedule if c)

    def versions():
        if z is not None:
            yield "Z", z, claims_of(algorithms.zero_window_dp(z).walk), F(1)
        for (label, ver) in split_versions:
            yield (label, ver) + solve_version(label, ver)

    best, records, bound = None, [], ZERO
    for (label, ver, claims, ratio) in versions():
        sol = modular.assemble_walk(x, [(0, claims)] if claims else [], [claims])
        records.append((label, ver, sol.reward, ref_cap(x, ver)))
        bound += ratio
        if best is None or sol.reward > best.reward:
            best = sol
    if best is None:
        best = modular.assemble_walk(x, [], [])
        bound = F(1)
    if trail is not None:
        trail.append((name, x, tuple(records)))
    return SolveReport(name, best, tuple((label, r) for (label, _v, r, _c) in records), bound)


# ----- the solver runs of a solve_auto call ----------------------------------

def solver_runs(monkeypatch) -> list:
    """The (instance, report) of every solver that solve_auto runs from now
    on, in order, as algorithms._keep_best receives them."""
    runs = []
    real = algorithms._keep_best

    def recorded(x, tries):
        def recording(name, attempt):
            def run():
                runs.append((attempt.args[0], attempt()))
                return runs[-1][1]
            return name, run
        return real(x, (recording(*t) for t in tries))

    monkeypatch.setattr(algorithms, "_keep_best", recorded)
    return runs


# ----- the start-only fan-out, referee of the sink solve ---------------------

def ref_fan_out(x: TwInstance, oracle, deadline_oracle) -> Optional[tuple]:
    """The start-only solve as one unrepaired anchored solve (ref_solve_auto)
    per end vertex that s reaches by the budget: each end's walk, its
    repeated end anchor dropped, is evaluated on x, and the first best is
    kept as (anchored report, walk on x); None when no end yields a walk.
    The start-only solve ran this way until the sink solve replaced it.
    The ends share one memo (memo._one_solve), which moves no report, so
    that each distinct staircase search runs once."""
    best = None
    with _one_solve():
        for t2 in range(x.n):
            leg = x.metric.d[x.s][t2]
            if not is_finite(leg) or leg > x.budget:
                continue
            x2 = TwInstance(x.metric, x.windows, x.rewards, x.s, t2, x.budget, x.wait_policy)
            try:
                sub = ref_solve_auto(x2, oracle, deadline_oracle)
            except PreconditionError:
                continue
            order = [(v, c) for (v, _t, c) in sub.walk.schedule]
            if len(order) > 1 and order[-1] == (order[-2][0], False):
                order.pop()
            sol = evaluate_walk(x, order)
            if sol.feasible and (best is None or sol.reward > best[1].reward):
                best = (sub, sol)
    return best


# ----- the Fraction referees of the readers of an instance's integer view ----

def ref_window_stats(x: TwInstance) -> WindowStats:
    lengths = []
    d_max = None
    for v in x.positive_vertices():
        w = x.windows[v]
        if d_max is None or w.deadline > d_max:
            d_max = w.deadline
        if w.release < w.deadline:
            lengths.append(w.length)
    if not lengths:
        return WindowStats(None, None, None, d_max)
    l_min = min(lengths)
    l_max = max(lengths)
    return WindowStats(l_min, l_max, l_max / l_min, d_max)


def ref_length_split(x: TwInstance) -> Tuple[list, list]:
    zero, pos = [], []
    for v in x.positive_vertices():
        w = x.windows[v]
        (zero if w.release == w.deadline else pos).append(v)
    return zero, pos


def ref_reach(x: TwInstance, skip=()) -> F:
    """algorithms._reach, the vertices of skip left out."""
    if x.s is None:
        return sum((r for v, r in enumerate(x.rewards) if v not in skip), ZERO)
    d = x.metric.d
    total = ZERO
    for v in x.positive_vertices():
        if v in skip:
            continue
        leg = d[x.s][v]
        w = x.windows[v]
        if not is_finite(leg) or leg > w.deadline:
            continue
        if x.t is not None:
            back = d[v][x.t]
            if not is_finite(back) or max(leg, w.release) + back > x.budget:
                continue
        total += x.rewards[v]
    return total


def ref_blocks_from_identical_windows(x: TwInstance) -> ModularPartition:
    groups = {}
    for v in x.positive_vertices():
        r, d = x.windows[v].release, x.windows[v].deadline
        groups.setdefault((r.numerator, r.denominator, d.numerator, d.denominator),
                          (r, d, set()))[2].add(v)
    return ModularPartition(tuple(ModularBlock(frozenset(mem), r, d) for (r, d, mem)
                                  in sorted(groups.values(), key=lambda g: g[:2])))


def ref_verify_modular(x: TwInstance, part: ModularPartition) -> list:
    problems = []
    blocks = part.blocks
    for i, b in enumerate(blocks):
        if b.release > b.deadline:
            problems.append("block %d interval is reversed" % i)
        if b.release < 0 or b.deadline > x.budget:
            problems.append("block %d interval leaves [0, budget]" % i)
        for v in sorted(b.members):
            if not (0 <= v < x.n):
                problems.append("block %d lists unknown vertex %d" % (i, v))
                continue
            w = x.windows[v]
            if w.release > b.release or w.deadline < b.deadline:
                problems.append("vertex %d window does not contain block %d interval" % (v, i))
    for i in range(len(blocks) - 1):
        if blocks[i].deadline > blocks[i + 1].release:
            problems.append("blocks %d and %d are out of order" % (i, i + 1))
    counts = {}
    for b in blocks:
        for v in b.members:
            counts[v] = counts.get(v, 0) + 1
    for v, c in sorted(counts.items()):
        if c > 1:
            problems.append("vertex %d appears in %d blocks" % (v, c))
    exempt = {v for v in (x.s, x.t) if v is not None}
    for v in range(x.n):
        if x.rewards[v] > 0 and v not in exempt and counts.get(v, 0) == 0:
            problems.append("positive-reward vertex %d is not covered by any block" % v)
    return problems


def ref_release_groups(x: TwInstance) -> list:
    """(release, members, latest deadline) per group, in Fractions."""
    grouped = {}
    for v in range(x.n):
        if x.rewards[v] > 0:
            grouped.setdefault(x.windows[v].release, []).append(v)
    out = []
    for rel in sorted(grouped):
        members = sorted(grouped[rel])
        dmax = max(x.windows[v].deadline for v in members)
        out.append((rel, members, dmax))
    for i in range(len(out) - 1):
        if out[i][2] > out[i + 1][0]:
            raise PreconditionError(
                "windows released at %s overrun the next release" % out[i][0])
    return out


def view_in_fractions(view) -> tuple:
    """A view's (release, deadline, reward) per vertex and its distances
    as Fractions: equal for two views of one instance, whatever their
    scales."""
    units, span = view
    tscale, rscale = units.tscale, units.rscale
    return ([(F(r, tscale), F(d, tscale), F(g, rscale)) for (r, d, g) in span],
            [[None if d is None else F(d, tscale) for d in row] for row in units.table])


def assert_fresh_view(x: TwInstance, view):
    """view's scales make x's metric and budget whole, and view equals a
    fresh _scoring(x, []) by value: every window, reward and distance."""
    units = view[0]
    assert units.tscale % x.metric.scale == 0
    assert (x.budget * units.tscale).denominator == 1
    assert view_in_fractions(view) == view_in_fractions(_scoring(x, []))


def ref_band_split(x: TwInstance) -> list:
    """(label, version) per band of free-general's split, as
    solve_free_general built it before decompose.band_family: band j holds
    the positive-reward vertices whose window length is 2**j to 2**(j+1)
    times the shortest, and its version drops every other vertex.  x has
    no positive-reward zero-length window."""
    l_min = window_stats(x).l_min
    bands = {}
    for v in x.positive_vertices():
        bands.setdefault(floor_log2(x.windows[v].length / l_min), []).append(v)
    return [("band%d" % j, drop_vertices(x, set(bands[j]))) for j in sorted(bands)]


# ----- the cut rules in Fractions, referees of decompose's -------------------

def _ref_family(x: TwInstance, factor: F, cut) -> tuple:
    """(factor, ((label, windows, rewards), ...)) of the family that cut
    describes on x's windows times factor: cut(v, window) yields (key,
    label, piece) for every positive-reward vertex with a positive-length
    window, one version per key in sorted order, which keeps its key's
    pieces, every other window and zeroes every other reward."""
    windows = [TimeWindow(w.release * factor, w.deadline * factor) for w in x.windows]
    groups = {}
    for v in x.positive_vertices():
        w = windows[v]
        if w.release < w.deadline:
            for (key, label, piece) in cut(v, w):
                groups.setdefault(key, (label, {}))[1][v] = piece
    versions = []
    for key in sorted(groups):
        label, pieces = groups[key]
        versions.append((label, tuple(pieces.get(v, w) for v, w in enumerate(windows)),
                         tuple(x.rewards[v] if v in pieces else ZERO for v in range(x.n))))
    return factor, tuple(versions)


def ref_dyadic_family(x: TwInstance) -> tuple:
    def cut(v, w):
        if w.release.denominator != 1 or w.deadline.denominator != 1:
            raise PreconditionError(
                "vertex %d: window [%s, %s] does not have integer endpoints"
                % (v, w.release, w.deadline))
        for piece in dyadic_partition(int(w.release), int(w.deadline)):
            yield ((piece.level, piece.slot), "B%d_%d" % (piece.slot, piece.level),
                   TimeWindow(F(piece.lo), F(piece.hi)))

    return _ref_family(x, F(1), cut)


def ref_band_family(x: TwInstance) -> tuple:
    l_min = ref_window_stats(x).l_min
    if l_min is None:
        raise PreconditionError("no positive-length windows to band")

    def cut(v, w):
        j = floor_log2(w.length / l_min)
        yield j, "band%d" % j, w

    return _ref_family(x, F(1), cut)


def _ref_split(x: TwInstance, cut, ratio_two: bool) -> tuple:
    stats = ref_window_stats(x)
    if stats.l_min is None:
        raise PreconditionError("no positive-length windows to split")
    if ratio_two and stats.l_ratio > 2:
        raise PreconditionError("window length ratio %s exceeds 2" % stats.l_ratio)
    return _ref_family(x, 1 / stats.l_min,
                       lambda v, w: ((label, label, piece) for (label, piece) in cut(w)))


def ref_three_split_floor(x: TwInstance) -> tuple:
    def cut(w):
        a = F(math.floor(w.release) + 1)
        b = F(math.ceil(w.deadline) - 1)
        yield "B1", TimeWindow(w.release, a)
        if a == b + 1:
            return
        yield "B3", TimeWindow(b, w.deadline)
        if a < b:
            yield "B2", TimeWindow(a, b)

    return _ref_split(x, cut, ratio_two=True)


def ref_three_split_ceil(x: TwInstance) -> tuple:
    def cut(w):
        a = F(math.ceil(w.release + 1))
        b = F(math.floor(w.deadline - 1))
        yield "B1", TimeWindow(w.release, min(a, w.deadline))
        yield "B3", TimeWindow(max(b, w.release), w.deadline)
        if a < b:
            yield "B2", TimeWindow(a, b)

    return _ref_split(x, cut, ratio_two=False)


def _ref_half_grid_interior(lo: F, hi: F) -> list:
    """Multiples of 1/2 strictly between lo and hi, in order."""
    return [F(k, 2) for k in range(math.floor(lo * 2) + 1, math.ceil(hi * 2))]


def ref_five_split(x: TwInstance) -> tuple:
    def cut(w):
        bounds = [w.release] + _ref_half_grid_interior(w.release, w.deadline) + [w.deadline]
        pieces = [TimeWindow(lo, hi) for (lo, hi) in zip(bounds, bounds[1:])]
        yield "B1", pieces[0]
        yield "B5", pieces[-1]
        yield from zip(("B2", "B3", "B4"), pieces[1:-1])

    return _ref_split(x, cut, ratio_two=True)


def ref_shifted_five_split(x: TwInstance) -> tuple:
    def cut(w):
        inner = _ref_half_grid_interior(w.release, w.deadline)
        yield "B1", TimeWindow(inner[0], inner[0] + F(1, 2))
        yield "B5", TimeWindow(inner[-1] - F(1, 2), inner[-1])
        yield from zip(("B2", "B3", "B4"),
                       (TimeWindow(lo, hi) for (lo, hi) in zip(inner, inner[1:])))

    return _ref_split(x, cut, ratio_two=True)
