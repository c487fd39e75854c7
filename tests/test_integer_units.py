"""Referee tests for the integer-unit kernel.

metric_closure, Metric, the exact oracles and evaluate_walk run on integers
scaled from the exact rationals.  The referees here are the plain Fraction
versions: a Fraction Floyd-Warshall, Fraction searches over the visit
orders the exact oracles answer from (the deadline one rescoring the whole
order at every node), ranked as the exact oracles rank them: most reward,
then the soonest end, then the smallest order, and conftest's
ref_evaluate_walk.  Integer arithmetic is exact, so every answer must be
identical, not merely close.
"""

from __future__ import annotations

import pickle
import random
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction as F
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orientw.algorithms as algorithms
import orientw.instance as instance
import orientw.memo as memo
import orientw.modular as modular
from orientw import (EXACT_DEADLINE, EXACT_ORACLE, GREEDY_ORACLE, INF, NO_WAIT, WAIT,
                     DeadlineQuery, Graph, GraphError, Metric, ModularBlock, ModularPartition,
                     OracleSpec, OrienteeringOracle, OrienteeringQuery, TimeWindow, TwInstance,
                     best_orienteering_walk, brute_force_opt, evaluate_walk, metric_closure,
                     reduce_deadline_to_tw, scale_times, serialize, solve_free_l_le_2,
                     solve_auto, solve_reward_indexed, time_reversed, zero_window_dp)
from orientw.generate import (FAMILIES, gen_modular_instance, gen_ratio2_instance,
                              generate_instance, random_metric)
from orientw.instance import ANCHORED, FREE, START_ONLY
from orientw.oracles import INFEASIBLE_RESULT, WalkResult, exact_deadline, exact_orienteering
from orientw.rational import floor_log2

from conftest import (assert_fresh_view, exact_profile, line4_instance, ref_deadline_reward,
                      ref_duration, ref_evaluate_walk, ref_pareto, ref_reward, window)

DENOMINATORS = (1, 3, 7, 2)  # edge weights such as 1/3, 1/7 and 5/2
ODD_DENOMINATORS = (11, 13)  # never divide an edge scale built from DENOMINATORS


# ----- referees --------------------------------------------------------------

def reference_closure(g: Graph) -> list:
    n = g.n
    d = [[INF] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = F(0)
    for (u, v, w) in g.edges:
        if w < d[u][v]:
            d[u][v] = w
        if not g.directed and w < d[v][u]:
            d[v][u] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] != INF and d[k][j] != INF and d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def _better(a: WalkResult, b: WalkResult) -> bool:
    """The exact oracles' ranking: most reward, then the soonest end, then
    the smallest order."""
    return (-a.reward, a.duration, a.order) < (-b.reward, b.duration, b.order)


def ref_exact_orienteering(q: OrienteeringQuery) -> WalkResult:
    d, u, v, budget = q.metric.d, q.u, q.v, q.budget
    if u == v:
        direct = (u,)
    else:
        if d[u][v] == INF or d[u][v] > budget:
            return INFEASIBLE_RESULT
        direct = (u, v)
    cand = sorted(w for w in q.eligible if w != u and w != v)
    best = [WalkResult(direct, ref_reward(q.eligible, direct), ref_duration(q.metric, direct))]

    def dfs(cur, time, used: List[int], acc):
        avail = [(w, time + d[cur][w]) for w in cand
                 if w not in used and d[cur][w] != INF and d[w][v] != INF
                 and time + d[cur][w] + d[w][v] <= budget]
        if acc + sum((q.eligible[w] for (w, _t) in avail), F(0)) < best[0].reward:
            return
        for (w, t2) in avail:
            used.append(w)
            order = (u,) + tuple(used) + (v,)
            walk = WalkResult(order, acc + q.eligible[w], ref_duration(q.metric, order))
            if _better(walk, best[0]):
                best[0] = walk
            dfs(w, t2, used, acc + q.eligible[w])
            used.pop()

    dfs(u, F(0), [], best[0].reward)
    return best[0]


def ref_exact_deadline(q: DeadlineQuery) -> WalkResult:
    d, u, t0, horizon, end = q.metric.d, q.u, q.t0, q.horizon, q.end

    def tail_ok(w, tw):
        if end is None:
            return tw <= horizon
        return d[w][end] != INF and tw + d[w][end] <= horizon

    def scored(order):
        return WalkResult(order, ref_deadline_reward(q.metric, q.eligible, order, t0),
                          ref_duration(q.metric, order))

    if not tail_ok(u, t0):
        return INFEASIBLE_RESULT
    base = (u,) if end is None or end == u else (u, end)
    cand = sorted(w for w in q.eligible if w != u)
    tail = () if end is None else (end,)
    end_bonus = q.eligible[end][0] if end is not None and end != u and end in q.eligible else 0
    u_credit = q.eligible[u][0] if u in q.eligible and t0 <= q.eligible[u][1] else F(0)
    best = [scored(base)]

    def dfs(cur, time, used: List[int], acc):
        avail = [(w, time + d[cur][w]) for w in cand
                 if w not in used and d[cur][w] != INF
                 and time + d[cur][w] <= q.eligible[w][1] and tail_ok(w, time + d[cur][w])]
        bound = acc + sum((q.eligible[w][0] for (w, _t) in avail), F(0))
        if end not in used:
            bound += end_bonus
        if bound < best[0].reward:
            return
        for (w, t2) in avail:
            used.append(w)
            walk = scored((u,) + tuple(used) + tail)
            if _better(walk, best[0]):
                best[0] = walk
            dfs(w, t2, used, acc + q.eligible[w][0])
            used.pop()

    dfs(u, t0, [], u_credit)
    return best[0]


def assert_integer_table(m: Metric):
    """d == Fraction(ints, scale) entry by entry, None exactly where INF."""
    assert isinstance(m.scale, int) and m.scale >= 1
    assert len(m.ints) == m.n
    for row, irow in zip(m.d, m.ints):
        assert len(irow) == m.n
        for x, i in zip(row, irow):
            if x is INF:
                assert i is None
            else:
                assert isinstance(i, int) and F(i, m.scale) == x


# ----- strategies ------------------------------------------------------------

weights = st.builds(F, st.integers(0, 12), st.sampled_from(DENOMINATORS))


@st.composite
def graphs(draw, n_max=6):
    n = draw(st.integers(1, n_max))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, weights), max_size=3 * n))
    return Graph.build(draw(st.booleans()), n, edges)


def times(odd: bool):
    dens = ODD_DENOMINATORS if odd else DENOMINATORS
    return st.builds(F, st.integers(0, 60), st.sampled_from(dens))


rewards = st.builds(F, st.integers(0, 9), st.sampled_from((1, 2, 3, 5)))


# ----- the metric's integer table ------------------------------------------

@settings(derandomize=True, max_examples=200, deadline=None)
@given(graphs())
def test_integer_closure_matches_fraction_floyd_warshall(g):
    m = metric_closure(g)
    assert [list(row) for row in m.d] == reference_closure(g)
    assert all(x is INF or isinstance(x, F) for row in m.d for x in row)
    assert_integer_table(m)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(graphs(), st.builds(F, st.integers(1, 20), st.integers(1, 12)))
def test_every_derived_metric_keeps_its_integer_table(g, c):
    m = metric_closure(g)
    for derived in (m.scaled(c), m.transposed(), m.scaled(c).transposed(),
                    Metric(m.directed, m.n, m.d)):
        assert_integer_table(derived)
    assert m.scaled(c).d == tuple(tuple(x * c if x is not INF else INF for x in row)
                                  for row in m.d)
    assert Metric(m.directed, m.n, m.d) == m


@settings(derandomize=True, max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_instance_transforms_keep_the_integer_table(g, data):
    m = metric_closure(g)
    n = m.n
    budget = data.draw(times(False)) + 1
    windows = tuple(TimeWindow(F(0), data.draw(st.builds(F, st.integers(0, 4), st.just(4)))
                               * budget) for _ in range(n))
    x = TwInstance(m, windows, (F(1),) * n, 0, data.draw(st.integers(0, n - 1)), budget)
    for y in (x, serialize.loads(serialize.dumps(x)), time_reversed(x),
              reduce_deadline_to_tw(x), scale_times(x, F(3, 7))):
        assert_integer_table(y.metric)


def test_metric_built_from_a_table_computes_its_integers():
    m = Metric(True, 2, ((F(0), F(5, 2)), (INF, 3)))
    assert m.scale == 2
    assert m.ints == ((0, 5), (None, 6))


@pytest.mark.parametrize("bad", [float("inf"), 1.5])
def test_metric_rejects_float_entries_other_than_inf(bad):
    with pytest.raises(GraphError):
        Metric(False, 2, ((F(0), bad), (bad, F(0))))


@pytest.mark.parametrize("directed, n, d", [
    (False, 3, ((F(0), F(1)), (F(1), F(0)))),  # 2 x 2 with n = 3
    (True, 2, ((F(0), F(1)), (F(1),))),  # a short row
    (True, 2, ((F(0), F(-1)), (F(1), F(0)))),  # a negative entry
    (False, 2, ((F(0), F(1)), (F(2), F(0)))),  # asymmetric but undirected
    (False, 2, ((F(0), F(1)), (INF, F(0)))),  # one way unreachable, undirected
])
def test_metric_rejects_a_malformed_table(directed, n, d):
    with pytest.raises(GraphError):
        Metric(directed, n, d)


def test_metric_takes_no_integer_table_of_its_own():
    # scale and ints are derived from d: a table passed beside it could
    # contradict it, or carry a negative entry past _integer_table's checks
    with pytest.raises(TypeError):
        Metric(False, 2, ((0, 1), (1, 0)), 1, ((0, 5), (5, 0)))
    with pytest.raises(TypeError):
        Metric(False, 2, ((0, -1), (-1, 0)), ints=((0, 1), (1, 0)))
    built = Metric(True, 2, ((F(0), F(5, 2)), (F(1, 3), F(3))))
    closed = metric_closure(Graph.build(False, 3, [(0, 1, F(1, 2)), (1, 2, 3), (0, 2, 9)]))
    for m in (built, closed, closed.scaled(F(2, 3)), closed.transposed()):
        # replace derives them again from d; a copy keeps them
        assert replace(m, n=m.n) == m
        assert_integer_table(replace(m, n=m.n))
        for y in (pickle.loads(pickle.dumps(m)), deepcopy(m)):
            assert y == m and (y.scale, y.ints) == (m.scale, m.ints)
            assert_integer_table(y)


# ----- the exact oracles against their Fraction referees -------------------

@st.composite
def eligible_sets(draw, n, odd):
    members = draw(st.sets(st.integers(0, n - 1)))
    return {v: (draw(rewards), draw(times(odd))) for v in sorted(members)}


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("u_eligible", [False, True])
@pytest.mark.parametrize("end_kind", ["none", "start", "eligible", "ineligible"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_deadline_matches_the_rescoring_referee(end_kind, u_eligible, odd, data):
    m = metric_closure(data.draw(graphs(n_max=7)))
    n = m.n
    eligible = data.draw(eligible_sets(n, odd))
    u = data.draw(st.integers(0, n - 1))
    if u_eligible:
        eligible.setdefault(u, (data.draw(rewards), data.draw(times(odd))))
    else:
        eligible.pop(u, None)
    others = [v for v in range(n) if v != u]
    if end_kind == "none":
        end = None
    elif end_kind == "start":
        end = u
    else:
        if not others:
            return
        end = data.draw(st.sampled_from(others))
        if end_kind == "eligible":
            eligible.setdefault(end, (data.draw(rewards), data.draw(times(odd))))
        else:
            eligible.pop(end, None)
    t0 = data.draw(times(odd))
    horizon = t0 + data.draw(times(odd))
    q = DeadlineQuery(m, eligible, u, t0, end, horizon)
    if odd:
        assert m.scale % 11 and m.scale % 13
    assert exact_deadline(q) == ref_exact_deadline(q)


@pytest.mark.parametrize("odd", [False, True])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_exact_orienteering_and_pareto_match_their_referees(odd, data):
    m = metric_closure(data.draw(graphs(n_max=6)))
    n = m.n
    members = data.draw(st.sets(st.integers(0, n - 1)))
    eligible = {v: data.draw(rewards) for v in sorted(members)}
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    budget = data.draw(times(odd))
    q = OrienteeringQuery(m, eligible, u, v, budget)
    assert exact_orienteering(q) == ref_exact_orienteering(q)
    # the exact walk-down is the Pareto frontier; witnesses may differ on ties
    stairs = exact_profile(m, eligible, u, v, budget)
    assert [(r.duration, r.reward) for r in stairs] == \
        [(e.duration, e.reward) for e in ref_pareto(m, eligible, u, v, budget)]
    for r in stairs:
        assert (r.order[0], r.order[-1]) == (u, v)
        assert (ref_duration(m, r.order), ref_reward(eligible, r.order)) == (r.duration, r.reward)


def test_exact_point_queries_prefer_the_walk_that_ends_soonest():
    # 0 - 2 - 1 - 3: (0, 1, 2, 3) also collects both rewards within the
    # budget, but goes 0 -> 1 through 2 and ends at 5; the smaller order
    # only breaks a tie in reward and duration
    m = metric_closure(Graph.build(False, 4, [(0, 2, F(1)), (2, 1, F(1)), (1, 3, F(1))]))
    q = OrienteeringQuery(m, {1: F(1), 2: F(1)}, 0, 3, F(5))
    walk = WalkResult((0, 2, 1, 3), F(2), F(3))
    assert exact_orienteering(q) == ref_exact_orienteering(q) == walk
    assert best_orienteering_walk(EXACT_ORACLE, q) == walk
    dq = DeadlineQuery(m, {1: (F(1), F(5)), 2: (F(1), F(5))}, 0, F(0), 3, F(5))
    assert exact_deadline(dq) == ref_exact_deadline(dq) == walk


# ----- floor_log2 on integers ----------------------------------------------------

def reference_floor_log2(x: F) -> int:
    """Largest j with 2**j <= x, found by stepping Fraction powers of two."""
    j = 0
    while F(2) ** j > x:
        j -= 1
    while F(2) ** (j + 1) <= x:
        j += 1
    return j


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(1, 10 ** 12), d=st.integers(1, 10 ** 12))
def test_floor_log2_matches_the_fraction_referee(n, d):
    # fractions above and below 1, with numerators and denominators of any size
    assert floor_log2(F(n, d)) == reference_floor_log2(F(n, d))
    assert floor_log2(F(d, n)) == reference_floor_log2(F(d, n))


@pytest.mark.parametrize("j", range(-70, 71, 7))
def test_floor_log2_on_exact_powers_of_two(j):
    power = F(2) ** j
    assert floor_log2(power) == j
    assert floor_log2(power * F(2 ** 40 - 1, 2 ** 40)) == j - 1
    assert floor_log2(power * F(2 ** 40 + 1, 2 ** 40)) == j


@pytest.mark.parametrize("x", [F(0), F(-1), F(-3, 7), 0, -5])
def test_floor_log2_refuses_what_is_not_positive(x):
    with pytest.raises(ValueError):
        floor_log2(x)


# ----- walk evaluation against its Fraction referee --------------------------

def random_order(rng: random.Random, x: TwInstance) -> list:
    """Up to seven visits with repeats and random flags, usually between
    x's anchors, whose flags are random too."""
    order = [(rng.randrange(x.n), rng.random() < 0.6) for _ in range(rng.randrange(8))]
    if rng.random() < 0.85:
        if x.s is not None:
            order.insert(0, (x.s, rng.random() < 0.3))
        if x.t is not None:
            order.append((x.t, rng.random() < 0.3))
    return order


def random_times(rng: random.Random, x: TwInstance, order: list) -> list:
    """Explicit times for order: each gap the travel time plus a wait that
    is mostly none, sometimes a quarter, a third or more, and sometimes
    negative; a start that is mostly 0; ints where they are whole; now and
    then one time too few."""
    at = rng.choice((F(0), F(0), F(0), F(1, 3), F(-1, 4)))
    times = [at]
    for (u, _f), (v, _g) in zip(order, order[1:]):
        step = x.metric.d[u][v]
        at += (F(1) if step is INF else step) + rng.choice(
            (F(0), F(0), F(0), F(1, 4), F(1, 3), F(2), F(-1, 4)))
        times.append(at)
    if rng.random() < 0.1:
        times.pop()
    return [int(t) if t.denominator == 1 and rng.random() < 0.5 else t for t in times]


# the reasons each anchor mode's seeded walks must reach; "no path" needs a
# graph that is not strongly connected, which the odd-window test draws
SEEDED_REASONS = {
    ANCHORED: ("walk must start", "walk must end", "vertex", "walk ends at", "gap",
               "no-wait gaps", "times must match", "anchored walks start"),
    START_ONLY: ("walk must start", "vertex", "walk ends at", "gap", "no-wait gaps",
                 "times must match", "anchored walks start"),
    FREE: ("vertex", "gap", "no-wait gaps", "times must match", "walk cannot start"),
}


@pytest.mark.parametrize("integral", [True, False])
@pytest.mark.parametrize("mode", [ANCHORED, START_ONLY, FREE])
def test_evaluate_walk_matches_the_fraction_referee_on_seeded_instances(mode, integral):
    rng = random.Random("walks-%s-%s" % (mode, integral))
    reasons, feasible = set(), 0
    for family in FAMILIES:
        for seed in range(3):
            x = generate_instance(family, 6, seed, mode=mode, integral=integral)
            for y in (x, replace(x, wait_policy=NO_WAIT)):
                walks = []
                for _ in range(30):
                    order = random_order(rng, y)
                    for times in (None, random_times(rng, y, order)):
                        got = evaluate_walk(y, order, times)
                        assert got == ref_evaluate_walk(y, order, times), (family, seed, order,
                                                                         times)
                        walks.append((order, times, got))
                        feasible += got.feasible
                        reasons.update(r for r in SEEDED_REASONS[mode]
                                       if (got.reason or "").startswith(r))
                # inside a solve the untimed walks read y's one view
                with memo._one_solve():
                    for (order, times, got) in walks:
                        assert evaluate_walk(y, order, times) == got, (family, seed, order,
                                                                      times)
    assert reasons == set(SEEDED_REASONS[mode])
    assert feasible > 300


@pytest.fixture
def scored(monkeypatch) -> list:
    """The instances instance._scoring scores, in order, one per call."""
    built = []
    real = instance._scoring

    def counting(x, times):
        built.append(x)
        return real(x, times)

    monkeypatch.setattr(instance, "_scoring", counting)
    return built


def test_one_solve_scores_instances_sharing_windows_by_their_own_budget(scored):
    # three instances share the metric, windows and rewards objects and
    # differ in budget, one of them in thirds; each is scored once, on its
    # first untimed walk, for its own budget
    x = line4_instance(budget=F(4), windows=(window(0, 4), window(1, 2), window(2, 3),
                                             window(0, 4)))
    budgets = (F(4), F(5), F(13, 3))
    versions = [replace(x, budget=b) for b in budgets]
    orders = ([(0, False), (1, True), (2, True), (3, True)],
              [(0, True), (1, True), (2, True), (3, False), (2, False), (3, False)],
              [(0, False), (1, False), (0, False), (1, True), (2, False), (3, False)])
    expected = {(i, j): ref_evaluate_walk(y, order)
                for i, y in enumerate(versions) for j, order in enumerate(orders)}
    assert {w.reason for w in expected.values()} == {
        None, "walk ends at 5, after the budget 4", "walk ends at 5, after the budget 13/3",
        "vertex 1 flagged at time 3 outside its window [1, 2]"}
    with memo._one_solve():
        for _ in range(2):
            for i, y in enumerate(versions):
                for j, order in enumerate(orders):
                    assert evaluate_walk(y, order) == expected[(i, j)], (budgets[i], order)
    assert scored == versions
    assert [instance._view(y)[0].tscale for y in versions] == [1, 1, 3]


@pytest.mark.parametrize("mode", [ANCHORED, START_ONLY, FREE])
def test_one_solve_keeps_one_scoring_table_per_metric_windows_and_rewards(monkeypatch, scored,
                                                                         mode):
    # one solve scores one table, the solved instance's, and a second
    # solve scores none: every other instance whose view is read inside
    # the solve, by every module that reads it, whatever its metric,
    # windows and rewards, derives its view, equal to a fresh one by value
    read = []

    def recording(x):
        view = real(x)
        assert_fresh_view(x, view)
        read.append(x)
        return view

    real = instance._view
    for module in (instance, modular, algorithms):
        monkeypatch.setattr(module, "_view", recording)
    for seed in range(3):
        x = generate_instance("random-metric", 8, seed, mode=mode, integral=seed % 2 == 0)
        read.clear()
        scored.clear()
        report = solve_auto(x)
        assert solve_auto(x) == report
        assert scored == [x]
        assert len(read) > len({id(y) for y in read}) > 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(odd=st.booleans(), data=st.data())
def test_evaluate_walk_matches_the_fraction_referee_on_odd_windows(odd, data):
    # window ends in 11ths or 13ths never divide the metric's scale; the
    # drawn graphs leave some legs unreachable, and ids -1 and n are unknown
    m = metric_closure(data.draw(graphs()))
    n = m.n
    windows = tuple(TimeWindow(*sorted((data.draw(times(odd)), data.draw(times(odd)))))
                    for _ in range(n))
    budget = max(w.deadline for w in windows) + data.draw(times(odd))
    s = data.draw(st.none() | st.integers(0, n - 1))
    t = None if s is None else data.draw(st.none() | st.integers(0, n - 1))
    x = TwInstance(m, windows, tuple(data.draw(rewards) for _ in range(n)), s, t, budget,
                   data.draw(st.sampled_from((WAIT, NO_WAIT))))
    order = data.draw(st.lists(st.tuples(st.integers(-1, n), st.booleans()), max_size=7))
    if data.draw(st.booleans()):
        order = [(v, f) for (v, f) in order if 0 <= v < n]
        order = [(s, data.draw(st.booleans()))] * (s is not None) + order
        order += [(t, data.draw(st.booleans()))] * (t is not None)
    walks = [None, [at for (_v, at, _c) in ref_evaluate_walk(x, order).schedule]]
    walks.append(data.draw(st.lists(times(odd), min_size=len(order), max_size=len(order))))
    for explicit in walks:
        assert evaluate_walk(x, order, explicit or None) == ref_evaluate_walk(
            x, order, explicit or None)


def test_a_flagged_start_anchor_does_not_wait_for_its_window():
    # an anchored walk leaves s at time 0, so flagging s before its window
    # opens is infeasible; a free walk starts at the release instead
    windows = (window(1, 5), window(1, 2), window(2, 3), window(0, 5))
    x = line4_instance(windows=windows)
    order = [(0, True), (1, True), (3, False)]
    got = evaluate_walk(x, order)
    assert got == ref_evaluate_walk(x, order)
    assert got.reason == "vertex 0 flagged at time 0 outside its window [1, 5]"
    assert evaluate_walk(x, [(0, False)] + order[1:]).reward == 1
    free = line4_instance(windows=windows, s=None, t=None)
    got = evaluate_walk(free, order)
    assert got == ref_evaluate_walk(free, order)
    assert [at for (_v, at, _c) in got.schedule] == [1, 2, 4] and got.reward == 2


def test_windows_in_thirds_on_an_integral_metric():
    # the metric's scale is 1; the walk waits until 4/3 and ends by 14/3
    x = line4_instance(budget=F(14, 3),
                       windows=(window(0, 1), window(F(4, 3), 2), window(0, F(7, 3)),
                                window(0, F(14, 3))))
    order = [(0, True), (1, True), (2, True), (3, True)]
    got = evaluate_walk(x, order)
    assert got == ref_evaluate_walk(x, order)
    assert [at for (_v, at, _c) in got.schedule] == [0, F(4, 3), F(7, 3), F(10, 3)]
    assert got.reward == 4
    late = evaluate_walk(x, order, [0, F(4, 3), F(8, 3), F(11, 3)])
    assert late == ref_evaluate_walk(x, order, [0, F(4, 3), F(8, 3), F(11, 3)])
    assert late.reason == "vertex 2 flagged at time 8/3 outside its window [0, 7/3]"


# ----- the label DP in integer units ---------------------------------------
#
# Each label DP runs in its instance's view (instance._view): times over the
# lcm of the metric's scale and every window endpoint's denominator, rewards
# over the lcm of their denominators.  Every case below puts windows off the
# metric's grid, the last one also claims at ratios with a denominator, and
# each checks the DP against an exact referee.

THIRD = F(1, 3)


def _thirds_metric(rng):
    return random_metric(rng, rng.randint(5, 7), integral=True)


def _zero_window_thirds(seed: int) -> TwInstance:
    rng = random.Random("thirds-zero-%d" % seed)
    m = _thirds_metric(rng)
    n, budget = m.n, F(8)
    windows = [TimeWindow(F(0), budget)] * n
    rewards = [F(0)] * n
    anchored = seed % 2 == 0
    for v in range(1, n - 1) if anchored else range(n):
        at = F(rng.randint(0, 24), 3)
        windows[v] = TimeWindow(at, at)
        rewards[v] = F(rng.randint(1, 5), rng.randint(1, 3))
    ends = (0, n - 1) if anchored else (None, None)
    return TwInstance(m, tuple(windows), tuple(rewards), ends[0], ends[1], budget)


def _release_groups_thirds(seed: int) -> TwInstance:
    rng = random.Random("thirds-groups-%d" % seed)
    m = _thirds_metric(rng)
    n = m.n
    windows = [None] * n
    rewards = [F(0)] * n
    cur = F(rng.randint(0, 3), 3)
    groups = []
    for _ in range(rng.randint(2, 3)):
        end = cur + F(rng.randint(3, 12), 3)
        groups.append((cur, end))
        cur = end + F(rng.randint(0, 3), 3)
    budget = cur + 2
    for v in range(1, n - 1):
        rel, end = rng.choice(groups)
        windows[v] = TimeWindow(rel, rel + F(rng.randint(0, int(3 * (end - rel))), 3))
        rewards[v] = F(rng.randint(1, 5), rng.randint(1, 3))
    windows[0] = windows[n - 1] = TimeWindow(F(0), budget)
    return TwInstance(m, tuple(windows), tuple(rewards), 0, n - 1, budget)


def test_zero_window_dp_on_thirds_matches_brute_force():
    for seed in range(12):
        x = _zero_window_thirds(seed)
        assert (x.metric.scale, instance._view(x)[0].tscale) == (1, 3), seed
        assert zero_window_dp(x).walk.reward == brute_force_opt(x).reward, seed


def test_release_groups_on_thirds_claim_the_optimum():
    for seed in range(12):
        x = _release_groups_thirds(seed)
        assert instance._view(x)[0].tscale == 3 * x.metric.scale, seed
        res = modular._release_group_solve(x, EXACT_DEADLINE)
        assert res.claimed == res.walk.reward == brute_force_opt(x).reward, seed


def test_free_l2_shifted_versions_solve_exactly_in_units(monkeypatch):
    # the head and tail versions sit on the half-grid, off the metric's grid
    solved = []
    real = algorithms.solve_reward_indexed

    def recorded(x, part, oracle):
        res = real(x, part, oracle)
        solved.append((x, part, res))
        return res

    monkeypatch.setattr(algorithms, "solve_reward_indexed", recorded)
    for seed in range(0, 12, 2):
        solve_free_l_le_2(gen_ratio2_instance(seed, mode="free"))
    off_grid = 0
    for (x, part, res) in solved:
        opt = brute_force_opt(x).reward
        assert res.claimed == res.walk.reward == opt
        off_grid += instance._view(x)[0].tscale > x.metric.scale
    assert off_grid >= 3


# the exact search, the exact walk-down (no staircases) and greedy, at ratio 1
RATIO_ONE = {"search": EXACT_ORACLE, "walk-down": OrienteeringOracle(EXACT_ORACLE.spec,
                                                                     exact_orienteering),
             "greedy": GREEDY_ORACLE}


@pytest.mark.parametrize("alpha", [F(3, 2), F(2), F(7, 3)], ids=["3_2", "2", "7_3"])
def test_ratio_oracles_claim_their_ratio_on_thirds(monkeypatch, alpha):
    # a ratio-alpha oracle's DP makes the choices of the same oracle at
    # ratio 1, in the view's units, and claims alpha times its claim
    units = []
    real = modular._label_loop

    def recorded(x, ran, steps):
        units.append(ran)
        return real(x, ran, steps)

    monkeypatch.setattr(modular, "_label_loop", recorded)
    for seed in range(10):
        x, part = gen_modular_instance(seed, n_low=4, n_high=7)
        # move every block a third later and pay rewards in thirds
        windows = tuple(TimeWindow(w.release + THIRD, w.deadline + THIRD) if x.rewards[v] else w
                        for v, w in enumerate(x.windows))
        rewards = tuple(r * F(v % 4 + 1, 3) for v, r in enumerate(x.rewards))
        x = replace(x, windows=windows, rewards=rewards, budget=x.budget + THIRD)
        part = ModularPartition(tuple(ModularBlock(b.members, b.release + THIRD,
                                                   b.deadline + THIRD) for b in part.blocks))
        assert instance._view(x)[0].tscale == 3 * x.metric.scale, seed
        opt = brute_force_opt(x).reward
        for name, at_one in RATIO_ONE.items():
            loose = OrienteeringOracle(OracleSpec(name, alpha, at_one.spec.guaranteed),
                                       at_one.fn, at_one.staircases)
            units.clear()
            expected, res = (solve_reward_indexed(x, part, o) for o in (at_one, loose))
            assert units == [instance._view(x)[0]] * 2, (seed, name)
            assert (res.walk, res.segments) == (expected.walk, expected.segments), (seed, name)
            assert res.claimed == alpha * expected.claimed, (seed, name)
            if name != "greedy":
                assert expected.claimed == res.walk.reward == opt, (seed, name)
