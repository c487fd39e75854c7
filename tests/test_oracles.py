import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orientw.oracles as oracles
from orientw import (EXACT_DEADLINE, EXACT_ORACLE, GREEDY_ORACLE,
                     DeadlineQuery, Graph, OracleSpec, OrienteeringOracle,
                     OrienteeringQuery, PreconditionError,
                     best_deadline_walk, best_orienteering_walk, is_finite,
                     layered_deadline_oracle, metric_closure)
from orientw.generate import random_metric
from orientw.oracles import (INFEASIBLE_RESULT, DeadlineOracle, WalkResult, _greedy,
                             _result_better, earliest_limits, exit_staircases,
                             exact_deadline, exact_orienteering, greedy_orienteering)
from orientw.rational import units_for

from conftest import (exact_profile, line_metric, ref_checked, ref_deadline_reward, ref_duration,
                      ref_greedy_orienteering, ref_layered_deadline, ref_pareto, ref_reward)
from test_integer_units import DENOMINATORS, ref_exact_orienteering, rewards, times


# ----- straight-line enumeration, no pruning, used as the referee -----------------

def _all_walks(metric, eligible, u, v, budget):
    """Every visit order over every subset of the eligible vertices."""
    best = None
    pool = sorted(set(eligible) - {u, v})
    for k in range(len(pool) + 1):
        for combo in itertools.combinations(pool, k):
            for perm in itertools.permutations(combo):
                order = (u,) + perm + ((v,) if v != u or perm else ())
                if len(order) == 1:
                    order = (u,)
                dur = ref_duration(metric, order)
                if not is_finite(dur) or dur > budget:
                    continue
                rew = ref_reward(eligible, order)
                if best is None or rew > best[0]:
                    best = (rew, order, dur)
    return best


def _exact(metric, eligible, u, v, budget):
    return best_orienteering_walk(
        EXACT_ORACLE, OrienteeringQuery(metric, eligible, u, v, budget))


def test_exact_line4_frozen():
    m = line_metric(4)
    res = _exact(m, {1: F(1), 2: F(1)}, 0, 3, F(5))
    assert res.reward == F(2)
    assert res.order == (0, 1, 2, 3)
    assert res.duration == F(3)


def test_exact_matches_enumeration():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(2, 6)
        m = random_metric(rng, n, directed=(trial % 3 == 0), integral=(trial % 2 == 0))
        k = rng.randint(0, n)
        eligible = {v: F(rng.randint(1, 3)) for v in rng.sample(range(n), k)}
        u = rng.randrange(n)
        v = rng.randrange(n)
        budget = F(rng.randint(0, 10))
        res = _exact(m, eligible, u, v, budget)
        ref = _all_walks(m, eligible, u, v, budget)
        if ref is None:
            assert not res.feasible
        else:
            assert res.feasible
            assert res.reward == ref[0]
            assert res.duration <= budget


def test_contract_wrapper_guards():
    m = line_metric(4)
    assert not _exact(m, {1: F(1)}, 0, 3, F(-1)).feasible
    assert not _exact(m, {1: F(1)}, 0, 3, F(2)).feasible   # d(0,3)=3
    base = _exact(m, {}, 2, 2, F(0))
    assert base.feasible and base.order == (2,) and base.duration == F(0)
    hit = _exact(m, {2: F(5)}, 2, 2, F(0))
    assert hit.reward == F(5)


def test_contract_rejects_cheating_oracle():
    def cheat(q):
        return WalkResult((q.u, q.v), F(99), F(0))
    oracle = OrienteeringOracle(OracleSpec("cheat", F(1)), cheat)
    m = line_metric(4)
    with pytest.raises(PreconditionError):
        best_orienteering_walk(oracle, OrienteeringQuery(m, {1: F(1)}, 0, 3, F(5)))


def _deadline_cheat(walk):
    return DeadlineOracle(OracleSpec("cheat", F(1)), lambda q: walk)


@pytest.mark.parametrize("walk,what", [
    (WalkResult((1, 2, 3), F(2), F(2)), "wrong endpoints"),        # starts at 1, not 0
    (WalkResult((0, 1, 2), F(2), F(2)), "wrong endpoints"),        # ends at 2, not 3
    (WalkResult((0, 1, 2, 3), F(2), F(2)), "its duration"),         # duration is 3
    (WalkResult((0, 1, 2, 1, 2, 3), F(2), F(5)), "overruns"),       # 5 > horizon 4
    (WalkResult((0, 1, 2, 3), F(3), F(3)), "its reward"),           # vertex 2 is late
])
def test_deadline_contract_rejects_cheating_oracle(walk, what):
    q = DeadlineQuery(line_metric(4), {1: (F(1), F(2)), 2: (F(1), F(1))}, 0, F(0), 3, F(4))
    assert best_deadline_walk(EXACT_DEADLINE, q).reward == F(1)
    with pytest.raises(PreconditionError, match=what):
        best_deadline_walk(_deadline_cheat(walk), q)


def test_both_wrappers_prefer_the_base_walk_to_an_equal_longer_one():
    m = line_metric(4)
    # 0 -> 1 -> 0 -> 2 collects nothing more than 0 -> 2 and takes 4, not 2
    detour = WalkResult((0, 1, 0, 2), F(1), F(4))
    oracle = OrienteeringOracle(OracleSpec("detour", F(1)), lambda q: detour)
    got = best_orienteering_walk(oracle, OrienteeringQuery(m, {2: F(1)}, 0, 2, F(5)))
    assert (got.order, got.reward, got.duration) == ((0, 2), F(1), F(2))
    q = DeadlineQuery(m, {2: (F(1), F(5))}, 0, F(0), 2, F(5))
    got = best_deadline_walk(_deadline_cheat(detour), q)
    assert (got.order, got.reward, got.duration) == ((0, 2), F(1), F(2))


def test_no_oracle_is_asked_when_only_the_endpoints_can_pay():
    # the base walk 0 -> 2 then collects all there is, as early as possible;
    # one more payable vertex, even out of reach (4), and the oracle is asked,
    # and its equally rewarding detour still loses to the base walk
    m = line_metric(5)
    detour = WalkResult((0, 1, 0, 2), F(1), F(4))
    asked = []

    def spy(q):
        asked.append(q)
        return detour

    oracle = OrienteeringOracle(OracleSpec("spy", F(1)), spy)
    deadline_oracle = DeadlineOracle(OracleSpec("spy", F(1)), spy)
    for eligible, reward, calls in (({0: F(1), 2: F(1)}, F(2), 0), ({2: F(1), 4: F(1)}, F(1), 1)):
        del asked[:]
        got = best_orienteering_walk(oracle, OrienteeringQuery(m, eligible, 0, 2, F(5)))
        assert (got.order, got.reward, got.duration) == ((0, 2), reward, F(2))
        q = DeadlineQuery(m, {v: (r, F(5)) for v, r in eligible.items()}, 0, F(0), 2, F(5))
        got = best_deadline_walk(deadline_oracle, q)
        assert (got.order, got.reward, got.duration) == ((0, 2), reward, F(2))
        assert len(asked) == 2 * calls


def test_greedy_line4_frozen():
    m = line_metric(4)
    res = best_orienteering_walk(
        GREEDY_ORACLE, OrienteeringQuery(m, {1: F(1), 2: F(1)}, 0, 3, F(5)))
    assert res.order == (0, 1, 2, 3)
    assert res.reward == F(2)
    assert res.duration == F(3)


def test_greedy_closed_walk():
    m = line_metric(4)
    res = best_orienteering_walk(
        GREEDY_ORACLE, OrienteeringQuery(m, {0: F(1), 2: F(1)}, 1, 1, F(2)))
    assert res.feasible
    assert res.order[0] == 1 and res.order[-1] == 1
    assert res.reward == F(1)
    assert res.duration == F(2)
    # too tight to leave: parks at the start vertex
    stuck = best_orienteering_walk(
        GREEDY_ORACLE, OrienteeringQuery(m, {0: F(1), 2: F(1)}, 1, 1, F(1)))
    assert stuck.feasible
    assert stuck.order == (1,)
    assert stuck.reward == F(0)


def test_greedy_never_beats_exact_never_overruns():
    rng = random.Random(19)
    for trial in range(30):
        n = rng.randint(2, 6)
        m = random_metric(rng, n, integral=True)
        eligible = {v: F(rng.randint(1, 3)) for v in range(n) if rng.random() < 0.7}
        u = rng.randrange(n)
        v = rng.randrange(n)
        budget = F(rng.randint(0, 12))
        g = best_orienteering_walk(GREEDY_ORACLE, OrienteeringQuery(m, eligible, u, v, budget))
        e = _exact(m, eligible, u, v, budget)
        assert g.feasible == e.feasible
        if g.feasible:
            assert g.reward <= e.reward
            assert g.duration <= budget


def test_oracle_spec_validation():
    with pytest.raises(PreconditionError):
        OracleSpec("bad", F(1, 2))
    assert EXACT_ORACLE.spec.ratio == 1
    assert not GREEDY_ORACLE.spec.guaranteed


# ----- the heuristics in units against their Fraction referees --------------------

def test_greedy_breaks_an_equal_ratio_tie_by_the_smaller_id():
    # closed walk at 0: vertex 1 pays 2 for a detour of 2, vertex 2 pays 1
    # for a detour of 1.  The ratios tie and the smaller id wins, although
    # its detour is larger; vertex 2 then no longer fits the budget 2
    m = metric_closure(Graph.build(False, 3, [(0, 1, F(1)), (0, 2, F(1, 2)), (1, 2, F(3, 2))]))
    q = OrienteeringQuery(m, {1: F(2), 2: F(1)}, 0, 0, F(2))
    assert greedy_orienteering(q) == WalkResult((0, 1, 0), F(2), F(2))
    assert ref_greedy_orienteering(q) == WalkResult((0, 1, 0), F(2), F(2))
    units = units_for(m, [q.budget], q.eligible.values())
    assert units.tscale == 2 and units.rscale == 1
    # the integer kernel: budget 4 half-units, each due the budget
    assert _greedy(units.table, {1: (2, 4), 2: (1, 4)}, 0, 0, 0, 4) == WalkResult((0, 1, 0), 2, 4)


edge_weights = st.builds(F, st.integers(1, 12), st.sampled_from(DENOMINATORS))


@st.composite
def heuristic_metrics(draw, uniform: bool, thirds: bool = False):
    """2-7 vertices, edges weighted over 1, 3, 7 and 2 (over 1, 3 and 7
    with thirds); a directed graph drops about half its arcs, so some legs
    are unreachable.  uniform gives every edge one weight, so an insertion
    between two distinct vertices always costs that weight."""
    n = draw(st.integers(2, 7))
    directed = draw(st.booleans())
    weights = st.builds(F, st.integers(1, 12), st.sampled_from((1, 3, 7))) if thirds else edge_weights
    same = draw(weights)
    edges = [(a, b, same if uniform else draw(weights))
             for a in range(n) for b in range(n)
             if (a < b or (directed and a != b)) and (not directed or draw(st.booleans()))]
    return metric_closure(Graph.build(directed, n, edges))


@pytest.mark.parametrize("uniform", [False, True])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_greedy_matches_its_fraction_referee(uniform, data):
    # uniform: one edge weight and rewards 1, so every insertion of one
    # step ties with every other on reward per detour
    m = data.draw(heuristic_metrics(uniform))
    gains = st.just(F(1)) if uniform else st.builds(F, st.integers(1, 4), st.sampled_from((1, 2)))
    eligible = {w: data.draw(gains) for w in sorted(data.draw(st.sets(st.integers(0, m.n - 1))))}
    u, v = data.draw(st.integers(0, m.n - 1)), data.draw(st.integers(0, m.n - 1))
    budget = data.draw(st.builds(F, st.integers(-1, 40), st.sampled_from((1, 2, 4, 7))))
    q = OrienteeringQuery(m, eligible, u, v, budget)
    assert greedy_orienteering(q) == ref_greedy_orienteering(q)
    assert best_orienteering_walk(GREEDY_ORACLE, q) == ref_checked(ref_greedy_orienteering, q)


@pytest.mark.parametrize("end_kind", ["free", "fixed"])
@pytest.mark.parametrize("grid", [4, 3])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_layered_matches_its_fraction_referee(grid, end_kind, data):
    # times on the quarter grid or in thirds.  The walk leaves at t0 < 1
    # and one vertex is due before 1, so a class 2**j with j < 0 gets a
    # budget; in thirds, on weights over 1, 3 and 7, the time unit is odd,
    # so such a cutoff 2**j is floored into units
    m = data.draw(heuristic_metrics(False, thirds=grid == 3))
    u = data.draw(st.integers(0, m.n - 1))
    end = None if end_kind == "free" else data.draw(st.integers(0, m.n - 1))
    t0 = F(data.draw(st.integers(0, grid - 1)), grid)
    on_grid = st.builds(F, st.integers(0, 10 * grid), st.just(grid))
    members = sorted(data.draw(st.sets(st.integers(0, m.n - 1), min_size=1)))
    eligible = {w: (data.draw(rewards), data.draw(on_grid)) for w in members}
    eligible[members[0]] = (F(1), F(data.draw(st.integers(1, grid - 1)), grid))
    q = DeadlineQuery(m, eligible, u, t0, end, t0 + data.draw(on_grid))
    for inner, ref_inner in ((GREEDY_ORACLE, ref_greedy_orienteering),
                             (EXACT_ORACLE, ref_exact_orienteering)):
        layered, ref = layered_deadline_oracle(inner), ref_layered_deadline(ref_inner)
        assert layered.fn(q) == ref(q)
        assert best_deadline_walk(layered, q) == ref_checked(ref, q)


# ----- monotone staircases ----------------------------------------------------

def _orienteering_probe(oracle, m, eligible, u, v):
    return lambda budget: best_orienteering_walk(
        oracle, OrienteeringQuery(m, eligible, u, v, budget))


def _erratic_oracle():
    """Exact up to budget 4; from budget 5 on, a detour 0 -> 1 -> 0 -> 3 on
    the unit line that is longer and poorer than the exact walk."""
    def erratic(q):
        if q.budget >= 5 and (q.u, q.v) == (0, 3):
            return WalkResult((0, 1, 0, 3), F(1), F(5))
        return EXACT_ORACLE.fn(q)
    return OrienteeringOracle(OracleSpec("erratic", F(1), guaranteed=False), erratic)


def _assert_strict_staircase(stairs):
    durations = [res.duration for res in stairs]
    rewards = [res.reward for res in stairs]
    assert all(a < b for a, b in zip(durations, durations[1:])), stairs
    assert all(a < b for a, b in zip(rewards, rewards[1:])), stairs


def test_staircase_drops_a_longer_poorer_answer_of_an_erratic_oracle():
    m = line_metric(4)
    eligible = {1: F(1), 2: F(1)}
    probe = _orienteering_probe(_erratic_oracle(), m, eligible, 0, 3)
    assert probe(F(6)) == WalkResult((0, 1, 0, 3), F(1), F(5))
    stairs = earliest_limits(probe, F(0), F(6), F(1, m.scale))
    assert stairs == [WalkResult((0, 1, 2, 3), F(2), F(3))]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_staircase_is_strictly_monotone_with_heuristic_oracles(data):
    m = data.draw(dense_metrics())
    u = data.draw(st.integers(0, m.n - 1))
    v = data.draw(st.integers(0, m.n - 1))
    span = data.draw(spans)
    eligible = {w: data.draw(rewards) for w in sorted(data.draw(st.sets(st.integers(0, m.n - 1))))}
    _assert_strict_staircase(earliest_limits(
        _orienteering_probe(GREEDY_ORACLE, m, eligible, u, v), F(0), span, F(1, m.scale)))
    t0 = data.draw(times(False))
    timed = {w: (r, t0 + data.draw(spans)) for w, r in eligible.items()}
    layered = layered_deadline_oracle(GREEDY_ORACLE)
    _assert_strict_staircase(earliest_limits(
        lambda horizon: best_deadline_walk(layered, DeadlineQuery(m, timed, u, t0, v, horizon)),
        t0, t0 + span, F(1, m.scale)))


def test_a_feasible_walk_collecting_nothing_beats_an_infeasible_one():
    # the walk 0 -> 1 collects nothing, but it is a walk; the limit below it has none
    m = line_metric(2)
    walk = WalkResult((0, 1), F(0), F(1))
    probe = _orienteering_probe(EXACT_ORACLE, m, {}, 0, 1)
    assert not probe(F(0)).feasible
    assert earliest_limits(probe, F(0), F(3), F(1, m.scale)) == [walk]
    assert _result_better(walk, INFEASIBLE_RESULT)
    assert not _result_better(INFEASIBLE_RESULT, walk)


# ----- earliest limit per reward ----------------------------------------------------

def _full_scan(probe, start, hi, unit):
    """Referee for earliest_limits: ask every grid limit from start to hi
    and keep the first answer of each new reward."""
    found = []
    limit = start
    while limit <= hi:
        res = probe(limit)
        if res.feasible and (not found or res.reward > found[-1].reward):
            found.append(res)
        limit += F(1, unit)
    return found


# dense small metrics, so that several rewards fit one limit range
short_weights = st.builds(F, st.integers(1, 4), st.sampled_from(DENOMINATORS))
spans = st.builds(F, st.integers(0, 24), st.sampled_from((4, 11)))


@st.composite
def dense_metrics(draw):
    n = draw(st.integers(2, 5))
    edges = [(a, b, draw(short_weights)) for a in range(n) for b in range(a + 1, n)]
    return metric_closure(Graph.build(False, n, edges))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_earliest_limits_match_a_full_scan_for_orienteering(data):
    m = data.draw(dense_metrics())
    eligible = {v: data.draw(rewards) for v in sorted(data.draw(st.sets(st.integers(0, m.n - 1))))}
    u = data.draw(st.integers(0, m.n - 1))
    v = data.draw(st.integers(0, m.n - 1))
    span = data.draw(spans)
    probe = _orienteering_probe(EXACT_ORACLE, m, eligible, u, v)

    walked = earliest_limits(probe, F(0), span, F(1, m.scale))
    assert walked == _full_scan(probe, F(0), span, m.scale)
    profile = ref_pareto(m, eligible, u, v, span)
    assert [(r.duration, r.reward) for r in walked] == [(e.duration, e.reward) for e in profile]


@pytest.mark.parametrize("end_kind", ["start", "other"])
@pytest.mark.parametrize("odd", [False, True])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_earliest_limits_match_a_full_scan_for_deadline_walks(odd, end_kind, data):
    m = data.draw(dense_metrics())
    u = data.draw(st.integers(0, m.n - 1))
    end = u if end_kind == "start" else data.draw(
        st.sampled_from([w for w in range(m.n) if w != u]))
    t0 = data.draw(times(odd))
    hi = t0 + data.draw(spans)
    members = data.draw(st.sets(st.integers(0, m.n - 1)))
    eligible = {w: (data.draw(rewards), t0 + data.draw(spans)) for w in sorted(members)}

    def probe(horizon):
        return best_deadline_walk(EXACT_DEADLINE, DeadlineQuery(m, eligible, u, t0, end, horizon))

    walked = earliest_limits(probe, t0, hi, F(1, m.scale))
    assert walked == _full_scan(probe, t0, hi, m.scale)


# ----- deadline oracle ----------------------------------------------------------

def _all_deadline_walks(metric, eligible, u, t0, end, horizon):
    """Referee for deadline queries: enumerate orders, score first visits."""
    pool = sorted(set(eligible) - {u})
    ends = [end] if end is not None else sorted(set(list(eligible) + [u]))
    best = None
    for k in range(len(pool) + 1):
        for combo in itertools.combinations(pool, k):
            for perm in itertools.permutations(combo):
                for w in ends:
                    order = (u,) + perm + ((w,) if w != u or perm else ())
                    if len(order) == 1:
                        order = (u,)
                    dur = ref_duration(metric, order)
                    if not is_finite(dur) or (horizon is not None and t0 + dur > horizon):
                        continue
                    rew = ref_deadline_reward(metric, eligible, order, t0)
                    if best is None or rew > best[0]:
                        best = (rew, order)
    return best


def test_exact_deadline_matches_enumeration():
    rng = random.Random(23)
    for trial in range(30):
        n = rng.randint(2, 5)
        m = random_metric(rng, n, integral=True)
        eligible = {}
        for v in range(n):
            if rng.random() < 0.7:
                eligible[v] = (F(rng.randint(1, 3)), F(rng.randint(0, 8)))
        u = rng.randrange(n)
        t0 = F(rng.randint(0, 3))
        end = rng.randrange(n) if trial % 2 == 0 else None
        horizon = F(rng.randint(2, 12))
        q = DeadlineQuery(m, eligible, u, t0, end, horizon)
        res = best_deadline_walk(EXACT_DEADLINE, q)
        ref = _all_deadline_walks(m, eligible, u, t0, end, horizon)
        if ref is None:
            assert not res.feasible
        else:
            assert res.feasible, (trial, ref)
            assert res.reward == ref[0], (trial, res, ref)


def test_layered_deadline_stays_feasible_and_sane():
    rng = random.Random(31)
    layered = layered_deadline_oracle(EXACT_ORACLE)
    for trial in range(20):
        n = rng.randint(2, 5)
        m = random_metric(rng, n, integral=True)
        eligible = {v: (F(1), F(rng.randint(1, 8))) for v in range(n)
                    if rng.random() < 0.8}
        u = rng.randrange(n)
        t0 = F(rng.randint(0, 2))
        q = DeadlineQuery(m, eligible, u, t0, None, F(10))
        got = best_deadline_walk(layered, q)
        ref = best_deadline_walk(EXACT_DEADLINE, q)
        assert got.feasible == ref.feasible
        if got.feasible:
            assert got.reward <= ref.reward


def test_deadline_wrapper_grows_with_the_horizon():
    m = line_metric(4)
    eligible = {1: (F(1), F(4)), 2: (F(1), F(4))}

    def probe(horizon):
        return best_deadline_walk(EXACT_DEADLINE, DeadlineQuery(m, eligible, 0, F(0), 3, horizon))

    r1, r2 = probe(F(3)), probe(F(6))
    assert r1.reward <= r2.reward
    assert r2.reward == F(2)
    assert earliest_limits(probe, F(0), F(6), F(1, m.scale)) == [r1]


# ----- reward/duration frontier ----------------------------------------------------

def test_pareto_line4_frozen():
    m = line_metric(4)
    prof = exact_profile(m, {1: F(1), 2: F(1)}, 0, 3, F(10))
    got = [(e.duration, e.reward) for e in prof]
    assert got == [(F(3), F(2))]


def test_pareto_frontier_is_strictly_monotone():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = random_metric(rng, n, integral=False)
        eligible = {v: F(rng.randint(1, 3)) for v in range(n) if rng.random() < 0.6}
        u = rng.randrange(n)
        v = rng.randrange(n)
        ent = exact_profile(m, eligible, u, v, F(20))
        assert [(e.duration, e.reward) for e in ent] == \
            [(e.duration, e.reward) for e in ref_pareto(m, eligible, u, v, F(20))]
        for a, b in zip(ent, ent[1:]):
            assert a.duration < b.duration
            assert a.reward < b.reward
        if ent:
            best = _exact(m, eligible, u, v, F(20))
            assert ent[-1].reward == best.reward


def test_pareto_empty_when_unreachable():
    from orientw import Graph, metric_closure
    g = Graph.build(False, 3, [(0, 1, F(1))])
    m = metric_closure(g)
    prof = exact_profile(m, {1: F(1)}, 0, 2, F(10))
    assert prof == []


def test_exact_frozen_small_queries():
    m = line_metric(4)
    got = best_orienteering_walk(
        EXACT_ORACLE, OrienteeringQuery(m, {1: F(1)}, 0, 3, F(3)))
    assert (got.order, got.reward, got.duration) == ((0, 1, 3), F(1), F(3))
    short = best_orienteering_walk(
        EXACT_ORACLE, OrienteeringQuery(m, {1: F(1), 2: F(1)}, 0, 3, F(2)))
    assert short.order == () and short.reward == 0


def test_greedy_with_nothing_to_collect():
    got = best_orienteering_walk(
        GREEDY_ORACLE, OrienteeringQuery(line_metric(4), {}, 0, 2, F(5)))
    assert got.order == (0, 2)
    assert got.reward == 0 and got.duration == F(2)


def test_deadline_frozen_query():
    q = DeadlineQuery(line_metric(4), {1: (F(1), F(1)), 2: (F(1), F(2))},
                      0, F(0), 3, F(5))
    got = best_deadline_walk(EXACT_DEADLINE, q)
    assert got.reward == F(2)
    assert got.order[0] == 0 and got.order[-1] == 3


def test_deadline_oracle_matches_brute_on_instances():
    from orientw import brute_force_opt
    from orientw.generate import gen_deadline_instance
    for seed in range(25):
        x = gen_deadline_instance(seed, n_low=4, n_high=6)
        eligible = {v: (x.rewards[v], x.windows[v].deadline)
                    for v in x.positive_vertices()}
        q = DeadlineQuery(x.metric, eligible, x.s, F(0), x.t, x.budget)
        got = best_deadline_walk(EXACT_DEADLINE, q)
        assert got.reward == brute_force_opt(x).reward, seed


def test_pareto_profile_with_no_eligible_vertices():
    p = exact_profile(line_metric(4), {}, 0, 2, F(5))
    assert [(e.duration, e.reward) for e in p] == [(F(2), F(0))]


# ----- every exit of a release-group entry at once ------------------------------

def _exit_query(rng, n, k, directed, quarter, spread):
    """A release-group entry: k members of an n-vertex metric, each with a
    reward and a due time around the entry time t0, and an entry vertex u
    among them.  Directed graphs drop about 30% of their arcs, so some legs
    are unreachable.  Below 10 members some edges have length 0, so a walk
    can leave u and be back by t0."""
    lo = 1 if k >= 10 else 0
    edges = []
    for a in range(n):
        for b in range(n):
            if a == b or (not directed and a > b) or (directed and rng.random() < 0.3):
                continue
            edges.append((a, b, F(rng.randint(3 * lo, 12), 4) if quarter else F(rng.randint(lo, 4))))
    m = metric_closure(Graph.build(directed, n, edges))
    members = sorted(rng.sample(range(n), k))
    t0 = F(rng.randint(0, 12), 4 if quarter else 1)
    eligible = {v: (F(rng.randint(1, 3), rng.choice([1, 1, 2, 3])),
                    max(F(0), t0 + F(rng.randint(-3, spread), 4 if quarter else 1)))
                for v in members}
    return m, eligible, rng.choice(members), t0


# the exact oracles without their staircase search: exit_staircases walks
# their checked point queries down the grid instead
POINT_DEADLINE = DeadlineOracle(EXACT_DEADLINE.spec, EXACT_DEADLINE.fn)
POINT_ORACLE = OrienteeringOracle(EXACT_ORACLE.spec, EXACT_ORACLE.fn)


def _exits_in_units(m, eligible, u, t0):
    """exit_staircases on the query for EXACT_DEADLINE and for
    POINT_DEADLINE, and every exit's walk-down of
    best_deadline_walk(EXACT_DEADLINE, ...) in the same units."""
    units = units_for(m, [t0] + [dl for (_r, dl) in eligible.values()],
                      [r for (r, _dl) in eligible.values()])
    credit = {v: (units.reward(r), units.time(dl)) for v, (r, dl) in eligible.items()}
    found = exit_staircases(EXACT_DEADLINE, m, units, credit, u, units.time(t0))
    by_points = exit_staircases(POINT_DEADLINE, m, units, credit, u, units.time(t0))
    walked = {}
    for w, (_r, dl) in eligible.items():
        walked[w] = [(units.time(res.duration), units.reward(res.reward), res.order)
                     for res in earliest_limits(
                         lambda h: best_deadline_walk(
                             EXACT_DEADLINE, DeadlineQuery(m, eligible, u, t0, w, h)),
                         t0, t0 if w == u else dl, F(1, m.scale))]
    return found, by_points, walked, units.table


def test_exit_staircases_equal_the_walk_down_of_every_exit():
    # orders included.  An exit credited earlier in the walk shows as w
    # inside the order; an order that ends w, w is never kept, since
    # stopping at w's first visit ties it with fewer visits
    rng = random.Random(12)
    seen = set()
    queries = []
    for trial in range(400):
        n = rng.randint(2, 8)
        queries.append(_exit_query(rng, n, rng.randint(1, n), rng.random() < 0.4,
                                   trial % 2 == 1, 14))
    # past brute-force size: 10 to 14 members, deadlines close enough to t0
    # that the walk-down stays quick
    for trial in range(10):
        k = 10 + trial % 5
        queries.append(_exit_query(rng, k + 1, k, False, trial % 2 == 1, 12))
    for (m, eligible, u, t0) in queries:
        found, by_points, walked, table = _exits_in_units(m, eligible, u, t0)
        assert found == walked, (u, t0, eligible)
        assert by_points == found, (u, t0, eligible)
        if len(eligible) >= 10:
            seen.add("10-14 members")
        if t0.denominator > 1:
            seen.add("quarter-grid entry")
        if any(table[a][b] is None for a in eligible for b in eligible):
            seen.add("unreachable leg")
        if any(dl < t0 for (_r, dl) in eligible.values()):
            seen.add("exit due before t0")
        if any(len(order) > 1 for (_d, _r, order) in found[u]):
            seen.add("stay-put exit that visits")
        if any(w in order[1:-1] for w in found if w != u for (_d, _r, order) in found[w]):
            seen.add("exit credited earlier")
    assert seen == {"10-14 members", "quarter-grid entry", "unreachable leg", "exit due before t0",
                    "stay-put exit that visits", "exit credited earlier"}


def test_block_staircases_equal_the_walk_down_of_every_exit():
    # EXACT_ORACLE's search per block entry u against the walk-down of its
    # point queries per exit, orders included; u's exit is the tour back to u
    rng = random.Random(13)
    seen = set()
    for trial in range(300):
        n = rng.randint(2, 8)
        quarter = trial % 2 == 1
        m, eligible, u, _t0 = _exit_query(rng, n, rng.randint(1, n), rng.random() < 0.4,
                                          quarter, 14)
        gains = {v: r for v, (r, _dl) in eligible.items()}
        span = F(rng.randint(0, 40), 4 if quarter else 1)
        units = units_for(m, [span], gains.values())
        table = units.table
        credit = {v: (units.reward(r), units.time(span)) for v, r in gains.items()}
        found = exit_staircases(EXACT_ORACLE, m, units, credit, u, 0)
        assert exit_staircases(POINT_ORACLE, m, units, credit, u, 0) == found, (u, span)
        for w in gains:
            assert found[w] == [(units.time(res.duration), units.reward(res.reward), res.order)
                                for res in exact_profile(m, gains, u, w, span)], (u, w, span)
        if any(len(order) > 1 for (_d, _r, order) in found[u]):
            seen.add("tour back to u")
        if any(table[a][b] is None for a in gains for b in gains):
            seen.add("unreachable leg")
        if any(len(found[w]) > 1 for w in gains):
            seen.add("staircase of two steps or more")
    assert seen == {"tour back to u", "unreachable leg", "staircase of two steps or more"}


def test_heuristic_walk_downs_in_units_equal_the_fraction_referees():
    # exit_staircases runs greedy and layered in the DP's units; the same
    # oracles with the Fraction referees as custom fns are asked on
    # Fraction queries built at each probe.  Staircases must match, orders
    # included, for block and release-group entries alike
    rng = random.Random(14)
    spec = OracleSpec("referee", F(1), guaranteed=False)
    greedy_ref = OrienteeringOracle(spec, ref_greedy_orienteering)
    layered = layered_deadline_oracle(GREEDY_ORACLE)
    layered_ref = DeadlineOracle(spec, ref_layered_deadline(ref_greedy_orienteering))
    stepped = 0
    for trial in range(150):
        n = rng.randint(2, 8)
        m, eligible, u, t0 = _exit_query(rng, n, rng.randint(1, n), rng.random() < 0.4,
                                         trial % 2 == 1, 14)
        units = units_for(m, [t0] + [dl for (_r, dl) in eligible.values()],
                          [r for (r, _dl) in eligible.values()])
        credit = {v: (units.reward(r), units.time(dl)) for v, (r, dl) in eligible.items()}
        e = units.time(t0)
        found = exit_staircases(layered, m, units, credit, u, e)
        assert found == exit_staircases(layered_ref, m, units, credit, u, e), (u, t0, eligible)
        span = max(dl for (_r, dl) in eligible.values())
        block = {v: (r, units.time(span)) for v, (r, _dl) in credit.items()}
        tours = exit_staircases(GREEDY_ORACLE, m, units, block, u, 0)
        assert tours == exit_staircases(greedy_ref, m, units, block, u, 0), (u, span, eligible)
        stepped += sum(len(s) > 1 for s in list(found.values()) + list(tours.values()))
    assert stepped > 20


def test_a_walk_down_builds_each_base_walk_once_per_exit(monkeypatch):
    # the walk-down probes an exit once per step of its staircase, and the
    # base walk (stay at u, or go straight to the exit) depends on the exit
    # alone, so each entry builds it at most once per exit
    import orientw.oracles as oracles

    real = oracles._base_walk
    built = []

    def recorded(*args):
        built.append(args[3])
        return real(*args)

    monkeypatch.setattr(oracles, "_base_walk", recorded)
    rng = random.Random(15)
    stepped = 0
    for trial in range(80):
        n = rng.randint(2, 8)
        m, eligible, u, t0 = _exit_query(rng, n, rng.randint(1, n), rng.random() < 0.4,
                                         trial % 2 == 1, 14)
        units = units_for(m, [t0] + [dl for (_r, dl) in eligible.values()],
                          [r for (r, _dl) in eligible.values()])
        credit = {v: (units.reward(r), units.time(dl)) for v, (r, dl) in eligible.items()}
        span = max(dl for (_r, dl) in credit.values())
        block = {v: (r, span) for v, (r, _dl) in credit.items()}
        for oracle, entry, e in ((POINT_DEADLINE, credit, units.time(t0)),
                                 (POINT_ORACLE, block, 0)):
            built.clear()
            found = exit_staircases(oracle, m, units, entry, u, e)
            assert len(built) == len(set(built)) and set(built) <= set(found), (u, t0, eligible)
            stepped += sum(len(steps) > 1 for steps in found.values())
    assert stepped > 20


def test_patching_an_integer_search_intercepts_every_built_in_fn(monkeypatch):
    # each built-in fn is _answer over an entry builder that looks its search
    # up when an entry is built, so a patched _exact_point or _greedy runs
    # for the public fn and for a layered query over the built-in oracle
    calls = []

    def recorded(name):
        real = getattr(oracles, name)

        def search(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return search

    monkeypatch.setattr(oracles, "_exact_point", recorded("_exact_point"))
    monkeypatch.setattr(oracles, "_greedy", recorded("_greedy"))
    m = line_metric(4)
    q = OrienteeringQuery(m, {1: F(1), 2: F(1)}, 0, 3, F(5))
    # both deadlines in the class [4, 8), whose layer has the budget 4
    dq = DeadlineQuery(m, {1: (F(1), F(4)), 2: (F(1), F(4))}, 0, F(0), 3, F(5))
    for fn, query, name in ((exact_orienteering, q, "_exact_point"),
                            (exact_deadline, dq, "_exact_point"),
                            (greedy_orienteering, q, "_greedy")):
        calls.clear()
        assert fn(query).reward == 2
        assert calls == [name]
    for inner, name in ((EXACT_ORACLE, "_exact_point"), (GREEDY_ORACLE, "_greedy")):
        calls.clear()
        assert best_deadline_walk(layered_deadline_oracle(inner), dq).reward == 2
        assert calls == [name]
