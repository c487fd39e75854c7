import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from orientw import (ContainmentError, InfeasibleInstanceError, NO_WAIT,
                     PreconditionError, TimeWindow, TwInstance, WAIT,
                     brute_force_opt, drop_vertices, evaluate_walk, restrict,
                     scale_times, time_reversed, walk_from_claims,
                     window_stats)
from orientw.generate import FAMILIES, generate_instance
from orientw.instance import _derived

from conftest import build_instance, line4_instance, window


# ----- construction and validation ------------------------------------------

def test_mode_detection(line4):
    assert line4.mode == "anchored"
    assert line4_instance(s=0, t=None).mode == "start-only"
    assert line4_instance(s=None, t=None).mode == "free"


def test_end_without_start_rejected():
    with pytest.raises(PreconditionError):
        line4_instance(s=None, t=3)


def test_negative_release_rejected():
    with pytest.raises(PreconditionError):
        line4_instance(windows=(window(-1, 5), window(1, 2),
                                window(2, 3), window(0, 5)))


def test_deadline_beyond_budget_rejected():
    with pytest.raises(PreconditionError):
        line4_instance(windows=(window(0, 6), window(1, 2),
                                window(2, 3), window(0, 5)))


def test_inverted_window_rejected():
    with pytest.raises(PreconditionError):
        window(5, 3)


def test_window_stats(line4):
    st = window_stats(line4)
    assert (st.l_min, st.l_max, st.l_ratio) == (F(1), F(5), F(5))
    assert st.d_max == F(5)


def test_window_stats_skips_zero_lengths():
    x = line4_instance(windows=(window(0, 5), window(2, 2),
                                window(2, 3), window(0, 5)),
                       rewards=(0, 1, 1, 0))
    st = window_stats(x)
    assert (st.l_min, st.l_max, st.l_ratio) == (F(1), F(1), F(1))
    assert st.d_max == F(3)


def test_window_stats_empty():
    x = line4_instance(rewards=(0, 0, 0, 0))
    st = window_stats(x)
    assert st.l_min is None and st.l_ratio is None and st.d_max is None


# ----- walk evaluation -------------------------------------------------------

def test_earliest_feasible_schedule(line4):
    sol = evaluate_walk(line4, [(0, True), (1, True), (2, True), (3, True)])
    assert sol.feasible
    assert [at for (_v, at, _c) in sol.schedule] == [F(0), F(1), F(2), F(3)]
    assert sol.reward == F(4)
    assert sol.collected == frozenset({0, 1, 2, 3})


def test_waiting_for_release(line4):
    # vertex 2 opens at 2; arriving at 1+1=2 exactly needs no wait, but a
    # direct hop 0 -> 2 arrives at 2 as well.  Shrink the budget to see the
    # wait at vertex 1 instead.
    sol = evaluate_walk(line4, [(0, False), (1, True), (3, False)])
    assert sol.feasible
    assert sol.schedule[1][1] == F(1)
    assert sol.reward == F(1)


def test_revisit_collects_late_window():
    x = line4_instance(windows=(window(0, 5), window(3, 4),
                                window(2, 3), window(0, 5)))
    order = [(0, True), (1, False), (2, True), (1, True), (3, True)]
    sol = evaluate_walk(x, order)
    assert sol.feasible
    assert [at for (_v, at, _c) in sol.schedule] == [F(0), F(1), F(2), F(3), F(5)]
    assert sol.reward == F(4)
    assert sol.collected == frozenset({0, 1, 2, 3})


def test_missed_window_is_infeasible(line4):
    # vertex 2 claimed on the way back: arrival 3 > deadline 3? equality is
    # fine, so push it past the deadline with a detour
    order = [(0, False), (3, False), (2, True), (3, False)]
    sol = evaluate_walk(line4, order)
    assert not sol.feasible
    assert "2" in sol.reason


def test_anchored_budget_overrun(line4):
    order = [(0, False), (1, False), (0, False), (1, False), (0, False), (3, False)]
    sol = evaluate_walk(line4, order)
    assert not sol.feasible


def test_wrong_anchors_rejected(line4):
    assert not evaluate_walk(line4, [(1, True), (3, False)]).feasible
    assert not evaluate_walk(line4, [(0, False), (2, True)]).feasible


def test_free_mode_has_no_end_bound():
    x = line4_instance(s=None, t=None, budget=F(5),
                       windows=(window(0, 5), window(1, 2),
                                window(2, 3), window(4, 5)))
    sol = evaluate_walk(x, [(1, True), (2, True), (3, True)])
    assert sol.feasible
    assert sol.reward == F(3)


def test_no_wait_policy_never_waits():
    # vertex 1 opens at 3 but the walk passes it at time 1; without waiting
    # the visit simply earns nothing
    x = line4_instance(policy=NO_WAIT,
                       windows=(window(0, 5), window(3, 4),
                                window(2, 3), window(0, 5)))
    sol = evaluate_walk(x, [(0, True), (1, True), (3, False)])
    assert sol.feasible
    assert 1 not in sol.collected
    assert sol.reward == F(1)
    # same walk under waiting claims it at time 3
    y = line4_instance(windows=(window(0, 5), window(3, 4),
                                window(2, 3), window(0, 5)))
    sol2 = evaluate_walk(y, [(0, True), (1, True), (3, False)])
    assert sol2.feasible and 1 in sol2.collected
    assert sol2.schedule[1][1] == F(3)


def test_unknown_vertex_ids_are_infeasible():
    x = generate_instance("random-metric", 5, 1, mode="free")
    for v in (-1, 5, 7):
        sol = evaluate_walk(x, [(v, True)])
        assert (sol.feasible, sol.reward, sol.reason) == (False, 0, "unknown vertex %d" % v)
    y = generate_instance("random-metric", 5, 1)
    sol = evaluate_walk(y, [(y.s, False), (-1, True), (y.t, False)])
    assert sol.reason == "unknown vertex -1"


def test_explicit_times_checked():
    x = line4_instance()
    ok = evaluate_walk(x, [(0, True), (1, True), (3, False)],
                       times=[F(0), F(1), F(3)])
    assert ok.feasible
    bad = evaluate_walk(x, [(0, True), (1, True), (3, False)],
                        times=[F(0), F(1), F(2)])   # 1 -> 3 takes 2 units
    assert not bad.feasible


# ----- exhaustive optimum ----------------------------------------------------

def test_brute_force_line4(line4):
    sol = brute_force_opt(line4)
    assert sol.reward == F(4)
    assert sol.feasible


def test_brute_force_revisit_instance():
    x = line4_instance(windows=(window(0, 5), window(3, 4),
                                window(2, 3), window(0, 5)))
    sol = brute_force_opt(x)
    assert sol.reward == F(4)
    assert tuple(v for (v, _t, c) in sol.schedule if c) == (0, 2, 1, 3)


def test_brute_force_infeasible_anchors():
    # anchors 3 apart, budget 2: no s-t walk exists at all
    x = line4_instance(budget=F(2),
                       windows=(window(0, 2), window(1, 2),
                                window(2, 2), window(0, 2)))
    with pytest.raises(InfeasibleInstanceError):
        brute_force_opt(x)


def test_brute_force_free_mode():
    x = line4_instance(s=None, t=None)
    assert brute_force_opt(x).reward == F(4)


def test_brute_force_respects_budget():
    x = line4_instance(budget=F(3),
                       windows=(window(0, 3), window(1, 2),
                                window(2, 3), window(0, 3)))
    assert brute_force_opt(x).reward == F(4)
    x2 = line4_instance(budget=F(3),
                        windows=(window(0, 3), window(1, 2),
                                 window(3, 3), window(0, 3)))
    # claiming 2 at time 3 leaves no time to reach 3
    assert brute_force_opt(x2).reward < F(4)


# ----- transforms --------------------------------------------------------------

def test_scale_times_round_trip(line4):
    y = scale_times(line4, F(3))
    assert y.budget == F(15)
    assert y.windows[1] == window(3, 6)
    assert y.metric.d[0][3] == F(9)
    z = scale_times(y, F(1, 3))
    assert z.windows == line4.windows
    assert brute_force_opt(y).reward == brute_force_opt(line4).reward


def test_restrict_containment(line4):
    y = restrict(line4, {1: window(F(3, 2), 2)})
    assert y.windows[1] == window(F(3, 2), 2)
    with pytest.raises(ContainmentError):
        restrict(line4, {1: window(0, 2)})
    dropped = restrict(line4, {1: None})
    assert dropped.rewards[1] == 0
    assert dropped.windows[1] == line4.windows[1]


def test_drop_vertices(line4):
    y = drop_vertices(line4, {1, 3})
    assert [float(r) for r in y.rewards] == [0.0, 1.0, 0.0, 1.0]
    assert y.windows == line4.windows


def revalidated(y: TwInstance) -> TwInstance:
    """y rebuilt through the public constructor, which checks every field."""
    return TwInstance(y.metric, y.windows, y.rewards, y.s, y.t, y.budget, y.wait_policy)


def random_subwindow(rng: random.Random, w: TimeWindow) -> TimeWindow:
    lo, hi = sorted(w.release + w.length * F(rng.randint(0, 4), 4) for _ in range(2))
    return TimeWindow(lo, hi)


@pytest.mark.parametrize("mode", ["anchored", "start-only", "free"])
def test_derived_instances_equal_what_replace_builds(mode):
    rng = random.Random("derived-" + mode)
    for family in FAMILIES:
        for integral in (False, True):
            x = generate_instance(family, 6, 2, mode=mode, integral=integral)
            for _ in range(5):
                picked = rng.sample(range(x.n), rng.randint(0, x.n))
                new = {v: None if rng.random() < 0.3 else random_subwindow(rng, x.windows[v])
                       for v in picked}
                y = restrict(x, new)
                windows = tuple(new.get(v) or w for v, w in enumerate(x.windows))
                rewards = tuple(F(0) if v in new and new[v] is None else r
                                for v, r in enumerate(x.rewards))
                assert y == replace(x, windows=windows, rewards=rewards) == revalidated(y)
                keep = set(rng.sample(range(x.n), rng.randint(0, x.n)))
                y = drop_vertices(x, keep)
                rewards = tuple(r if v in keep else F(0) for v, r in enumerate(x.rewards))
                assert y == replace(x, rewards=rewards) == revalidated(y)
            ends = [None] + list(range(x.n))
            for (s, t) in [(None, None)] + [(s, t) for s in range(x.n) for t in ends]:
                y = _derived(x, s=s, t=t)
                assert y == replace(x, s=s, t=t) == revalidated(y)


@pytest.mark.parametrize("s, t", [(6, None), (-1, 2), (0, 6), (None, 2), (None, 0)])
def test_anchored_refuses_what_the_constructor_refuses(s, t):
    x = generate_instance("random-metric", 6, 1)
    with pytest.raises(PreconditionError) as full:
        replace(x, s=s, t=t)
    with pytest.raises(PreconditionError) as mine:
        _derived(x, s=s, t=t)
    assert str(mine.value) == str(full.value)


def test_derived_instances_skip_the_full_validation(monkeypatch):
    x = generate_instance("random-metric", 6, 1)
    bases = [generate_instance("random-metric", 6, seed, mode=mode, integral=integral)
             for seed in (1, 2) for mode in ("anchored", "free") for integral in (False, True)]

    def refuse(self):
        raise AssertionError("validated again")

    monkeypatch.setattr(TwInstance, "__post_init__", refuse)
    restrict(x, {1: None, 2: TimeWindow(x.windows[2].release, x.windows[2].release)})
    drop_vertices(x, {1, 3})
    _derived(x, t=None)
    derived = [(b, c, scale_times(b, c)) for b in bases for c in (F(3, 7), F(4))]
    derived += [(b, None, time_reversed(b)) for b in bases]
    monkeypatch.undo()
    # each passes the constructor's full checks, rebuilt from its own fields
    for (b, c, y) in derived:
        assert y == revalidated(y)
        if c is None:
            assert (y.s, y.t, y.budget) == (b.t, b.s, b.budget)
            assert y.windows == tuple(TimeWindow(b.budget - w.deadline, b.budget - w.release)
                                      for w in b.windows)
        else:
            assert (y.s, y.t, y.budget) == (b.s, b.t, b.budget * c)
            assert y.windows == tuple(TimeWindow(w.release * c, w.deadline * c)
                                      for w in b.windows)


@pytest.mark.parametrize("new", [{-2: None}, {7: None}, {5: TimeWindow(0, 1)},
                                 {1: None, -1: TimeWindow(0, 1)}])
def test_restrict_refuses_ids_outside_the_vertices(new):
    # a negative id would zero a vertex through Python's negative index
    x = generate_instance("random-metric", 5, 1)
    with pytest.raises(PreconditionError, match=r"vertex %d outside 0\.\.4" % min(new)):
        restrict(x, new)


def test_time_reversed_swaps_anchors(line4):
    y = time_reversed(line4)
    assert (y.s, y.t) == (3, 0)
    assert y.windows[1] == window(3, 4)    # [1,2] around pivot 5
    assert y.metric.d[0][1] == F(1)
    assert brute_force_opt(y).reward == brute_force_opt(line4).reward
    back = time_reversed(y)
    assert back.windows == line4.windows
    assert (back.s, back.t) == (0, 3)


def test_walk_from_claims(line4):
    sol = walk_from_claims(line4, [1, 2])
    assert sol.feasible
    assert sol.reward == F(2)
    assert sol.schedule[0][0] == 0 and sol.schedule[-1][0] == 3


def test_window_stats_skips_zero_length_for_ratio():
    x = build_instance(2, [(0, 1, F(1))], [(3, 3), (0, 4)],
                       [F(1), F(1)], 0, 1, F(4))
    st = window_stats(x)
    assert (st.l_min, st.l_max, st.l_ratio, st.d_max) == (F(4), F(4), F(1), F(4))


def test_restrict_never_raises_reward():
    # shrinking windows (or zeroing a reward) cannot help any fixed walk
    import random
    x = line4_instance(policy=NO_WAIT)
    y = restrict(x, {1: window(F(3, 2), 2), 2: None})
    rng = random.Random("restrict-mono")
    compared = 0
    for _ in range(100):
        interior = [(rng.randrange(4), True)
                    for _ in range(rng.randrange(0, 4))]
        order = [(0, True)] + interior + [(3, True)]
        a = evaluate_walk(x, order)
        b = evaluate_walk(y, order)
        assert a.feasible == b.feasible    # no-wait: only budget can fail
        if a.feasible:
            assert b.reward <= a.reward
            compared += 1
    assert compared > 50


def test_time_reversal_preserves_optimum_on_release_only():
    from orientw.generate import gen_deadline_instance
    for seed in range(12):
        x = gen_deadline_instance(seed, n_low=4, n_high=6)
        if x.t is None:    # reversal needs both anchors
            continue
        y = time_reversed(x)
        assert all(w.deadline == x.budget for w in y.windows)
        assert brute_force_opt(y).reward == brute_force_opt(x).reward
