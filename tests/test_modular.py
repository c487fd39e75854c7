import random
from fractions import Fraction as F

import pytest

import orientw.modular as modular
import orientw.oracles as oracles
from orientw import (EXACT_DEADLINE, EXACT_ORACLE, GREEDY_ORACLE, InfeasibleInstanceError,
                     ModularBlock, ModularPartition, OracleSpec, OrienteeringOracle,
                     PreconditionError, TimeWindow, brute_force_opt,
                     blocks_from_identical_windows, layered_deadline_oracle, solve_auto,
                     solve_reward_indexed, verify_modular, zero_window_dp)
from orientw.generate import gen_modular_instance, gen_zero_window_instance, generate_instance
from orientw.modular import (_release_group_solve, ensure_reachable_anchors, push_label,
                             require_modular)
from orientw.oracles import DeadlineOracle, WalkResult, exact_orienteering, exact_staircases

from conftest import (build_instance, line4_instance, ref_label_loop, ref_push_label,
                      solve_time_indexed, window)


def _two_block_line():
    # blocks [1,2] {1} and [3,4] {2,3} on a 5-vertex unit path
    x = build_instance(
        5, [(i, i + 1, 1) for i in range(4)],
        [(0, 8), (1, 2), (3, 4), (3, 4), (0, 8)],
        [0, 1, 1, 1, 0], 0, 4, 8)
    part = ModularPartition((
        ModularBlock(frozenset({1}), F(1), F(2)),
        ModularBlock(frozenset({2, 3}), F(3), F(4)),
    ))
    return x, part


def test_blocks_from_identical_windows():
    x, part = _two_block_line()
    got = blocks_from_identical_windows(x)
    assert len(got.blocks) == 2
    assert [b.members for b in got.blocks] == [frozenset({1}), frozenset({2, 3})]
    assert [(b.release, b.deadline) for b in got.blocks] == [(1, 2), (3, 4)]
    assert verify_modular(x, got) == []


def test_verify_modular_catches_problems():
    x, _ = _two_block_line()
    overlapping = ModularPartition((
        ModularBlock(frozenset({1}), F(1), F(4)),
        ModularBlock(frozenset({2, 3}), F(3), F(4)),
    ))
    assert verify_modular(x, overlapping)
    uncovered = ModularPartition((
        ModularBlock(frozenset({1}), F(1), F(2)),
    ))
    assert any("3" in p or "2" in p for p in verify_modular(x, uncovered))
    not_contained = ModularPartition((
        ModularBlock(frozenset({1}), F(0), F(2)),   # vertex 1 releases at 1
        ModularBlock(frozenset({2, 3}), F(3), F(4)),
    ))
    assert verify_modular(x, not_contained)
    with pytest.raises(PreconditionError):
        require_modular(x, uncovered)


def test_anchor_vertices_are_exempt_from_coverage():
    x = build_instance(
        3, [(0, 1, 1), (1, 2, 1)],
        [(0, 6), (2, 3), (0, 6)],
        [1, 1, 1], 0, 2, 6)   # rewarded anchors, windows never in blocks
    part = ModularPartition((ModularBlock(frozenset({1}), F(2), F(3)),))
    assert verify_modular(x, part) == []


def test_ensure_reachable_anchors():
    x = line4_instance(budget=F(2),
                       windows=(window(0, 2), window(1, 2),
                                window(2, 2), window(0, 2)))
    with pytest.raises(InfeasibleInstanceError):
        ensure_reachable_anchors(x)


def _assert_exact(x, part, res):
    opt = brute_force_opt(x).reward
    assert res.claimed == opt
    assert res.walk.feasible
    assert res.walk.reward == opt


def test_all_three_dps_on_the_line():
    x, part = _two_block_line()
    _assert_exact(x, part, solve_time_indexed(x, part, EXACT_ORACLE))
    _assert_exact(x, part, solve_reward_indexed(x, part, EXACT_ORACLE))
    _assert_exact(x, part, _release_group_solve(x, EXACT_DEADLINE))


def test_all_three_dps_on_seeded_instances():
    for seed in range(25):
        x, part = gen_modular_instance(seed, n_low=4, n_high=7)
        opt = brute_force_opt(x).reward
        for solver in (solve_time_indexed, solve_reward_indexed):
            res = solver(x, part, EXACT_ORACLE)
            assert res.claimed == opt, (seed, solver.__name__, res.claimed, opt)
            assert res.walk.reward == opt
        # member windows equal their block's interval, so the blocks are
        # release groups too
        res = _release_group_solve(x, EXACT_DEADLINE)
        assert res.claimed == opt and res.walk.reward == opt


def test_exact_release_groups_take_every_exit_from_one_search(monkeypatch):
    # EXACT_DEADLINE's staircase search answers every entry (u, e) at once:
    # neither a point query nor the walk-down runs, and the DP returns what
    # the walk-down of the same oracle gives, segment for segment
    instances = [gen_modular_instance(seed, n_low=5, n_high=9)[0] for seed in range(12)]
    walked_down = DeadlineOracle(EXACT_DEADLINE.spec, EXACT_DEADLINE.fn)
    expected = [_release_group_solve(x, walked_down) for x in instances]
    calls = []

    def refused(name):
        def fn(*args):
            calls.append(name)
            raise AssertionError(name)
        return fn

    monkeypatch.setattr(oracles, "_exact_point", refused("exact_deadline"))
    monkeypatch.setattr(oracles, "earliest_limits", refused("earliest_limits"))
    assert [_release_group_solve(x, EXACT_DEADLINE) for x in instances] == expected
    assert calls == []


def test_layered_release_groups_still_walk_each_exit_down(monkeypatch):
    walks = []
    real = oracles.earliest_limits

    def counted(*args):
        walks.append(args)
        return real(*args)

    monkeypatch.setattr(oracles, "earliest_limits", counted)
    x, _part = _two_block_line()
    res = _release_group_solve(x, layered_deadline_oracle(GREEDY_ORACLE))
    assert res.walk.feasible and walks


@pytest.mark.parametrize("lie, message", [("duration", "duration"), ("reward", "reward"),
                                          ("endpoint", "endpoints")])
def test_a_misreporting_staircase_search_is_refused(lie, message):
    def lying(table, credit, u, t0):
        found = exact_staircases(table, credit, u, t0)
        for w in sorted(found):
            if w != u and found[w]:
                d, r, order = found[w][-1]
                found[w][-1] = {"duration": (d + 1, r, order), "reward": (d, r + 1, order),
                                "endpoint": (d, r, order[:-1])}[lie]
        return found

    x, _part = _two_block_line()
    liar = DeadlineOracle(OracleSpec("liar", F(1)), EXACT_DEADLINE.fn, lying)
    with pytest.raises(PreconditionError, match="liar .*%s" % message):
        _release_group_solve(x, liar)


def _lying(fn, lie):
    """fn with one lie in each answer it gives: its order starting one
    vertex further on, its duration or its reward one more."""
    def told(q):
        res = fn(q)
        return {"endpoints": WalkResult((q.u + 1,) + res.order, res.reward, res.duration),
                "duration": WalkResult(res.order, res.reward, res.duration + 1),
                "reward": WalkResult(res.order, res.reward + 1, res.duration)}[lie]
    return told


@pytest.mark.parametrize("lie", ["endpoints", "duration", "reward"])
def test_a_lying_point_oracle_is_refused_in_the_walk_down(lie):
    # fn-only oracles reach the DPs through exit_staircases' walk-down: a
    # block entry, a release-group entry, and the inner oracle of the
    # layered heuristic each hold the lie to the contract
    x, part = _two_block_line()
    spec = OracleSpec("liar", F(1), guaranteed=False)
    liar = OrienteeringOracle(spec, _lying(exact_orienteering, lie))
    message = "liar .*%s" % lie
    with pytest.raises(PreconditionError, match=message):
        solve_reward_indexed(x, part, liar)
    with pytest.raises(PreconditionError, match=message):
        _release_group_solve(x, DeadlineOracle(spec, _lying(EXACT_DEADLINE.fn, lie)))
    with pytest.raises(PreconditionError, match=message):
        _release_group_solve(x, layered_deadline_oracle(liar))
    # told the truth, the same oracles pass
    honest = OrienteeringOracle(spec, exact_orienteering)
    assert solve_reward_indexed(x, part, honest).walk.feasible
    assert _release_group_solve(x, layered_deadline_oracle(honest)).walk.feasible


def test_exact_dps_agree_past_brute_force_sizes():
    # 20-30 vertices, too many for brute_force_opt; the time-indexed DP of
    # conftest is the independent exact side
    compared = 0
    for seed in range(40):
        x, part = gen_modular_instance(seed, 20, 30)
        if max(len(b.members) for b in part.blocks) > 14:
            continue
        by_time = solve_time_indexed(x, part, EXACT_ORACLE)
        by_reward = solve_reward_indexed(x, part, EXACT_ORACLE)
        assert (by_reward.claimed, by_reward.walk.reward) == \
            (by_time.claimed, by_time.walk.reward), seed
        compared += 1
    assert compared >= 20


def test_reward_indexed_takes_rational_block_bounds():
    x = build_instance(
        3, [(0, 1, 1), (1, 2, 1)],
        [(0, 6), (F(3, 2), F(5, 2)), (0, 6)],
        [0, 1, 0], 0, 2, 6)
    part = ModularPartition((ModularBlock(frozenset({1}), F(3, 2), F(5, 2)),))
    res = solve_reward_indexed(x, part, EXACT_ORACLE)
    assert res.claimed == brute_force_opt(x).reward


def test_reward_indexed_fractional_rewards():
    x = build_instance(
        4, [(i, i + 1, 1) for i in range(3)],
        [(0, 8), (1, 2), (1, 2), (0, 8)],
        [0, F(1, 2), F(3, 4), 0], 0, 3, 8)
    part = blocks_from_identical_windows(x)
    res = solve_reward_indexed(x, part, EXACT_ORACLE)
    assert res.claimed == brute_force_opt(x).reward


def test_declared_ratio_contract():
    # exact function published with a pessimistic ratio of 2: the claimed
    # value may exceed what the walk actually earns, but never by more than
    # that factor, and it still dominates the true optimum
    loose = OrienteeringOracle(OracleSpec("loose", F(2)), exact_orienteering)
    for seed in range(12):
        x, part = gen_modular_instance(seed, n_low=4, n_high=7)
        opt = brute_force_opt(x).reward
        res = solve_reward_indexed(x, part, loose)
        assert res.claimed >= opt, (seed, res.claimed, opt)
        assert res.walk.reward * 2 >= res.claimed
        assert res.walk.feasible


def test_segments_claim_what_the_walk_collects():
    x, part = _two_block_line()
    res = solve_reward_indexed(x, part, EXACT_ORACLE)
    visited = set()
    for _bi, order in res.segments:
        visited.update(order)
    members = set().union(*(b.members for b in part.blocks))
    assert visited & members <= set(res.walk.collected)


def _edge_by_edge(line):
    """An oracle whose walks are exact_orienteering's on the unit path
    line, with every vertex between two stops listed."""
    where = {v: i for i, v in enumerate(line)}

    def listed(q):
        res = exact_orienteering(q)
        order = list(res.order[:1])
        for a, b in zip(res.order, res.order[1:]):
            step = 1 if where[b] > where[a] else -1
            order += [line[i] for i in range(where[a] + step, where[b] + step, step)]
        return WalkResult(tuple(order), res.reward, res.duration)

    return OrienteeringOracle(OracleSpec("edge-by-edge", F(1)), listed)


def test_a_walk_listed_edge_by_edge_flags_only_rewarded_vertices():
    # the unit path 0-3-1-5-2-4, one block {2, 3, 5} on [0, 10]; vertex 1
    # has no reward and the window [0, 0], so a walk that passes it at time
    # 2 must not flag it there
    line = [0, 3, 1, 5, 2, 4]
    x = build_instance(6, list(zip(line, line[1:], [1] * 5)),
                       [(0, 10), (0, 0), (0, 10), (0, 10), (0, 10), (0, 10)],
                       [0, 0, 1, 1, 0, 1], 0, 4, 10)
    part = ModularPartition((ModularBlock(frozenset({2, 3, 5}), F(0), F(10)),))
    res = solve_reward_indexed(x, part, _edge_by_edge(line))
    assert res.claimed == 3
    assert res.walk.feasible and res.walk.reward == 3


def test_a_vertex_is_flagged_only_in_the_segment_of_its_block():
    # the unit path 0-3-1-5-2-4: block {2, 3, 5} on [0, 5] walks 3-1-5-2,
    # passing vertex 1 at time 2, long before its own block {1} on [8, 10];
    # flagged there, the walk was infeasible and collapsed to reward 0
    line = [0, 3, 1, 5, 2, 4]
    x = build_instance(6, list(zip(line, line[1:], [1] * 5)),
                       [(0, 12), (8, 10), (0, 5), (0, 5), (0, 12), (0, 5)],
                       [0, 1, 1, 1, 0, 1], 0, 4, 12)
    part = ModularPartition((ModularBlock(frozenset({2, 3, 5}), F(0), F(5)),
                             ModularBlock(frozenset({1}), F(8), F(10))))
    res = solve_reward_indexed(x, part, _edge_by_edge(line))
    assert res.segments == ((0, (3, 1, 5, 2)), (1, (1,)))
    assert res.claimed == 4
    assert res.walk.feasible and res.walk.reward == 4
    assert res.walk.collected == {1, 2, 3, 5}
    assert res.walk.reward == solve_reward_indexed(x, part, EXACT_ORACLE).walk.reward
    assert [(v, c) for (v, _t, c) in res.walk.schedule] == [
        (0, False), (3, True), (1, False), (5, True), (2, True), (1, True), (4, False)]


def test_earliest_limits_finds_leftmost_durations():
    from orientw import OrienteeringQuery, best_orienteering_walk
    from orientw.oracles import earliest_limits
    from conftest import line_metric
    m = line_metric(4)
    eligible = {1: F(1), 2: F(1)}

    def min_time(u, w, level):
        stairs = earliest_limits(lambda budget: best_orienteering_walk(
            EXACT_ORACLE, OrienteeringQuery(m, eligible, u, w, budget)), F(0), F(6), F(1, m.scale))
        return next((res.duration for res in stairs if res.reward >= level), None)

    assert min_time(1, 2, F(0)) == F(1)
    assert min_time(1, 2, F(2)) == F(1)
    assert min_time(1, 2, F(3)) is None
    assert min_time(0, 3, F(2)) == F(3)


def test_time_indexed_offers_a_running_best_over_ascending_budgets(monkeypatch):
    # block {1, 2, 3} on the unit path 0-1-2-3-4; from budget 5 on, the
    # oracle answers 1 -> 3 with the detour 1 -> 0 -> 1 -> 3, longer and
    # poorer than 1 -> 2 -> 3, which a larger budget must not offer
    from orientw.oracles import WalkResult, _result_better
    detour = WalkResult((1, 0, 1, 3), F(2), F(4))
    asked = []

    def erratic(q):
        if q.budget >= 5 and (q.u, q.v) == (1, 3):
            asked.append(q.budget)
            return detour
        return exact_orienteering(q)

    oracle = OrienteeringOracle(OracleSpec("erratic", F(1), guaranteed=False), erratic)
    x = build_instance(5, [(i, i + 1, 1) for i in range(4)],
                       [(0, 10), (1, 7), (1, 7), (1, 7), (0, 10)], [0, 1, 1, 1, 0], 0, 4, 10)
    offered = []  # one {exit: answers} per moves call

    def offers(x, units, steps):
        # moves takes and yields integer units; read the answers back in Fractions
        for (_bi, release, _deadline, entries, moves) in steps:
            for u in entries:
                for e in (release, release + units.tscale, release):
                    by_exit = {}
                    for (w, duration, gain, order) in moves(u, e):
                        assert type(duration) is int and type(gain) is int
                        by_exit.setdefault(w, []).append(WalkResult(
                            order, F(gain, units.rscale), F(duration, units.tscale)))
                    offered.append(((u, F(e, units.tscale)), by_exit))
        return {}

    monkeypatch.setattr(modular, "_label_loop", offers)
    solve_time_indexed(x, blocks_from_identical_windows(x), oracle)
    assert asked == [F(5), F(6)]  # once each: later entries reuse the block's answers
    assert [by_exit[3] for (entry, by_exit) in offered if entry == (1, 1)] == \
        [[WalkResult((1, 2, 3), F(3), F(2))]] * 2
    for (_entry, by_exit) in offered:
        for answers in by_exit.values():
            assert all(_result_better(b, a) for a, b in zip(answers, answers[1:]))


def test_empty_partition_walks_straight_through():
    # only the anchors carry reward, so no block is required
    x = build_instance(4, [(i, i + 1, 1) for i in range(3)],
                       [(0, 5)] * 4, [1, 0, 0, 1], 0, 3, F(5))
    part = ModularPartition(())
    assert verify_modular(x, part) == []
    res = solve_reward_indexed(x, part, EXACT_ORACLE)
    assert res.claimed == 0
    assert res.walk.feasible
    assert res.walk.reward == F(2)


def test_exact_walk_down_solves_a_wide_block_only_once_entered():
    # twenty members, all 10 away from the start anchor and from each other
    # via the anchors: no size cap stops the exact walk-down
    members = range(1, 21)
    edges = [(0, v, 10) for v in members] + [(v, 21, 10) for v in members] + [(0, 21, 1)]

    def solve(release, deadline, oracle):
        windows = [(0, 60)] + [(release, deadline)] * 20 + [(0, 60)]
        x = build_instance(22, edges, windows, [0] + [1] * 20 + [0], 0, 21, 60)
        return solve_reward_indexed(x, blocks_from_identical_windows(x), oracle)

    # the first member is reached at 10, a second at 30 <= 40, a third at 50 > 40
    assert solve(10, 40, EXACT_ORACLE).claimed == 2
    # the block closes before any member is reachable, so no label enters it
    asked = []
    counting = OrienteeringOracle(OracleSpec("counting", F(1)),
                                  lambda q: asked.append(q) or exact_orienteering(q))
    assert solve(0, 5, counting).claimed == 0
    assert asked == []


def test_zero_window_blocks_never_ask_the_oracle():
    def refuse(q):
        raise AssertionError("asked %r" % (q,))

    never = OrienteeringOracle(OracleSpec("never", F(1)), refuse)
    for seed in range(100):
        x = gen_zero_window_instance(seed)
        instants = sorted((x.windows[v].release, v) for v in x.positive_vertices())
        part = ModularPartition(tuple(ModularBlock(frozenset((v,)), at, at)
                                      for (at, v) in instants))
        assert solve_reward_indexed(x, part, never).walk == zero_window_dp(x).walk, seed


def test_single_block_is_one_oracle_call_worth():
    x = build_instance(5, [(i, i + 1, 1) for i in range(4)],
                       [(0, 8)] * 5, [0, 1, 1, 1, 0], 0, 4, F(8))
    part = blocks_from_identical_windows(x)
    assert len(part.blocks) == 1
    res = solve_time_indexed(x, part, EXACT_ORACLE)
    assert res.claimed == brute_force_opt(x).reward


def test_ratio_two_oracle_earns_half_rounded_up():
    import math
    loose = OrienteeringOracle(OracleSpec("loose", F(2)), exact_orienteering)
    for seed in range(8):
        x, part = gen_modular_instance(seed, n_low=4, n_high=6)
        opt = brute_force_opt(x).reward
        res = solve_time_indexed(x, part, loose)
        assert res.walk.reward >= math.ceil(opt / 2), seed


def test_push_label_keeps_a_strict_frontier_and_the_first_back():
    # the label loop's determinism rests on this: among equal labels the first
    # back-pointer pushed is the one that survives
    frontier = []
    push_label(frontier, (F(2), F(3), "first"))
    push_label(frontier, (F(2), F(3), "second"))
    assert frontier == [(F(2), F(3), "first")]
    rng = random.Random(11)
    # the label loop pushes labels in integer units; Fractions order the same way
    for num in [F] * 200 + [int] * 200:
        frontier, pushed = [], []
        for i in range(rng.randint(1, 12)):
            entry = (num(rng.randint(0, 6)), num(rng.randint(0, 6)), i)
            push_label(frontier, entry)
            pushed.append(entry)
        times = [e[0] for e in frontier]
        rewards = [e[1] for e in frontier]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert all(a < b for a, b in zip(rewards, rewards[1:]))
        undominated = {}
        for (t, r, i) in pushed:
            if not any(t2 <= t and r2 >= r and (t2, r2) != (t, r) for (t2, r2, _j) in pushed):
                undominated.setdefault((t, r), i)
        assert {(t, r): i for (t, r, i) in frontier} == undominated


def test_push_label_matches_the_filter_and_sort_referee():
    # seeded pushes over a small grid of times and rewards, so equal and
    # dominated labels are common; list order and back-pointers must agree
    rng = random.Random(25)
    for trial in range(2000):
        frontier, expected = [], []
        for i in range(rng.randint(1, 16)):
            entry = (rng.randint(0, 8), rng.randint(0, 8), (trial, i))
            push_label(frontier, entry)
            ref_push_label(expected, entry)
            assert frontier == expected, (trial, i)
            assert all(a is b for a, b in zip(frontier, expected))


def _label_loop_runs(monkeypatch, loop, x, kwargs):
    """solve_auto's outcome on x and every label loop's labels, as position
    and frontier pairs in dict order, with modular._label_loop replaced by
    loop."""
    runs = []

    def recorded(x, units, steps):
        labels = loop(x, units, steps)
        runs.append([(p, list(ls)) for p, ls in labels.items()])
        return labels

    monkeypatch.setattr(modular, "_label_loop", recorded)
    try:
        report = solve_auto(x, **kwargs)
    except (PreconditionError, InfeasibleInstanceError) as refusal:
        return repr(refusal), runs
    return (report.algorithm, report.walk, report.bound, report.version_rewards), runs


@pytest.mark.parametrize("heuristic", [False, True], ids=["exact", "greedy-layered"])
@pytest.mark.parametrize("integral", [True, False], ids=["integral", "quarter"])
@pytest.mark.parametrize("mode", ["anchored", "start-only", "free"])
def test_label_loop_matches_the_copy_everything_referee(monkeypatch, mode, integral, heuristic):
    kwargs = {}
    if heuristic:
        kwargs = dict(oracle=GREEDY_ORACLE, deadline_oracle=layered_deadline_oracle(GREEDY_ORACLE))
    real, loops, labels = modular._label_loop, 0, 0
    # twelve seeds: a version that cannot beat the best walk before it runs
    # no label loop (algorithms._compose), and seven read as few as 24 loops
    # and 229 labels
    for seed in range(12):
        # many small blocks, then a few wide ones with frontiers of up to 36 labels
        for x in (generate_instance("random-metric", 8, seed, mode=mode, integral=integral),
                  generate_instance("random-metric", 6, seed, mode=mode, integral=integral,
                                    horizon=F(20), l_low=F(8), l_high=F(16))):
            got = _label_loop_runs(monkeypatch, real, x, kwargs)
            assert got == _label_loop_runs(monkeypatch, ref_label_loop, x, kwargs), seed
            loops += len(got[1])
            labels += sum(len(ls) for run in got[1] for (_p, ls) in run)
    assert loops >= 40 and labels >= 300


@pytest.mark.parametrize("integral", [True, False], ids=["integral", "quarter"])
@pytest.mark.parametrize("mode", ["anchored", "start-only", "free"])
def test_label_loop_matches_the_referee_on_sparse_versions(monkeypatch, mode, integral):
    # n=20 at the generator's default horizon: many small blocks, entered
    # again and again at the same (u, e), which the loop enters once per
    # reward it improves on and the referee enters every time
    real, loops = modular._label_loop, 0
    # eight seeds: with skipped versions, six read 17-19 loops on the quarter grid
    for seed in range(8):
        x = generate_instance("random-metric", 20, seed, mode=mode, integral=integral)
        got = _label_loop_runs(monkeypatch, real, x, {})
        assert got == _label_loop_runs(monkeypatch, ref_label_loop, x, {}), seed
        loops += len(got[1])
    assert loops >= 20


def _pushes(monkeypatch, module, name, loop, x):
    """_label_loop_runs of loop on x, and the calls of module.name, the
    push it makes."""
    real, calls = getattr(module, name), [0]

    def counted(frontier, entry):
        calls[0] += 1
        real(frontier, entry)

    with monkeypatch.context() as patched:
        patched.setattr(module, name, counted)
        runs = _label_loop_runs(monkeypatch, loop, x, {})
    return runs, calls[0]


def test_a_block_enters_each_entry_once_per_better_reward(monkeypatch):
    # the referee's labels from under half its pushes on one sparse
    # instance: 329 pushes against 845
    import conftest
    x = generate_instance("random-metric", 20, 1)
    got, pushed = _pushes(monkeypatch, modular, "push_label", modular._label_loop, x)
    expected, ref_pushed = _pushes(monkeypatch, conftest, "ref_push_label", ref_label_loop, x)
    assert got == expected
    assert 0 < 2 * pushed < ref_pushed, (pushed, ref_pushed)


def test_label_loop_pushes_from_the_unstarted_position_first():
    # on a free walk, the unstarted position (None) and vertex 0 enter the
    # second block at the same time with the same reward, so their labels
    # tie and the first push's back-pointer is kept: None's, as in the referee
    x = line4_instance(s=None, t=None)
    units = modular.dp_units(x)

    def steps():
        yield 0, 0, 8, [0], lambda u, e: [(0, 0, 0, (0,))]
        yield 1, 5, 8, [1], lambda u, e: [(1, 1, 1, (1,))]

    labels = modular._label_loop(x, units, steps())
    assert labels[1] == [(6, 1, (1, (1,), None))]
    assert list(labels.items()) == list(ref_label_loop(x, units, steps()).items())


def test_blocks_from_identical_windows_matches_grouping_by_fractions():
    # integer keys group the blocks as the windows' Fractions do,
    # on windows in halves and quarters, shared by up to all of a block
    instances = [gen_modular_instance(seed)[0] for seed in range(20)]
    instances += [generate_instance("random-metric", 9, seed, integral=integral, horizon=F(12),
                                    l_low=F(2), l_high=F(3))
                  for seed in range(20) for integral in (True, False)]
    for x in instances:
        groups = {}
        for v in x.positive_vertices():
            groups.setdefault((x.windows[v].release, x.windows[v].deadline), set()).add(v)
        assert blocks_from_identical_windows(x) == ModularPartition(tuple(
            ModularBlock(frozenset(mem), r, d) for (r, d), mem in sorted(groups.items())))


# sha256 of (claimed, reward, schedule, segments) of both oracle DPs (conftest's
# time-indexed referee and solve_reward_indexed) with the greedy oracle on
# seeded gen_modular_instance; solve_auto's pin in test_regression.py never
# reaches the referee
MODULAR_GREEDY_PIN = "7e57f431739d11575c1c725133c038379c3fca61d4e9c7e13efc77037ad4de35"


def test_modular_dps_with_the_greedy_oracle_match_the_pinned_digest():
    import hashlib
    from orientw import GREEDY_ORACLE
    h = hashlib.sha256()
    for seed in range(60):
        x, part = gen_modular_instance(seed)
        for solver in (solve_time_indexed, solve_reward_indexed):
            res = solver(x, part, GREEDY_ORACLE)
            schedule = ";".join("%d@%s%s" % (v, t, "+" if c else "")
                                for (v, t, c) in res.walk.schedule)
            h.update(("%s|%s|%s|%s\n" % (res.claimed, res.walk.reward, schedule,
                                         res.segments)).encode("utf-8"))
    assert h.hexdigest() == MODULAR_GREEDY_PIN
