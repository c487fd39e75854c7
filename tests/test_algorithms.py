import gc
import inspect
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from orientw import (ALGORITHMS, EXACT_DEADLINE, EXACT_ORACLE, GREEDY_ORACLE,
                     DeadlineOracle, OrienteeringOracle, PreconditionError, SolveReport,
                     TwInstance, brute_force_opt, evaluate_walk, layered_deadline_oracle,
                     reduce_deadline_to_tw, restrict, run_algorithm, solve_auto,
                     solve_free_general, solve_free_l_le_2, solve_general,
                     solve_integer_endpoints, solve_l_le_2, window_stats, zero_window_dp)
import orientw.algorithms as algorithms
import orientw.memo as memo
import orientw.modular as modular
import orientw.oracles as oracles
from orientw.generate import (gen_deadline_instance, gen_general_instance,
                              gen_integer_instance, gen_ratio2_instance,
                              gen_zero_window_instance, generate_instance)

from conftest import build_instance, line4_instance, solver_runs, window


def _opt(x):
    return brute_force_opt(x).reward


# ----- fixed-instant DP -------------------------------------------------------

def test_zero_window_on_line():
    x = line4_instance(windows=(window(0, 5), window(1, 1),
                                window(2, 2), window(0, 5)),
                       rewards=(0, 1, 1, 0))
    rep = zero_window_dp(x)
    assert rep.walk.reward == F(2) == _opt(x)
    assert rep.bound == 1
    assert rep.algorithm == "zero-window"


def test_zero_window_needs_fixed_instants(line4):
    with pytest.raises(PreconditionError):
        zero_window_dp(line4)


def test_zero_window_matches_brute_on_seeds():
    for seed in range(20):
        x = gen_zero_window_instance(seed, n_low=4, n_high=8)
        rep = zero_window_dp(x)
        assert rep.walk.reward == _opt(x), seed
        assert rep.walk.feasible


def test_zero_window_unreachable_instants_skipped():
    # vertex 1 fixed at time 0 but one unit away: cannot be claimed
    x = line4_instance(windows=(window(0, 5), window(0, 0),
                                window(2, 2), window(0, 5)),
                       rewards=(0, 1, 1, 0))
    rep = zero_window_dp(x)
    assert rep.walk.reward == F(1) == _opt(x)


# ----- integer endpoints --------------------------------------------------------

def test_integer_endpoints_exact_on_unit_windows():
    for seed in [0, 5, 10, 15]:   # these force every length to 1
        x = gen_integer_instance(seed)
        st = window_stats(x)
        if st.l_max != 1:
            continue
        rep = solve_integer_endpoints(x)
        assert rep.walk.reward == _opt(x), seed


def test_integer_endpoints_guarantee_on_seeds():
    for seed in range(12):
        x = gen_integer_instance(seed, l_max=8)
        st = window_stats(x)
        opt = _opt(x)
        rep = solve_integer_endpoints(x)
        assert rep.walk.reward * rep.bound >= opt, seed
        if st.l_max and st.l_max > 1:
            formula = 2 * math.ceil(math.log2(st.l_max))
            assert rep.walk.reward * formula >= opt, seed


def test_integer_endpoints_rejects_fractional_windows(line4):
    x = line4_instance(windows=(window(0, 5), window(F(1, 2), F(3, 2)),
                                window(2, 3), window(0, 5)))
    with pytest.raises(PreconditionError):
        solve_integer_endpoints(x)


def test_integer_endpoints_needs_anchors():
    x = gen_integer_instance(3)
    free = TwInstance(x.metric, x.windows, x.rewards, None, None,
                      x.budget, x.wait_policy)
    with pytest.raises(PreconditionError):
        solve_integer_endpoints(free)


# ----- length ratio at most two ---------------------------------------------------

def test_l2_guarantee_on_seeds():
    for seed in range(12):
        x = gen_ratio2_instance(seed)
        opt = _opt(x)
        rep = solve_l_le_2(x)
        assert rep.walk.feasible
        assert rep.walk.reward >= F(math.ceil(F(opt, 3))), (seed, rep.walk.reward, opt)
        assert rep.walk.reward * rep.bound >= opt


def test_l2_rejects_wide_ratio(line4):
    with pytest.raises(PreconditionError):
        solve_l_le_2(line4)


def test_l2_refuses_a_wide_ratio_before_an_unreachable_end_anchor():
    # the split refuses the ratio, and the split comes before the anchor
    # check: the end anchor (3 away) lies past the budget 2, but the
    # window lengths 2, 1, 1/2 and 2 are refused first
    x = line4_instance(budget=F(2), windows=(window(0, 2), window(1, 2),
                                             window(F(3, 2), 2), window(0, 2)))
    with pytest.raises(PreconditionError, match="window length ratio 4 exceeds 2"):
        solve_l_le_2(x)


def test_l2_handles_zero_and_positive_mix():
    x = build_instance(
        5, [(i, i + 1, 1) for i in range(4)],
        [(0, 9), (2, 2), (1, 2), (3, F(9, 2)), (0, 9)],
        [0, 1, 1, 1, 0], 0, 4, 9)
    rep = solve_l_le_2(x)
    assert rep.walk.reward * rep.bound >= _opt(x)
    labels = [label for (label, _r) in rep.version_rewards]
    assert "Z" in labels


# ----- general lengths ------------------------------------------------------------

def test_general_guarantee_on_seeds():
    for seed in range(10):
        x = gen_general_instance(seed, l_cap=8)
        opt = _opt(x)
        rep = solve_general(x)
        st = window_stats(x)
        assert rep.walk.reward * rep.bound >= opt, seed
        if st.l_ratio and st.l_ratio > 1:
            formula = 3 * 2 * max(1, math.ceil(math.log2(st.l_ratio)))
            assert rep.walk.reward * formula >= opt, seed


def test_general_handles_line4(line4):
    rep = solve_general(line4)
    assert rep.walk.reward == F(4)   # happens to be exact here
    assert rep.walk.feasible


# ----- free endpoints ---------------------------------------------------------------

def test_free_l2_guarantee_on_seeds():
    for seed in range(10):
        x = gen_ratio2_instance(seed, mode="free")
        opt = _opt(x)
        rep = solve_free_l_le_2(x)
        assert rep.walk.feasible
        assert rep.walk.reward >= F(math.ceil(F(opt, 5))), (seed, rep.walk.reward, opt)
        assert rep.walk.reward * rep.bound >= opt


def test_free_l2_rejects_anchored(line4):
    with pytest.raises(PreconditionError):
        solve_free_l_le_2(line4)


def test_free_general_on_seeds():
    for seed in range(8):
        x = gen_general_instance(seed, l_cap=6)
        x = TwInstance(x.metric, x.windows, x.rewards, None, None,
                       x.budget, x.wait_policy)
        opt = _opt(x)
        rep = solve_free_general(x)
        assert rep.walk.feasible
        assert rep.walk.reward * rep.bound >= opt, seed


# ----- deadline reduction -------------------------------------------------------------

def test_reduce_deadline_preserves_optimum():
    for seed in range(12):
        x = gen_deadline_instance(seed)
        y = reduce_deadline_to_tw(x)
        assert y.n == x.n + 1
        st = window_stats(y)
        assert st.l_ratio is None or st.l_ratio <= 2, seed
        assert _opt(y) == _opt(x), seed


def test_reduce_deadline_window_shape():
    x = gen_deadline_instance(1)
    y = reduce_deadline_to_tw(x)
    dmax = max(x.windows[v].deadline for v in x.positive_vertices())
    assert y.budget == x.budget + dmax
    for v in x.positive_vertices():
        assert y.windows[v].release == 0 or y.windows[v].release == x.windows[v].release
        assert y.windows[v].deadline == x.windows[v].deadline + dmax


def test_reduce_deadline_rejects_released_windows(line4):
    with pytest.raises(PreconditionError):
        reduce_deadline_to_tw(line4)   # vertex 1 releases at 1


# ----- auto and the registry ------------------------------------------------------------

def test_auto_on_every_mode():
    cases = [gen_integer_instance(2), gen_ratio2_instance(3),
             gen_ratio2_instance(4, mode="free"),
             gen_zero_window_instance(7),
             gen_ratio2_instance(5, mode="start-only")]
    for x in cases:
        rep = solve_auto(x, EXACT_ORACLE, EXACT_DEADLINE)
        opt = _opt(x)
        assert rep.walk.feasible
        assert rep.walk.reward * rep.bound >= opt
        # the reported walk must replay on the original instance
        order = [(v, c) for (v, _t, c) in rep.walk.schedule]
        again = evaluate_walk(x, order)
        assert again.feasible and again.reward == rep.walk.reward


def test_registry_names():
    assert sorted(ALGORITHMS) == ["auto", "free-general", "free-l2", "general",
                                  "integer-endpoints", "l2", "zero-window"]
    x = gen_integer_instance(1)
    rep = run_algorithm("integer-endpoints", x, EXACT_ORACLE, EXACT_DEADLINE)
    assert rep.walk.feasible
    with pytest.raises(PreconditionError):
        run_algorithm("nope", x, EXACT_ORACLE, EXACT_DEADLINE)


def test_every_registered_solver_takes_one_signature():
    for name, solver in ALGORITHMS.items():
        params = inspect.signature(solver).parameters
        assert list(params) == ["x", "oracle", "deadline_oracle"], name
        assert params["oracle"].default is EXACT_ORACLE, name
        assert params["deadline_oracle"].default is EXACT_DEADLINE, name


def test_every_solver_walks_the_bare_anchors_when_nothing_pays():
    # no version is built, so each report is the anchors-only walk at bound 1
    accepting = {(0, 3): {"integer-endpoints", "l2", "general", "zero-window", "auto"},
                 (0, None): {"zero-window", "auto"},
                 (None, None): {"free-l2", "free-general", "zero-window", "auto"}}
    for (s, t), names in accepting.items():
        x = line4_instance(rewards=(F(0),) * 4, s=s, t=t)
        for name, solver in ALGORITHMS.items():
            if name not in names:
                with pytest.raises(PreconditionError):
                    solver(x)
                continue
            rep = solver(x)
            assert (rep.walk.reward, rep.bound, rep.beta) == (0, 1, 1), (name, x.mode)
            assert rep.walk.feasible and rep.walk.collected == frozenset(), (name, x.mode)
            assert rep.walk.order == tuple(v for v in (s, t) if v is not None), (name, x.mode)


def _fixed_instants_among_windows(s, t):
    # vertices 1 and 3 are fixed instants; the others hold integral windows
    # of length 2 or 3, which every composed solver of either mode accepts
    return build_instance(6, [(i, i + 1, 1) for i in range(5)],
                          [(0, 2), (1, 1), (2, 4), (3, 3), (4, 7), (6, 9)],
                          [1] * 6, s, t, 10)


@pytest.mark.parametrize("name, s, t", [
    ("integer-endpoints", 0, 5), ("l2", 0, 5), ("general", 0, 5),
    ("free-l2", None, None), ("free-general", None, None)])
def test_every_composed_solver_adds_the_z_version(name, s, t):
    x = _fixed_instants_among_windows(s, t)
    rep = ALGORITHMS[name](x)
    # the same solver without the fixed instants builds every other version
    rest = ALGORITHMS[name](restrict(x, {1: None, 3: None}))
    assert rep.version_rewards[0][0] == "Z"
    assert [l for l, _ in rep.version_rewards[1:]] == [l for l, _ in rest.version_rewards]
    assert rep.bound == 1 + rest.bound
    assert rep.walk.reward * rep.bound >= _opt(x)


@pytest.mark.parametrize("name, s, t", [
    ("integer-endpoints", 0, 5), ("l2", 0, 5), ("general", 0, 5),
    ("free-l2", None, None), ("free-general", None, None)])
def test_a_split_takes_x_itself_unless_a_window_is_a_fixed_instant(monkeypatch, name, s, t):
    # _compose copies x for its split only to drop the fixed instants
    split_on = []
    real = algorithms._compose

    def recording(label, x, mode, split, solve_version):
        def spying(xp):
            split_on.append((x, xp))
            return split(xp)
        return real(label, x, mode, spying, solve_version)

    monkeypatch.setattr(algorithms, "_compose", recording)
    x = _fixed_instants_among_windows(s, t)
    for y in (x, restrict(x, {1: None, 3: None})):
        split_on.clear()
        ALGORITHMS[name](y)
        assert split_on[0][0] is y and (split_on[0][1] is y) == (y is not x)
        for (z, zp) in split_on:
            zero = algorithms._length_split(z)[0]
            assert (zp is z) == (not zero)
            assert zp == restrict(z, {v: None for v in zero})


def test_integer_endpoints_accepts_a_fractional_fixed_instant():
    # only positive-length windows need integral endpoints; vertex 1's
    # instant 3/2 goes to the exact "Z" version
    x = build_instance(4, [(i, i + 1, 1) for i in range(3)],
                       [(0, 8), (F(3, 2), F(3, 2)), (2, 4), (0, 8)],
                       [1] * 4, 0, 3, F(8))
    rep = solve_integer_endpoints(x)
    assert rep.version_rewards[0][0] == "Z"
    assert max(rep.walk.reward, solve_general(x).walk.reward) == F(3)
    # solve_auto's repair inserts the vertex that both walks leave out
    auto = solve_auto(x)
    assert (auto.walk.reward, auto.optimal) == (F(4), True)
    assert auto.walk.reward * auto.bound >= _opt(x) == F(4)


def _dense16(integral):
    return generate_instance("random-metric", 16, 3, horizon=F(20), l_low=F(8),
                             l_high=F(16), integral=integral)


def test_auto_keeps_the_solvers_that_succeed():
    # integer-endpoints refuses the quarter grid; l2 and general both solve it
    x = _dense16(integral=False)
    layered = layered_deadline_oracle(GREEDY_ORACLE)
    with pytest.raises(PreconditionError, match="fractional endpoints"):
        run_algorithm("integer-endpoints", x, GREEDY_ORACLE, layered)
    got = {name: run_algorithm(name, x, GREEDY_ORACLE, layered) for name in ("l2", "general")}
    assert {n: (r.walk.reward, r.bound) for n, r in got.items()} == {
        "l2": (F(9), F(3)), "general": (F(10), F(4))}
    # l2's walk, repaired, meets the reachability bound, so general never runs
    rep = solve_auto(x, GREEDY_ORACLE, layered)
    assert rep.algorithm == "l2"
    assert (rep.walk.reward, rep.bound, rep.optimal) == (F(14), F(3), True)


def _refuse_l2_and_general(monkeypatch):
    """Make the two release-group solvers refuse, as solve_auto calls them
    by their module-level names."""
    def refuse(x, oracle, deadline_oracle):
        raise PreconditionError("refused for the test")

    monkeypatch.setattr(algorithms, "solve_l_le_2", refuse)
    monkeypatch.setattr(algorithms, "solve_general", refuse)


def test_auto_names_every_refusal(monkeypatch):
    _refuse_l2_and_general(monkeypatch)
    x = _dense16(integral=False)
    with pytest.raises(PreconditionError) as info:
        solve_auto(x)
    text = str(info.value)
    assert "integer-endpoints: vertex 1 window [19/4, 18] has fractional endpoints" in text
    assert "l2: refused for the test" in text
    assert "general: refused for the test" in text


def _with_reward(x, v, reward):
    rewards = list(x.rewards)
    rewards[v] = reward
    return TwInstance(x.metric, x.windows, tuple(rewards), x.s, x.t, x.budget, x.wait_policy)


def test_reward_precision_adds_no_oracle_work(monkeypatch):
    # vertex 1 worth 1/1000 instead of 1: the same oracle calls, and the same
    # wrapper calls from the walk-downs, since the per-block staircases would
    # absorb repeated searches
    probes = [0]
    real = oracles.earliest_limits

    def counted_walk_down(probe, *args):
        def counted_probe(limit):
            probes[0] += 1
            return probe(limit)
        return real(counted_probe, *args)

    monkeypatch.setattr(oracles, "earliest_limits", counted_walk_down)
    calls = [0]

    def counted(fn):
        def wrapped(q):
            calls[0] += 1
            return fn(q)
        return wrapped

    oracle = OrienteeringOracle(EXACT_ORACLE.spec, counted(EXACT_ORACLE.fn))
    deadline_oracle = DeadlineOracle(EXACT_DEADLINE.spec, counted(EXACT_DEADLINE.fn))

    def cost(x):
        calls[0] = probes[0] = 0
        solve_auto(x, oracle, deadline_oracle)
        return calls[0], probes[0]

    for seed in range(10):
        x = generate_instance("random-metric", 7, seed, integral=True)
        assert cost(_with_reward(x, 1, F(1, 1000))) == cost(x), seed


def test_exact_oracles_never_walk_down_the_grid(monkeypatch):
    # every block and release-group entry takes its staircases from one
    # search; the searches seen show that each kind of instance reached the
    # modular blocks (integer-endpoints, l2's B2, the free solvers) and the
    # anchored ones the release groups too.  solve_auto's repaired walk
    # often meets the reachability bound before any release-group solver
    # runs, so each anchored instance is also solved by general directly.
    # A dense quarter-grid version of unit cells has a cap no higher than
    # the release-group walks before it, so it is skipped (_compose); the
    # wide quarter-grid windows reach integer-endpoints' blocks through
    # general's middle version
    def refused(*args):
        raise AssertionError("earliest_limits")

    real = modular.exit_staircases
    searched = set()

    def recorded(oracle, *args):
        searched.add((kind, isinstance(oracle, OrienteeringOracle)))
        return real(oracle, *args)

    monkeypatch.setattr(oracles, "earliest_limits", refused)
    monkeypatch.setattr(modular, "exit_staircases", recorded)
    for seed in range(4):
        for kind, mode, integral, lengths in (("integral", "anchored", True, (8, 16)),
                                              ("quarter", "anchored", False, (8, 16)),
                                              ("quarter", "anchored", False, (1, 8)),
                                              ("free", "free", seed % 2 == 0, (8, 16)),
                                              ("start-only", "start-only", seed % 2 == 0,
                                               (8, 16))):
            x = generate_instance("random-metric", 7, seed, mode=mode, integral=integral,
                                  horizon=F(20), l_low=F(lengths[0]), l_high=F(lengths[1]))
            assert solve_auto(x, EXACT_ORACLE, EXACT_DEADLINE).walk.feasible
            if mode == "anchored":
                assert solve_general(x, EXACT_ORACLE, EXACT_DEADLINE).walk.feasible
    assert searched >= {("integral", True), ("integral", False), ("quarter", True),
                        ("quarter", False), ("free", True), ("start-only", True)}


def test_release_group_walks_each_entry_down_the_grid_once(monkeypatch):
    # groups released at 0 ({1, 2}) and 5 ({3, 4}) on the unit path 0-...-5:
    # labels at 0, 1 and 2 all reach 3 before 5, so they enter (3, 5) alike
    x = build_instance(6, [(i, i + 1, 1) for i in range(5)],
                       [(0, 10), (0, 2), (0, 2), (5, 7), (5, 7), (0, 10)],
                       [0, 1, 1, 1, 1, 0], 0, 5, 10)
    entries, queries, tscales = [], [], []

    def counted(q):
        queries.append((q.u, q.t0, q.end, q.horizon))
        return EXACT_DEADLINE.fn(q)

    real_label_loop = modular._label_loop

    def recording_label_loop(x, units, steps):
        tscales.append(units.tscale)

        def recorded(step):
            gi, release, deadline, members, moves = step

            def recorded_moves(u, e):
                assert type(e) is int  # entry times are in the DP's integer units
                entries.append((gi, u, e))
                return moves(u, e)
            return gi, release, deadline, members, recorded_moves
        return real_label_loop(x, units, map(recorded, steps))

    monkeypatch.setattr(modular, "_label_loop", recording_label_loop)
    res = modular._release_group_solve(x, DeadlineOracle(EXACT_DEADLINE.spec, counted))
    assert res.walk.reward == _opt(x) == 4
    assert entries.count((1, 3, 5 * tscales[0])) == 3
    assert len(queries) == len(set(queries))


def test_start_only_raises_when_every_end_vertex_refuses(monkeypatch):
    # the sink is the start-only solve's one end vertex and its solve the
    # only solve, so its refusal, which names every solver's, is the
    # start-only solve's; the memo closes with it
    _refuse_l2_and_general(monkeypatch)
    x = _dense16(integral=False)
    x = TwInstance(x.metric, x.windows, x.rewards, x.s, None, x.budget, x.wait_policy)
    with pytest.raises(PreconditionError, match="every solver refused") as info:
        solve_auto(x)
    text = str(info.value)
    assert "integer-endpoints: vertex 1 window [19/4, 18] has fractional endpoints" in text
    assert "l2: refused for the test" in text
    assert "general: refused for the test" in text
    assert memo._MEMO.get() is None


def test_every_algorithm_bound_dominates_optimum():
    rng = random.Random(5)
    pool = ([gen_integer_instance(s) for s in range(4)] +
            [gen_ratio2_instance(s) for s in range(4)] +
            [gen_ratio2_instance(s, mode="free") for s in range(4)] +
            [gen_zero_window_instance(s) for s in range(4)])
    for x in pool:
        opt = _opt(x)
        for name in sorted(ALGORITHMS):
            try:
                rep = run_algorithm(name, x, EXACT_ORACLE, EXACT_DEADLINE)
            except PreconditionError:
                continue
            assert rep.walk.feasible
            assert rep.walk.reward * rep.bound >= opt, (name, opt, rep.walk.reward)


def test_equal_integer_windows_take_the_direct_route():
    x = build_instance(4, [(i, i + 1, 1) for i in range(3)],
                       [(0, 4)] * 4, [1] * 4, 0, 3, F(5))
    rep = solve_integer_endpoints(x)
    assert [l for l, _ in rep.version_rewards] == ["direct"]
    assert rep.beta == 1
    assert rep.walk.reward == _opt(x) == F(4)


def test_rounded_line_stays_within_the_log_bound():
    x = build_instance(4, [(i, i + 1, 1) for i in range(3)],
                       [(0, 4), (1, 2), (2, 3), (0, 4)],
                       [1] * 4, 0, 3, F(5))
    rep = solve_integer_endpoints(x)
    assert rep.bound <= 2 * math.ceil(math.log2(4))
    assert rep.walk.reward * rep.bound >= _opt(x)
    assert rep.walk.reward == F(4)


def test_l2_exact_on_unit_shifted_windows():
    x = build_instance(4, [(i, i + 1, 1) for i in range(3)],
                       [(0, 9), (1, 2), (3, 4), (0, 9)],
                       [0, 1, 1, 0], 0, 3, F(9))
    assert solve_l_le_2(x).walk.reward == _opt(x) == F(2)


def test_l2_exact_when_optimum_lives_in_middles():
    x = build_instance(4, [(i, i + 1, 1) for i in range(3)],
                       [(0, 9), (F(1, 2), F(5, 2)), (F(1, 2), F(5, 2)), (0, 9)],
                       [0, 1, 1, 0], 0, 3, F(9))
    assert solve_l_le_2(x).walk.reward == _opt(x) == F(2)


def test_general_on_equal_unit_lengths():
    x = build_instance(4, [(i, i + 1, 1) for i in range(3)],
                       [(0, 9), (F(1, 2), 2), (3, F(9, 2)), (0, 9)],
                       [0, 1, 1, 0], 0, 3, F(9))
    rep = solve_general(x)
    opt = _opt(x)
    assert rep.walk.reward >= math.ceil(opt / 3)
    assert rep.walk.reward == F(2)


def test_free_l2_on_identical_unit_windows():
    # the half-grid cut splits even an aligned window, so exactness is not
    # promised here, only the declared bound
    x = build_instance(4, [(i, i + 1, 1) for i in range(3)],
                       [(0, 1)] * 4, [1] * 4, None, None, F(8))
    rep = solve_free_l_le_2(x)
    opt = _opt(x)
    assert rep.walk.reward * rep.bound >= opt
    assert rep.walk.reward >= math.ceil(opt / 5)


def test_free_general_single_band_matches_free_l2():
    x = gen_ratio2_instance(3, mode="free")
    a = solve_free_general(x)
    b = solve_free_l_le_2(x)
    assert a.walk.reward == b.walk.reward
    assert {l.split(":")[0] for l, _ in a.version_rewards} == {"band0"}


def test_free_general_bands_follow_window_lengths():
    x = build_instance(4, [(i, i + 1, 1) for i in range(3)],
                       [(0, 1), (0, 2), (0, 4), (0, 8)],
                       [1] * 4, None, None, F(8))
    rep = solve_free_general(x)
    bands = {l.split(":")[0] for l, _ in rep.version_rewards}
    assert bands == {"band0", "band1", "band2", "band3"}
    assert rep.bound <= 20
    assert rep.walk.reward * rep.bound >= _opt(x)


def _free_below_ratio_two():
    """Free instances whose positive window lengths agree within less than
    a factor 2, on both grids, sparse and dense."""
    xs = [generate_instance("random-metric", n, seed, mode="free", integral=integral, **shape)
          for seed in range(8) for integral in (True, False)
          for (n, shape) in ((8, {}), (10, {}),
                             (6, dict(horizon=F(20), l_low=F(8), l_high=F(16))))]
    return [x for x in xs if window_stats(x).l_ratio < 2]


@pytest.mark.parametrize("heuristic", [False, True], ids=["exact", "greedy-layered"])
def test_free_general_never_beats_free_l2_below_ratio_two(heuristic):
    # every window falls in band 0, whose one version is free-l2's own
    pair = (GREEDY_ORACLE, layered_deadline_oracle(GREEDY_ORACLE)) if heuristic else ()
    xs = _free_below_ratio_two()
    assert len(xs) >= 20
    ties = 0
    for x in xs:
        general, l2 = solve_free_general(x, *pair), solve_free_l_le_2(x, *pair)
        assert {label for (label, _r) in general.version_rewards} == {"band0"}
        assert general.walk.reward <= l2.walk.reward
        ties += general.walk.reward == l2.walk.reward
    assert ties >= len(xs) // 2


def test_auto_skips_free_general_below_ratio_two(monkeypatch):
    # the report is the one both free solvers give, with free-general never run
    xs = _free_below_ratio_two()
    both = [algorithms._keep_best(x, ((name, lambda solver=solver, x=x: solver(x))
                                      for (name, solver) in (("free-l2", solve_free_l_le_2),
                                                             ("free-general", solve_free_general))))
            for x in xs]

    def refuse(*args):
        raise AssertionError("free-general ran below ratio 2")

    monkeypatch.setattr(algorithms, "solve_free_general", refuse)
    assert [solve_auto(x) for x in xs] == both


def test_auto_runs_free_general_at_ratio_two(monkeypatch):
    # lengths 1 and 2 fall in two bands, and the band walks beat free-l2's
    # walks; repaired, free-l2's walk wins back more
    x = generate_instance("random-metric", 20, 2051, mode="free", integral=True)
    assert window_stats(x).l_ratio == 2
    assert (solve_free_l_le_2(x).walk.reward, solve_free_general(x).walk.reward) == (16, 17)
    runs = solver_runs(monkeypatch)
    rep = solve_auto(x)
    assert (rep.algorithm, rep.walk.reward, rep.optimal) == ("free-l2", 18, False)
    [(_x, l2), (_x, general)] = runs
    assert (l2.algorithm, general.algorithm) == ("free-l2", "free-general")
    assert {label for (label, _r) in general.version_rewards} == {"band0", "band1"}


def test_reduce_deadline_frozen_shape():
    x = build_instance(2, [(0, 1, 1)], [(0, 1), (0, 2)],
                       [1, 1], 0, 1, F(2))
    y = reduce_deadline_to_tw(x)
    assert y.n == 3 and y.s == 2
    assert y.windows[0] == window(0, 3)
    assert y.windows[1] == window(0, 4)
    assert y.metric.d[2][0] == F(2)
    assert y.budget == F(4)
    assert brute_force_opt(y).reward == _opt(x)


def test_reduce_deadline_with_no_rewards():
    x = build_instance(4, [(i, i + 1, 1) for i in range(3)],
                       [(0, 4)] * 4, [0] * 4, 0, 3, F(4))
    y = reduce_deadline_to_tw(x)
    assert y.n == 5
    assert y.budget == x.budget    # runway has length zero


def test_zero_window_skips_a_broken_arc():
    # claiming 1 at time 1 leaves no time to reach 2 by 3/2
    x = build_instance(4, [(i, i + 1, 1) for i in range(3)],
                       [(0, 0), (1, 1), (F(3, 2), F(3, 2)), (3, 3)],
                       [0, 1, 1, 0], 0, 3, F(3))
    rep = zero_window_dp(x)
    assert rep.walk.reward == _opt(x) == F(1)


# ----- kept reports ---------------------------------------------------------------

def _dense_six():
    return generate_instance("random-metric", 6, 1, horizon=F(20), l_low=F(8), l_high=F(16))


def _dense_free_eight():
    return generate_instance("random-metric", 8, 2, horizon=F(20), l_low=F(8), l_high=F(16),
                             mode="free")


def test_live_reports_share_an_equal_walk_until_released():
    x = _dense_six()
    # a walk left by an earlier test must not leave in the middle of this one
    gc.collect()
    tracked = len(algorithms._LIVE_WALKS)
    a, b = solve_auto(x), solve_auto(x)
    assert a.walk is b.walk
    assert a.version_rewards and a.version_rewards is b.version_rewards
    assert a.bound is b.bound
    assert len(algorithms._LIVE_WALKS) == tracked + 1
    del a, b
    gc.collect()
    assert len(algorithms._LIVE_WALKS) == tracked


def test_a_report_keeps_its_own_versions_and_bound_when_they_differ():
    # the live-walk table shares a walk by value alone; versions and bound
    # are shared only when they are equal too
    x = _dense_six()
    a = solve_auto(x)

    def equal_walk():
        return evaluate_walk(x, [(v, c) for (v, _t, c) in a.walk.schedule])

    b = SolveReport("other", equal_walk(), (("B9", F(1)),), a.bound + 1)
    c = SolveReport("other", equal_walk(), tuple(list(a.version_rewards)), F(7))
    assert a.walk is b.walk is c.walk
    assert b.version_rewards == (("B9", F(1)),) and b.bound == a.bound + 1
    assert c.version_rewards is a.version_rewards
    assert c.bound == 7 != a.bound


@pytest.mark.parametrize("build", [_dense_six, _dense_free_eight], ids=["anchored", "free"])
def test_kept_reports_of_one_instance_retain_little_memory(build):
    # each kept report holds nothing of its own but itself: its walk (about
    # 0.8 kB of schedule on the anchored instance), its version rewards and
    # its bound are those of the first report
    x = build()
    first = solve_auto(x)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = [solve_auto(x) for _ in range(200)]
        gc.collect()
        per_report = (tracemalloc.get_traced_memory()[0] - base) / len(kept)
    finally:
        tracemalloc.stop()
    assert all(rep.walk is first.walk for rep in kept)
    assert per_report < 128, per_report
