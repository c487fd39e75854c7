"""The reachability bound and solve_auto's stop.

_reach(x) sums the rewards of the vertices a walk could collect on its own,
so no walk on x collects more.  solve_auto stops once its best report meets
it.  The differential tests below patch _reach so that nothing stops and
require the stopping run to return the same walk and versions, and the
same bound unless the report is optimal; the bound tests check
OPT <= _reach against brute force, and every solver's reward against it
past brute-force sizes.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from orientw import (ALGORITHMS, EXACT_DEADLINE, EXACT_ORACLE, GREEDY_ORACLE,
                     PreconditionError, brute_force_opt, layered_deadline_oracle,
                     run_algorithm, solve_auto)
import orientw.algorithms as algorithms
from orientw.generate import (FAMILIES, gen_deadline_instance, gen_zero_window_instance,
                              generate_instance)

from conftest import solver_runs

DENSE = dict(horizon=F(20), l_low=F(8), l_high=F(16))
GREEDY = (GREEDY_ORACLE, layered_deadline_oracle(GREEDY_ORACLE))
ORACLES = ((EXACT_ORACLE, EXACT_DEADLINE), GREEDY)
MODES = ("anchored", "free", "start-only")


def _instance(mode, i):
    # families cycle by 1, grids by 4, dense shapes by 2 and sizes by 3
    if mode == "zero-window":
        return gen_zero_window_instance(i, n_low=4, n_high=7)
    return generate_instance(FAMILIES[i % 4], (5, 6, 7)[i % 3], i, mode=mode,
                             integral=(i // 4) % 2 == 0, **(DENSE if i % 2 else {}))


def _report(rep):
    return rep.algorithm, rep.walk.schedule, rep.version_rewards


@pytest.mark.parametrize("oracles", ORACLES, ids=("exact", "greedy-layered"))
@pytest.mark.parametrize("mode", MODES + ("zero-window",))
def test_the_stop_returns_the_report_of_the_full_run(monkeypatch, mode, oracles):
    # the full run cites the least bound of more solvers, so its bound may
    # be smaller, but only where the stop fired, on an optimal report
    stopped, optimal = [], 0
    for i in range(12):
        x = _instance(mode, i)
        rep = solve_auto(x, *oracles)
        assert rep.optimal == (rep.walk.reward == algorithms._reach(x)), i
        optimal += rep.optimal
        stopped.append(rep)
    # some solves meet the bound, so the stop is exercised
    assert optimal > 0
    monkeypatch.setattr(algorithms, "_reach", lambda x: None)
    for i in range(12):
        full, rep = solve_auto(_instance(mode, i), *oracles), stopped[i]
        assert _report(full) == _report(rep), i
        assert full.bound <= rep.bound if rep.optimal else full.bound == rep.bound, i


def test_a_met_bound_runs_no_later_solver(monkeypatch):
    x = generate_instance("line", 5, 7)
    called = []
    monkeypatch.setattr(algorithms, "solve_general",
                        lambda *args: called.append(args))
    rep = solve_auto(x)
    assert (rep.algorithm, rep.walk.reward, algorithms._reach(x)) == ("l2", 3, 3)
    assert rep.optimal and called == []
    # only solve_auto judges optimality
    assert not run_algorithm("l2", x).optimal


def test_a_start_only_solve_judges_optimal_on_the_start_only_instance(monkeypatch):
    # the sink instance has x's reachability bound, 5; l2's walk on it
    # collects 4 and is not optimal there, and the insertion repair lifts it
    # to 5, so the start-only report, judged after the repair, is, and no
    # later solver runs
    x = generate_instance("random-metric", 6, 3, mode="start-only")
    runs = solver_runs(monkeypatch)
    rep = solve_auto(x)
    [(sink, sub)] = runs
    assert algorithms._reach(sink) == algorithms._reach(x) == 5
    assert (sub.algorithm, sub.walk.reward, sub.optimal) == ("l2", 4, False)
    assert (rep.walk.reward, rep.optimal) == (5, True)


# ----- the bound ----------------------------------------------------------------

def _small_instances():
    for i in range(16):
        for mode in MODES:
            yield generate_instance(FAMILIES[i % 4], 3 + i % 6, i, mode=mode,
                                    integral=i % 2 == 0, **(DENSE if i % 3 == 0 else {}))
        yield gen_zero_window_instance(i, n_low=3, n_high=8)
        yield gen_deadline_instance(i, n_low=3, n_high=8)


def test_brute_force_never_exceeds_the_reachability_bound():
    met = 0
    for x in _small_instances():
        opt = brute_force_opt(x).reward
        assert opt <= algorithms._reach(x), x
        met += opt == algorithms._reach(x)
    assert met > 0


def _solver_rewards(x, oracles):
    for name in sorted(ALGORITHMS):
        try:
            yield name, run_algorithm(name, x, *oracles).walk.reward
        except PreconditionError:
            continue


@pytest.mark.parametrize("n", (20, 30, 40))
def test_no_solver_exceeds_the_reachability_bound_past_brute_force(n):
    # the euclidean grid has 36 points
    families = [f for f in FAMILIES if n <= 36 or f != "euclidean-grid"]
    for i, mode in enumerate(MODES):
        x = generate_instance(families[(n + i) % len(families)], n, n + i, mode=mode,
                              integral=i != 1)
        bound = algorithms._reach(x)
        for (name, reward) in _solver_rewards(x, GREEDY):
            assert reward <= bound, (n, mode, name)


def test_no_exact_solver_exceeds_the_reachability_bound_on_sparse_windows():
    for (i, mode) in enumerate(("anchored", "free")):
        x = generate_instance("random-metric", 20, i, mode=mode, integral=i == 0)
        bound = algorithms._reach(x)
        for (name, reward) in _solver_rewards(x, (EXACT_ORACLE, EXACT_DEADLINE)):
            assert reward <= bound, (mode, name)
