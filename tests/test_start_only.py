"""Start-only solves: anchored solves at a zero-cost sink, each walk then
repaired by insertion.

algorithms._with_sink anchors a start-only instance's end at a new vertex
that every vertex reaches at cost 0 and that reaches nothing; each solver
solves that sink instance, and its walk, the sink dropped, is repaired by
insertion (instance.repair_by_insertion) in algorithms._keep_best.  The
referee is the fan-out that ran before, one unrepaired anchored solve per
reachable end vertex (conftest.ref_fan_out): the start-only reward must
never be lower than its.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from orientw import (EXACT_DEADLINE, EXACT_ORACLE, GREEDY_ORACLE, Metric, PreconditionError,
                     TwInstance, brute_force_opt, evaluate_walk, layered_deadline_oracle,
                     solve_auto)
import orientw.algorithms as algorithms
import orientw.memo as memo
import orientw.metric as metric
import orientw.modular as modular
from orientw.algorithms import _reach, _with_sink
from orientw.generate import FAMILIES, generate_instance
from orientw.instance import repair_by_insertion

from conftest import ref_fan_out, solver_runs
from test_regression import CASES

DENSE = dict(horizon=F(20), l_low=F(8), l_high=F(16))
ORACLES = ((EXACT_ORACLE, EXACT_DEADLINE),
           (GREEDY_ORACLE, layered_deadline_oracle(GREEDY_ORACLE)))


def _instance(i):
    # shapes cycle by 3, grids by 6, oracle pairs by 12 and families by 48
    n, dense = ((6, True), (9, False), (12, False))[i % 3]
    x = generate_instance(FAMILIES[(i // 12) % 4], n, i, mode="start-only",
                          integral=(i // 3) % 2 == 0, **(DENSE if dense else {}))
    return x, ORACLES[(i // 6) % 2]


def _pinned():
    """The start-only instances of PINNED (test_regression) and REPORT_PIN
    (test_staircase_memo), each with its oracle pair."""
    for i, (family, n, mode, integral, dense, heuristic) in enumerate(CASES):
        if mode == "start-only":
            yield (generate_instance(family, n, 100 + i, mode=mode, integral=integral,
                                     **(DENSE if dense else {})), ORACLES[heuristic])
    for n in range(6, 13):
        for shape in (DENSE, {}):
            for integral in (True, False):
                for pair in ORACLES:
                    yield (generate_instance("random-metric", n, n, mode="start-only",
                                             integral=integral, **shape), pair)


def _random_metric(n, integral):
    for seed in range(10):
        for shape in (DENSE, {}):
            for pair in ORACLES:
                yield (generate_instance("random-metric", n, seed, mode="start-only",
                                         integral=integral, **shape), pair)


def _no_worse_than_the_fan_out(cases):
    for k, (x, pair) in enumerate(cases):
        rep = solve_auto(x, *pair)
        assert evaluate_walk(x, [(v, c) for (v, _t, c) in rep.walk.schedule]) == rep.walk
        assert rep.walk.reward >= ref_fan_out(x, *pair)[1].reward, k
        assert rep.optimal == (rep.walk.reward == _reach(x)), k
        if x.n <= 12:
            sink = _with_sink(x)
            assert _reach(sink) == _reach(x), k
            assert brute_force_opt(sink).reward == brute_force_opt(x).reward, k


@pytest.mark.parametrize("block", range(4))
def test_start_only_is_no_worse_than_the_fan_out(block):
    _no_worse_than_the_fan_out(_instance(i) for i in range(block * 26, block * 26 + 26))


def test_start_only_pinned_cases_are_no_worse_than_the_fan_out():
    _no_worse_than_the_fan_out(_pinned())


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("integral", [True, False])
def test_start_only_random_metric_is_no_worse_than_the_fan_out(n, integral):
    _no_worse_than_the_fan_out(_random_metric(n, integral))


def test_the_sink_instance_extends_the_integer_table(monkeypatch):
    x = generate_instance("directed-random", 7, 2, mode="start-only", integral=False)

    def refuse(d):
        raise AssertionError("integer table derived again")

    monkeypatch.setattr(metric, "_integer_table", refuse)
    sink = _with_sink(x)
    monkeypatch.undo()
    n = x.n
    assert (sink.n, sink.s, sink.t, sink.mode) == (n + 1, x.s, n, "anchored")
    assert sink.rewards[n] == 0 and sink.windows[n].release == 0
    assert sink.windows[n].deadline == x.budget
    assert all(sink.metric.d[v][n] == 0 and sink.metric.ints[v][n] == 0 for v in range(n + 1))
    assert all(sink.metric.ints[n][v] is None for v in range(n))
    assert [row[:n] for row in sink.metric.ints[:n]] == [tuple(row) for row in x.metric.ints]
    # the same instance and integer table as the public constructor builds
    rebuilt = Metric(True, n + 1, sink.metric.d)
    assert (rebuilt.scale, rebuilt.ints) == (sink.metric.scale, sink.metric.ints)
    assert sink == TwInstance(rebuilt, sink.windows, sink.rewards, x.s, n, x.budget,
                              x.wait_policy)


def test_a_start_only_solve_is_one_sink_solve(monkeypatch):
    x = generate_instance("random-metric", 9, 4, mode="start-only")
    runs = solver_runs(monkeypatch)
    rep = solve_auto(x)
    # l2 and general solve the one sink instance; integer-endpoints refuses
    # the quarter grid
    assert [sub.algorithm for (_y, sub) in runs] == ["l2", "general"]
    sink = runs[0][0]
    assert sink == _with_sink(x) and all(y is sink for (y, _sub) in runs)
    walks = []
    for (_y, sub) in runs:
        assert sub.walk.schedule[-1][0] == x.n
        order = [(v, c) for (v, _t, c) in sub.walk.schedule[:-1]]
        walks.append(repair_by_insertion(x, order))
        assert walks[-1].reward >= evaluate_walk(x, order).reward == sub.walk.reward
    # the first best repaired walk, at the least bound of the two
    kept = max(range(len(runs)), key=lambda i: (walks[i].reward, -i))
    assert rep.walk == walks[kept]
    sub = runs[kept][1]
    assert (rep.algorithm, rep.version_rewards) == (sub.algorithm, sub.version_rewards)
    assert rep.bound == min(sub.bound for (_y, sub) in runs)


def test_every_label_loop_of_a_solve_runs_inside_one_memo(monkeypatch):
    runs = []
    real = modular._label_loop

    def recorded(x, units, steps):
        runs.append((x, memo._MEMO.get()))
        return real(x, units, steps)

    monkeypatch.setattr(modular, "_label_loop", recorded)
    memos = []
    for mode in ("anchored", "free", "start-only"):
        for integral in (True, False):
            x = generate_instance("random-metric", 6, 3, mode=mode, integral=integral, **DENSE)
            for pair in ORACLES:
                runs.clear()
                solve_auto(x, *pair)
                opened = runs[0][1] if runs else None
                assert opened is not None, (mode, integral)
                assert all(m is opened for (_y, m) in runs), (mode, integral)
                # the memo keeps DP units and staircases, and nothing per end;
                # each instance holds its own view
                assert {key[0] for key in opened} <= {"units", "stairs"}
                memos.append(opened)
    # the memo leaves with its solve: no two solves share one
    assert len({id(m) for m in memos}) == len(memos) == 12
    assert memo._MEMO.get() is None


def test_the_share_table_closes_when_every_end_vertex_refuses(monkeypatch):
    # the memo is the solve's one share table: every solver of the sink
    # solve, the start-only solve's one end vertex, reads the same table,
    # and the table closes when they all refuse
    opened = []

    def refuse(y, oracle, deadline_oracle):
        opened.append(memo._MEMO.get())
        raise PreconditionError("refused for the test")

    monkeypatch.setattr(algorithms, "solve_l_le_2", refuse)
    monkeypatch.setattr(algorithms, "solve_general", refuse)
    x = generate_instance("random-metric", 16, 3, horizon=F(20), l_low=F(8), l_high=F(16))
    x = TwInstance(x.metric, x.windows, x.rewards, x.s, None, x.budget, x.wait_policy)
    with pytest.raises(PreconditionError, match="every solver refused"):
        solve_auto(x)
    assert opened and all(table is opened[0] for table in opened)
    assert isinstance(opened[0], dict)
    assert memo._MEMO.get() is None
