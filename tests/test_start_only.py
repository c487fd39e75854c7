"""Start-only solves: one anchored solve per reachable end vertex, sharing
every result that no end anchor moves.

The reference below is the plain fan-out, written out here: per end an
anchored solve_auto, the repeated end dropped, the walk re-evaluated on the
start-only instance, the first best kept.  Each anchored solve opens its
own memo, so it computes every end from scratch.
"""

from __future__ import annotations

import gc
from collections import Counter
from fractions import Fraction as F

import pytest

from orientw import (EXACT_DEADLINE, EXACT_ORACLE, GREEDY_ORACLE, PreconditionError,
                     TwInstance, evaluate_walk, is_finite, layered_deadline_oracle,
                     solve_auto)
import orientw.algorithms as algorithms
import orientw.memo as memo
import orientw.modular as modular
from orientw.generate import FAMILIES, generate_instance

DENSE = dict(horizon=F(20), l_low=F(8), l_high=F(16))
ORACLES = ((EXACT_ORACLE, EXACT_DEADLINE),
           (GREEDY_ORACLE, layered_deadline_oracle(GREEDY_ORACLE)))


def _fan_out(x, oracle, deadline_oracle):
    best = None
    for t2 in range(x.n):
        leg = x.metric.d[x.s][t2]
        if not is_finite(leg) or leg > x.budget:
            continue
        x2 = TwInstance(x.metric, x.windows, x.rewards, x.s, t2, x.budget, x.wait_policy)
        try:
            sub = solve_auto(x2, oracle, deadline_oracle)
        except PreconditionError:
            continue
        order = [(v, c) for (v, _t, c) in sub.walk.schedule]
        if len(order) > 1 and order[-1] == (order[-2][0], False):
            order.pop()
        sol = evaluate_walk(x, order)
        if sol.feasible and (best is None or sol.reward > best[1].reward):
            best = (sub, sol)
    sub, sol = best
    return (sub.algorithm, sol.schedule, sol.reward, sub.bound, sub.version_rewards)


def _instance(i):
    # shapes cycle by 3, grids by 6, oracle pairs by 12 and families by 48
    n, dense = ((6, True), (9, False), (12, False))[i % 3]
    x = generate_instance(FAMILIES[(i // 12) % 4], n, i, mode="start-only",
                          integral=(i // 3) % 2 == 0, **(DENSE if dense else {}))
    return x, ORACLES[(i // 6) % 2]


@pytest.mark.parametrize("block", range(4))
def test_start_only_equals_the_plain_fan_out(block):
    for i in range(block * 26, block * 26 + 26):
        x, (oracle, deadline_oracle) = _instance(i)
        rep = solve_auto(x, oracle, deadline_oracle)
        got = (rep.algorithm, rep.walk.schedule, rep.walk.reward, rep.bound,
               rep.version_rewards)
        assert got == _fan_out(x, oracle, deadline_oracle), i


def _record_label_loops(monkeypatch):
    """Every label loop run, as (instance, the memo open at the time)."""
    runs = []
    real = modular._label_loop

    def recorded(x, units, steps):
        runs.append((x, memo._MEMO.get()))
        return real(x, units, steps)

    monkeypatch.setattr(modular, "_label_loop", recorded)
    return runs


def test_each_label_loop_runs_once_per_start_only_solve(monkeypatch):
    x = generate_instance("random-metric", 6, 3, mode="start-only", **DENSE)
    reachable = sum(1 for t2 in range(x.n) if x.metric.d[x.s][t2] <= x.budget)
    runs = _record_label_loops(monkeypatch)
    # the ends actually solved: the start-only solve stops at the first end
    # whose walk meets the reachability bound
    solved = []
    real_auto = algorithms.solve_auto

    def recorded_auto(y, *args):
        solved.append(y.t)
        return real_auto(y, *args)

    monkeypatch.setattr(algorithms, "solve_auto", recorded_auto)
    reversed_versions = []
    real_reversed = algorithms.time_reversed

    def recorded(y):
        reversed_versions.append(real_reversed(y))
        return reversed_versions[-1]

    monkeypatch.setattr(algorithms, "time_reversed", recorded)
    rep = solve_auto(x)
    ends = len(solved)
    assert reachable > 2 and runs[0][1] is not None
    assert all(m is runs[0][1] for (_y, m) in runs)
    # a shared version keeps its windows object at every end; l2's B1
    # versions, reversed in time, start at the end vertex
    backward = {id(y.windows) for y in reversed_versions}
    loops = Counter((id(y.windows), y.s) for (y, _table) in runs)
    forward = [key for key in loops if key[0] not in backward]
    assert forward and all(loops[key] == 1 for key in forward)
    starts = Counter(key[0] for key in loops if key[0] in backward)
    assert sorted(starts.values()) == [ends] * len(reversed_versions)
    assert max(loops.values()) == 1

    # the plain fan-out solves every reachable end, and runs every loop and
    # reversal once per end
    runs.clear()
    reversed_versions.clear()
    assert _fan_out(x, EXACT_ORACLE, EXACT_DEADLINE)[2] == rep.walk.reward
    # each end's solve runs its loops inside a memo of its own
    memos = [m for (_y, m) in runs]
    stretches = [m for i, m in enumerate(memos) if i == 0 or m is not memos[i - 1]]
    assert None not in memos
    assert len({id(m) for m in stretches}) == len(stretches) == reachable
    assert len(runs) == (len(forward) + len(starts)) * reachable
    assert len(reversed_versions) == len(starts) * reachable
    assert memo._MEMO.get() is None


def test_every_label_loop_of_a_solve_runs_inside_one_memo(monkeypatch):
    runs = _record_label_loops(monkeypatch)
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
                # only a start-only fan-out keeps its splits, whose ends read them
                fan_out = mode == "start-only"
                assert (memo._FAN_OUT in opened) == fan_out, (mode, integral)
                assert any(key[0] == "split" for key in opened) == fan_out, (mode, integral)
                memos.append(opened)
    # the memo leaves with its solve: no two solves share one
    assert len({id(m) for m in memos}) == len(memos) == 12
    assert memo._MEMO.get() is None


def test_the_share_table_closes_when_every_end_vertex_refuses(monkeypatch):
    opened = []

    def refuse(y, oracle, deadline_oracle):
        opened.append(memo._MEMO.get())
        raise PreconditionError("refused for the test")

    monkeypatch.setattr(algorithms, "solve_l_le_2", refuse)
    monkeypatch.setattr(algorithms, "solve_general", refuse)
    x = generate_instance("random-metric", 16, 3, horizon=F(20), l_low=F(8), l_high=F(16))
    x = TwInstance(x.metric, x.windows, x.rewards, x.s, None, x.budget, x.wait_policy)
    with pytest.raises(PreconditionError, match="no end vertex yields a walk"):
        solve_auto(x)
    assert opened and all(table is opened[0] for table in opened)
    assert isinstance(opened[0], dict)
    assert memo._MEMO.get() is None


def test_every_end_shares_its_label_loops_when_nothing_stops(monkeypatch):
    # the first end meets the reachability bound above; without the stop
    # every reachable end is solved, and each forward loop still runs once
    monkeypatch.setattr(algorithms, "_reach", lambda x: None)
    test_each_label_loop_runs_once_per_start_only_solve(monkeypatch)


def test_the_share_table_keeps_a_refused_split(monkeypatch):
    # the window ratio is 10/3, so l2's split refuses at every end vertex;
    # the memo keeps the refusal as it keeps a split, so the ends do not
    # rebuild the split up to it (12 calls when only splits were kept)
    x = generate_instance("random-metric", 10, 4, mode="start-only", horizon=F(40),
                          l_low=F(1), l_high=F(8))
    splits = []
    real = algorithms.three_split_floor

    def recorded(y):
        splits.append(y)
        return real(y)

    monkeypatch.setattr(algorithms, "three_split_floor", recorded)
    gc.collect()
    gc.disable()
    try:
        rep = solve_auto(x)
    finally:
        gc.enable()
    assert len(splits) <= 3
    # the kept refusal holds no frame, so the memo leaves with the solve
    # rather than in a reference cycle through a traceback
    assert gc.collect() == 0
    got = (rep.algorithm, rep.walk.schedule, rep.walk.reward, rep.bound, rep.version_rewards)
    assert got == _fan_out(x, EXACT_ORACLE, EXACT_DEADLINE)
