"""Skipped versions: algorithms._compose does not solve a version whose cap
(algorithms._cap) is at most the best version reward before it, and counts
it at ratio 1.  The first best walk wins, so such a version could never be
kept: every walk must equal the one of the compose that solves every
version (conftest.ref_compose), every bound may only fall, and each skipped
version's walk, solved by the referee, must earn no more than its cap.
"""

from __future__ import annotations

from fractions import Fraction as F
from functools import partial

import pytest

from orientw import (ALGORITHMS, EXACT_DEADLINE, EXACT_ORACLE, GREEDY_ORACLE,
                     PreconditionError, TwInstance, brute_force_opt, layered_deadline_oracle)
import orientw.algorithms as algorithms
from orientw.generate import FAMILIES, generate_instance

from conftest import ref_compose

DENSE = dict(horizon=F(20), l_low=F(8), l_high=F(16))
ORACLES = ((EXACT_ORACLE, EXACT_DEADLINE),
           (GREEDY_ORACLE, layered_deadline_oracle(GREEDY_ORACLE)))
SIZES = (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16)


def _instances(mode):
    # sizes 5-16; grids alternate by 1, dense shapes by 2, families by 3.
    # Every third instance with a start anchor rewards its anchors, which
    # assemble_walk may collect on x beyond a version's claims
    for i, n in enumerate(SIZES):
        x = generate_instance(FAMILIES[i // 3 % 4], n, i, mode=mode, integral=i % 2 == 0,
                              **(DENSE if i // 2 % 2 == 0 else {}))
        if i % 3 == 0 and x.s is not None:
            rewards = tuple(F(1) if v in (x.s, x.t) else r for v, r in enumerate(x.rewards))
            x = TwInstance(x.metric, x.windows, rewards, x.s, x.t, x.budget)
        yield x


def _run(solver, y, oracles):
    try:
        return solver(y, *oracles)
    except PreconditionError as refusal:
        return str(refusal)


@pytest.mark.parametrize("oracles", ORACLES, ids=("exact", "greedy-layered"))
@pytest.mark.parametrize("mode", ("anchored", "free", "start-only"))
def test_skipped_versions_move_no_walk_and_no_bound_up(monkeypatch, mode, oracles):
    proven = all(o.spec.guaranteed for o in oracles)
    skipped = solved = checked = 0
    for x in _instances(mode):
        opt = brute_force_opt(x).reward if x.n <= 12 and proven else None
        for name, solver in sorted(ALGORITHMS.items()):
            # the composed solvers are anchored or free; a start-only
            # instance reaches them as solve_auto does, at a zero-cost sink
            y = algorithms._with_sink(x) if mode == "start-only" and name != "auto" else x
            got = _run(solver, y, oracles)
            trail = []
            with monkeypatch.context() as m:
                m.setattr(algorithms, "_compose", partial(ref_compose, trail=trail))
                ref = _run(solver, y, oracles)
            if isinstance(ref, str):
                assert got == ref, (x.n, name)
                continue
            # every version walk of every compose, inner ones too, earns at
            # most its cap, and _cap is its referee's
            for (_name, at, records) in trail:
                for (label, ver, reward, cap) in records:
                    assert reward <= cap == algorithms._cap(at, ver), (x.n, name, label)
            case = (x.n, name, got.version_rewards, ref.version_rewards)
            assert got.walk.schedule == ref.walk.schedule, case
            assert (got.algorithm, got.optimal) == (ref.algorithm, ref.optimal), case
            assert got.bound <= ref.bound, case
            # a composed solver's outermost compose, on y itself, returns
            # last; solve_auto runs several and may keep any one of them
            records = None
            if name not in ("auto", "zero-window"):
                (top, at, records) = trail[-1]
                assert top == name and at is y, case
            best = None
            for i, ((label, reward), (ref_label, ref_reward)) in enumerate(
                    zip(got.version_rewards, ref.version_rewards, strict=True)):
                assert label == ref_label, case
                if reward is None:
                    skipped += 1
                    assert best is not None and ref_reward <= best, (case, label)
                    if records is not None:
                        assert records[i][3] <= best, (case, label)
                else:
                    solved += 1
                    assert reward == ref_reward, (case, label)
                best = ref_reward if best is None else max(best, ref_reward)
            if opt is not None:
                checked += 1
                assert got.walk.reward * got.bound >= opt, case
    assert skipped and solved
    assert checked or not proven
