"""One staircase search per distinct entry per solve.

Within one solve, oracles.exit_staircases answers equal block and
release-group entries once: the versions of one solver, and the solvers
that solve_auto tries or that general composes, share the answer.  The
counting oracles below are the exact ones with their searches wrapped, so
they see every search that runs.
"""

from __future__ import annotations

import gc
import hashlib
from collections import Counter
from fractions import Fraction as F
from functools import partial

import pytest

from orientw import (ALGORITHMS, GREEDY_ORACLE, PreconditionError, layered_deadline_oracle,
                     solve_auto)
import orientw.algorithms as algorithms
import orientw.memo as memo
import orientw.modular as modular
from orientw.algorithms import solve_general
from orientw.generate import gen_zero_window_instance, generate_instance
from orientw.oracles import (DeadlineOracle, OracleSpec, OrienteeringOracle, exact_deadline,
                             exact_orienteering, exact_staircases)
from orientw.rational import ONE

DENSE = dict(horizon=F(20), l_low=F(8), l_high=F(16))


def _counting_oracles():
    """An orienteering and a deadline oracle whose staircase searches count
    each entry they are asked, keyed by the table's content, the credit, u
    and t0."""
    seen = Counter()

    def counted(search, kind):
        def staircases(table, credit, u, t0):
            seen[(kind, tuple(table), tuple(credit.items()), u, t0)] += 1
            return search(table, credit, u, t0)
        return staircases

    spec = OracleSpec("counted", ONE)
    oracle = OrienteeringOracle(spec, exact_orienteering,
                                counted(partial(exact_staircases, revisit=False), "block"))
    deadline_oracle = DeadlineOracle(spec, exact_deadline, counted(exact_staircases, "group"))
    return seen, oracle, deadline_oracle


# (solver, mode, integral, n, seed, kinds of entry searched): the anchored
# solve runs integer-endpoints, whose versions share 2 block entries, then
# l2's release groups; the quarter-grid anchored solve runs l2 and general,
# since integer-endpoints refuses its grid, and they share 10 release-group
# entries, but no block: each version of unit cells there has a cap no
# higher than the best walk before it, so it is skipped
# (algorithms._compose).  Before the memo, the free solve searched 6 of its
# 12 block entries two or three times, and general alone each of its 15
# release-group entries twice, once per inner l2 solve.
# Every DP of the rebuilt-table case runs at a tscale other than the
# metric's, so each version's view builds its own table; only units shared
# by content (instance._derived) keep its 6 entries from being searched 6
# times each.
CASES = [(solve_auto, "anchored", True, 12, 9, {"block", "group"}),
         (solve_auto, "anchored", False, 12, 2, {"group"}),
         (solve_auto, "free", False, 6, 3, {"block"}),
         (solve_general, "anchored", True, 10, 3, {"group"}),
         (solve_auto, "free", False, 6, 4, {"block"})]


@pytest.mark.parametrize("solver, mode, integral, n, seed, kinds", CASES,
                         ids=["anchored", "anchored-quarter", "free", "general-alone",
                              "rebuilt-table"])
def test_each_entry_is_searched_once_per_solve(solver, mode, integral, n, seed, kinds):
    x = generate_instance("random-metric", n, seed, mode=mode, integral=integral, **DENSE)
    seen, oracle, deadline_oracle = _counting_oracles()
    first = solver(x, oracle, deadline_oracle)
    assert {key[0] for key in seen} == kinds
    assert set(seen.values()) == {1}
    # the memo leaves with its solve: the next solve searches every entry again
    second = solver(x, oracle, deadline_oracle)
    assert set(seen.values()) == {2}
    assert (second.walk.schedule, second.bound) == (first.walk.schedule, first.bound)


def test_the_memo_closes_after_a_solve_and_leaves_no_garbage():
    x = generate_instance("random-metric", 8, 3, mode="start-only", **DENSE)
    gc.collect()
    gc.disable()
    try:
        solve_auto(x)
        solve_auto(x, GREEDY_ORACLE, layered_deadline_oracle(GREEDY_ORACLE))
    finally:
        gc.enable()
    assert memo._MEMO.get() is None
    assert gc.collect() == 0


def test_the_memo_closes_when_every_solver_refuses(monkeypatch):
    # each solver runs its real body, filling the memo, and then refuses
    opened = []

    def refusing(real):
        def solver(y, oracle, deadline_oracle):
            real(y, oracle, deadline_oracle)
            opened.append(memo._MEMO.get())
            raise PreconditionError("refused for the test")
        return solver

    for name in ("solve_integer_endpoints", "solve_l_le_2", "solve_general"):
        monkeypatch.setattr(algorithms, name, refusing(getattr(algorithms, name)))
    x = generate_instance("random-metric", 8, 3, integral=True, **DENSE)
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(PreconditionError, match="every solver refused"):
            solve_auto(x)
    finally:
        gc.enable()
    assert len(opened) == 3 and all(m is opened[0] for m in opened)
    # the solvers shared one memo, and it held staircases
    assert any(key[0] == "stairs" for key in opened[0])
    assert memo._MEMO.get() is None
    assert gc.collect() == 0


def _accepted(name):
    """An instance that the registered solver name accepts."""
    if name == "zero-window":
        return gen_zero_window_instance(3)
    mode = "free" if name.startswith("free-") else "anchored"
    return generate_instance("random-metric", 8, 3, mode=mode, integral=True, **DENSE)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_a_solver_called_directly_opens_the_memo(name, monkeypatch):
    # every label loop of the call runs inside one memo, opened by the call
    opened = []
    real = modular._label_loop

    def recorded(x, units, steps):
        opened.append(memo._MEMO.get())
        return real(x, units, steps)

    monkeypatch.setattr(modular, "_label_loop", recorded)
    ALGORITHMS[name](_accepted(name))
    assert opened and opened[0] is not None
    assert all(m is opened[0] for m in opened)
    assert memo._MEMO.get() is None


@pytest.mark.parametrize("seed", range(3, 8))
def test_a_refused_entry_is_searched_once_per_solve(seed):
    # every step over-reports its reward by 1, so the first release-group
    # entry searched is refused; the memo keeps the refusal, so general's
    # inner l2 does not search that entry again after l2 did
    seen = Counter()

    def lying(table, credit, u, t0):
        seen[(tuple(table), tuple(credit.items()), u, t0)] += 1
        found = exact_staircases(table, credit, u, t0)
        return {w: [(d, r + 1, order) for (d, r, order) in steps]
                for w, steps in found.items()}

    liar = DeadlineOracle(OracleSpec("liar", ONE), exact_deadline, lying)
    x = generate_instance("random-metric", 8, seed, **DENSE)
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(PreconditionError, match="l2: oracle liar misreported its reward"):
            solve_auto(x, deadline_oracle=liar)
    finally:
        gc.enable()
    assert seen and set(seen.values()) == {1}
    # the kept refusal holds no frame, so the memo leaves with the solve
    assert memo._MEMO.get() is None
    assert gc.collect() == 0


# sha256 of solve_auto's reports (algorithm, reward, bound, optimal, version
# rewards, schedule) over every anchor mode, both grids, dense and default
# windows, and both oracle pairs at n=6-12, recorded before the memo; its
# start-only records moved, none lower, when a start-only solve became one
# sink solve and an insertion repair, and its records of every mode moved,
# none lower, when solve_auto began to repair every solver's walk and cite
# the least bound of the solvers run; its version rewards and bounds moved,
# no walk and no bound higher, when a version that cannot beat the best
# walk before it was skipped (None) and counted at ratio 1
REPORT_PIN = "3ef2219cad557c846d893f65bf4758e47f4838096e069c4d2738fcef67efc601"


def test_solve_auto_reports_match_the_pinned_digest():
    pairs = ((), (GREEDY_ORACLE, layered_deadline_oracle(GREEDY_ORACLE)))
    h = hashlib.sha256()
    for n in range(6, 13):
        for shape in (DENSE, {}):
            for mode in ("anchored", "free", "start-only"):
                for integral in (True, False):
                    for pair in pairs:
                        x = generate_instance("random-metric", n, n, mode=mode,
                                              integral=integral, **shape)
                        rep = solve_auto(x, *pair)
                        h.update(("%s|%s|%s|%s|%s|%s\n" % (
                            rep.algorithm, rep.walk.reward, rep.bound, rep.optimal,
                            rep.version_rewards, rep.walk.schedule)).encode("utf-8"))
    assert h.hexdigest() == REPORT_PIN
