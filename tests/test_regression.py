"""End-to-end regression pin for solve_auto.

The digest below is the sha256 of (reward, bound, schedule) of solve_auto
on a fixed list of seeded generate_instance instances.  The list covers
every anchor mode, both time grids (integral and quarter), dense and sparse
windows, and both the exact oracles and the greedy/layered heuristics.  Any
change to what the solvers return moves the digest; a change that is meant
to move it must say why and record the new value.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction as F

from orientw import GREEDY_ORACLE, layered_deadline_oracle, solve_auto
from orientw.generate import generate_instance

PINNED = "0ab71c95e9457585e404ee0da1e2d59857a34d9656cd5e504297411c41b2f55d"

DENSE = dict(horizon=F(20), l_low=F(8), l_high=F(16))

# (family, n, mode, integral, dense, heuristic oracles)
CASES = [
    (family, n, mode, integral, dense, heuristic)
    for (family, n, mode, dense) in (
        ("random-metric", 6, "anchored", True),
        ("directed-random", 5, "free", True),
        ("euclidean-grid", 6, "start-only", True),
        ("random-metric", 8, "anchored", False),
        ("directed-random", 8, "free", False),
        ("line", 7, "start-only", False),
    )
    for integral in (True, False)
    for heuristic in (False, True)
]


def _solve(i, family, n, mode, integral, dense, heuristic):
    x = generate_instance(family, n, 100 + i, mode=mode, integral=integral,
                          **(DENSE if dense else {}))
    if heuristic:
        return solve_auto(x, GREEDY_ORACLE, layered_deadline_oracle(GREEDY_ORACLE))
    return solve_auto(x)


def _record(rep) -> str:
    schedule = ";".join("%d@%s%s" % (v, t, "+" if c else "") for (v, t, c) in rep.walk.schedule)
    return "%s|%s|%s" % (rep.walk.reward, rep.bound, schedule)


def test_solve_auto_outputs_match_the_pinned_digest():
    h = hashlib.sha256()
    for i, case in enumerate(CASES):
        h.update(_record(_solve(i, *case)).encode("utf-8"))
        h.update(b"\n")
    assert h.hexdigest() == PINNED
