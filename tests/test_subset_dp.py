"""Regression pin for the layered subset DP behind the exact oracles and the
exact optimum.

KERNEL_PIN is the sha256 of two record streams.  The first is every exit's
exact_staircases steps, (duration, reward, order) with orders included, on
seeded entries of up to 8 vertices over integral and quarter-grid metrics,
some of them directed with arcs missing: block entries (revisit=False,
every due the block's length, leaving at 0), release-group entries
(revisit=True, dues around the entry time) and one-exit point queries of
either kind, free end included.  The second is brute_force_opt's full
WalkSolution, or its refusal text, on seeded anchored, start-only and free
instances of 6 to 12 vertices on both grids, plus instances whose every
vertex, anchors included, pays in a random window.  A change that is meant
to move the digest must say why and record the new value.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from fractions import Fraction as F

from orientw import (Graph, InfeasibleInstanceError, TimeWindow, brute_force_opt,
                     metric_closure)
from orientw.generate import FAMILIES, generate_instance
from orientw.oracles import exact_staircases

KERNEL_PIN = "c8eef306c9e27851e919a27bdf732c752dd6bf88bbf139edc97830491826c9db"

DENSE = dict(horizon=F(20), l_low=F(8), l_high=F(16))
MODES = ("anchored", "start-only", "free")


def _table(rng, n, quarter):
    """metric.ints of a seeded n-vertex metric: directed ones drop about 30%
    of their arcs, so some legs are None, and some edges have length 0."""
    directed = rng.random() < 0.4
    edges = []
    for a in range(n):
        for b in range(n):
            if a == b or (not directed and a > b) or (directed and rng.random() < 0.3):
                continue
            edges.append((a, b, F(rng.randint(0, 12), 4) if quarter else F(rng.randint(0, 4))))
    return metric_closure(Graph.build(directed, n, edges)).ints


def _staircase_records():
    """(record, tags) per seeded entry; the tags name the cases it covers."""
    rng = random.Random(27)
    for trial in range(1500):
        n = rng.randint(2, 8)
        table = _table(rng, n, trial % 2 == 1)
        members = rng.sample(range(n), rng.randint(1, n))
        u = rng.choice(members) if rng.random() < 0.85 else rng.randrange(n)
        kind = trial % 3
        if kind == 0:  # a block entry
            span = rng.randint(0, 40)
            credit = {v: (rng.randint(1, 6), span) for v in members}
            found = exact_staircases(table, credit, u, 0, revisit=False)
            args = (0, "block")
        else:  # a release-group entry, or a point query of either kind
            t0 = rng.randint(0, 12)
            credit = {v: (rng.randint(1, 6), max(0, t0 + rng.randint(-3, 16))) for v in members}
            if kind == 1:
                found = exact_staircases(table, credit, u, t0)
                args = (t0, "group")
            else:
                end = rng.choice([None, u, rng.randrange(n)])
                limit = t0 + rng.randint(0, 16)
                revisit = rng.random() < 0.5
                found = exact_staircases(table, credit, u, t0, {end: limit}, revisit)
                args = (t0, "point", end, limit, revisit)
        steps = sorted(found.items(), key=lambda item: (item[0] is None, item[0] or 0))
        tags = {args[1]}
        if any(leg is None for row in table for leg in row):
            tags.add("unreachable leg")
        if any(len(stairs) > 1 for stairs in found.values()):
            tags.add("two steps or more")
        if any(w in order[1:-1] for w, stairs in found.items() for (_d, _r, order) in stairs):
            tags.add("exit credited earlier")
        if any(len(order) > 1 for (_d, _r, order) in found.get(u, ())):
            tags.add("walk back to u")
        if None in found and found[None]:
            tags.add("free end")
        yield "%s|%s|%s|%s|%s" % (table, sorted(credit.items()), u, args, steps), tags


def _rewarded_everywhere(rng, x):
    """x with every vertex paying 1-5 in a random quarter-grid window."""
    quarters = int(x.budget) * 4
    windows = []
    for _v in range(x.n):
        lo, hi = sorted(rng.randint(0, quarters) for _ in range(2))
        windows.append(TimeWindow(F(lo, 4), F(hi, 4)))
    return replace(x, windows=tuple(windows),
                   rewards=tuple(F(rng.randint(1, 5)) for _ in range(x.n)))


def _optimum_records():
    rng = random.Random(28)
    instances = []
    for n in range(6, 13):
        for i, mode in enumerate(MODES):
            for integral in (True, False):
                family = FAMILIES[(n + i) % len(FAMILIES)]
                instances.append(generate_instance(family, n, n, mode=mode, integral=integral))
                dense = generate_instance("random-metric", n, 3, mode=mode, integral=integral,
                                          **DENSE)
                instances.append(dense)
                if n <= 9:
                    instances.append(_rewarded_everywhere(rng, dense))
        if n <= 7:  # a line too long for the budget: no anchored walk exists
            instances += [generate_instance("line", n, n, horizon=F(2), mode=mode, l_high=F(1))
                          for mode in MODES]
    for x in instances:
        try:
            sol = brute_force_opt(x)
        except InfeasibleInstanceError as exc:
            yield "infeasible: %s" % exc, {"refused"}
        else:
            yield repr(sol), {x.mode} | ({"anchor claimed"} if sol.collected & {x.s, x.t} else set())


def test_the_subset_dp_matches_the_pinned_digest():
    h = hashlib.sha256()
    seen = set()
    for records in (_staircase_records(), _optimum_records()):
        for record, tags in records:
            seen |= tags
            h.update(record.encode("utf-8"))
            h.update(b"\n")
    assert seen == {"block", "group", "point", "unreachable leg", "two steps or more",
                    "exit credited earlier", "walk back to u", "free end",
                    "anchored", "start-only", "free", "anchor claimed", "refused"}
    assert h.hexdigest() == KERNEL_PIN
