"""Dynamic programs over modular instances.

A modular partition splits the positive-reward vertices into blocks with
time intervals that appear in order along the timeline; every member's
window must contain its block's interval.  Any feasible walk then collects
each block's vertices in one contiguous stretch, so the instance solves by
sequencing per-block point-to-point walks.  _label_loop runs that
sequencing once for every composition; a block DP only says which in-block
walks each block offers.  solve_reward_indexed offers the earliest walk
per reward the oracle reaches, on any rationals.

It takes a point-to-point orienteering oracle and inherits its ratio;
each block keeps its own oracle answers as moves.  The answers come from
exit_staircases, whose memo lets every DP of one solve share an equal
entry's answer.  With EXACT_ORACLE (ratio 1) the DP is exact, so the exact
modular DP is solve_reward_indexed on that oracle.

The release-group DP (_release_group_solve) feeds _label_loop the same
way, with groups of windows that share a release as its blocks and a
deadline oracle for the walks inside a group.  Both it and
solve_reward_indexed reach their oracle through oracles.exit_staircases
only, one call per entry; how an oracle answers is decided there.  The
composed solvers in algorithms call solve_reward_indexed and this DP only;
the step protocol stays in this module.

The label loop runs on ints, in the units of its instance's view
(instance._view), which its oracles answer in too, so it does no Fraction
arithmetic; only claimed is a Fraction again.  A partition whose block
bounds lie off the view's scale runs in the view of x on a scale that
makes them whole (instance._restricted, with no piece).  An oracle's
ratio scales the claimed total, once, and changes no choice the DP makes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import PreconditionError
from .instance import (ANCHORED, TwInstance, WalkSolution, _fraction, _restricted, _view,
                       ensure_reachable_anchors, evaluate_walk)
from .oracles import DeadlineOracle, OrienteeringOracle, exit_staircases
from .rational import ZERO, Units


@dataclass(frozen=True)
class ModularBlock:
    members: frozenset  # vertex ids collected in this block
    release: Fraction  # block interval start
    deadline: Fraction  # block interval end


@dataclass(frozen=True)
class ModularPartition:
    blocks: tuple


def verify_modular(x: TwInstance, part: ModularPartition) -> List[str]:
    """Diagnostics for a claimed modular partition; empty list means valid.

    Checks interval sanity and ordering, member-window containment, and that
    every positive-reward vertex sits in exactly one block.  The start and
    end anchors are exempt from the coverage requirement (their reward, if
    any, can be picked up at the anchor visits), but when listed as members
    they are checked like anyone else.

    Everything is checked on x's view (instance._view), with no Fraction
    compared: a block's bound p/q is held as the pair (p, q), and p/q <=
    p'/q' when p * q' <= p' * q.  So a window [r, d] in units of tscale
    contains a block's [p/q, p'/q'] when r * q <= p * tscale and
    d * q' >= p' * tscale, and the budget B in those units bounds p'/q'
    when p' * tscale <= B * q'.
    """
    problems: List[str] = []
    units, span = _view(x)
    tscale, budget = units.tscale, units.time(x.budget)
    blocks = part.blocks
    bounds = [(b.release.numerator, b.release.denominator,
               b.deadline.numerator, b.deadline.denominator) for b in blocks]
    for i, b in enumerate(blocks):
        rp, rq, dp, dq = bounds[i]
        if rp * dq > dp * rq:
            problems.append("block %d interval is reversed" % i)
        if rp < 0 or dp * tscale > budget * dq:
            problems.append("block %d interval leaves [0, budget]" % i)
        for v in sorted(b.members):
            if not (0 <= v < x.n):
                problems.append("block %d lists unknown vertex %d" % (i, v))
                continue
            if span[v][0] * rq > rp * tscale or span[v][1] * dq < dp * tscale:
                problems.append("vertex %d window does not contain block %d interval" % (v, i))
    for i in range(len(blocks) - 1):
        (_rp, _rq, dp, dq), (rp, rq, _dp, _dq) = bounds[i], bounds[i + 1]
        if dp * rq > rp * dq:
            problems.append("blocks %d and %d are out of order" % (i, i + 1))
    counts: Dict[int, int] = {}
    for b in blocks:
        for v in b.members:
            counts[v] = counts.get(v, 0) + 1
    for v, c in sorted(counts.items()):
        if c > 1:
            problems.append("vertex %d appears in %d blocks" % (v, c))
    exempt = {v for v in (x.s, x.t) if v is not None}
    for v in range(x.n):
        if span[v][2] and v not in exempt and counts.get(v, 0) == 0:
            problems.append("positive-reward vertex %d is not covered by any block" % v)
    return problems


def blocks_from_identical_windows(x: TwInstance) -> ModularPartition:
    """Partition built by grouping positive-reward vertices with identical
    windows.  The result is only claimed, not checked; run verify_modular.
    Grouped and sorted on x's view (instance._view), which also gives a
    block's bounds."""
    units, span = _view(x)
    groups: Dict[Tuple[int, int], set] = {}
    for v, (r, d, g) in enumerate(span):
        if g:
            groups.setdefault((r, d), set()).add(v)
    return ModularPartition(tuple(
        ModularBlock(frozenset(mem), _fraction(r, units.tscale), _fraction(d, units.tscale))
        for ((r, d), mem) in sorted(groups.items())))


def require_modular(x: TwInstance, part: ModularPartition):
    problems = verify_modular(x, part)
    if problems:
        raise PreconditionError("not a modular partition: " + problems[0])


@dataclass
class DpResult:
    """Outcome of one modular solve.

    walk is re-evaluated on the instance itself, so its reward is what the
    solver actually certifies.  claimed is the DP's internal total (with an
    approximate oracle it can exceed walk.reward by up to the ratio).
    """

    walk: WalkSolution
    claimed: Fraction
    segments: tuple  # ((block_index, visit order), ...)


# ----- shared assembly -------------------------------------------------------

def assemble_walk(x: TwInstance, segments: List[Tuple[int, tuple]], held) -> WalkSolution:
    """Turn per-block visit orders into one walk and evaluate it.

    held[bi] holds the vertices of block bi.  A vertex with positive
    reward is flagged at its first occurrence in a segment of the block
    that holds it, and any other vertex an oracle passes through travels
    unflagged, so a walk that passes a vertex outside its window on the
    way to another block stays feasible; anchors travel unflagged and,
    when they carry reward that no block covers, the best of the four flag
    combinations is kept.  Rewards are read off x's view (instance._view).
    """
    span = _view(x)[1]
    covered = set()
    core: List[Tuple[int, bool]] = []
    for (bi, order) in segments:
        holds = held[bi]
        for v in order:
            flag = v in holds and v not in covered and span[v][2] > 0
            if flag:
                covered.add(v)
            core.append((v, flag))

    combos: List[Tuple[bool, bool]] = [(False, False)]
    if x.s is not None and span[x.s][2] > 0 and x.s not in covered:
        combos += [(True, False)]
    if x.t is not None and span[x.t][2] > 0 and x.t not in covered:
        combos += [(c[0], True) for c in list(combos)]

    best: Optional[WalkSolution] = None
    for (fs, ft) in combos:
        order: List[Tuple[int, bool]] = []
        if x.s is not None:
            order.append((x.s, fs))
        order.extend(core)
        if x.t is not None:
            order.append((x.t, ft))
        sol = evaluate_walk(x, order)
        if sol.feasible and (best is None or sol.reward > best.reward):
            best = sol
    if best is None:
        # fall back to the bare anchor walk so callers always get an answer
        best = evaluate_walk(x, [(v, False) for v in (x.s, x.t) if v is not None])
    return best


def _eligible_blocks(x: TwInstance, part: ModularPartition):
    """(index, block, member rewards, sorted member ids) for every block
    with a positive-reward member; the others offer the label loop nothing.
    Which rewards are positive is read off x's view (instance._view)."""
    span = _view(x)[1]
    for bi, b in enumerate(part.blocks):
        eligible = {v: x.rewards[v] for v in sorted(b.members) if span[v][2] > 0}
        if eligible:
            yield bi, b, eligible, sorted(eligible)


def _positions(labels) -> list:
    """labels' positions as the label DP visits them: None (not started) first."""
    return [None] * (None in labels) + sorted(p for p in labels if p is not None)


# ----- the label loop --------------------------------------------------------

def _label_loop(x: TwInstance, units: Units, steps) -> dict:
    """Label DP over blocks in timeline order, shared by every composition;
    its frontier per position after the last block (harvest_labels picks
    the walk).  x's end anchor plays no part.

    A label (time, reward, back) at a position is a partial walk; each
    position keeps a Pareto frontier of them.  steps yields (index, release,
    deadline, entries, moves) per block: a label may enter at any u in
    entries by the deadline, and moves(u, e) yields the in-block walks
    (exit, duration, reward gain, visit order) open from u at time e.
    A block's moves is called only before the next block is drawn, so it
    may close over per-block state.

    Every time and reward, in the labels and in what steps yields, is an
    int in units; the conversion preserves order and sums, so the DP picks
    what it would pick on Fractions.  Only claimed is converted back.

    A block copies a frontier only when it first pushes to it; the others
    stay shared with the last block's.  A block enters each (u, e) once per
    reward it improves on: moves(u, e) offers the same walks every time,
    so a label entering where an earlier one of at least its reward
    entered would push only labels that the earlier one's pushes weakly
    dominate, which push_label rejects.
    """
    table = units.table
    # a walk starts at the start anchor, or at no position (None) when free
    labels: Dict[object, List[tuple]] = {x.s: [(0, 0, None)]}
    for (bi, release, deadline, entries, moves) in steps:
        new_labels, copied, entered = dict(labels), set(), {}
        for p in _positions(labels):
            row = None if p is None else table[p]
            for (tau, rew, back) in labels[p]:
                for u in entries:
                    if row is None:
                        e = release
                    else:
                        leg = row[u]
                        if leg is None:
                            continue
                        e = tau + leg
                        if e < release:
                            e = release
                    if e > deadline:
                        continue
                    if entered.get((u, e), -1) >= rew:
                        continue
                    entered[(u, e)] = rew
                    for (w, duration, gain, order) in moves(u, e):
                        if w not in copied:
                            copied.add(w)
                            new_labels[w] = list(labels.get(w, ()))
                        push_label(new_labels[w], (e + duration, rew + gain, (bi, order, back)))
        labels = new_labels
    return labels


def push_label(frontier: List[tuple], entry: tuple):
    """Insert a (time, reward, back) label, keeping the frontier minimal:
    no label may be as late and as poor as another.  The frontier stays
    strictly increasing in both time and reward, and a label equal to one
    already there is rejected, so the first back-pointer pushed wins.  One
    scan from the first label at or after the new one's time decides."""
    t, r = entry[0], entry[1]
    i, n = bisect_left(frontier, (t,)), len(frontier)  # (t,) sorts before every label at t
    if i and frontier[i - 1][1] >= r or i < n and frontier[i][0] == t and frontier[i][1] >= r:
        return
    j = i
    while j < n and frontier[j][1] <= r:
        j += 1
    frontier[i:j] = (entry,)


def harvest_labels(x: TwInstance, units: Units, labels, held) -> DpResult:
    """Pick the best label that can still reach the end anchor by the
    budget and rebuild its segment list; held[bi] holds the vertices of
    block bi (assemble_walk)."""
    budget = units.time(x.budget)
    best = None
    for p in _positions(labels):
        latest = None  # the latest time a label here may end at; None: any
        if x.mode == ANCHORED:
            leg = units.table[x.s if p is None else p][x.t]
            if leg is None:
                continue
            latest = budget - leg
        for entry in labels[p]:
            tau, rew = entry[0], entry[1]
            if latest is not None and tau > latest:
                continue
            key = (rew, -tau)
            if best is None or key > best[0]:
                best = (key, entry)
    if best is None:
        return DpResult(assemble_walk(x, [], held), ZERO, ())
    segments: List[Tuple[int, tuple]] = []
    back = best[1][2]
    while back is not None:
        (bi, order, prev) = back
        segments.append((bi, order))
        back = prev
    segments.reverse()
    walk = assemble_walk(x, segments, held)
    return DpResult(walk, Fraction(best[1][1], units.rscale), tuple(segments))


# ----- reward-indexed DP -----------------------------------------------------

def solve_reward_indexed(x: TwInstance, part: ModularPartition,
                         oracle: OrienteeringOracle) -> DpResult:
    """Chain DP whose block walks are the earliest completion of every
    reward the oracle reaches.

    The first time a label enters a block at u, every exit's staircase is
    asked for (exit_staircases) and kept for the block's later entries at
    u, each of which is offered every step that still ends by the block
    deadline.  No reward grid is involved, so rational data needs no
    scaling and the cost does not grow with reward precision.  With an
    exact oracle the staircases are the block's Pareto frontier, which
    makes the DP exact.

    The DP runs in the units of x's view, widened to the least scale that
    makes every block bound whole; only a hand-made block widens it.  With
    a ratio-a oracle the labels collect each answer's own reward, and
    claimed is a times the best label's.  For any budget b the staircase
    holds an answer that ends by b and earns at least the oracle's answer
    at some budget of at least b, so claimed is at least the modular
    optimum, and the returned walk collects at least claimed / a.
    """
    require_modular(x, part)
    ensure_reachable_anchors(x)

    units = _view(x)[0]
    times = [t for b in part.blocks for t in (b.release, b.deadline)]
    if any(units.tscale % t.denominator for t in times):
        # x's view on the least scale that makes every block bound whole
        wide = math.lcm(units.tscale, *(t.denominator for t in times))
        units = _view(_restricted(x, wide, {}))[0]

    def steps():
        for bi, b, eligible, ids in _eligible_blocks(x, part):
            release, deadline = units.time(b.release), units.time(b.deadline)
            credit = {v: (units.reward(r), deadline - release) for v, r in eligible.items()}
            # u -> (every exit's staircase as moves in units; the longest
            # move's duration)
            stairs: Dict[int, tuple] = {}

            def moves(u, e):
                if u not in stairs:
                    found = exit_staircases(oracle, x.metric, units, credit, u, 0)
                    listed = [(w,) + step for w in ids for step in found[w]]
                    stairs[u] = (listed, max((move[1] for move in listed), default=0))
                listed, longest = stairs[u]
                if e + longest <= deadline:
                    return listed
                return [move for move in listed if e + move[1] <= deadline]

            yield bi, release, deadline, ids, moves

    res = harvest_labels(x, units, _label_loop(x, units, steps()),
                         [b.members for b in part.blocks])
    res.claimed *= oracle.spec.ratio
    return res


# ----- release-group DP ------------------------------------------------------

def _release_groups(x: TwInstance):
    """Positive-reward vertices grouped by a shared release, as (release,
    members, latest deadline) in the time units of x's view
    (instance._view); each group's windows must end by the next group's
    release."""
    units, span = _view(x)
    grouped: Dict[int, List[int]] = {}
    for v, (r, _d, g) in enumerate(span):
        if g:
            grouped.setdefault(r, []).append(v)
    out = [(rel, members, max(span[v][1] for v in members))
           for rel, members in sorted(grouped.items())]
    for (rel, _members, dmax), later in zip(out, out[1:]):
        if dmax > later[0]:
            raise PreconditionError("windows released at %s overrun the next release"
                                    % _fraction(rel, units.tscale))
    return out


def _release_group_solve(x: TwInstance, deadline_oracle: DeadlineOracle):
    """Label DP across release groups; the deadline oracle fills in the
    walks between an entry (u, e) and each exit vertex w.

    A pass through a group ends at its last claim, so it ends at w by w's
    deadline (w = u stays put at e).  Each group entry (u, e) asks for
    every exit's staircase of earliest ends per reward (exit_staircases),
    and the DP keeps the paying steps as one move list for the labels that
    enter at the same (u, e).  With an exact oracle these are the Pareto
    frontier of the passes ending at w, so the DP is exact.
    """
    ensure_reachable_anchors(x)
    # (group, u, e) -> every exit's paying steps as moves in units, e being
    # the entry time in units too
    groups, (units, span), stairs = _release_groups(x), _view(x), {}

    def steps():
        for gi, (rel, members, dmax) in enumerate(groups):
            credit = {v: (span[v][2], span[v][1]) for v in members}

            def moves(u, e):
                if (gi, u, e) not in stairs:
                    found = exit_staircases(deadline_oracle, x.metric, units, credit, u, e)
                    stairs[(gi, u, e)] = [(w,) + step for w in members for step in found[w]
                                          if step[1] > 0]
                return stairs[(gi, u, e)]

            yield gi, rel, dmax, members, moves

    return harvest_labels(x, units, _label_loop(x, units, steps()),
                          [members for (_rel, members, _dmax) in groups])
