"""Point-to-point sub-problem oracles used inside the composition DPs.

Two query shapes: plain orienteering (visit as much eligible reward as
possible within a travel budget, no windows) and deadline walks (every
credited visit must happen by that vertex's deadline).  Both share one
contract: the walk has the query's endpoints, fits its time limit, and its
duration and reward re-evaluate exactly, checked in integer units.  The
exact oracles, the default at desk scale, read every answer off one run of
the package's layered subset DP (instance._subset_dp) per entry
(exact_staircases).  A greedy insertion heuristic and a layered deadline heuristic
are provided as scalable stand-ins with no proven ratio.  All of them
compute in integer units: each fn is _answer over an entry builder, so a
public Fraction query is converted once, and a block or release-group
entry runs the builder in the units its DP already fixed (_entry_ask).
Only a custom fn sees Fractions, built at each probe.

A block or release-group entry reaches an oracle only through
exit_staircases, which asks for every exit's staircase at once.  An oracle
with a staircase search hands them over (both exact oracles do, with one
search per entry), and exit_staircases re-walks each step against the same
contract; for any other oracle it walks the checked point queries down a
time grid (earliest_limits) to the staircase of earliest ends per reward
it reaches.  Within one solve (solve_auto, or a registered solver called
directly) equal entries share one answer, kept in the solve's one memo
(memo._one_solve, memo._kept), so an oracle, a custom fn among them, is asked once
per distinct entry however many versions and solvers reach it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from .errors import PreconditionError
from .memo import _kept
from .instance import _subset_dp
from .metric import Metric
from .rational import ONE, ZERO, Units, floor_log2, units_for


@dataclass(frozen=True)
class OracleSpec:
    """Declared contract of an oracle: reward >= optimum / ratio.

    guaranteed=False marks an empirical heuristic: the ratio field is then
    just a label and nothing in the framework relies on it.

    Equal queries within one solve may share one answer (exit_staircases),
    so a custom fn or staircases search can be asked less often than the
    DPs enter blocks; it must answer equal queries alike.
    """

    name: str
    ratio: Fraction
    guaranteed: bool = True

    def __post_init__(self):
        if self.ratio < 1:
            raise PreconditionError("oracle ratio must be at least 1")


@dataclass
class OrienteeringQuery:
    """Walk from u to v of length at most budget; reward is the sum over
    distinct eligible vertices visited (u and v count when eligible)."""

    metric: Metric
    eligible: Dict[int, Fraction]
    u: int
    v: int
    budget: Fraction


@dataclass(frozen=True)
class WalkResult:
    """Oracle answer: the visit order, its metric length, and the reward it
    re-evaluates to.  An infeasible query yields the empty order.  Inside
    this module the same type holds a walk in integer units."""

    order: tuple
    reward: Fraction
    duration: Fraction

    @property
    def feasible(self) -> bool:
        return bool(self.order)


INFEASIBLE_RESULT = WalkResult((), ZERO, ZERO)


# ----- integer units ---------------------------------------------------------
#
# Both query shapes share one contract and are checked in integer units: a
# walk leaves u at t0 and must end (at end, when given) by limit, and each
# vertex of a credit map v -> (reward, due) pays at its first visit by its
# due time.  An orienteering query is the case t0 = 0, end = v and every due
# the budget.  Distances come from units.table.

def _rewalk(table, credit, order, t0: int) -> tuple:
    """(reward, duration) of the walk order leaving order[0] at t0, on a
    table and credit map in units; duration is None when some leg is
    unreachable."""
    time, reward, seen, prev = t0, 0, set(), None
    for v in order:
        if prev is not None:
            if table[prev][v] is None:
                return 0, None
            time += table[prev][v]
        prev = v
        if v in credit and v not in seen and time <= credit[v][1]:
            seen.add(v)
            reward += credit[v][0]
    return reward, time - t0


def _base_walks(table, credit, u: int, t0: int):
    """(end, limit) -> the walk that stays at u, or goes straight to end, in
    units, leaving u at t0; infeasible when it does not fit [t0, limit].
    Each end's walk is built once (_base_walk), and limit only decides
    whether it fits."""
    built = {}

    def base(end, limit):
        walk = built.get(end)
        if walk is None:
            walk = built[end] = _base_walk(table, credit, u, end, t0)
        return walk if walk.feasible and t0 + walk.duration <= limit else INFEASIBLE_RESULT
    return base


def _base_walk(table, credit, u: int, end: Optional[int], t0: int) -> WalkResult:
    """The walk that stays at u, or goes straight to end, leaving u at t0,
    in units; infeasible when a leg is unreachable."""
    order = (u,) if end is None or end == u else (u, end)
    reward, duration = _rewalk(table, credit, order, t0)
    if duration is None:
        return INFEASIBLE_RESULT
    return WalkResult(order, reward, duration)


def _require_honest(name: str, order, u: int, end: Optional[int], claimed: tuple, rewalk,
                    t0, limit):
    """Raise PreconditionError unless order runs from u to end (to any
    vertex when end is None) and rewalk(order) gives the claimed (reward,
    duration), ending by limit."""
    if not order or order[0] != u or (end is not None and order[-1] != end):
        raise PreconditionError("oracle %s returned a walk with wrong endpoints" % name)
    reward, duration = rewalk(order)
    if duration != claimed[1] or t0 + duration > limit:
        raise PreconditionError("oracle %s misreported its duration or overruns its limit"
                                % name)
    if reward != claimed[0]:
        raise PreconditionError("oracle %s misreported its reward" % name)


def _checked(oracle, metric: Metric, units: Units, credit, u: int, t0: int):
    """oracle's point query (end, limit) -> WalkResult from an entry that
    leaves u at t0 with credit, in units, held to the contract.  What is due
    before t0 is dropped first: no visit can pay it.

    When the base walk does not fit, nothing does and the oracle is not
    asked.  Nor is it asked when only u and end can pay: the base walk
    then collects all there is, as soon as possible, so it is returned as
    it stands, and no oracle, built in or custom, sees such a query.
    Otherwise the oracle's walk is checked against the query (endpoints,
    fits [t0, limit], duration and reward re-walk exactly) and the better
    of it and the base walk is returned.  An answer equal to the base walk
    needs no second walk.
    """
    credit = {v: rd for v, rd in credit.items() if rd[1] >= t0}
    ask = _entry_ask(oracle, metric, units, credit, u, t0)
    name, table = oracle.spec.name, units.table
    base_walk = _base_walks(table, credit, u, t0)

    def point(end, limit):
        base = base_walk(end, limit)
        if not base.feasible or all(w == u or w == end for w in credit):
            return base
        res = ask(end, limit)
        if not res.feasible or res == base:
            return base
        _require_honest(name, res.order, u, end, (res.reward, res.duration),
                        lambda order: _rewalk(table, credit, order, t0), t0, limit)
        return base if _result_better(base, res) else res
    return point


def _answer(make, q) -> WalkResult:
    """make's answer to a Fraction query, converted into units once and
    back.  make(metric, units, credit, u, t0) builds an entry's point query
    (end, limit); an orienteering query is the deadline query from u at 0
    to v by the budget, every due the budget."""
    if isinstance(q, OrienteeringQuery):
        q = DeadlineQuery(q.metric, {w: (r, q.budget) for w, r in q.eligible.items()}, q.u,
                          ZERO, q.v, q.budget)
    units = units_for(q.metric, [q.t0, q.horizon] + [dl for (_r, dl) in q.eligible.values()],
                      [r for (r, _dl) in q.eligible.values()])
    credit = {v: (units.reward(r), units.time(dl)) for v, (r, dl) in q.eligible.items()}
    res = make(q.metric, units, credit, q.u, units.time(q.t0))(q.end, units.time(q.horizon))
    if not res.feasible:
        return INFEASIBLE_RESULT
    return WalkResult(res.order, Fraction(res.reward, units.rscale),
                      Fraction(res.duration, units.tscale))


def _whole(value, scale: int):
    """A custom oracle's value in units: an int when whole, as every honest
    answer's is, else a Fraction, which no re-walk matches."""
    value = Fraction(value) * scale
    return value.numerator if value.denominator == 1 else value


# ----- the exact search ------------------------------------------------------
#
# Both exact oracles read every answer off one subset DP in integer units:
# table[a][b] is a distance, credit maps v -> (reward, due), the walk leaves
# u at t0, and exits maps each vertex the walk may end at (None: anywhere)
# to its bound, the latest time the walk may end there.  A step is
# (duration, reward, order), and each exit's steps are strictly increasing
# in the first two.

def _entry_exits(credit, u: int, t0: int, closed: bool) -> Dict[int, int]:
    """The exits of a block or release-group entry: every vertex of credit,
    bounded by its due.  u's exit is a tour back to u by u's due when
    closed (a block), else the walk stays put at u by t0 (a release group)."""
    return {w: due if closed or w != u else t0 for w, (_r, due) in credit.items()}


def exact_staircases(table, credit, u: int, t0: int, exits=None,
                     revisit: bool = True) -> Dict[Optional[int], List[tuple]]:
    """Every exit's Pareto staircase from one subset DP, each step's
    witness the smallest order among the walks that earn its reward soonest.

    With revisit a walk may credit an exit before its final arrival there
    (deadline walks); without it no walk passes an exit before it ends
    there (orienteering).  exits defaults to a release-group entry's with
    revisit, and to a block entry's without.

    The search is the layered subset DP (instance._subset_dp) from u
    alone at t0, each visit a credit with no release.  A visit is kept only
    when it pays by its due time and some exit can still meet its bound
    from it; without revisit, some exit other than the visited vertex.  An
    exit the walk credits on the way reads off the states that hold it: the
    walk stops at its visit, or, with revisit, comes back to it later.
    Every other exit reads off each state that does not hold it with one
    last leg, paid when it arrives by the exit's due; a free end, and u
    before the walk leaves it, need no leg.  Per exit and reward the
    earliest end wins, then the smallest order.
    """
    if exits is None:
        exits = _entry_exits(credit, u, t0, not revisit)
    ends = {w: bound for w, bound in exits.items() if bound >= t0}
    live = {v: rd for v, rd in credit.items() if rd[1] >= t0}
    # per visitable vertex x: its bit, its reward, no release, and the latest
    # arrival that still pays and still reaches some exit by its bound
    visitable = []
    for i, x in enumerate(sorted(v for v in live if v != u)):
        reach = {w: bound if w is None else bound - table[x][w]
                 for w, bound in ends.items() if w is None or table[x][w] is not None}
        if reach and (revisit or set(reach) - {x}):
            visitable.append((x, 1 << i, live[x][0], 0, min(live[x][1], max(reach.values()))))
    bit = {x: b for (x, b, _g, _r, _cap) in visitable}
    # exits the states hold are read from them; the others as (exit, bound,
    # bit or 0, reward paid on a final arrival by due, due)
    held = {w for w in ends if w in bit}
    finals = []
    for w, bound in ends.items():
        gain, due = live[w] if w in live and w != u else (0, bound)
        if w not in bit or due < bound:
            finals.append((w, bound, bit.get(w, 0), gain, due))
    # per exit: reward -> (end time, order after u), the earliest and then
    # smallest; an order is built only when it may win
    best: Dict[Optional[int], Dict[int, tuple]] = {w: {} for w in ends}

    def offer(w, reward, end, visits, tail=()):
        old = best[w].get(reward)
        if old is None or end < old[0] or (end == old[0] and visits + tail < old[1]):
            best[w][reward] = (end, visits + tail)

    start = (t0, (), live[u][0] if u in live else 0, 0, u)
    for (at, visits, got, mask, v) in _subset_dp(table, visitable, start):
        row = table[v]
        for w in visits if revisit else visits[-1:]:
            if w not in held:
                continue
            if w == v:  # the walk stops at w's visit
                offer(w, got, at, visits)
            elif row[w] is not None and at + row[w] <= ends[w]:
                offer(w, got, at + row[w], visits, (w,))
        for (w, bound, b, gain, due) in finals:
            if mask & b:
                continue
            if w is None or w == v:
                offer(w, got, at, visits)
            elif row[w] is not None and at + row[w] <= bound:
                end = at + row[w]
                offer(w, got + gain if end <= due else got, end, visits, (w,))
    out: Dict[Optional[int], List[tuple]] = {w: [] for w in exits}
    for w in ends:
        for reward in sorted(best[w], reverse=True):
            end, order = best[w][reward]
            if out[w] and end - t0 >= out[w][-1][0]:
                continue
            out[w].append((end - t0, reward, (u,) + order))
        out[w].reverse()
    return out


def _exact_point(table, credit, u: int, t0: int, end: Optional[int], limit: int,
                 revisit: bool) -> WalkResult:
    """A point query in units read off the search: the top step of its one
    exit's staircase, which is the optimal walk that ends soonest and, on a
    tie, has the smallest order (the ranking of _result_better)."""
    steps = exact_staircases(table, credit, u, t0, {end: limit}, revisit)[end]
    if not steps:
        return INFEASIBLE_RESULT
    duration, reward, order = steps[-1]
    return WalkResult(order, reward, duration)


@dataclass(frozen=True)
class OrienteeringOracle:
    """fn answers one orienteering query.  staircases, when given, answers
    every exit of a block entry at once; without it exit_staircases walks
    fn down the time grid per exit."""

    spec: OracleSpec
    fn: Callable[[OrienteeringQuery], WalkResult]
    staircases: Optional[Callable[..., Dict[int, List[tuple]]]] = None


def best_orienteering_walk(oracle: OrienteeringOracle, q: OrienteeringQuery) -> WalkResult:
    """Contract wrapper around an orienteering oracle: the walk runs from u
    at time 0 to v by the budget.  The base walk is u alone when u = v,
    else u then v.  The oracle is asked only when the base walk fits and a
    vertex other than u and v can pay (see _checked)."""
    return _answer(partial(_checked, oracle), q)


def _exact_entry(revisit: bool, metric: Metric, units: Units, credit, u: int, t0: int):
    """The exact oracles' point query (end, limit) from an entry, in units
    (_exact_point): exact_orienteering's walks never pass v before they end
    there, and exact_deadline's may credit the end anchor on the way
    (revisit).  Intended for roughly a dozen eligible vertices."""
    return partial(_exact_point, units.table, credit, u, t0, revisit=revisit)


def _greedy(table, credit, u: int, t0: int, v: int, limit: int) -> WalkResult:
    """Cheapest-insertion heuristic in units, with no approximation
    guarantee: a walk from u at t0 to v by limit that repeatedly inserts the
    vertex of credit with the best reward-per-detour at its cheapest
    feasible position; dues are not read.  Ties break deterministically: on
    an equal reward per detour the smaller vertex id wins, even when its
    detour is larger, and per vertex the smallest detour wins, then the
    leftmost position."""
    budget = limit - t0
    if table[u][v] is None or table[u][v] > budget:
        return INFEASIBLE_RESULT
    # u == v is the closed-walk case: both ends pinned to u, table[u][u] = 0
    order = [u, v]
    duration = table[u][v]
    remaining = sorted(w for w in credit if w != u and w != v)
    while True:
        best_pick = None  # (w, pos, detour)
        for w in remaining:
            w_best = None
            for pos in range(len(order) - 1):
                a, b = order[pos], order[pos + 1]
                da, db = table[a][w], table[w][b]
                if da is None or db is None:
                    continue
                detour = da + db - table[a][b]
                if duration + detour > budget:
                    continue
                if w_best is None or detour < w_best[2]:
                    w_best = (w, pos, detour)
            if w_best is None:
                continue
            if best_pick is None or _ratio_better(credit[w][0], w_best[2],
                                                  credit[best_pick[0]][0], best_pick[2]):
                best_pick = w_best
        if best_pick is None:
            break
        w, pos, detour = best_pick
        order.insert(pos + 1, w)
        duration += detour
        remaining.remove(w)
    if u == v and len(order) == 2:
        order = [u]  # nothing inserted, stay put
    reward = sum(credit[w][0] for w in set(order) if w in credit)
    return WalkResult(tuple(order), reward, duration)


def _greedy_entry(metric: Metric, units: Units, credit, u: int, t0: int):
    """greedy_orienteering's point query (end, limit) from an entry, in units."""
    return partial(_greedy, units.table, credit, u, t0)


def _ratio_better(r1: int, d1: int, r2: int, d2: int) -> bool:
    """Is reward r1 per detour d1 strictly better than r2 per d2?"""
    if d1 == 0 or d2 == 0:  # a zero detour beats any other
        return d2 != 0 or (d1 == 0 and r1 > r2)
    return r1 * d2 > r2 * d1


# the built-in point oracles' fns: each is _answer over its entry builder
exact_orienteering = partial(_answer, partial(_exact_entry, False))
exact_deadline = partial(_answer, partial(_exact_entry, True))
greedy_orienteering = partial(_answer, _greedy_entry)
EXACT_ORACLE = OrienteeringOracle(OracleSpec("exact", ONE), exact_orienteering,
                                  partial(exact_staircases, revisit=False))
GREEDY_ORACLE = OrienteeringOracle(OracleSpec("greedy", ONE, guaranteed=False), greedy_orienteering)

ORIENTEERING_ORACLES = {"exact": EXACT_ORACLE, "greedy": GREEDY_ORACLE}


def earliest_limits(probe: Callable, start, hi, step) -> List[WalkResult]:
    """The staircase of earliest ends per reward that probe reaches with a
    limit in [start, hi], strictly increasing in duration and in reward.

    probe(limit) is a checked point query's answer to a query whose walk
    leaves at start and ends at a fixed vertex by limit, in Fractions or in
    units.  An answer ends at start + duration, and every duration is a
    multiple of step (1/metric.scale in the same numbers), so the walk down
    the grid asks at hi, then one step below where the last answer ends:
    each answer ends sooner than the one before.  Every kept answer whose
    reward a sooner one matches or beats is dropped, so the staircase is
    monotone for any oracle.  The walk stops at an infeasible answer or at
    the straight walk (an order of at most two vertices): with a fixed end
    and shortest-walk distances nothing ends sooner.  That is one probe per
    answer.  An exact answer's reward is the optimum at every limit from
    where its walk ends up to where it was asked, so with an exact oracle
    the staircase is the Pareto frontier of (duration, reward).  A free end
    is outside this contract: a two-vertex walk need not end soonest there.
    """
    found: List[WalkResult] = []
    limit = hi
    while limit >= start:
        res = probe(limit)
        if not res.feasible:
            break
        while found and found[-1].reward <= res.reward:
            found.pop()
        found.append(res)
        if len(res.order) <= 2:
            break
        limit = start + res.duration - step
    found.reverse()
    return found


def _result_better(a: WalkResult, b: WalkResult) -> bool:
    """Any walk beats an infeasible answer, even one collecting nothing;
    then more reward, a shorter walk and the smaller order win."""
    if a.feasible != b.feasible:
        return a.feasible
    if a.reward != b.reward:
        return a.reward > b.reward
    if a.duration != b.duration:
        return a.duration < b.duration
    return a.order < b.order


# ----- deadline walks --------------------------------------------------------

@dataclass
class DeadlineQuery:
    """Walk starting at u at time t0; a visit to an eligible vertex counts
    iff it happens by that vertex's deadline.  end, when given, anchors the
    walk's final vertex; horizon bounds the walk's end time either way."""

    metric: Metric
    eligible: Dict[int, Tuple[Fraction, Fraction]]  # v -> (reward, deadline)
    u: int
    t0: Fraction
    end: Optional[int]
    horizon: Fraction


@dataclass(frozen=True)
class DeadlineOracle:
    """fn answers one deadline query.  staircases, when given, answers every
    exit of a release-group entry at once; without it exit_staircases
    walks fn down the time grid per exit."""

    spec: OracleSpec
    fn: Callable[[DeadlineQuery], WalkResult]
    staircases: Optional[Callable[..., Dict[int, List[tuple]]]] = None


def best_deadline_walk(oracle: DeadlineOracle, q: DeadlineQuery) -> WalkResult:
    """Contract wrapper for deadline oracles; the same check as
    best_orienteering_walk, after dropping vertices whose deadline is
    before t0.

    Durations in the result exclude t0: the walk occupies [t0, t0 + duration].
    """
    return _answer(partial(_checked, oracle), q)


def _entry_ask(oracle, metric: Metric, units: Units, credit, u: int, t0: int):
    """oracle's unchecked point query (end, limit) -> WalkResult from an
    entry, in units.  One rule: a fn built on _answer, as every built-in fn
    is, runs its entry builder in units; any other fn gets a Fraction query
    built at the probe, and its answer is converted back."""
    fn, tscale, rscale = oracle.fn, units.tscale, units.rscale
    if isinstance(fn, partial) and fn.func is _answer:
        return fn.args[0](metric, units, credit, u, t0)
    closed = isinstance(oracle, OrienteeringOracle)
    eligible = {v: Fraction(r, rscale) if closed else (Fraction(r, rscale), Fraction(due, tscale))
                for v, (r, due) in credit.items()}
    start = Fraction(t0, tscale)

    def ask(end, limit):
        if closed:
            q = OrienteeringQuery(metric, eligible, u, end, Fraction(limit - t0, tscale))
        else:
            q = DeadlineQuery(metric, eligible, u, start, end, Fraction(limit, tscale))
        res = fn(q)
        return WalkResult(res.order, _whole(res.reward, rscale), _whole(res.duration, tscale))
    return ask


# ----- block and release-group exits ------------------------------------------
#
# A block or release-group entry leaves u at t0 and may end at any vertex of
# its credit map (_entry_exits gives the bounds).  exit_staircases is the one
# way such an entry reaches an oracle, in the integer units of the caller's DP.

def exit_staircases(oracle, metric: Metric, units: Units, credit, u: int,
                    t0: int) -> Dict[int, List[tuple]]:
    """Every exit w of credit, u among them, mapped to its staircase of
    (duration, reward, order) steps in units, strictly increasing in the
    first two.  An orienteering oracle's u closes a tour by u's due; a
    deadline oracle's stays put.

    A staircase search answers every exit at once, and each step must run
    from u to w, end by w's bound and re-walk in units to its duration and
    reward, or PreconditionError is raised.  Any other oracle's checked
    point queries are walked down the time grid from each exit's bound
    (earliest_limits), one query per answer, in the same units.

    Within one solve (memo._kept) equal entries share one answer or refusal:
    the key is the oracle, the units (one object per scales and table
    content in a solve: instance._derived), the metric's scale, the credit,
    u and t0.
    """
    return _kept(("stairs", metric.scale, tuple(credit.items()), u, t0), (oracle, units),
                 lambda: _search_exits(oracle, metric, units, credit, u, t0))


def _search_exits(oracle, metric: Metric, units: Units, credit, u: int,
                  t0: int) -> Dict[int, List[tuple]]:
    """exit_staircases without the memo."""
    closed = isinstance(oracle, OrienteeringOracle)
    exits = _entry_exits(credit, u, t0, closed)
    if oracle.staircases is None:
        point = _checked(oracle, metric, units, credit, u, t0)
        step = units.tscale // metric.scale
        return {w: [(res.duration, res.reward, res.order)
                    for res in earliest_limits(partial(point, w), t0, bound, step)]
                for w, bound in exits.items()}
    found = oracle.staircases(units.table, credit, u, t0)

    def rewalk(order):
        return _rewalk(units.table, credit, order, t0)

    out = {}
    for w, bound in exits.items():
        out[w] = found.get(w, [])
        for (duration, reward, order) in out[w]:
            _require_honest(oracle.spec.name, order, u, w, (reward, duration), rewalk, t0, bound)
    return out


def _layered_entry(oracle, metric: Metric, units: Units, credit, u: int, t0: int):
    """layered_deadline_oracle(oracle)'s point query from an entry, in units.
    The classes are computed once per entry, and class j's cutoff 2**j is
    floored into units, which decides every comparison with a whole
    duration as 2**j would."""
    classes: Dict[Optional[int], Dict[int, int]] = {}
    for v, (r, due) in credit.items():
        classes.setdefault(floor_log2(Fraction(due, units.tscale)) if due > 0 else None, {})[v] = r
    layers = []  # (cutoff, ends of a free walk, checked orienteering query)
    for j in sorted(classes, key=lambda k: (k is None, k)):
        cutoff = t0 if j is None else (units.tscale << j if j >= 0 else units.tscale >> -j)
        if cutoff >= t0:  # else no limit leaves the class a budget
            members = {v: (r, cutoff - t0) for v, r in classes[j].items()}
            layers.append((cutoff, sorted(set(members) | {u}),
                           _checked(oracle, metric, units, members, u, 0)))
    table = units.table
    base_walk = _base_walks(table, credit, u, t0)

    def ask(end, limit):
        best = base_walk(end, limit)
        if not best.feasible:
            return best
        for cutoff, free_ends, point in layers:
            budget = min(cutoff, limit) - t0
            if budget < 0:
                continue
            for e in (free_ends if end is None else (end,)):
                res = point(e, budget)
                if not res.feasible:
                    continue
                scored = WalkResult(res.order, _rewalk(table, credit, res.order, t0)[0],
                                    res.duration)
                if _result_better(scored, best):
                    best = scored
        return best

    return ask


EXACT_DEADLINE = DeadlineOracle(OracleSpec("exact", ONE), exact_deadline, exact_staircases)


def layered_deadline_oracle(oracle: OrienteeringOracle) -> DeadlineOracle:
    """Deadline heuristic: split eligible vertices into geometric deadline
    classes [2**j, 2**(j+1)), answer one orienteering query per class with
    budget 2**j - t0 (clamped to the horizon), and keep the best class."""
    return DeadlineOracle(OracleSpec("layered", ONE, guaranteed=False),
                          partial(_answer, partial(_layered_entry, oracle)))


# deadline oracles by name, each built around the point-to-point oracle in use
DEADLINE_ORACLES = {"exact": lambda oracle: EXACT_DEADLINE, "layered": layered_deadline_oracle}


def deadline_oracle_by_name(name: str, oracle: OrienteeringOracle) -> DeadlineOracle:
    if name not in DEADLINE_ORACLES:
        raise PreconditionError("unknown deadline oracle %r" % name)
    return DEADLINE_ORACLES[name](oracle)
