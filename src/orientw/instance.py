"""Instance model for orienteering with per-vertex time windows.

A TwInstance bundles an exact metric, one window and one reward per vertex,
optional start/end anchors, a time budget, and the waiting policy.  Walks are
scored by evaluate_walk, and repair_by_insertion inserts into a feasible
walk the uncovered vertices that still fit.  _subset_dp, a layered subset
DP in integer units, is the package's one exhaustive search: the exact
oracles run it (oracles.exact_staircases), and so does brute_force_opt, the
exact optimum the rest of the package is verified against.
ensure_reachable_anchors refuses an end anchor out of reach for the solvers
and brute_force_opt.

An instance's times enter integer units in its one view (_view): Units over
the budget and every window and reward, and each vertex's (release,
deadline, reward) in them, held on the instance itself.  evaluate_walk
scores untimed walks on it, and window_stats, the solvers' splits and reach
bound (algorithms), the block and release group checks and the label DPs
(modular) and the insertion repair's tries read it; Fractions come back
only at the edges, such as a schedule, a reward or a statistic.
The public constructor checks every field, and the view is built on its
first read.  Every instance derived from a checked one (restrict,
drop_vertices, scale_times, time_reversed, the start-only solve's sink
instance, decompose's versions) is built by _derived, which checks only
new anchors and gives the new instance the view that its transform
derived from the parent's, in the parent's scales: an unchanged vertex
keeps its ints, a zeroed reward reads 0, a reversed window is (B - d,
B - r), a scaled one the parent's ints times the scale's numerator over a
tscale times its denominator, and a new window comes in ints
(_restricted), in the parent's tscale widened where it must be; restrict
checks Fraction windows and converts them so.  A new distance table's
Units are the solve's first of equal scales and table, so the label DPs
of every instance on it share one.  Each DP decision compares sums of
whole units, which the same factor on every unit leaves as they are.  A
derived instance's windows, and a derived metric's d
(metric._from_ints), are built from the ints on first read, which no
solve makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .errors import ContainmentError, InfeasibleInstanceError, PreconditionError
from .memo import _kept
from .metric import Metric
from .rational import ZERO, Units, as_fraction, units_for

WAIT = "wait"
NO_WAIT = "no-wait"

# anchoring modes
ANCHORED = "anchored"      # s and t fixed; walk runs s at time 0 to t by T
START_ONLY = "start-only"  # s fixed, end free; everything done by time T
FREE = "free"              # both ends free; windows alone bound the walk


@dataclass(frozen=True, slots=True)
class TimeWindow:
    release: Fraction
    deadline: Fraction

    def __post_init__(self):
        object.__setattr__(self, "release", as_fraction(self.release))
        object.__setattr__(self, "deadline", as_fraction(self.deadline))
        if self.release > self.deadline:
            raise PreconditionError(
                "window release %s exceeds deadline %s" % (self.release, self.deadline))

    @property
    def length(self) -> Fraction:
        return self.deadline - self.release


def _window(release: Fraction, deadline: Fraction) -> TimeWindow:
    """TimeWindow(release, deadline) without its checks, for Fractions with
    release <= deadline: a derived instance's window, read off its view."""
    w = object.__new__(TimeWindow)
    object.__setattr__(w, "release", release)
    object.__setattr__(w, "deadline", deadline)
    return w


@dataclass(frozen=True, slots=True)
class TwInstance:
    """One problem instance.

    windows/rewards are indexed by vertex id.  s and t control the anchoring
    mode: both set (anchored), s only (start-only), neither (free endpoints).
    budget is the time horizon; every window deadline must stay within it.
    """

    metric: Metric
    windows: Tuple[TimeWindow, ...]
    rewards: Tuple[Fraction, ...]
    s: Optional[int]
    t: Optional[int]
    budget: Fraction
    wait_policy: str = WAIT
    # the integer view (_view), set by _derived or when first read
    _integer_view: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def __getattr__(self, name):
        # reached only when lookup fails: windows, unset by _derived, is read off the view
        if name != "windows":
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        units, span = self._integer_view
        windows = tuple(_window(_fraction(r, units.tscale), _fraction(d, units.tscale))
                        for (r, d, _g) in span)
        object.__setattr__(self, "windows", windows)
        return windows

    def __post_init__(self):
        n = self.metric.n
        if len(self.windows) != n or len(self.rewards) != n:
            raise PreconditionError("windows/rewards must list one entry per vertex")
        object.__setattr__(self, "rewards", tuple(as_fraction(r) for r in self.rewards))
        object.__setattr__(self, "budget", as_fraction(self.budget))
        if any(r < 0 for r in self.rewards):
            raise PreconditionError("rewards must be nonnegative")
        if self.wait_policy not in (WAIT, NO_WAIT):
            raise PreconditionError("wait_policy must be %r or %r" % (WAIT, NO_WAIT))
        _check_anchors(n, self.s, self.t)
        if self.budget < 0:
            raise PreconditionError("budget must be nonnegative")
        for v, w in enumerate(self.windows):
            if w.release < 0:
                raise PreconditionError("vertex %d: window release %s is negative" % (v, w.release))
            if w.deadline > self.budget:
                raise PreconditionError(
                    "vertex %d: window deadline %s exceeds the budget %s"
                    % (v, w.deadline, self.budget))

    @property
    def n(self) -> int:
        return self.metric.n

    @property
    def mode(self) -> str:
        if self.s is None:
            return FREE
        if self.t is None:
            return START_ONLY
        return ANCHORED

    def positive_vertices(self) -> list:
        return [v for v, r in enumerate(self.rewards) if r.numerator > 0]


def _check_anchors(n: int, s: Optional[int], t: Optional[int]):
    if s is None and t is not None:
        raise PreconditionError("an end anchor without a start anchor is not supported")
    for anchor in (s, t):
        if anchor is not None and not (0 <= anchor < n):
            raise PreconditionError("anchor vertex %r outside 0..%d" % (anchor, n - 1))


def ensure_reachable_anchors(x: TwInstance):
    """Raise InfeasibleInstanceError when x is anchored and t cannot be
    reached from s within the budget: no walk of x is feasible."""
    if x.mode == ANCHORED:
        units = _view(x)[0]
        leg = units.table[x.s][x.t]
        if leg is None or leg > units.time(x.budget):
            raise InfeasibleInstanceError(
                "cannot reach %d from %d within budget %s" % (x.t, x.s, x.budget))


def _derived(x: TwInstance, tscale: int, span: list, **changed) -> TwInstance:
    """x with the changed fields, checking only new anchors, and the view
    (tscale, span): the new instance's span in units tscale and x's rscale,
    derived from x's view by the transform that calls.

    x passed TwInstance's checks, and each caller keeps what it changes
    valid by construction: windows inside x's (restrict checks containment)
    or x's scaled by c > 0 or reversed about the budget, or one more vertex
    with window [0, budget] (algorithms._with_sink), rewards x's or zero, so
    only new anchors are checked here, against the new vertex count.  The
    new windows are left unset, built from the view on first read.

    The view keeps x's Units when the metric and tscale stay; otherwise,
    within one solve (memo._kept), its Units are the solve's first of equal
    scales and table, the object exit_staircases keys on."""
    y = object.__new__(TwInstance)
    for name in TwInstance.__slots__:
        if name != "windows":
            object.__setattr__(y, name, changed.get(name, getattr(x, name)))
    if (y.s, y.t) != (x.s, x.t):
        _check_anchors(y.n, y.s, y.t)
    units = _view(x)[0]
    if y.metric is not x.metric or tscale != units.tscale:
        rscale, table = units.rscale, units_for(y.metric, [Fraction(1, tscale)], ()).table
        units = _kept(("units", tscale, rscale, tuple(table)), (),
                      lambda: Units(tscale, rscale, table))
    object.__setattr__(y, "_integer_view", (units, span))
    return y


@dataclass(frozen=True)
class WindowStats:
    """Window-length statistics over the positive-reward vertices.

    Zero-length windows are excluded from l_min/l_max/l_ratio (they are
    solved by the fixed-time DP instead) but still count toward d_max.
    Fields are None when the relevant vertex set is empty.
    """

    l_min: Optional[Fraction]
    l_max: Optional[Fraction]
    l_ratio: Optional[Fraction]
    d_max: Optional[Fraction]


class _WeaklyReferable:
    """A base that gives slotted dataclasses a weak-reference slot (Python
    3.10's dataclass has no weakref_slot)."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class WalkSolution(_WeaklyReferable):
    """A scored walk: schedule of (vertex, time, collected) triples.

    Infeasible evaluations come back as a WalkSolution with feasible=False
    and the reason filled in, rather than as an exception.  A walk can be
    weakly referenced, so that equal live walks can share one object.
    """

    schedule: tuple
    reward: Fraction
    feasible: bool = True
    reason: Optional[str] = None

    @property
    def order(self) -> tuple:
        return tuple(v for (v, _t, _c) in self.schedule)

    @property
    def collected(self) -> frozenset:
        """The vertices the walk is credited for."""
        return frozenset(v for (v, _t, c) in self.schedule if c)


@lru_cache(maxsize=4096)
def _fraction(numerator: int, denominator: int) -> Fraction:
    """Fraction(numerator, denominator), built once per pair: walks repeat
    their times and rewards, so the table keeps the last 4096 of them rather
    than building a Fraction per schedule time."""
    return Fraction(numerator, denominator)


def _infeasible(reason: str) -> WalkSolution:
    return WalkSolution((), ZERO, feasible=False, reason=reason)


def window_stats(x: TwInstance) -> WindowStats:
    """Computed on x's view (_view), with each Fraction built once."""
    units, span = _view(x)
    positive = [(r, d) for (r, d, g) in span if g]
    d_max = Fraction(max(d for (_r, d) in positive), units.tscale) if positive else None
    lengths = [d - r for (r, d) in positive if r < d]
    if not lengths:
        return WindowStats(None, None, None, d_max)
    l_min, l_max = min(lengths), max(lengths)
    return WindowStats(Fraction(l_min, units.tscale), Fraction(l_max, units.tscale),
                       Fraction(l_max, l_min), d_max)


def scale_times(x: TwInstance, c: Fraction) -> TwInstance:
    """Multiply all windows, the budget, and the metric by c > 0."""
    c = as_fraction(c)
    if c <= 0:
        raise PreconditionError("scale factor must be positive, got %s" % c)
    units, span = _view(x)
    # in units tscale * c's denominator a time t * c is its int times c's numerator
    return _derived(x, units.tscale * c.denominator,
                    [(r * c.numerator, d * c.numerator, g) for (r, d, g) in span],
                    metric=x.metric.scaled(c), budget=x.budget * c)


def restrict(x: TwInstance, new_windows: Mapping[int, Optional[TimeWindow]]) -> TwInstance:
    """Restricted version of x: each mapped vertex gets a sub-window of its
    original window, or is dropped (None: reward zeroed, window kept).

    Checks the mapped ids in increasing order and raises at the first that
    fails: PreconditionError for an id outside 0..n-1, ContainmentError
    for a window that escapes its vertex's.  Containment is checked on x's
    view (_view), cross-multiplied as in
    modular.verify_modular: x's window [r, d] in units of tscale contains
    [p/q, p'/q'] when r * q <= p * tscale and p' * tscale <= d * q'.  The
    windows enter _restricted in that tscale widened to their denominators.
    """
    units, span = _view(x)
    tscale = wide = units.tscale
    for v in sorted(new_windows):
        if not 0 <= v < x.n:
            raise PreconditionError("vertex %r outside 0..%d" % (v, x.n - 1))
        w = new_windows[v]
        if w is None:
            continue
        r, d = w.release, w.deadline
        if (span[v][0] * r.denominator > r.numerator * tscale
                or d.numerator * tscale > span[v][1] * d.denominator):
            raise ContainmentError(
                "vertex %d: window [%s, %s] escapes [%s, %s]"
                % (v, r, d, _fraction(span[v][0], tscale), _fraction(span[v][1], tscale)))
        wide = math.lcm(wide, r.denominator, d.denominator)
    return _restricted(x, wide, {v: None if w is None else (
        w.release.numerator * (wide // w.release.denominator),
        w.deadline.numerator * (wide // w.deadline.denominator))
        for v, w in new_windows.items()})


def _restricted(x: TwInstance, tscale: int, pieces: Mapping[int, Optional[tuple]]) -> TwInstance:
    """x with each vertex of pieces given the window (lo, hi) in units of
    tscale, a multiple of x's view's, or dropped (None: reward zeroed,
    window kept).  Nothing is checked: each window lies inside the
    vertex's own, as restrict checks and a cut rule (decompose) builds."""
    rewards = tuple(ZERO if v in pieces and pieces[v] is None else r
                    for v, r in enumerate(x.rewards))

    units, span = _view(x)
    k = tscale // units.tscale
    span = [(r * k, d * k, g) for (r, d, g) in span]
    for v, piece in pieces.items():
        r, d, g = span[v]
        span[v] = (r, d, 0) if piece is None else piece + (g,)
    return _derived(x, tscale, span, rewards=rewards)


def drop_vertices(x: TwInstance, keep) -> TwInstance:
    """Zero out rewards outside `keep` (restrict); windows are left untouched."""
    keep = set(keep)
    return restrict(x, {v: None for v in range(x.n) if v not in keep})


def time_reversed(x: TwInstance) -> TwInstance:
    """Run time backwards around the budget.

    Windows [r, d] become [budget - d, budget - r], the metric is
    transposed, and the anchors swap roles.  Under the waiting-allowed
    policy this is reward-preserving for anchored instances.
    """
    units, span = _view(x)
    budget = units.time(x.budget)
    return _derived(x, units.tscale, [(budget - d, budget - r, g) for (r, d, g) in span],
                    metric=x.metric.transposed(), s=x.t, t=x.s)


# ----- walk evaluation -------------------------------------------------------

def _scoring(x: TwInstance, times: list):
    """Units over x's budget, the times and every window and reward, and
    each vertex's (release, deadline, reward) in them."""
    windows, rewards = x.windows, x.rewards
    bounds = [x.budget] + times
    for w in windows:
        bounds += (w.release, w.deadline)
    units = units_for(x.metric, bounds, rewards)
    time, reward = units.time, units.reward
    return units, [(time(w.release), time(w.deadline), reward(r))
                   for w, r in zip(windows, rewards)]


def _view(x: TwInstance):
    """x's integer view: equal by value to _scoring(x, []), which builds it
    on first read unless _derived derived it from x's parent."""
    view = x._integer_view
    if view is None:
        view = _scoring(x, [])
        object.__setattr__(x, "_integer_view", view)
    return view


def evaluate_walk(x: TwInstance, order: Sequence, times: Optional[Sequence] = None) -> WalkSolution:
    """Score a walk given as (vertex, collect_flag) pairs.

    Without explicit times the schedule is the earliest-feasible one: under
    the waiting policy, time(next) = max(time(prev) + d(prev, next), release)
    when next is flagged, else time(prev) + d(prev, next).  A flagged visit
    that still misses its window makes the walk infeasible under waiting
    (the caller should not have flagged it); under no-wait it is simply not
    credited.  With explicit times the gaps must cover the travel distances
    (exactly equal them under no-wait).

    One pass in integer units (_scoring: the budget, every window and
    reward, and any explicit times), with distances read off metric.ints.
    An untimed walk reads x's view (_view).
    Fractions are built only for the schedule's times, the reward and a
    reason's numbers.
    """
    order = [(v, bool(flag)) for (v, flag) in order]
    if not order:
        if x.mode != FREE:
            return _infeasible("an anchored walk cannot be empty")
        return WalkSolution((), ZERO)
    n = x.n
    for (v, _flag) in order:
        if not 0 <= v < n:
            return _infeasible("unknown vertex %r" % (v,))
    if x.s is not None and order[0][0] != x.s:
        return _infeasible("walk must start at vertex %d" % x.s)
    if x.t is not None and order[-1][0] != x.t:
        return _infeasible("walk must end at vertex %d" % x.t)
    if times is not None:
        if len(times) != len(order):
            return _infeasible("times must match the walk length")
        times = [as_fraction(t) for t in times]

    if times is None:
        units, span = _view(x)
    else:
        units, span = _scoring(x, times)
    time, table, tscale = units.time, units.table, units.tscale
    waiting = x.wait_policy == WAIT

    if times is None:
        # a free walk starts at its first vertex's release when it collects
        # it (releases are nonnegative); an anchored one at 0
        u, flag = order[0]
        now = span[u][0] if flag and x.s is None else 0
        ticks = [now]
        for (v, flag) in order[1:]:
            step = table[u][v]
            if step is None:
                return _infeasible("no path from %d to %d" % (u, v))
            now += step
            if waiting and flag and span[v][0] > now:
                now = span[v][0]
            ticks.append(now)
            u = v
    else:
        ticks = [time(t) for t in times]
        if x.s is None:
            if ticks[0] < 0:
                return _infeasible("walk cannot start before time 0")
        elif ticks[0] != 0:
            return _infeasible("anchored walks start at time 0")
        for i in range(1, len(order)):
            u, v = order[i - 1][0], order[i][0]
            step = table[u][v]
            if step is None:
                return _infeasible("no path from %d to %d" % (u, v))
            gap = ticks[i] - ticks[i - 1]
            if waiting:
                if gap < step:
                    return _infeasible("gap %s shorter than travel %s at step %d"
                                       % (Fraction(gap, tscale), _fraction(step, tscale), i))
            elif gap != step:
                return _infeasible("no-wait gaps must equal travel exactly (step %d)" % i)

    schedule, collected = [], set()
    for (v, flag), now in zip(order, ticks):
        if flag:
            if span[v][0] <= now <= span[v][1]:
                collected.add(v)
            elif waiting:
                return _infeasible(
                    "vertex %d flagged at time %s outside its window [%s, %s]"
                    % (v, Fraction(now, tscale), _fraction(span[v][0], tscale),
                       _fraction(span[v][1], tscale)))
            else:
                flag = False
        schedule.append((v, _fraction(now, tscale), flag))

    if x.s is not None and ticks[-1] > time(x.budget):
        return _infeasible("walk ends at %s, after the budget %s"
                           % (Fraction(ticks[-1], tscale), x.budget))
    total = sum(span[v][2] for v in collected)
    return WalkSolution(tuple(schedule), _fraction(total, units.rscale))


# ----- repair by insertion ---------------------------------------------------

def _insertions(x: TwInstance, order: list):
    """Yield (vertex, position) for every insertion, collected, of an
    uncovered positive-reward vertex before order[position] (at the end when
    position is len(order)) that keeps the feasible walk order of x
    ((vertex, collect_flag) pairs, waiting allowed) feasible: the highest
    reward first, then the smallest id, then the earliest position.

    Each try takes O(1) on x's view (_view).  Per position the walk keeps
    its visit time, as evaluate_walk schedules it, and its latest visit
    time that still keeps every later visit in its window and the end by
    the budget: the forward time slack of Savelsbergh (ORSA J. Comput.
    1992), which Vansteenwegen et al. call MaxShift.  A vertex fits when it
    is visited in its window after the visit before it, and the visit after
    it, pushed back, stays by its latest time.
    """
    units, span = _view(x)
    table = units.table
    times, now = [], 0
    for i, (v, flag) in enumerate(order):
        if i:
            now += table[order[i - 1][0]][v]
            if flag and span[v][0] > now:
                now = span[v][0]
        elif flag and x.s is None:
            now = span[v][0]  # a free walk starts at its first collected vertex's release
        times.append(now)
    latest = [0] * len(order)
    # a free walk may end at any time
    limit = math.inf if x.s is None else units.time(x.budget)
    for i in reversed(range(len(order))):
        v, flag = order[i]
        if i + 1 < len(order):
            limit -= table[v][order[i + 1][0]]
        if flag and span[v][1] < limit:
            limit = span[v][1]
        latest[i] = limit
    # nothing goes before the start anchor, nor after the end anchor
    first, stop = x.s is not None, len(order) + (x.t is None)
    collected = {v for (v, flag) in order if flag}
    for (_gain, u) in sorted((-g, u) for u, (_r, _d, g) in enumerate(span)
                             if g and u not in collected):
        release, deadline = span[u][0], span[u][1]
        for i in range(first, stop):
            if i:
                leg = table[order[i - 1][0]][u]
                if leg is None:
                    continue
                at = max(times[i - 1] + leg, release)
            else:
                at = release
            if at > deadline:
                continue
            if i < len(order):
                leg = table[u][order[i][0]]
                if leg is None or at + leg > latest[i]:
                    continue
            yield u, i


def repair_by_insertion(x: TwInstance, order) -> WalkSolution:
    """The feasible walk order of x ((vertex, collect_flag) pairs, waiting
    allowed), with uncovered positive-reward vertices inserted, collected,
    while one fits, and scored once (evaluate_walk).  Each round makes the
    first insertion of _insertions: the highest reward, then the smallest
    id, at its earliest position.  This is the insertion step of
    Vansteenwegen, Souffriau, Vanden Berghe and Van Oudheusden ("Iterated
    local search for the team orienteering problem with time windows",
    C&OR 2009).  The reward only grows."""
    order = list(order)
    step = next(_insertions(x, order), None)
    while step is not None:
        order.insert(step[1], (step[0], True))
        step = next(_insertions(x, order), None)
    return evaluate_walk(x, order)


# ----- the layered subset DP --------------------------------------------------

def _subset_dp(table, candidates, start: tuple):
    """The package's one exhaustive search, run by the exact oracles
    (oracles.exact_staircases) and the exact optimum (brute_force_opt) in
    integer units: yield each kept state, layer by layer from start, before
    extending it.

    A state (arrival, visits, reward, set, last) is a walk that made its
    visits in order, last among them, and arrives there at arrival; set
    holds the visits' bits.  candidates lists each vertex a walk may visit
    as (x, bit, reward, release, cap): a visit to x arrives at at + leg, or
    at release when that is later, and counts by cap.  start leaves its last
    vertex, or nowhere with every leg 0 when that is None.  Layer k keeps
    one state per (set, last) of k visits: the earliest arrival, then the
    smallest visits tuple.  A later arrival never lets a later visit arrive sooner,
    and a smaller tuple stays smaller after any extension, so every walk
    that ends soonest and, on a tie, has the smallest order is built from
    kept states only.
    """
    # per source, the visits open from it as (latest departure, x, bit,
    # leg, reward, release), latest first, so a scan stops at the first one
    # missed; a hop is listed when leaving at start's arrival makes cap
    t0, source, hops = start[0], start[4], {}
    for v in [source] + [x for (x, _b, _g, _r, _cap) in candidates]:
        legs = [0] * len(table) if v is None else table[v]
        hops[v] = sorted(((cap - legs[x], x, b, legs[x], gain, release)
                          for (x, b, gain, release, cap) in candidates
                          if legs[x] is not None and t0 + legs[x] <= cap), reverse=True)
    shift = len(table).bit_length()
    layer = [start]
    while layer:
        kept = {}
        for state in layer:
            yield state
            at, visits, got, mask, v = state
            for (late, x, b, leg, gain, release) in hops[v]:
                if at > late:
                    break
                if mask & b:
                    continue
                arrival = at + leg
                if arrival < release:
                    arrival = release
                key = (mask | b) << shift | x
                old = kept.get(key)
                if old is None or arrival < old[0] or (arrival == old[0]
                                                       and visits < old[1][:-1]):
                    kept[key] = (arrival, visits + (x,), got + gain, mask | b, x)
        layer = list(kept.values())


def brute_force_opt(x: TwInstance) -> WalkSolution:
    """Exact optimum by the layered subset DP on x's view (_view), under the
    earliest-feasible schedule rule; only the waiting-allowed policy is
    supported.

    A visit is a claim: it pays by its deadline and, when anchored, still
    reaches t by the budget; the walk starts at s, or, when free, nowhere.
    The highest reward wins, then the smallest claim tuple among the kept
    states, which need not be the smallest optimal order.  Raises
    InfeasibleInstanceError for an anchored instance where t cannot be
    reached from s within the budget at all (ensure_reachable_anchors).
    """
    if x.wait_policy != WAIT:
        raise PreconditionError("brute_force_opt handles the waiting-allowed policy only")
    ensure_reachable_anchors(x)
    units, span = _view(x)
    s, t, table, budget = x.s, x.t, units.table, units.time(x.budget)
    claimable = []
    for i, w in enumerate(x.positive_vertices()):
        release, cap, gain = span[w]
        if t is not None:
            cap = -1 if table[w][t] is None else min(cap, budget - table[w][t])
        if release <= cap:
            claimable.append((w, 1 << i, gain, release, cap))
    best = min((-got, claims) for (_at, claims, got, _set, _last)
               in _subset_dp(table, claimable, (0, (), 0, 0, s)))
    return walk_from_claims(x, best[1])


def walk_from_claims(x: TwInstance, claims: Iterable) -> WalkSolution:
    """Assemble and score the canonical walk that collects `claims` in order."""
    order = [(v, True) for v in claims]
    if x.s is not None:
        order.insert(0, (x.s, False))
    if x.t is not None:
        order.append((x.t, False))
    ws = evaluate_walk(x, order)
    return ws
