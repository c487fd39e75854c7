"""Composed approximation algorithms.

Every solver follows one recipe, written once in _compose.  Fixed-instant
vertices form an exact "Z" version.  The positive-length windows are split
into restricted versions whose optima together cover the original optimum,
and each version is solved by a block DP from modular (over identical
windows or release groups) or by another composed solver.  Each version's
claims are evaluated back on the original instance and the best walk wins;
a version whose reachable reward cannot beat the best walk so far is not
solved, and counts at ratio 1.  The reported bound is the sum of the versions' ratios, which by the
pigeonhole argument is a proven divisor: reward >= optimum / bound.  A
solver only adds its precondition, its split and how it solves a version.
solve_auto finishes every solver's walk with one step, an insertion repair
on the caller's instance (_keep_best), which only adds reward and so keeps
every bound; a start-only instance is solved anchored at a zero-cost sink.

All solvers need waiting allowed; the no-wait policy only changes walk
evaluation, not the solvers.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import List, Optional, Tuple

from .decompose import (band_family, dyadic_family, shifted_five_split, three_split_ceil,
                        three_split_floor)
from .errors import PreconditionError
from .instance import (ANCHORED, FREE, START_ONLY, WAIT, TimeWindow, TwInstance,
                       WalkSolution, _derived, _fraction, _view,
                       ensure_reachable_anchors, repair_by_insertion, restrict, time_reversed,
                       window_stats)
from .memo import _one_solve
from .metric import Metric, _from_ints
from .modular import (ModularBlock, ModularPartition, _release_group_solve, assemble_walk,
                      blocks_from_identical_windows, solve_reward_indexed, verify_modular)
from .oracles import EXACT_DEADLINE, EXACT_ORACLE, DeadlineOracle, OrienteeringOracle
from .rational import ONE, ZERO, is_finite


# every live report's walk, mapped to (a weak reference to itself, the
# version rewards and bound of the first report that held it): a new report
# finds the equal walk by value, and an entry leaves with its walk
_LIVE_WALKS = weakref.WeakKeyDictionary()


@dataclass(slots=True)
class SolveReport:
    """What a solver hands back.

    walk is re-evaluated on the instance the caller passed in, so its reward
    is certified independently of any internal bookkeeping.  bound is the
    proven worst-case divisor for this run: walk.reward >= optimum / bound
    whenever the supplied oracles honor their declared ratios.
    version_rewards are the proof's own accounting: each version's walk
    evaluated on the original instance, or None for a version that was not
    solved because it could not beat the best walk before it (_compose).
    bound_from names the solver whose bound is cited; it defaults to
    algorithm.

    From solve_auto, walk is the kept solver's walk repaired by insertion,
    so its reward may exceed every version's; bound is the least of the
    solvers run, so bound_from may name another solver than the one named
    in algorithm and version_rewards; and optimal is True when the reward
    meets the reachability bound of the caller's instance, which certifies
    it as the optimum; repair_gain is what the repair added to the kept
    solver's own walk.  Only solve_auto sets optimal and repair_gain.
    """

    algorithm: str
    walk: WalkSolution
    version_rewards: tuple  # ((label, reward on the original instance or None), ...)
    bound: Fraction
    optimal: bool = False
    bound_from: Optional[str] = None
    repair_gain: Fraction = ZERO

    def __post_init__(self):
        if self.bound_from is None:
            self.bound_from = self.algorithm
        # callers keep reports by the thousand: a report holds the live walk
        # equal to its own when there is one, and that walk's entry's version
        # rewards and bound when they equal its own
        entry = _LIVE_WALKS.get(self.walk)
        live = None if entry is None else entry[0]()
        if live is None:
            _LIVE_WALKS[self.walk] = (weakref.ref(self.walk), self.version_rewards, self.bound)
            return
        _ref, versions, bound = entry
        self.walk = live
        if versions == self.version_rewards:
            self.version_rewards = versions
        if bound == self.bound:
            self.bound = bound

    @property
    def beta(self) -> int:
        """Number of restricted versions actually present (1 when none is)."""
        return max(len(self.version_rewards), 1)


def _require_wait(x: TwInstance):
    if x.wait_policy != WAIT:
        raise PreconditionError("solvers require the wait policy; "
                                "no-wait only changes walk evaluation")


def _claims_of(walk: WalkSolution) -> tuple:
    return tuple(v for (v, _t, c) in walk.schedule if c)


def _length_split(x: TwInstance) -> Tuple[List[int], List[int]]:
    """Positive-reward vertices split by window length: fixed-instant ones
    go to the exact "Z" version, the rest to the window decompositions.
    Split on x's view (instance._view)."""
    zero: List[int] = []
    pos: List[int] = []
    for v, (r, d, g) in enumerate(_view(x)[1]):
        if g:
            (zero if r == d else pos).append(v)
    return zero, pos


@_one_solve()
def _compose(name: str, x: TwInstance, split, solve_version) -> SolveReport:
    """The recipe of every composed solver, run after its precondition.

    The fixed instants form the exact "Z" version at ratio 1.  When some
    window has positive length, split takes the instance that keeps only
    those windows (x itself when it has no fixed instant) and yields
    (label, version) pairs, and
    solve_version(label, version) returns the version's claims and ratio.
    Every version's claims are evaluated on x: the first best walk wins and
    the bound sums the ratios.  A split version whose cap (_cap) is at most
    the best reward so far is not solved: no walk of it could win, its
    optimum is at most that best, so it counts at ratio 1, and its reward
    in version_rewards is None.  With no version at all the report is the
    bare anchor walk at bound 1.  The split is built before the anchors
    are checked, so a split's refusal (a window ratio over 2, say) comes
    before an unreachable end anchor.  The whole recipe runs inside one
    memo (memo._one_solve): this call's when the solver is called directly,
    else the enclosing solve's.
    """
    zero, pos = _length_split(x)
    z = restrict(x, {v: None for v in pos}) if zero else None
    xp = restrict(x, {v: None for v in zero}) if zero and pos else x
    split_versions = tuple(split(xp)) if pos else ()
    ensure_reachable_anchors(x)

    def versions():
        if z is not None:
            yield "Z", z, lambda: (_claims_of(zero_window_dp(z).walk), ONE)
        for (label, ver) in split_versions:
            yield label, ver, partial(solve_version, label, ver)

    best: Optional[WalkSolution] = None
    rewards = []
    bound = ZERO
    for (label, ver, solve) in versions():
        if best is not None and _cap(x, ver) <= best.reward:
            # OPT(ver) <= _cap <= best: the version counts at ratio 1, and
            # its walk, no better than the best, could never be kept
            rewards.append((label, None))
            bound += ONE
            continue
        claims, ratio = solve()
        sol = assemble_walk(x, [(0, claims)] if claims else [], [claims])
        rewards.append((label, sol.reward))
        bound += ratio
        if best is None or sol.reward > best.reward:
            best = sol
    if best is None:
        best = assemble_walk(x, [], [])
        bound = ONE
    return SolveReport(name, best, tuple(rewards), bound)


def _modular_version(ver: TwInstance, oracle: OrienteeringOracle) -> tuple:
    """A version whose blocks are its identical windows: the claims of the
    reward-indexed DP over them, at the oracle's ratio."""
    res = solve_reward_indexed(ver, blocks_from_identical_windows(ver), oracle)
    return _claims_of(res.walk), oracle.spec.ratio


def _sub_version(sub: SolveReport) -> tuple:
    """A version solved by another composed solver, at that solver's bound."""
    return _claims_of(sub.walk), sub.bound


# ----- fixed-instant vertices ------------------------------------------------

@_one_solve()
def zero_window_dp(x: TwInstance, oracle: OrienteeringOracle = EXACT_ORACLE,
                   deadline_oracle: DeadlineOracle = EXACT_DEADLINE) -> SolveReport:
    """Exact solver for instances whose positive-reward vertices all have
    zero-length windows: each must be hit at one fixed instant, so feasible
    claim sets are chains in a DAG ordered by time.  Every vertex is a
    one-member block at its instant, in (instant, id) order, and the
    reward-indexed DP on the exact oracle solves those blocks exactly: a
    block's only walk stays at its member, the one walk its staircase
    search starts from."""
    _require_wait(x)
    zero, pos = _length_split(x)
    if pos:
        raise PreconditionError(
            "vertex %d has a positive-length window; this solver needs "
            "fixed visit instants" % pos[0])
    units, span = _view(x)
    instants = sorted((span[v][0], v) for v in zero)
    part = ModularPartition(tuple(ModularBlock(frozenset((v,)), at, at) for (at, v) in (
        (_fraction(r, units.tscale), v) for (r, v) in instants)))
    walk = solve_reward_indexed(x, part, EXACT_ORACLE).walk
    return SolveReport("zero-window", walk, (("Z", walk.reward),), ONE)


# ----- integral window endpoints ---------------------------------------------

def solve_integer_endpoints(x: TwInstance, oracle: OrienteeringOracle = EXACT_ORACLE,
                            deadline_oracle: DeadlineOracle = EXACT_DEADLINE) -> SolveReport:
    """Anchored solver for integral endpoints on every positive-length
    window; fixed instants go to the exact "Z" version and may be
    fractional.

    When the windows of the positive-reward vertices already form a valid
    modular partition (identical windows per block, e.g. all lengths <= 1)
    the instance is solved directly.  Otherwise every window is cut into
    aligned power-of-two pieces, pieces of equal size and alignment class
    form one restricted version each, and every version is modular.
    """
    _require_wait(x)
    if x.mode != ANCHORED:
        raise PreconditionError("integer-endpoints solver needs both anchors")
    units, span = _view(x)
    tscale = units.tscale
    for v, (r, d, g) in enumerate(span):
        if g and r < d and (r % tscale or d % tscale):
            raise PreconditionError("vertex %d window [%s, %s] has fractional endpoints"
                                    % (v, _fraction(r, tscale), _fraction(d, tscale)))

    def split(xp):
        if not verify_modular(xp, blocks_from_identical_windows(xp)):
            return [("direct", xp)]
        return dyadic_family(xp).versions

    return _compose("integer-endpoints", x, split,
                    lambda _label, ver: _modular_version(ver, oracle))


# ----- window lengths within a factor two ------------------------------------

def solve_l_le_2(x: TwInstance, oracle: OrienteeringOracle = EXACT_ORACLE,
                 deadline_oracle: DeadlineOracle = EXACT_DEADLINE) -> SolveReport:
    """Anchored solver when positive window lengths agree within a factor 2.

    After scaling the shortest window to length 1, each window is cut at the
    first and last interior integers.  The middle version is modular (unit
    integer cells); the tail version groups by a shared release and the head
    version, run backwards in time, does too.
    """
    _require_wait(x)
    if x.mode != ANCHORED:
        raise PreconditionError("this solver needs both anchors")

    def solve_version(label, ver):
        if label == "B2":
            return _modular_version(ver, oracle)
        if label == "B3":
            claims = _claims_of(_release_group_solve(ver, deadline_oracle).walk)
        else:
            # B1 windows share deadlines per group; reversed in time they
            # share releases, which the same DP handles starting at the end anchor
            rev = _release_group_solve(time_reversed(ver), deadline_oracle)
            claims = tuple(reversed(_claims_of(rev.walk)))
        return claims, deadline_oracle.spec.ratio

    return _compose("l2", x, lambda xp: three_split_floor(xp).versions, solve_version)


# ----- general window lengths -------------------------------------------------

def solve_general(x: TwInstance, oracle: OrienteeringOracle = EXACT_ORACLE,
                  deadline_oracle: DeadlineOracle = EXACT_DEADLINE) -> SolveReport:
    """Anchored solver without any length restriction: cut each window at
    the outermost interior integers (after scaling), hand the head and tail
    versions to the factor-2 solver and the integral middle to the
    integer-endpoints solver."""
    _require_wait(x)
    if x.mode != ANCHORED:
        raise PreconditionError("this solver needs both anchors")

    def solve_version(label, ver):
        if label == "B2":
            return _sub_version(solve_integer_endpoints(ver, oracle))
        return _sub_version(solve_l_le_2(ver, oracle, deadline_oracle))

    return _compose("general", x, lambda xp: three_split_ceil(xp).versions, solve_version)


# ----- free endpoints ----------------------------------------------------------

def solve_free_l_le_2(x: TwInstance, oracle: OrienteeringOracle = EXACT_ORACLE,
                      deadline_oracle: DeadlineOracle = EXACT_DEADLINE) -> SolveReport:
    """Free-endpoint solver when positive window lengths agree within a
    factor 2: cut at the interior half-grid, keep the middle versions as-is
    (half-unit cells are modular), and shift the head and tail versions onto
    adjacent half-cells, which a free walk reaches by sliding half a unit.
    Free walks need no deadline oracle."""
    _require_wait(x)
    if x.mode != FREE:
        raise PreconditionError("free-endpoint solver needs unanchored ends")

    return _compose("free-l2", x, lambda xp: shifted_five_split(xp).versions,
                    lambda _label, ver: _modular_version(ver, oracle))


def solve_free_general(x: TwInstance, oracle: OrienteeringOracle = EXACT_ORACLE,
                       deadline_oracle: DeadlineOracle = EXACT_DEADLINE) -> SolveReport:
    """Free-endpoint solver without length restrictions: band the vertices
    by the power of two their window length falls in, relative to the
    shortest (decompose.band_family), then run the factor-2 free solver per
    band."""
    _require_wait(x)
    if x.mode != FREE:
        raise PreconditionError("free-endpoint solver needs unanchored ends")

    return _compose("free-general", x, lambda xp: band_family(xp).versions,
                    lambda _label, ver: _sub_version(solve_free_l_le_2(ver, oracle)))


# ----- deadline-only reduction -------------------------------------------------

def reduce_deadline_to_tw(x: TwInstance) -> TwInstance:
    """Rewrite a deadline-only instance (all positive-reward releases zero)
    as a time-window instance whose window lengths agree within a factor 2.

    A new start vertex sits a runway of length d_max before the old one, so
    every visit lands after time d_max; with all deadlines shifted by d_max
    the window lengths fall in [d_max, 2 d_max].  Optimal rewards coincide:
    walks map both ways by shifting time by d_max.
    """
    if x.s is None:
        raise PreconditionError("deadline reduction needs a start anchor")
    for v in range(x.n):
        if x.rewards[v] > 0 and x.windows[v].release != 0:
            raise PreconditionError(
                "vertex %d has a nonzero release; not a deadline-only instance" % v)
    dmax = window_stats(x).d_max or ZERO
    n2 = x.n + 1
    rows = []
    for i in range(x.n):
        out = x.metric.d[i][x.s]
        rows.append(tuple(x.metric.d[i]) + ((out + dmax) if is_finite(out) else out,))
    runway = []
    for j in range(x.n):
        leg = x.metric.d[x.s][j]
        runway.append((dmax + leg) if is_finite(leg) else leg)
    rows.append(tuple(runway) + (ZERO,))
    metric = Metric(x.metric.directed, n2, tuple(rows))
    windows = [TimeWindow(w.release, w.deadline + dmax) for w in x.windows]
    windows.append(TimeWindow(ZERO, x.budget + dmax))
    rewards = tuple(x.rewards) + (ZERO,)
    return TwInstance(metric, tuple(windows), rewards, x.n, x.t, x.budget + dmax,
                      x.wait_policy)


# ----- dispatch -----------------------------------------------------------------

def _reach(x: TwInstance) -> Fraction:
    """The reachability bound: the sum of the positive rewards of the
    vertices that a walk could collect on its own, so OPT(x) <= _reach(x).

    With a start anchor, v counts when d[s][v] <= D(v) and, anchored, when
    max(d[s][v], R(v)) + d[v][t] <= budget; a start-only walk then always
    ends in time, because R(v) <= D(v) <= budget.  On a free instance every
    positive reward counts.  Summed on x's view (instance._view)."""
    return Fraction(sum(g for (_v, g) in _reachable(x)), _view(x)[0].rscale)


def _reachable(x: TwInstance):
    """Yield (v, reward in x's view's rscale) for every vertex that _reach
    counts."""
    units, span = _view(x)
    if x.s is None:
        yield from ((v, g) for v, (_r, _d, g) in enumerate(span) if g)
        return
    table, budget = units.table, units.time(x.budget)
    for v, (r, d, g) in enumerate(span):
        leg = table[x.s][v]
        if not g or leg is None or leg > d:
            continue
        if x.t is not None:
            back = table[v][x.t]
            if back is None or max(leg, r) + back > budget:
                continue
        yield v, g


def _cap(x: TwInstance, ver: TwInstance) -> Fraction:
    """A bound on the reward, on x, of any walk _compose assembles from a
    version ver of x: the reward of ver's vertices that _reach(ver) counts,
    x's anchors aside, plus x's anchor rewards.  Every claim of a version
    walk is such a vertex, with x's reward, and an anchor is the only other
    vertex assemble_walk can collect.  So OPT(ver) <= _reach(ver) <= _cap."""
    anchors = {x.s, x.t} - {None}
    claims = sum(g for (v, g) in _reachable(ver) if v not in anchors)
    return Fraction(claims, _view(ver)[0].rscale) + sum(x.rewards[a] for a in anchors)


def _keep_best(x: TwInstance, tries) -> SolveReport:
    """Run each (name, attempt) of tries, repair each report's walk on x by
    insertion (instance.repair_by_insertion), and keep the first report with
    the highest repaired reward.  An attempt solves x, or, when x is
    start-only, its sink instance (_with_sink), whose walk is mapped onto x
    by dropping the sink.  An attempt that raises PreconditionError is noted
    as "name: text"; when every attempt raises, raise
    PreconditionError("every solver refused (notes)").

    The repair only adds reward, so the kept walk earns at least each run
    report's walk, and every run report's bound holds for it: the kept
    report cites the least, the first run's on a tie, and names its solver
    in bound_from.  _reach(x) bounds every reward: once the best meets it
    no later attempt can beat it, so none is run, and the kept report is
    marked optimal exactly when its reward meets it.  Its repair_gain is
    its repaired reward less its solver's own walk's."""
    ceiling = _reach(x)
    end = -1 if x.mode == START_ONLY else None
    best: Optional[Tuple[SolveReport, WalkSolution]] = None
    bound = cited = None
    refusals = []
    for (name, attempt) in tries:
        try:
            rep = attempt()
        except PreconditionError as exc:
            refusals.append("%s: %s" % (name, exc))
            continue
        if bound is None or rep.bound < bound:
            bound, cited = rep.bound, name
        walk = repair_by_insertion(x, [(v, c) for (v, _t, c) in rep.walk.schedule[:end]])
        if best is None or walk.reward > best[1].reward:
            best = (rep, walk)
            if walk.reward == ceiling:
                break
    if best is None:
        raise PreconditionError("every solver refused (%s)" % "; ".join(refusals))
    rep, walk = best
    # one Fraction per distinct gain, as for the walk's own numbers
    gain = walk.reward - rep.walk.reward
    return SolveReport(rep.algorithm, walk, rep.version_rewards, bound, walk.reward == ceiling,
                       cited, _fraction(gain.numerator, gain.denominator))


@_one_solve()
def solve_auto(x: TwInstance, oracle: OrienteeringOracle = EXACT_ORACLE,
               deadline_oracle: DeadlineOracle = EXACT_DEADLINE) -> SolveReport:
    """Try every solver of the instance's anchor mode, repair each walk by
    insertion and keep the first report with the highest repaired reward,
    at the least bound of the solvers run (_keep_best); raise only when
    every solver refuses.  Once a reward meets the reachability bound
    (_reach) it is optimal: no later solver runs and the report says so.  A
    start-only instance is solved anchored at a zero-cost sink (_with_sink).
    A free instance whose window lengths agree within less than a factor 2
    skips free-general, which could only solve free-l2's versions again.
    Every solver tried shares the call's one memo (memo._one_solve): each
    distinct block or release-group entry is searched once per call."""
    _require_wait(x)
    y = _with_sink(x) if x.mode == START_ONLY else x
    _zero, pos = _length_split(y)
    # built per call from the module globals, so a patched global sees its calls
    if not pos:
        candidates = (("zero-window", zero_window_dp),)
    elif y.mode == ANCHORED:
        candidates = (("integer-endpoints", solve_integer_endpoints),
                      ("l2", solve_l_le_2), ("general", solve_general))
    elif window_stats(y).l_ratio < 2:
        # every window falls in free-general's band 0, whose one version
        # has the windows and rewards free-l2 splits: its walk is one that
        # free-l2 already assembled on x, so it solves nothing new
        candidates = (("free-l2", solve_free_l_le_2),)
    else:
        candidates = (("free-l2", solve_free_l_le_2), ("free-general", solve_free_general))
    return _keep_best(x, ((name, partial(solver, y, oracle, deadline_oracle))
                          for (name, solver) in candidates))


def _with_sink(x: TwInstance) -> TwInstance:
    """The start-only x anchored at a new end vertex n, a zero-cost sink:
    every vertex reaches n at cost 0, n reaches no other vertex, and n has
    reward 0 and window [0, budget].  A walk of x done by the budget
    reaches n by then, so both instances have the same optimum and the same
    reachability bound (_reach).  The metric extends x's ints by one row
    and column, and the view extends x's by the sink's (0, budget, 0)."""
    n, m = x.n, x.metric
    ints = tuple(tuple(row) + (0,) for row in m.ints) + ((None,) * n + (0,),)
    return _derived(x, lambda units, span: (units.tscale, span + [(0, units.time(x.budget), 0)]),
                    metric=_from_ints(True, n + 1, m.scale, ints), t=n,
                    rewards=x.rewards + (ZERO,))


def run_algorithm(name: str, x: TwInstance, oracle: OrienteeringOracle = EXACT_ORACLE,
                  deadline_oracle: DeadlineOracle = EXACT_DEADLINE) -> SolveReport:
    if name not in ALGORITHMS:
        raise PreconditionError("unknown algorithm %r" % name)
    return ALGORITHMS[name](x, oracle, deadline_oracle)


# every solver takes (x, oracle, deadline_oracle) and checks its own precondition
ALGORITHMS = {
    "integer-endpoints": solve_integer_endpoints,
    "l2": solve_l_le_2,
    "general": solve_general,
    "free-l2": solve_free_l_le_2,
    "free-general": solve_free_general,
    "zero-window": zero_window_dp,
    "auto": solve_auto,
}
