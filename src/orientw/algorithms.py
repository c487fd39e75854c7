"""Composed approximation algorithms.

Each solver follows the same recipe: split the instance into restricted
versions whose optima together cover the original optimum, solve every
version through a structure that a modular or group DP handles, evaluate
each version's claims back on the original instance, and keep the best.
The reported bound is the sum of the per-version ratios, which by the
pigeonhole argument is a proven divisor: reward >= optimum / bound.

All solvers need waiting allowed; the no-wait policy only changes walk
evaluation, not the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .decompose import (dyadic_family, five_split, require_ratio_two, three_split_ceil,
                        three_split_floor)
from .errors import PreconditionError
from .instance import (ANCHORED, FREE, START_ONLY, WAIT, TimeWindow, TwInstance,
                       WalkSolution, drop_vertices, evaluate_walk, restrict,
                       time_reversed, window_stats)
from .metric import Metric
from .modular import (assemble_walk, blocks_from_identical_windows, chain_dp, dp_units,
                      ensure_reachable_anchors, solve_reward_indexed, verify_modular)
from .oracles import (EXACT_DEADLINE, EXACT_ORACLE, DeadlineOracle, DeadlineQuery,
                      OrienteeringOracle, best_deadline_walk, earliest_limits)
from .rational import (HALF, ONE, ZERO, floor_log2, is_finite, is_integral,
                       shared_fraction)


@dataclass(slots=True)
class SolveReport:
    """What a solver hands back.

    walk is re-evaluated on the instance the caller passed in, so its reward
    is certified independently of any internal bookkeeping.  bound is the
    proven worst-case divisor for this run: walk.reward >= optimum / bound
    whenever the supplied oracles honor their declared ratios.
    """

    algorithm: str
    walk: WalkSolution
    version_rewards: tuple  # ((label, reward on the original instance), ...)
    beta: int  # number of restricted versions actually present
    bound: Fraction


def _require_wait(x: TwInstance):
    if x.wait_policy != WAIT:
        raise PreconditionError("solvers require the wait policy; "
                                "no-wait only changes walk evaluation")


def _claims_of(walk: WalkSolution) -> tuple:
    return tuple(v for (v, _t, c) in walk.schedule if c)


def _finish(x: TwInstance, claims) -> WalkSolution:
    segments = [(0, tuple(claims))] if claims else []
    return assemble_walk(x, segments)


def _length_split(x: TwInstance) -> Tuple[List[int], List[int]]:
    """Positive-reward vertices split by window length: fixed-instant ones
    go to the exact chain DP, the rest to the window decompositions."""
    zero: List[int] = []
    pos: List[int] = []
    for v in range(x.n):
        if x.rewards[v] > 0:
            (zero if x.windows[v].length == 0 else pos).append(v)
    return zero, pos


def _split_zero_windows(x: TwInstance) -> Tuple[list, Optional[TwInstance]]:
    """The exact "Z" version over the zero-length windows (an empty version
    list when there are none) and the instance that keeps only the
    positive-length windows (None when there are none)."""
    zero, pos = _length_split(x)
    versions = []
    if zero:
        rz = zero_window_dp(restrict(x, {v: None for v in pos}))
        versions.append(("Z", _claims_of(rz.walk), ONE))
    return versions, (restrict(x, {v: None for v in zero}) if pos else None)


def _report(name: str, x: TwInstance, versions) -> SolveReport:
    """Evaluate every version's claims on x; best one wins, bound sums up."""
    best: Optional[WalkSolution] = None
    rewards = []
    bound = ZERO
    for (label, claims, ratio) in versions:
        sol = _finish(x, claims)
        rewards.append((label, sol.reward))
        bound += ratio
        if best is None or sol.reward > best.reward:
            best = sol
    if best is None:
        best = _finish(x, ())
        bound = ONE
    return SolveReport(name, best, tuple(rewards), max(len(versions), 1),
                       shared_fraction(bound))


# ----- fixed-instant vertices ------------------------------------------------

def zero_window_dp(x: TwInstance, oracle: OrienteeringOracle = EXACT_ORACLE,
                   deadline_oracle: DeadlineOracle = EXACT_DEADLINE) -> SolveReport:
    """Exact solver for instances whose positive-reward vertices all have
    zero-length windows: each must be hit at one fixed instant, so feasible
    claim sets are chains in a DAG ordered by time.  Every vertex is a
    one-member block at its instant, in (instant, id) order, and the chain
    DP over those blocks is exact without any oracle."""
    _require_wait(x)
    zero, pos = _length_split(x)
    if pos:
        raise PreconditionError(
            "vertex %d has a positive-length window; this solver needs "
            "fixed visit instants" % pos[0])
    ensure_reachable_anchors(x)
    units = dp_units(x)

    def claim(u, e):
        yield u, 0, units.reward(x.rewards[u]), (u,)

    def steps():
        for v in sorted(zero, key=lambda v: (x.windows[v].release, v)):
            at = units.time(x.windows[v].release)
            yield v, at, at, (v,), claim

    walk = chain_dp(x, units, steps()).walk
    return SolveReport("zero-window", walk, (("Z", walk.reward),), 1, ONE)


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
    for v in x.positive_vertices():
        w = x.windows[v]
        if w.length > 0 and not (is_integral(w.release) and is_integral(w.deadline)):
            raise PreconditionError(
                "vertex %d window [%s, %s] has fractional endpoints" % (v, w.release, w.deadline))
    ensure_reachable_anchors(x)
    versions, xp = _split_zero_windows(x)
    if xp is not None:
        direct = blocks_from_identical_windows(xp)
        if not verify_modular(xp, direct):
            res = solve_reward_indexed(xp, direct, oracle)
            versions.append(("direct", _claims_of(res.walk), oracle.spec.ratio))
        else:
            fam = dyadic_family(xp)
            for (label, ver) in fam.versions:
                part = blocks_from_identical_windows(ver)
                res = solve_reward_indexed(ver, part, oracle)
                versions.append((label, _claims_of(res.walk), oracle.spec.ratio))
    return _report("integer-endpoints", x, versions)


# ----- release groups ---------------------------------------------------------

def _release_groups(x: TwInstance):
    """Positive-reward vertices grouped by a shared release; each group's
    windows must end by the next group's release."""
    grouped: Dict[Fraction, List[int]] = {}
    for v in range(x.n):
        if x.rewards[v] > 0:
            grouped.setdefault(x.windows[v].release, []).append(v)
    out = []
    for rel in sorted(grouped):
        members = sorted(grouped[rel])
        dmax = max(x.windows[v].deadline for v in members)
        out.append((rel, members, dmax))
    for i in range(len(out) - 1):
        if out[i][2] > out[i + 1][0]:
            raise PreconditionError(
                "windows released at %s overrun the next release" % out[i][0])
    return out


def _release_group_solve(x: TwInstance, deadline_oracle: DeadlineOracle):
    """Label DP across release groups; the deadline oracle fills in the
    walks between an entry (u, e) and each exit vertex w.

    A pass through a group ends at its last claim, so it ends at w by w's
    deadline (w = u stays put at e).  Per entry and exit the oracle is
    walked down the time grid from that bound (earliest_limits), which
    yields the earliest end of every reward it reaches; the group keeps each
    staircase for labels that enter at the same (u, e).  With an exact
    oracle these are the Pareto frontier of the passes ending at w, so the
    DP is exact.
    """
    ensure_reachable_anchors(x)
    groups = _release_groups(x)
    units = dp_units(x)

    def steps():
        for gi, (rel, members, dmax) in enumerate(groups):
            eligible = {v: (x.rewards[v], x.windows[v].deadline) for v in members}
            # (u, e, w) -> the staircase's paying steps as moves in units, e
            # being the entry time in units too
            stairs: Dict[Tuple[int, int, int], List[tuple]] = {}

            def moves(u, e):
                for w in members:
                    if (u, e, w) not in stairs:
                        t0 = Fraction(e, units.tscale)
                        stairs[(u, e, w)] = [
                            (w, units.time(res.duration), units.reward(res.reward), res.order)
                            for res in earliest_limits(
                                lambda h: best_deadline_walk(
                                    deadline_oracle,
                                    DeadlineQuery(x.metric, eligible, u, t0, w, h)),
                                t0, t0 if w == u else eligible[w][1], x.metric.scale)
                            if res.reward > 0]
                    yield from stairs[(u, e, w)]

            yield gi, units.time(rel), units.time(dmax), members, moves

    return chain_dp(x, units, steps())


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
    require_ratio_two(window_stats(x))
    ensure_reachable_anchors(x)
    versions, xp = _split_zero_windows(x)
    if xp is not None:
        fam = three_split_floor(xp)
        for (label, ver) in fam.versions:
            if label == "B2":
                part = blocks_from_identical_windows(ver)
                res = solve_reward_indexed(ver, part, oracle)
                versions.append((label, _claims_of(res.walk), oracle.spec.ratio))
            elif label == "B3":
                res = _release_group_solve(ver, deadline_oracle)
                versions.append((label, _claims_of(res.walk), deadline_oracle.spec.ratio))
            else:
                # B1 windows share deadlines per group; reversed in time they
                # share releases, which the same composition handles
                rev = time_reversed(ver)
                res = _release_group_solve(rev, deadline_oracle)
                claims = tuple(reversed(_claims_of(res.walk)))
                versions.append((label, claims, deadline_oracle.spec.ratio))
    return _report("l2", x, versions)


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
    ensure_reachable_anchors(x)
    versions, xp = _split_zero_windows(x)
    if xp is not None:
        fam = three_split_ceil(xp)
        for (label, ver) in fam.versions:
            if label == "B2":
                sub = solve_integer_endpoints(ver, oracle)
            else:
                sub = solve_l_le_2(ver, oracle, deadline_oracle)
            versions.append((label, _claims_of(sub.walk), sub.bound))
    return _report("general", x, versions)


# ----- free endpoints ----------------------------------------------------------

def _shift_version(base: TwInstance, ver: TwInstance, head: bool) -> TwInstance:
    """Move a head (or tail) version's windows onto the half-grid.

    A free walk can be delayed (or started earlier) by exactly one half
    unit, which maps any claim inside a head piece [r, h] into [h, h + 1/2]
    and any claim inside a tail piece [g, d] into [g - 1/2, g].  Both target
    windows stay inside the vertex's original window because, at this scale,
    every window is at least one unit long."""
    assignment: Dict[int, Optional[TimeWindow]] = {}
    for v in range(ver.n):
        if ver.rewards[v] > 0:
            w = ver.windows[v]
            if head:
                assignment[v] = TimeWindow(w.deadline, w.deadline + HALF)
            else:
                assignment[v] = TimeWindow(w.release - HALF, w.release)
        else:
            assignment[v] = None
    return restrict(base, assignment)


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
    require_ratio_two(window_stats(x))
    versions, xp = _split_zero_windows(x)
    if xp is not None:
        fam = five_split(xp)
        for (label, ver) in fam.versions:
            if label == "B1":
                mver = _shift_version(fam.base, ver, head=True)
            elif label == "B5":
                mver = _shift_version(fam.base, ver, head=False)
            else:
                mver = ver
            part = blocks_from_identical_windows(mver)
            res = solve_reward_indexed(mver, part, oracle)
            versions.append((label, _claims_of(res.walk), oracle.spec.ratio))
    return _report("free-l2", x, versions)


def solve_free_general(x: TwInstance, oracle: OrienteeringOracle = EXACT_ORACLE,
                       deadline_oracle: DeadlineOracle = EXACT_DEADLINE) -> SolveReport:
    """Free-endpoint solver without length restrictions: band the vertices
    by the power of two their window length falls in (relative to the
    shortest), then run the factor-2 free solver per band."""
    _require_wait(x)
    if x.mode != FREE:
        raise PreconditionError("free-endpoint solver needs unanchored ends")
    versions, xp = _split_zero_windows(x)
    if xp is not None:
        stats = window_stats(xp)
        bands: Dict[int, List[int]] = {}
        for v in xp.positive_vertices():
            j = floor_log2(xp.windows[v].length / stats.l_min)
            bands.setdefault(j, []).append(v)
        for j in sorted(bands):
            bver = drop_vertices(xp, set(bands[j]))
            sub = solve_free_l_le_2(bver, oracle)
            versions.append(("band%d" % j, _claims_of(sub.walk), sub.bound))
    return _report("free-general", x, versions)


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

def solve_auto(x: TwInstance, oracle: OrienteeringOracle = EXACT_ORACLE,
               deadline_oracle: DeadlineOracle = EXACT_DEADLINE) -> SolveReport:
    """Try every solver of the instance's anchor mode, keep the first report
    with the highest reward, and raise only when every solver refuses.
    Start-anchored instances without an end anchor reduce to one anchored
    solve per candidate end vertex."""
    _require_wait(x)
    if x.mode == START_ONLY:
        return _auto_start_only(x, oracle, deadline_oracle)
    _zero, pos = _length_split(x)
    # built per call from the module globals, so a patched global sees its calls
    if not pos:
        candidates = (("zero-window", zero_window_dp),)
    elif x.mode == ANCHORED:
        candidates = (("integer-endpoints", solve_integer_endpoints),
                      ("l2", solve_l_le_2), ("general", solve_general))
    else:
        candidates = (("free-l2", solve_free_l_le_2), ("free-general", solve_free_general))
    best: Optional[SolveReport] = None
    refusals = []
    for (name, solver) in candidates:
        try:
            rep = solver(x, oracle, deadline_oracle)
        except PreconditionError as exc:
            refusals.append("%s: %s" % (name, exc))
            continue
        if best is None or rep.walk.reward > best.walk.reward:
            best = rep
    if best is None:
        raise PreconditionError("every solver refused (%s)" % "; ".join(refusals))
    return best


def _auto_start_only(x: TwInstance, oracle: OrienteeringOracle,
                     deadline_oracle: DeadlineOracle) -> SolveReport:
    """A walk that may end anywhere ends somewhere: solve the anchored
    variant for every reachable end vertex and keep the best.  An end vertex
    whose anchored solve is refused is skipped like an unreachable one."""
    best: Optional[SolveReport] = None
    refusals = []
    for t2 in range(x.n):
        leg = x.metric.d[x.s][t2]
        if not is_finite(leg) or leg > x.budget:
            continue
        x2 = TwInstance(x.metric, x.windows, x.rewards, x.s, t2, x.budget, x.wait_policy)
        try:
            sub = solve_auto(x2, oracle, deadline_oracle)
        except PreconditionError as exc:
            refusals.append("end %d: %s" % (t2, exc))
            continue
        order = [(v, c) for (v, _t, c) in sub.walk.schedule]
        sol = evaluate_walk(x, order)
        if not sol.feasible:
            continue
        rep = SolveReport(sub.algorithm, sol, sub.version_rewards, sub.beta, sub.bound)
        if best is None or rep.walk.reward > best.walk.reward:
            best = rep
    if best is None:
        raise PreconditionError("no end vertex yields a walk (%s)" % (
            "; ".join(refusals) or "none is reachable from the start anchor"))
    return best


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
