"""Seeded random instance generators.

Every generator takes an integer seed and is fully deterministic given its
arguments: same seed, same instance.  Anchor vertices (when present) carry
no reward and a full-horizon window, so the interesting structure sits on
the interior vertices.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import PreconditionError
from .instance import ANCHORED, FREE, START_ONLY, WAIT, TimeWindow, TwInstance
from .metric import Graph, Metric, metric_closure
from .modular import ModularBlock, ModularPartition
from .rational import ONE, ZERO

FAMILIES = ("random-metric", "euclidean-grid", "directed-random", "line")


# ----- metrics -----------------------------------------------------------------

def random_metric(rng: random.Random, n: int, directed: bool = False,
                  integral: bool = True) -> Metric:
    """Complete graph with small random weights, closed into a metric."""
    edges = []
    for u in range(n):
        for v in range(n):
            if u == v or (not directed and u > v):
                continue
            w = Fraction(rng.randint(1, 4)) if integral else Fraction(rng.randint(3, 12), 4)
            edges.append((u, v, w))
    return metric_closure(Graph.build(directed, n, edges))


def euclidean_metric(rng: random.Random, n: int, side: int = 6) -> Metric:
    """Distinct grid points with rounded straight-line distances; rounding
    can break the triangle inequality, closing the graph restores it.  The
    side x side grid holds at most side**2 vertices."""
    if n > side * side:
        raise PreconditionError("euclidean-grid holds at most %d vertices (a %dx%d grid), got %d"
                                % (side * side, side, side, n))
    cells = [(i, j) for i in range(side) for j in range(side)]
    points = rng.sample(cells, n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            dx = points[u][0] - points[v][0]
            dy = points[u][1] - points[v][1]
            w = max(1, round((dx * dx + dy * dy) ** 0.5))
            edges.append((u, v, Fraction(w)))
    return metric_closure(Graph.build(False, n, edges))


def line_metric(n: int) -> Metric:
    edges = [(i, i + 1, ONE) for i in range(n - 1)]
    return metric_closure(Graph.build(False, n, edges))


def _metric_for(family: str, rng: random.Random, n: int, integral: bool) -> Metric:
    if family == "random-metric":
        return random_metric(rng, n, directed=False, integral=integral)
    if family == "directed-random":
        return random_metric(rng, n, directed=True, integral=integral)
    if family == "euclidean-grid":
        return euclidean_metric(rng, n)
    if family == "line":
        return line_metric(n)
    raise PreconditionError("unknown family %r; pick one of %s" % (family, ", ".join(FAMILIES)))


# ----- window helpers -----------------------------------------------------------

def _on_grid(rng: random.Random, grid: int, lo: Fraction, hi: Fraction) -> Fraction:
    """Uniform point of the 1/grid grid in [lo, hi]."""
    low, high = math.ceil(lo * grid), math.floor(hi * grid)
    if low > high:
        raise PreconditionError("no point of the 1/%d grid lies in [%s, %s]" % (grid, lo, hi))
    return Fraction(rng.randint(low, high), grid)


def _anchored_shell(metric: Metric, windows: List[TimeWindow], rewards: List[Fraction],
                    horizon: Fraction, mode: str) -> TwInstance:
    n = metric.n
    s: Optional[int] = 0
    t: Optional[int] = n - 1
    if mode == FREE:
        s = t = None
    elif mode == START_ONLY:
        t = None
    return TwInstance(metric, tuple(windows), tuple(rewards), s, t, horizon, WAIT)


def _interior(n: int, mode: str) -> List[int]:
    if mode == FREE:
        return list(range(n))
    if mode == START_ONLY:
        return list(range(1, n))
    return list(range(1, n - 1))


def _windowed_instance(rng: random.Random, metric: Metric, horizon: Fraction,
                       lengths: List[Fraction], mode: str, integral: bool) -> TwInstance:
    n = metric.n
    if max(lengths) > horizon:
        raise PreconditionError("window lengths exceed the horizon")
    windows = [TimeWindow(ZERO, horizon) for _ in range(n)]
    rewards = [ZERO] * n
    for v in _interior(n, mode):
        length = rng.choice(lengths)
        rel = _on_grid(rng, 1 if integral else 4, ZERO, horizon - length)
        windows[v] = TimeWindow(rel, rel + length)
        rewards[v] = ONE
    return _anchored_shell(metric, windows, rewards, horizon, mode)


# ----- shaped instance generators -------------------------------------------------

def gen_integer_instance(seed: int, n_low: int = 4, n_high: int = 8,
                         l_max: int = 16, mode: str = ANCHORED) -> TwInstance:
    """Integral weights and window endpoints; every fifth seed forces all
    window lengths to 1, which is the exactly-solvable regime."""
    rng = random.Random("int-%d" % seed)
    n = rng.randint(n_low, n_high)
    metric = random_metric(rng, n, integral=True)
    horizon = Fraction(l_max + 8)
    if seed % 5 == 0:
        lengths = [ONE]
    else:
        lengths = [Fraction(rng.randint(1, l_max)) for _ in range(4)]
    return _windowed_instance(rng, metric, horizon, lengths, mode, integral=True)


def gen_ratio2_instance(seed: int, n_low: int = 4, n_high: int = 8,
                        mode: str = ANCHORED) -> TwInstance:
    """Quarter-grid windows with lengths in [1, 2]."""
    rng = random.Random("ratio2-%d" % seed)
    n = rng.randint(n_low, n_high)
    metric = random_metric(rng, n, integral=(seed % 2 == 0))
    horizon = Fraction(10)
    lengths = [ONE, Fraction(5, 4), Fraction(3, 2), Fraction(7, 4), Fraction(2)]
    return _windowed_instance(rng, metric, horizon, lengths, mode, integral=False)


def gen_general_instance(seed: int, n_low: int = 4, n_high: int = 8,
                         l_cap: int = 8) -> TwInstance:
    """Quarter-grid windows with lengths anywhere in [1, l_cap]."""
    rng = random.Random("general-%d" % seed)
    n = rng.randint(n_low, n_high)
    metric = random_metric(rng, n, integral=(seed % 2 == 0))
    horizon = Fraction(l_cap + 6)
    lengths = [Fraction(rng.randint(4, 4 * l_cap), 4) for _ in range(4)]
    return _windowed_instance(rng, metric, horizon, lengths, ANCHORED, integral=False)


def gen_modular_instance(seed: int, n_low: int = 5,
                         n_high: int = 9) -> Tuple[TwInstance, ModularPartition]:
    """Blocks laid out left to right; member windows equal their block's
    interval, so the modular optimum is the true optimum.  Data is integral
    so all three DPs apply."""
    rng = random.Random("modular-%d" % seed)
    n = rng.randint(n_low, n_high)
    metric = random_metric(rng, n, integral=True)
    k = rng.randint(1, 3)
    bounds = []
    cur = rng.randint(0, 2)
    for _ in range(k):
        r = cur
        d = r + rng.randint(0, 4)
        bounds.append((Fraction(r), Fraction(d)))
        cur = d + rng.randint(0, 2)
    budget = Fraction(max(int(bounds[-1][1]), 4) + rng.randint(1, 3))
    windows = [TimeWindow(ZERO, budget) for _ in range(n)]
    rewards = [ZERO] * n
    members: List[List[int]] = [[] for _ in range(k)]
    for v in range(1, n - 1):
        b = rng.randrange(k)
        members[b].append(v)
        windows[v] = TimeWindow(bounds[b][0], bounds[b][1])
        rewards[v] = ONE
    x = TwInstance(metric, tuple(windows), tuple(rewards), 0, n - 1, budget, WAIT)
    blocks = tuple(ModularBlock(frozenset(m), r, d)
                   for m, (r, d) in zip(members, bounds) if m)
    return x, ModularPartition(blocks)


def gen_deadline_instance(seed: int, n_low: int = 4, n_high: int = 7) -> TwInstance:
    """Every rewarded vertex has window [0, deadline]; every third seed
    leaves the end free."""
    rng = random.Random("deadline-%d" % seed)
    n = rng.randint(n_low, n_high)
    metric = random_metric(rng, n, integral=True)
    budget = Fraction(10)
    windows = [TimeWindow(ZERO, budget) for _ in range(n)]
    rewards = [ZERO] * n
    t: Optional[int] = None if seed % 3 == 0 else n - 1
    last = n if t is None else n - 1
    for v in range(1, last):
        windows[v] = TimeWindow(ZERO, Fraction(rng.randint(1, 8)))
        rewards[v] = ONE
    return TwInstance(metric, tuple(windows), tuple(rewards), 0, t, budget, WAIT)


def gen_zero_window_instance(seed: int, n_low: int = 5, n_high: int = 10) -> TwInstance:
    """Fixed-instant visits; cycles through end-anchored, start-only and
    free shapes."""
    rng = random.Random("zero-%d" % seed)
    n = rng.randint(n_low, n_high)
    metric = random_metric(rng, n, integral=(seed % 2 == 0))
    horizon = Fraction(12)
    mode = (ANCHORED, START_ONLY, FREE)[seed % 3]
    windows = [TimeWindow(ZERO, horizon) for _ in range(n)]
    rewards = [ZERO] * n
    for v in _interior(n, mode):
        at = Fraction(rng.randint(0, 12)) if seed % 2 == 0 else _on_grid(rng, 4, ZERO, horizon)
        windows[v] = TimeWindow(at, at)
        rewards[v] = ONE
    return _anchored_shell(metric, windows, rewards, horizon, mode)


# ----- command-line entry --------------------------------------------------------

def generate_instance(family: str, n: int, seed: int, horizon: Optional[Fraction] = None,
                      mode: str = ANCHORED, integral: bool = False,
                      l_low: Fraction = ONE, l_high: Fraction = Fraction(2)) -> TwInstance:
    if n < 2:
        raise PreconditionError("need at least two vertices")
    if mode not in (ANCHORED, START_ONLY, FREE):
        raise PreconditionError("mode must be %s, %s or %s" % (ANCHORED, START_ONLY, FREE))
    rng = random.Random("%s-%d-%d" % (family, seed, n))
    metric = _metric_for(family, rng, n, integral)
    if horizon is None:
        horizon = Fraction(4 * n)
    if l_high > horizon:
        raise PreconditionError("window length bound exceeds the horizon")
    if not 0 <= l_low <= l_high:
        raise PreconditionError("window length bounds need 0 <= l_low <= l_high")
    lengths = [_on_grid(rng, 1 if integral else 4, l_low, l_high) for _ in range(4)]
    return _windowed_instance(rng, metric, horizon, lengths, mode, integral)
