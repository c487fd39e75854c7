"""Small helpers for exact rational arithmetic.

Finite quantities are always fractions.Fraction at the API; the only
non-Fraction value that ever flows through distance tables is INF (float
infinity), which is used purely as an unreachable marker and never enters
arithmetic.  It is compared by identity: Metric rejects any other float.

Inside the search kernels and the label DP times run in integer units
instead.  A Metric carries scale and ints with
d[u][v] == Fraction(ints[u][v], scale) (ints holds None where d holds INF);
a time t enters as t.numerator * (scale // t.denominator) once scale is a
multiple of t.denominator, and rewards likewise over the lcm of their
denominators.  Units holds both scales and the distances in time units
(units_for builds it).  Times enter units in three places: a public
oracle query once (oracles._answer); an instance once, in the integer view
it holds (instance._view; a derived one's is derived from its parent's, in
the parent's scales, by its transform), which walk scoring, the window
statistics, the solvers' splits and reach bound and the block and
release-group checks read, and which each label DP, its oracles and its
labels run in; and a walk with explicit times, which builds its own.  A
DP on a partition whose block bounds the view's scale does not cover
takes the view of its instance derived on a wider scale.  Fractions come
back from these ints only when read: a derived instance's windows (from
its view) and a derived metric's table d (from ints) are built on their
first read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

INF = math.inf

ZERO = Fraction(0)
ONE = Fraction(1)


def is_finite(value) -> bool:
    return value is not INF


def as_fraction(value) -> Fraction:
    """Coerce int/Fraction to Fraction; reject floats to keep exactness."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("expected an int or Fraction, got %r" % (value,))


def floor_log2(x: Fraction) -> int:
    """Largest j with 2**j <= x.  Requires x > 0."""
    n, d = x.numerator, x.denominator
    if n <= 0:
        raise ValueError("floor_log2 needs a positive value")
    # x lies in (2**(j-1), 2**(j+1)), so the answer is j or j - 1
    j = n.bit_length() - d.bit_length()
    fits = n >= d << j if j >= 0 else n << -j >= d
    return j if fits else j - 1


class Units:
    """Integer units: a time t is t * tscale and a reward r is r * rscale,
    both whole numbers, and table[u][v] is the distance d[u][v] in time
    units (None where it is INF).  A class with slots, not a NamedTuple:
    every public oracle query builds one, and this one builds faster."""

    __slots__ = ("tscale", "rscale", "table")

    def __init__(self, tscale: int, rscale: int, table: Sequence[tuple]):
        self.tscale, self.rscale, self.table = tscale, rscale, table

    def time(self, t: Fraction) -> int:
        return t.numerator * (self.tscale // t.denominator)

    def reward(self, r: Fraction) -> int:
        return r.numerator * (self.rscale // r.denominator)


def units_for(metric, times, rewards) -> Units:
    """Units making every distance of metric, time in times and reward in
    rewards whole.  The table is metric.ints, every row multiplied up when a
    time's denominator does not divide metric.scale."""
    tscale = metric.scale
    for t in times:
        if tscale % t.denominator:
            tscale = math.lcm(tscale, t.denominator)
    table = metric.ints
    if tscale != metric.scale:
        factor = tscale // metric.scale
        table = [tuple(None if d is None else d * factor for d in row) for row in table]
    return Units(tscale, math.lcm(*(r.denominator for r in rewards)), table)
