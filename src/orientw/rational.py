"""Small helpers for exact rational arithmetic.

Finite quantities are always fractions.Fraction; the only non-Fraction value
that ever flows through distance tables is INF (float infinity), which is
used purely as an unreachable marker and never enters arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def is_finite(value) -> bool:
    return value != INF


def as_fraction(value) -> Fraction:
    """Coerce int/Fraction to Fraction; reject floats to keep exactness."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("expected an int or Fraction, got %r" % (value,))


def is_integral(value: Fraction) -> bool:
    return value.denominator == 1


def floor_log2(x: Fraction) -> int:
    """Largest j with 2**j <= x.  Requires x > 0."""
    if x <= 0:
        raise ValueError("floor_log2 needs a positive value")
    j = x.numerator.bit_length() - x.denominator.bit_length()
    # bit_length gives an estimate off by at most one; fix up exactly.
    while _pow2(j) > x:
        j -= 1
    while _pow2(j + 1) <= x:
        j += 1
    return j


def _pow2(j: int) -> Fraction:
    return Fraction(2) ** j


def fraction_gcd(values) -> Fraction:
    """gcd of a collection of positive Fractions: gcd of numerators over
    lcm of denominators."""
    values = list(values)
    if not values:
        raise ValueError("gcd of an empty collection")
    num = 0
    den = 1
    for v in values:
        num = math.gcd(num, v.numerator)
        den = den * v.denominator // math.gcd(den, v.denominator)
    return Fraction(num, den)
