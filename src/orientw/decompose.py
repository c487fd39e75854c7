"""Restricted-version families: dyadic window partitions and window splits.

Each construction takes an instance and returns a RestrictedFamily: a list of
labeled restricted versions whose windows, per vertex, exactly cover that
vertex's original window.  Solving every version and keeping the best answer
then loses at most a factor beta = len(versions).

Every construction is one cut rule on one skeleton (_family): the rule
cut(v, r, d, unit) cuts each positive-length window [r, d], given in the
integer units of the base instance's view (instance._view) with unit ints
to one time unit, into keyed, labeled pieces (lo, hi) in the same ints, and
each key becomes one version, built in ints (instance._restricted); its
Fraction windows are built only when read.  The splits also share their
scaling and refusals (_split) and key their versions by label; the
five-way splits double an odd unit, so that a half unit is whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import PreconditionError
from .instance import TwInstance, _restricted, _view, scale_times, window_stats
from .rational import ONE


@dataclass(frozen=True)
class DyadicPiece:
    """One aligned power-of-two piece [lo, hi] of an integer interval.

    hi - lo = 2**level and lo is a multiple of 2**level.  slot is 1 for the
    first piece of its length inside the partition, 2 for the second; a
    partition never needs more than two pieces of any one length.
    """

    lo: int
    hi: int
    level: int
    slot: int


@dataclass(frozen=True)
class RestrictedFamily:
    """Labeled restricted versions of a base instance.

    base is the instance the version windows live in (the constructions that
    rescale time record the factor in `scale`; base = scale_times(original,
    scale)).  Version walks are valid on the original instance once their
    claim times are divided back by the factor, and claim orders transfer
    as-is.
    """

    base: TwInstance
    versions: Tuple[Tuple[str, TwInstance], ...]
    scale: Fraction = ONE

    @property
    def beta(self) -> int:
        return len(self.versions)


# ----- dyadic partition ------------------------------------------------------

def dyadic_partition(lo: int, hi: int) -> List[DyadicPiece]:
    """Partition the integer interval [lo, hi] into disjoint aligned
    power-of-two pieces, at most two per length.

    Walks the classic recursion: peel unit pieces until both endpoints are
    even, then halve and recurse.  The result is ordered by position and has
    at most 2*ceil(log2(hi - lo)) pieces once hi - lo >= 2.
    """
    if not (isinstance(lo, int) and isinstance(hi, int)):
        raise PreconditionError("dyadic_partition needs integer endpoints")
    if lo >= hi:
        raise PreconditionError("dyadic_partition needs lo < hi, got [%s, %s]" % (lo, hi))
    front: List[Tuple[int, int, int]] = []
    back: List[Tuple[int, int, int]] = []
    level = 0
    while lo < hi:
        if lo % 2 == 1:
            front.append((lo << level, (lo + 1) << level, level))
            lo += 1
        if lo < hi and hi % 2 == 1:
            back.append(((hi - 1) << level, hi << level, level))
            hi -= 1
        if lo >= hi:
            break
        lo //= 2
        hi //= 2
        level += 1
    raw = sorted(front + back)
    seen_level: Dict[int, int] = {}
    pieces = []
    for (plo, phi, plevel) in raw:
        slot = seen_level.get(plevel, 0) + 1
        seen_level[plevel] = slot
        pieces.append(DyadicPiece(plo, phi, plevel, slot))
    return pieces


def dyadic_family(x: TwInstance) -> RestrictedFamily:
    """One restricted version per occupied (slot, level) pair of the dyadic
    partitions of all positive-reward windows.

    Windows must have integer endpoints.  Zero-length windows are excluded
    here (the fixed-time DP path handles them); the affected vertices are
    simply dropped from every version.
    """

    def cut(v: int, r: int, d: int, unit: int):
        if r % unit or d % unit:
            raise PreconditionError(
                "vertex %d: window [%s, %s] does not have integer endpoints"
                % (v, Fraction(r, unit), Fraction(d, unit)))
        for piece in dyadic_partition(r // unit, d // unit):
            yield ((piece.level, piece.slot), "B%d_%d" % (piece.slot, piece.level),
                   (piece.lo * unit, piece.hi * unit))

    return _family(x, ONE, cut)


def band_family(x: TwInstance) -> RestrictedFamily:
    """One restricted version per band of window lengths: band j keeps the
    positive-reward vertices whose windows, whole, are 2**j to 2**(j+1)
    times the shortest positive length, and is labelled band<j>."""
    lengths = [d - r for (r, d, g) in _view(x)[1] if g and r < d]
    if not lengths:
        raise PreconditionError("no positive-length windows to band")
    shortest = min(lengths)

    def cut(v: int, r: int, d: int, unit: int):
        # 2**j <= length / shortest exactly when 2**j <= length // shortest
        j = ((d - r) // shortest).bit_length() - 1
        yield j, "band%d" % j, (r, d)

    return _family(x, ONE, cut)


# ----- the construction skeleton ---------------------------------------------

def _family(base: TwInstance, factor: Fraction, cut, halves: bool = False) -> RestrictedFamily:
    """The family that cut describes, one version per key in sorted order.

    cut(v, r, d, unit) yields (key, label, (lo, hi)) for every
    positive-reward vertex with a positive-length window, in the ints of
    base's view, doubled when halves asks for a whole half unit and the
    view's tscale is odd.  A version keeps its key's pieces and zeroes
    every other positive-reward vertex, those with zero-length windows
    included.  A piece is cut from a checked window, so nothing is checked
    again (instance._restricted).
    """
    parent = base
    if halves and _view(base)[0].tscale % 2:
        # the versions' one parent, whose doubled units (and distance table) they share
        parent = _restricted(base, _view(base)[0].tscale * 2, {})
    units, span = _view(parent)
    unit = units.tscale
    groups: Dict[object, Tuple[str, dict]] = {}
    zeroed: dict = {}
    for v, (r, d, g) in enumerate(span):
        if g:
            zeroed[v] = None
            if r < d:
                for (key, label, piece) in cut(v, r, d, unit):
                    groups.setdefault(key, (label, {}))[1][v] = piece
    versions = tuple((label, _restricted(parent, unit, {**zeroed, **pieces}))
                     for (_key, (label, pieces)) in sorted(groups.items()))
    return RestrictedFamily(base, versions, scale=factor)


def _split(x: TwInstance, cut, ratio_two: bool, halves: bool = False) -> RestrictedFamily:
    """A split family: scale so the shortest positive window has length 1,
    then cut(r, d, unit) yields (label, piece) per carrier, and the label
    is the version's key.  With ratio_two, windows whose positive lengths
    differ by more than a factor 2 are refused."""
    stats = window_stats(x)
    if stats.l_min is None:
        raise PreconditionError("no positive-length windows to split")
    if ratio_two and stats.l_ratio > 2:
        raise PreconditionError("window length ratio %s exceeds 2" % stats.l_ratio)
    factor = ONE / stats.l_min
    scaled = scale_times(x, factor) if factor != 1 else x
    return _family(scaled, factor, lambda v, r, d, unit: (
        (label, label, piece) for (label, piece) in cut(r, d, unit)), halves)


# ----- the splits ------------------------------------------------------------

def three_split_floor(x: TwInstance) -> RestrictedFamily:
    """Split for instances whose window lengths vary by at most 2.

    After scaling so the shortest window has length 1, each window [R, D] is
    cut at a = floor(R) + 1 (the smallest integer strictly above R) and
    b = ceil(D) - 1 (the greatest integer strictly below D).  B1 gets [R, a]
    (integral deadline), B2 the unit-length integer-aligned middle [a, b]
    when a < b, B3 gets [b, D] (integral release).  When a = b the middle is
    a single point and is dropped; when a = b + 1 (exactly the integral
    unit-length windows) the whole window goes to B1 only.
    """

    def cut(r: int, d: int, unit: int):
        a = (r // unit + 1) * unit
        b = (-(-d // unit) - 1) * unit
        yield "B1", (r, a)
        if a == b + unit:
            return
        yield "B3", (b, d)
        if a < b:
            yield "B2", (a, b)

    return _split(x, cut, ratio_two=True)


def three_split_ceil(x: TwInstance) -> RestrictedFamily:
    """Split for instances with any finite window-length ratio.

    After scaling so the shortest window has length 1, each window [R, D] is
    cut at a = ceil(R + 1) and b = floor(D - 1), clamped into the window.
    B1 = [R, min(a, D)] and B3 = [max(b, R), D] have lengths in [1, 2] and
    may overlap; B2 = [a, b] has integer endpoints and appears only when
    a < b.  Unioned per vertex the three cover [R, D] exactly.
    """

    def cut(r: int, d: int, unit: int):
        a = (-(-r // unit) + 1) * unit
        b = (d // unit - 1) * unit
        yield "B1", (r, min(a, d))
        yield "B3", (max(b, r), d)
        if a < b:
            yield "B2", (a, b)

    return _split(x, cut, ratio_two=False)


def five_split(x: TwInstance) -> RestrictedFamily:
    """Split for free-endpoint instances whose window lengths vary by at
    most 2: cut every window at each interior multiple of one half.

    After scaling so the shortest window has length 1, each window yields
    between two and five pieces.  The first piece is always B1 and the last
    always B5; the (half-aligned, length-1/2) middles fill B2..B4 in order.
    """

    def cut(r: int, d: int, unit: int):
        bounds = [r] + _half_grid_interior(r, d, unit // 2) + [d]
        pieces = list(zip(bounds, bounds[1:]))
        yield "B1", pieces[0]
        yield "B5", pieces[-1]
        yield from zip(("B2", "B3", "B4"), pieces[1:-1])

    return _split(x, cut, ratio_two=True, halves=True)


def shifted_five_split(x: TwInstance) -> RestrictedFamily:
    """five_split with its head and tail slid half a unit inward, the split
    of the free-endpoint solver.

    A free walk can be delayed (or started earlier) by exactly one half
    unit, which maps any claim inside a head piece [R, h] into [h, h + 1/2]
    and any claim inside a tail piece [g, D] into [g - 1/2, g], where h and
    g are the first and last interior multiples of one half.  So B1 gets
    [h, h + 1/2], B5 gets [g - 1/2, g] and the middles are five_split's.
    Both slid pieces stay inside [R, D] because, at this scale, every
    window is at least one unit long.
    """

    def cut(r: int, d: int, unit: int):
        half = unit // 2
        inner = _half_grid_interior(r, d, half)
        yield "B1", (inner[0], inner[0] + half)
        yield "B5", (inner[-1] - half, inner[-1])
        yield from zip(("B2", "B3", "B4"), zip(inner, inner[1:]))

    return _split(x, cut, ratio_two=True, halves=True)


def _half_grid_interior(lo: int, hi: int, half: int) -> List[int]:
    """Multiples of half strictly between lo and hi, in order."""
    return list(range((lo // half + 1) * half, hi, half))
