import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientw import (PreconditionError, TimeWindow, TwInstance, brute_force_opt,
                     dyadic_family, dyadic_partition, evaluate_walk, five_split,
                     restrict, solve_auto, three_split_ceil, three_split_floor)
from orientw.algorithms import _length_split
from orientw.decompose import band_family, shifted_five_split
from orientw.generate import generate_instance
from orientw.instance import _view

from conftest import (assert_fresh_view, build_instance, line4_instance, line_metric,
                      ref_band_family, ref_band_split, ref_dyadic_family, ref_five_split,
                      ref_shifted_five_split, ref_three_split_ceil, ref_three_split_floor,
                      view_in_fractions, window)


def _pieces(parts):
    return [(p.lo, p.hi) for p in parts]


# ----- dyadic partition -------------------------------------------------------

def test_dyadic_known_partitions():
    assert _pieces(dyadic_partition(0, 3)) == [(0, 2), (2, 3)]
    assert _pieces(dyadic_partition(3, 8)) == [(3, 4), (4, 8)]
    assert _pieces(dyadic_partition(1, 6)) == [(1, 2), (2, 4), (4, 6)]
    assert _pieces(dyadic_partition(0, 8)) == [(0, 8)]
    assert _pieces(dyadic_partition(5, 6)) == [(5, 6)]


def test_dyadic_rejects_bad_input():
    with pytest.raises(PreconditionError):
        dyadic_partition(3, 3)
    with pytest.raises(PreconditionError):
        dyadic_partition(F(1, 2), 2)


@settings(derandomize=True, max_examples=300)
@given(st.integers(0, 255), st.integers(1, 256))
def test_dyadic_partition_properties(lo, width):
    hi = lo + width
    if hi > 256:
        hi = 256
    if lo >= hi:
        return
    parts = dyadic_partition(lo, hi)
    # exact ordered cover
    assert parts[0].lo == lo and parts[-1].hi == hi
    for a, b in zip(parts, parts[1:]):
        assert a.hi == b.lo
    per_level = {}
    for p in parts:
        size = p.hi - p.lo
        assert size == 2 ** p.level
        assert p.lo % size == 0 or (p.lo == lo and size == 1)
        per_level[p.level] = per_level.get(p.level, 0) + 1
    # alignment: every piece starts at a multiple of its own length
    for p in parts:
        assert p.lo % (2 ** p.level) == 0
    assert all(c <= 2 for c in per_level.values())
    assert {p.slot for p in parts} <= {1, 2}
    if hi - lo >= 2:
        assert len(parts) <= 2 * math.ceil(math.log2(hi - lo))


# ----- dyadic family ------------------------------------------------------------

def test_dyadic_family_versions_cover():
    x = line4_instance(budget=F(8),
                       windows=(window(0, 8), window(1, 6),
                                window(2, 3), window(0, 8)),
                       rewards=(0, 1, 1, 0))
    fam = dyadic_family(x)
    assert fam.scale == 1
    # vertex 1 contributes pieces [1,2],[2,4],[4,6]; vertex 2 contributes [2,3]
    seen = {}
    for label, ver in fam.versions:
        for v in (1, 2):
            w = ver.windows[v]
            if ver.rewards[v] > 0:
                seen.setdefault(v, []).append((w.release, w.deadline))
    assert sorted(seen[1]) == [(1, 2), (2, 4), (4, 6)]
    assert sorted(seen[2]) == [(2, 3)]
    # each version restricts windows into the originals
    for _label, ver in fam.versions:
        for v in ver.positive_vertices():
            assert x.windows[v].release <= ver.windows[v].release
            assert ver.windows[v].deadline <= x.windows[v].deadline


def test_dyadic_family_label_shape():
    x = line4_instance(budget=F(8),
                       windows=(window(0, 8), window(1, 6),
                                window(2, 3), window(0, 8)),
                       rewards=(0, 1, 1, 0))
    fam = dyadic_family(x)
    for (label, _ver) in fam.versions:
        assert label.startswith("B")
        slot, level = label[1:].split("_")
        assert slot in ("1", "2")
        assert int(level) >= 0


def test_dyadic_family_needs_integer_endpoints():
    x = line4_instance(windows=(window(0, 5), window(F(1, 2), 2),
                                window(2, 3), window(0, 5)))
    with pytest.raises(PreconditionError):
        dyadic_family(x)


def test_dyadic_family_pigeonhole_on_line():
    x = line4_instance(budget=F(8),
                       windows=(window(0, 8), window(1, 6),
                                window(2, 3), window(0, 8)),
                       rewards=(0, 1, 1, 0))
    opt = brute_force_opt(x).reward
    best = max(brute_force_opt(ver).reward for _l, ver in dyadic_family(x).versions)
    assert best * len(dyadic_family(x).versions) >= opt


# ----- three-way splits ----------------------------------------------------------

def _split_windows(fam, v):
    out = {}
    for label, ver in fam.versions:
        if ver.rewards[v] > 0:
            w = ver.windows[v]
            out[label] = (w.release, w.deadline)
    return out


def test_floor_split_examples():
    x = build_instance(
        4, [(i, i + 1, 1) for i in range(3)],
        [(0, 10), (F(3, 2), F(16, 5)), (4, 5), (0, 10)],
        [0, 1, 1, 0], 0, 3, 10)
    fam = three_split_floor(x)
    assert fam.scale == 1
    assert _split_windows(fam, 1) == {
        "B1": (F(3, 2), 2), "B2": (2, 3), "B3": (3, F(16, 5))}
    # unit integral window: single piece, lands in B1 alone
    assert _split_windows(fam, 2) == {"B1": (4, 5)}


def test_floor_split_short_low_window():
    x = build_instance(
        3, [(0, 1, 1), (1, 2, 1)],
        [(0, 10), (F(1, 2), F(5, 2)), (0, 10)],
        [0, 1, 0], 0, 2, 10)
    # companion window keeps l_min = 1: add a unit window vertex
    x = build_instance(
        4, [(i, i + 1, 1) for i in range(3)],
        [(0, 10), (F(1, 2), F(5, 2)), (6, 7), (0, 10)],
        [0, 1, 1, 0], 0, 3, 10)
    fam = three_split_floor(x)
    assert _split_windows(fam, 1) == {
        "B1": (F(1, 2), 1), "B2": (1, 2), "B3": (2, F(5, 2))}


def test_floor_split_rescales_to_unit_minimum():
    x = build_instance(
        3, [(0, 1, 1), (1, 2, 1)],
        [(0, 10), (2, F(5, 2)), (0, 10)],
        [0, 1, 0], 0, 2, 10)
    fam = three_split_floor(x)
    assert fam.scale == 2
    assert fam.base.budget == 20
    # [2, 5/2] doubles to [4, 5]: integral unit window, all of it in B1
    assert _split_windows(fam, 1) == {"B1": (4, 5)}


def test_floor_split_rejects_wide_ratio():
    x = line4_instance()   # anchor windows have length 5, ratio 5
    with pytest.raises(PreconditionError):
        three_split_floor(x)


def test_ceil_split_examples():
    x = build_instance(
        4, [(i, i + 1, 1) for i in range(3)],
        [(0, 12), (F(17, 5), F(99, 10)), (4, 5), (0, 12)],
        [0, 1, 1, 0], 0, 3, 12)
    fam = three_split_ceil(x)
    assert _split_windows(fam, 1) == {
        "B1": (F(17, 5), 5), "B2": (5, 8), "B3": (8, F(99, 10))}


def test_ceil_split_short_window_lands_in_both_ends():
    x = build_instance(
        4, [(i, i + 1, 1) for i in range(3)],
        [(0, 12), (F(1, 2), F(8, 5)), (4, 5), (0, 12)],
        [0, 1, 1, 0], 0, 3, 12)
    fam = three_split_ceil(x)
    got = _split_windows(fam, 1)
    assert got["B1"] == (F(1, 2), F(8, 5))
    assert got["B3"] == (F(1, 2), F(8, 5))
    assert "B2" not in got


def test_ceil_split_piece_lengths():
    x = build_instance(
        4, [(i, i + 1, 1) for i in range(3)],
        [(0, 40), (F(17, 5), F(99, 10)), (4, 5), (0, 40)],
        [0, 1, 1, 0], 0, 3, 40)
    fam = three_split_ceil(x)
    for label in ("B1", "B3"):
        for v in (1, 2):
            wins = _split_windows(fam, v)
            if label in wins:
                a, b = wins[label]
                assert 1 <= b - a <= 2


def test_five_split_examples():
    x = build_instance(
        4, [(i, i + 1, 1) for i in range(3)],
        [(0, 12), (F(37, 10), F(28, 5)), (6, 7), (0, 12)],
        [0, 1, 1, 0], None, None, 12)
    fam = five_split(x)
    assert _split_windows(fam, 1) == {
        "B1": (F(37, 10), 4), "B2": (4, F(9, 2)), "B3": (F(9, 2), 5),
        "B4": (5, F(11, 2)), "B5": (F(11, 2), F(28, 5))}
    assert _split_windows(fam, 2) == {"B1": (6, F(13, 2)), "B5": (F(13, 2), 7)}


def test_five_split_four_pieces():
    x = build_instance(
        4, [(i, i + 1, 1) for i in range(3)],
        [(0, 12), (F(4, 5), F(23, 10)), (6, 7), (0, 12)],
        [0, 1, 1, 0], None, None, 12)
    fam = five_split(x)
    assert _split_windows(fam, 1) == {
        "B1": (F(4, 5), 1), "B2": (1, F(3, 2)), "B3": (F(3, 2), 2),
        "B5": (2, F(23, 10))}


def test_five_split_rejects_wide_ratio():
    x = build_instance(
        3, [(0, 1, 1), (1, 2, 1)],
        [(0, 10), (0, 3), (4, 5)],
        [0, 1, 1], None, None, 10)
    with pytest.raises(PreconditionError):
        five_split(x)


# ----- shared family invariants ---------------------------------------------------

@pytest.mark.parametrize("builder", [three_split_floor, three_split_ceil, five_split])
def test_splits_cover_their_windows(builder):
    x = build_instance(
        5, [(i, i + 1, 1) for i in range(4)],
        [(0, 12), (F(3, 2), 3), (2, F(7, 2)), (5, F(13, 2)), (0, 12)],
        [0, 1, 1, 1, 0], None, None, 12)
    fam = builder(x)
    for v in (1, 2, 3):
        w = fam.base.windows[v]
        pieces = sorted((ver.windows[v].release, ver.windows[v].deadline)
                        for _l, ver in fam.versions if ver.rewards[v] > 0)
        assert pieces[0][0] == w.release
        assert pieces[-1][1] == w.deadline
        covered = pieces[0][1]
        for a, b in pieces[1:]:
            assert a <= covered
            covered = max(covered, b)
        assert covered == w.deadline


def test_zero_length_windows_sit_out():
    x = build_instance(
        4, [(i, i + 1, 1) for i in range(3)],
        [(0, 10), (2, 2), (4, 5), (0, 10)],
        [0, 1, 1, 0], 0, 3, 10)
    for builder in (three_split_floor, three_split_ceil):
        fam = builder(x)
        for _l, ver in fam.versions:
            assert ver.rewards[1] == 0
    fam = dyadic_family(build_instance(
        4, [(i, i + 1, 1) for i in range(3)],
        [(0, 10), (2, 2), (4, 5), (0, 10)],
        [0, 1, 1, 0], 0, 3, 10))
    for _l, ver in fam.versions:
        assert ver.rewards[1] == 0


def test_unit_interval_is_a_single_piece():
    parts = dyadic_partition(0, 1)
    assert _pieces(parts) == [(0, 1)]
    assert parts[0].level == 0


def test_equal_windows_collapse_to_one_version():
    x = build_instance(4, [(i, i + 1, 1) for i in range(3)],
                       [(0, 4)] * 4, [1] * 4, 0, 3, 6)
    fam = dyadic_family(x)
    assert [l for l, _ in fam.versions] == ["B1_2"]
    assert fam.beta == 1


def test_dyadic_family_label_map():
    # interior windows [1,6] split into [1,2] + [2,4] + [4,6]
    x = build_instance(4, [(i, i + 1, 1) for i in range(3)],
                       [(0, 6), (1, 6), (1, 6), (0, 6)],
                       [1] * 4, 0, 3, 8)
    fam = dyadic_family(x)
    by_label = {l: ver for l, ver in fam.versions}
    assert by_label["B1_0"].windows[1] == window(1, 2)
    assert by_label["B1_1"].windows[1] == window(2, 4)
    assert by_label["B2_1"].windows[1] == window(4, 6)
    # a vertex with no piece under some label keeps its whole window
    assert by_label["B1_0"].windows[0] == window(0, 6)


def test_derived_windows_skip_the_window_check(monkeypatch):
    # the cut rules, the splits' scaling, l2's time reversal and free-l2's
    # half-unit shifts derive every window from a checked one, so no solve
    # checks a window again; the public constructor still checks
    dense = dict(horizon=F(20), l_low=F(8), l_high=F(16))
    xs = [generate_instance("random-metric", 8, seed, mode=mode, integral=integral, **dense)
          for seed in range(2) for integral in (True, False)
          for mode in ("anchored", "free", "start-only")]
    builders = (three_split_floor, three_split_ceil, five_split)
    families = [builder(x) for x in xs for builder in builders]
    families += [dyadic_family(x) for x in xs[:3]]
    reports = [solve_auto(x) for x in xs]
    for fam in families:
        for _label, ver in fam.versions:
            for w in ver.windows:
                assert type(w.release) is type(w.deadline) is F
                assert w == TimeWindow(w.release, w.deadline)

    def refuse(self):
        raise AssertionError("window checked again")

    monkeypatch.setattr(TimeWindow, "__post_init__", refuse)
    again = [builder(x) for x in xs for builder in builders]
    again += [dyadic_family(x) for x in xs[:3]]
    assert again == families
    assert [solve_auto(x) for x in xs] == reports
    monkeypatch.undo()
    with pytest.raises(PreconditionError, match="exceeds deadline"):
        TimeWindow(3, 1)


# ----- the band family ---------------------------------------------------------

def test_band_family_matches_the_band_split_referee():
    # free-general's split, a cut rule on the skeleton, against the drop
    # split it replaced: the same labels, windows, rewards and views by value
    bands = []
    for n in range(5, 21):
        for integral in (True, False):
            for l_high in (F(2), F(8)):
                x = generate_instance("random-metric", n, n, mode="free", integral=integral,
                                      l_high=l_high)
                zero, _pos = _length_split(x)
                xp = restrict(x, {v: None for v in zero}) if zero else x
                family = band_family(xp)
                assert family.base is xp and family.scale == 1
                got, want = family.versions, ref_band_split(xp)
                assert [label for (label, _y) in got] == [label for (label, _y) in want]
                for (label, y), (_label, ref) in zip(got, want):
                    assert (y.windows, y.rewards) == (ref.windows, ref.rewards), (n, label)
                    assert view_in_fractions(_view(y)) == view_in_fractions(_view(ref))
                    assert_fresh_view(y, _view(y))
                bands.append(len(got))
    assert min(bands) == 1 and max(bands) >= 3


def test_band_family_refuses_without_a_positive_length_window():
    x = line4_instance(windows=(window(0, 5), window(1, 1), window(2, 2), window(0, 5)),
                       rewards=(F(0), F(1), F(1), F(0)))
    with pytest.raises(PreconditionError, match="no positive-length windows"):
        band_family(x)


# ----- the cut rules in integer units against their Fraction referees ---------

CUT_RULES = ((dyadic_family, ref_dyadic_family), (band_family, ref_band_family),
             (three_split_floor, ref_three_split_floor), (three_split_ceil, ref_three_split_ceil),
             (five_split, ref_five_split), (shifted_five_split, ref_shifted_five_split))


def _narrowed(x, picked):
    """x, built whole, with the windows of picked narrowed to their release
    instants."""
    windows = tuple(TimeWindow(w.release, w.release) if v in picked else w
                    for v, w in enumerate(x.windows))
    return TwInstance(x.metric, windows, x.rewards, x.s, x.t, x.budget, x.wait_policy)


def _cut_cases():
    """Seeded n=8 instances on both grids, undirected and directed, in
    every anchor mode, with window lengths 1-2, 3-6 (an integral instance
    whose shortest length is 3 or 5 has an odd unit once scaled) and 1-8;
    each also with every third positive-reward window narrowed to a fixed
    instant, and at seed 0 with all of them narrowed."""
    modes = ("anchored", "free", "start-only")
    for seed in range(6):
        for family in ("random-metric", "directed-random"):
            for integral in (True, False):
                for (low, high) in ((1, 2), (3, 6), (1, 8)):
                    x = generate_instance(family, 8, seed, mode=modes[seed % 3],
                                          integral=integral, l_low=F(low), l_high=F(high))
                    positive = x.positive_vertices()
                    yield x
                    yield _narrowed(x, positive[::3])
                    if seed == 0:
                        yield _narrowed(x, positive)


def _outcome(construct, x):
    try:
        return construct(x)
    except PreconditionError as exc:
        return "refused: %s" % exc


@pytest.mark.parametrize("construct,ref", CUT_RULES, ids=[c.__name__ for (c, _r) in CUT_RULES])
def test_cut_rules_match_their_fraction_referees(construct, ref):
    # each rule cuts the view's ints; its versions' windows, built when
    # read, are the Fraction pieces that the rule cut before
    built, refused, odd = 0, set(), 0
    for k, x in enumerate(_cut_cases()):
        got, want = _outcome(construct, x), _outcome(ref, x)
        if isinstance(want, str):
            assert got == want, k
            refused.add(want)
            continue
        scale, versions = want
        assert type(got.scale) is F and got.scale == scale, k
        assert got.base.windows == tuple(TimeWindow(w.release * scale, w.deadline * scale)
                                         for w in x.windows), k
        assert [label for (label, _y) in got.versions] == [v[0] for v in versions], k
        for (label, y), (_label, windows, rewards) in zip(got.versions, versions):
            assert (y.windows, y.rewards) == (windows, rewards), (k, label)
            assert all(type(w.release) is type(w.deadline) is F for w in y.windows)
            assert all(type(r) is F for r in y.rewards)
            assert_fresh_view(y, _view(y))
        built += 1
        odd += _view(got.base)[0].tscale % 2
    assert built > 50 and refused
    if construct in (five_split, shifted_five_split):
        # some scaled units are odd, so the five-splits widen them by 2
        assert odd
