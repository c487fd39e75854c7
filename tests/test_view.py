"""An instance's integer view (instance._view) against the Fraction code it
replaced.

window_stats, algorithms._length_split and _reach, and modular's
blocks_from_identical_windows, verify_modular and _release_groups read the
view, which holds the instance's Units and each vertex's (release,
deadline, reward) as ints, one per instance: built on first read, or
derived from the parent's by the transform that made the instance.  Each
reader is held to its Fraction referee in conftest (ref_*), results,
messages and refusal texts included, outside a solve and inside one, on
every instance the solvers read a view for, and every view to a fresh one
by value (assert_fresh_view).  Block bounds off the view's scale go
through verify_modular and solve_reward_indexed, which widens the view's
units for them alone.  Once a view is built, none of these readers
compares Fractions: verify_modular cross-multiplies a block's bounds as
integer pairs.
"""

from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction as F

import pytest

import orientw.algorithms as algorithms
import orientw.instance as instance
import orientw.memo as memo
import orientw.modular as modular
from orientw import (ALGORITHMS, ContainmentError, EXACT_DEADLINE, EXACT_ORACLE, ModularBlock,
                     ModularPartition, PreconditionError, TimeWindow, TwInstance, brute_force_opt,
                     drop_vertices, five_split, restrict, run_algorithm, scale_times, solve_auto,
                     time_reversed, window_stats)
from orientw.algorithms import _length_split, _reach, _with_sink
from orientw.generate import generate_instance
from orientw.instance import ANCHORED, FREE, START_ONLY, _view
from orientw.modular import (_release_group_solve, _release_groups, blocks_from_identical_windows,
                             solve_reward_indexed, verify_modular)

from conftest import (assert_fresh_view, line4_instance, line_metric,
                      ref_blocks_from_identical_windows,
                      ref_length_split, ref_reach, ref_release_groups, ref_verify_modular,
                      ref_window_stats, window)

SHAPES = {"sparse n=20": dict(n=20),
          "dense n=6": dict(n=6, horizon=F(20), l_low=F(8), l_high=F(16))}


def _outcome(f, *args):
    """f(*args), or its refusal's text."""
    try:
        return f(*args)
    except PreconditionError as exc:
        return "refused: %s" % exc


def _groups_in_fractions(x) -> list:
    tscale = _view(x)[0].tscale
    return [(F(rel, tscale), members, F(dmax, tscale))
            for (rel, members, dmax) in _release_groups(x)]


def _read_instances(monkeypatch, x) -> list:
    """x and every instance whose view solve_auto(x) reads, each once."""
    seen = {id(x): x}

    def recording(y):
        seen.setdefault(id(y), y)
        return real(y)

    real = instance._view
    with monkeypatch.context() as patched:
        for module in (instance, modular, algorithms):
            patched.setattr(module, "_view", recording)
        solve_auto(x)
    return list(seen.values())


def _problems_against_referees(x, other) -> list:
    """Assert every reader of x's view equals its referee; return what
    verify_modular found in x's own partition and in other's."""
    stats = window_stats(x)
    assert stats == ref_window_stats(x)
    assert all(value is None or type(value) is F for value in vars(stats).values())
    assert _length_split(x) == ref_length_split(x)
    reach = _reach(x)
    assert type(reach) is F and reach == ref_reach(x)
    part = blocks_from_identical_windows(x)
    assert part == ref_blocks_from_identical_windows(x)
    # a block's bounds equal its members' windows by value
    assert all(any(x.windows[v].release == b.release and x.windows[v].deadline == b.deadline
                   for v in b.members) for b in part.blocks)
    problems = []
    for p in (part, blocks_from_identical_windows(other)):
        found = verify_modular(x, p)
        assert found == ref_verify_modular(x, p)
        problems += found
    assert _outcome(_groups_in_fractions, x) == _outcome(ref_release_groups, x)
    return problems


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("integral", [True, False])
@pytest.mark.parametrize("mode", [ANCHORED, START_ONLY, FREE])
def test_view_readers_match_their_fraction_referees(monkeypatch, mode, integral, shape):
    x = generate_instance("random-metric", seed=1, mode=mode, integral=integral, **SHAPES[shape])
    read = _read_instances(monkeypatch, x)
    assert len(read) > 2
    # each instance's partition is checked against the next one's too, so
    # the windows of one version meet the blocks of another
    pairs = list(zip(read, read[1:] + read[:1]))
    outside = [_problems_against_referees(y, other) for (y, other) in pairs]
    assert any(outside)
    with memo._one_solve():
        for _ in range(2):
            assert [_problems_against_referees(y, other) for (y, other) in pairs] == outside


def _thirds_and_sevenths():
    """line4 with integral windows (its view's tscale is 1) and partitions
    whose block bounds are thirds and sevenths: the members' windows
    contain them, exactly meet them, or miss them by a seventh."""
    x = line4_instance(rewards=(F(0), F(1), F(1), F(0)))
    one, two = frozenset({1}), frozenset({2})
    parts = {
        "both": (ModularBlock(one, F(4, 3), F(5, 3)), ModularBlock(two, F(7, 3), F(8, 3))),
        "one": (ModularBlock(one, F(4, 3), F(5, 3)), ModularBlock(two, F(15, 7), F(16, 7))),
        "meets": (ModularBlock(one, F(1), F(2)), ModularBlock(two, F(2), F(3))),
        "misses": (ModularBlock(one, F(6, 7), F(5, 3)), ModularBlock(two, F(15, 7), F(22, 7))),
    }
    return x, {name: ModularPartition(blocks) for name, blocks in parts.items()}


def _off_scale_outcomes(monkeypatch, x, parts) -> dict:
    """Per partition: what verify_modular finds and, when it finds nothing,
    the tscale of the units that solve_reward_indexed runs its label loop
    in and the DP's claim."""
    out, ran = {}, []
    real = modular._label_loop

    def recorded(y, units, steps):
        ran.append(units.tscale)
        return real(y, units, steps)

    monkeypatch.setattr(modular, "_label_loop", recorded)
    for name, part in parts.items():
        problems = verify_modular(x, part)
        assert problems == ref_verify_modular(x, part), name
        out[name] = (problems, None)
        if not problems:
            res = solve_reward_indexed(x, part, EXACT_ORACLE)
            restricted = restrict(x, {v: TimeWindow(b.release, b.deadline)
                                      for b in part.blocks for v in b.members})
            assert res.claimed == res.walk.reward == brute_force_opt(restricted).reward, name
            out[name] = (problems, ran.pop(), res.claimed)
    assert ran == []
    return out


def test_block_bounds_off_the_view_scale(monkeypatch):
    x, parts = _thirds_and_sevenths()
    assert _view(x)[0].tscale == 1
    expected = {"both": ([], 3, 2), "one": ([], 21, 1), "meets": ([], 1, 2),
                "misses": (["vertex 1 window does not contain block 0 interval",
                            "vertex 2 window does not contain block 1 interval"], None)}
    assert _off_scale_outcomes(monkeypatch, x, parts) == expected
    with memo._one_solve():
        for _ in range(2):
            assert _off_scale_outcomes(monkeypatch, x, parts) == expected


def test_release_groups_that_overrun_are_refused_with_their_fraction():
    x = line4_instance(windows=(window(0, 5), TimeWindow(F(1, 3), F(5, 2)),
                                TimeWindow(F(1, 2), F(2)), window(0, 5)),
                       rewards=(F(0), F(1), F(1), F(0)))
    refusal = "refused: windows released at 1/3 overrun the next release"
    assert _outcome(ref_release_groups, x) == refusal
    for opened in (False, True):
        with memo._one_solve() if opened else nullcontext():
            for _ in range(2):
                assert _outcome(_groups_in_fractions, x) == refusal
                assert _outcome(_release_group_solve, x, EXACT_DEADLINE) == refusal


# ----- no Fraction comparisons once the view is built -------------------------

@pytest.fixture
def comparisons(monkeypatch) -> list:
    """A one-item list counting the rich comparisons of Fractions made."""
    counted = [0]
    for name in ("__lt__", "__gt__", "__le__", "__ge__"):
        def counting(a, b, real=getattr(F, name)):
            counted[0] += 1
            return real(a, b)
        monkeypatch.setattr(F, name, counting)
    return counted


@pytest.mark.parametrize("mode", [ANCHORED, START_ONLY, FREE])
def test_view_readers_compare_no_fractions_once_the_view_is_built(monkeypatch, comparisons,
                                                                  mode):
    for shape in sorted(SHAPES):
        x = generate_instance("random-metric", seed=2, mode=mode, **SHAPES[shape])
        read = _read_instances(monkeypatch, x)
        with memo._one_solve():
            for y in read:
                _view(y)
            comparisons[0] = 0
            for y in read:
                window_stats(y)
                _length_split(y)
                _reach(y)
                blocks_from_identical_windows(y)
                _outcome(_release_groups, y)
            assert comparisons[0] == 0, shape


def _per_block_partitions():
    """Partitions of line4 (budget 5) whose block bounds, thirds and
    sevenths off the view's scale, trip each per-block check: reversed,
    below 0, past the budget, out of order, or only just in order."""
    one, two = frozenset({1}), frozenset({2})
    cases = {
        "reversed": ((F(5, 3), F(4, 3)),),
        "below zero": ((F(-1, 3), F(5, 3)),),
        "past the budget": ((F(4, 3), F(36, 7)),),
        "at the budget": ((F(4, 3), F(35, 7)),),
        "out of order": ((F(4, 3), F(16, 7)), (F(15, 7), F(8, 3))),
        "in order": ((F(4, 3), F(15, 7)), (F(15, 7), F(8, 3))),
    }
    return {name: ModularPartition(tuple(ModularBlock(members, r, d) for (members, (r, d))
                                         in zip((one, two), bounds)))
            for name, bounds in cases.items()}


def test_verify_modular_compares_fractions_per_block_not_per_member(comparisons):
    n = 10
    x = TwInstance(line_metric(n), (window(0, 9),) * n, (F(1),) * n, 0, n - 1, F(9))
    counts = []
    with memo._one_solve():
        _view(x)
        for k in range(1, n + 1):
            part = ModularPartition((ModularBlock(frozenset(range(k)), F(1, 2), F(3)),))
            comparisons[0] = 0
            problems = verify_modular(x, part)
            counts.append(comparisons[0])
            assert problems == ref_verify_modular(x, part)
    assert counts == [counts[0]] * n


def test_verify_modular_checks_each_block_on_integers(comparisons):
    # every per-block check, off the view's scale, against its referee and
    # with no Fraction compared
    x = line4_instance(rewards=(F(0), F(1), F(1), F(0)))
    found = {}
    with memo._one_solve():
        _view(x)
        for name, part in _per_block_partitions().items():
            comparisons[0] = 0
            found[name] = verify_modular(x, part)
            assert comparisons[0] == 0, name
            assert found[name] == ref_verify_modular(x, part), name
    assert "block 0 interval is reversed" in found["reversed"]
    assert "block 0 interval leaves [0, budget]" in found["below zero"]
    assert "block 0 interval leaves [0, budget]" in found["past the budget"]
    assert "blocks 0 and 1 are out of order" in found["out of order"]
    assert not any("budget" in p or "order" in p
                   for p in found["at the budget"] + found["in order"])


# ----- derived views -------------------------------------------------------------

@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("integral", [True, False])
@pytest.mark.parametrize("mode", [ANCHORED, START_ONLY, FREE])
def test_every_view_a_solve_reads_equals_a_fresh_one(monkeypatch, mode, integral, shape):
    # derived from a parent's view (instance._derived), every view that
    # solve_auto and each solver run on x read makes its instance's times
    # whole and equals _scoring's by value; only x's own view is scored,
    # once over all of them and a second solve_auto
    x = generate_instance("random-metric", seed=1, mode=mode, integral=integral, **SHAPES[shape])
    real_view, real_scoring = instance._view, instance._scoring
    checked, built = {}, []

    def recording(y):
        view = real_view(y)
        if id(y) not in checked:
            checked[id(y)] = y
            assert_fresh_view(y, view)
        return view

    def counting(y, times):
        built.append(y)
        return real_scoring(y, times)

    with monkeypatch.context() as patched:
        patched.setattr(instance, "_scoring", counting)
        for module in (instance, modular, algorithms):
            patched.setattr(module, "_view", recording)
        report = solve_auto(x)
        for name in sorted(ALGORITHMS):
            _outcome(run_algorithm, name, x)
        assert built == [x] and len(checked) > 5
        assert solve_auto(x) == report and built == [x]


def _halves_instance():
    """A free instance on integral windows of lengths 1 and 2, which
    five_split cuts on the half-grid without scaling."""
    return line4_instance(s=None, t=None, rewards=(F(0), F(1), F(1), F(0)),
                          windows=(window(0, 5), window(1, 2), window(2, 4), window(0, 5)))


def test_views_off_the_parent_scale_widen_its_scales():
    # a derived view keeps its parent's scales, widened only by a new
    # window's denominator: the half-grid pieces of an integral instance go
    # to halves, a piece in sevenths to sevenths, and one in sevenths of a
    # half-grid version to fourteenths
    x = _halves_instance()
    assert (_view(x)[0].tscale, _view(x)[0].rscale) == (1, 1)
    halves = [ver for (_label, ver) in five_split(x).versions]
    seventh = restrict(x, {1: TimeWindow(F(8, 7), F(2))})
    whole = restrict(x, {2: window(3, 4)})
    both = restrict(halves[0], {2: TimeWindow(F(15, 7), F(5, 2))})
    for y in halves + [seventh, whole, both]:
        assert y._integer_view is not None
        assert_fresh_view(y, _view(y))
    assert [_view(y)[0].tscale for y in halves] == [2] * len(halves)
    assert [_view(y)[0].tscale for y in (seventh, whole, both)] == [7, 1, 14]
    assert {_view(y)[0].rscale for y in halves + [seventh, whole, both]} == {1}


@pytest.mark.parametrize("opened", [False, True])
def test_containment_is_refused_with_the_fraction_text(opened):
    # on integral windows (the view's tscale is 1) and on thirds and
    # quarters (12), by pieces in sevenths, sixths and halves
    halves, mixed = _halves_instance(), _mixed_instance()
    refused = {
        (halves, 1, F(6, 7), F(2)): "vertex 1: window [6/7, 2] escapes [1, 2]",
        (halves, 1, F(1), F(15, 7)): "vertex 1: window [1, 15/7] escapes [1, 2]",
        (halves, 2, F(3, 2), F(4)): "vertex 2: window [3/2, 4] escapes [2, 4]",
        (mixed, 1, F(1, 4), F(2)): "vertex 1: window [1/4, 2] escapes [1/3, 8/3]",
        (mixed, 1, F(1, 3), F(17, 6)): "vertex 1: window [1/3, 17/6] escapes [1/3, 8/3]",
        (mixed, 2, F(5, 7), F(5)): "vertex 2: window [5/7, 5] escapes [3/4, 5]",
        (mixed, 2, F(3, 4), F(36, 7)): "vertex 2: window [3/4, 36/7] escapes [3/4, 5]",
    }
    contained = [(halves, 1, F(1), F(2)), (mixed, 1, F(1, 3), F(8, 3)),
                 (mixed, 1, F(3, 7), F(5, 2)), (mixed, 2, F(5, 6), F(35, 7))]
    with memo._one_solve() if opened else nullcontext():
        for (x, v, r, d), text in refused.items():
            with pytest.raises(ContainmentError) as refusal:
                restrict(x, {0: None, v: TimeWindow(r, d)})
            assert str(refusal.value) == text
        # ids are checked in increasing order, each refused by the first
        # check it fails, whichever kind
        line = generate_instance("line", 5, 1)
        escaping = TimeWindow(F(0), F(1000))
        with pytest.raises(ContainmentError, match=r"^vertex 2: window \[0, 1000\] escapes "
                                                   r"\[55/4, 61/4\]$"):
            restrict(line, {2: escaping, 99: None})
        with pytest.raises(PreconditionError, match=r"^vertex -1 outside 0\.\.4$") as refusal:
            restrict(line, {-1: None, 2: escaping})
        assert type(refusal.value) is PreconditionError
        for (x, v, r, d) in contained:
            assert restrict(x, {v: TimeWindow(r, d)}).windows[v] == TimeWindow(r, d)


def _mixed_instance():
    """line4 with windows in thirds and quarters and rewards in halves and
    thirds, so the transforms can keep each scale where a fresh view would
    cut it."""
    return line4_instance(budget=F(6), rewards=(F(0), F(1, 2), F(2, 3), F(1)),
                          windows=(window(0, 6), TimeWindow(F(1, 3), F(8, 3)),
                                   TimeWindow(F(3, 4), F(5)), window(1, 6)))


def test_each_transform_derives_the_view_it_builds():
    # with or without an open solve, each transform derives its output's
    # view from x's, before anyone reads it: x's scales (12, 6), widened
    # only by a scale's or a new window's denominator, never cut
    x = _mixed_instance()
    start_only = line4_instance(budget=F(6), t=None, windows=x.windows, rewards=x.rewards)
    for opened in (False, True):
        with memo._one_solve() if opened else nullcontext():
            assert (_view(x)[0].tscale, _view(x)[0].rscale) == (12, 6)
            derived = {
                "restrict": restrict(x, {1: TimeWindow(F(2, 3), F(7, 3)), 2: None}),
                "restrict, whole": restrict(x, {1: window(1, 2), 2: None}),
                "restrict, sevenths": restrict(x, {1: TimeWindow(F(3, 7), F(2))}),
                "drop": drop_vertices(x, {1, 3}),
                "drop all but 3": drop_vertices(x, {3}),
                "scale 3/7": scale_times(x, F(3, 7)),
                "scale 4": scale_times(x, F(4)),
                "scale 1/12": scale_times(x, F(1, 12)),
                "reversed": time_reversed(x),
                "sink": _with_sink(start_only),
            }
            scales = {}
            for name, y in derived.items():
                view = y._integer_view
                assert view is not None, name
                assert_fresh_view(y, view)
                scales[name] = view[0].tscale, view[0].rscale
        assert scales == {"restrict": (12, 6), "restrict, whole": (12, 6),
                          "restrict, sevenths": (84, 6), "drop": (12, 6),
                          "drop all but 3": (12, 6), "scale 3/7": (84, 6), "scale 4": (12, 6),
                          "scale 1/12": (144, 6), "reversed": (12, 6), "sink": (12, 6)}, opened
    assert memo._MEMO.get() is None


def test_time_reversal_keeps_an_undirected_metric_and_its_table():
    # an undirected metric is its own transpose, so the reversed instance
    # and its view keep x's; a directed one is still transposed
    x = _mixed_instance()
    assert not x.metric.directed
    y = time_reversed(x)
    assert y.metric is x.metric and _view(y)[0].table is _view(x)[0].table
    directed = generate_instance("directed-random", 6, 1)
    assert directed.metric.directed
    z = time_reversed(directed)
    assert z.metric is not directed.metric
    assert z.metric.d == tuple(zip(*directed.metric.d)) != directed.metric.d
    assert_fresh_view(z, _view(z))


def test_a_view_not_derived_is_built_when_read(monkeypatch):
    # a solve scores only the instance it is handed, once, on the view's
    # first read; every transform and the sink instance hand _derived the
    # view they derive from their parent's
    built, derived = [], []
    real_scoring, real_derived = instance._scoring, instance._derived

    def counting(z, times):
        built.append(z)
        return real_scoring(z, times)

    def deriving(z, tscale, span, **changed):
        y = real_derived(z, tscale, span, **changed)
        assert y._integer_view[0].tscale == tscale and y._integer_view[1] is span
        derived.append(y)
        return y

    monkeypatch.setattr(instance, "_scoring", counting)
    for module in (instance, algorithms):
        monkeypatch.setattr(module, "_derived", deriving)
    for mode in (ANCHORED, START_ONLY, FREE):
        for shape in SHAPES.values():
            built.clear()
            derived.clear()
            x = generate_instance("random-metric", seed=3, mode=mode, **shape)
            solve_auto(x)
            assert built == [x] and derived
