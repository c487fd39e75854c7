"""An instance's integer view (instance._view) against the Fraction code it
replaced.

window_stats, algorithms._length_split and _reach, and modular's
blocks_from_identical_windows, verify_modular and _release_groups read the
view, which holds the instance's Units and each vertex's (release,
deadline, reward) as ints, one per metric, windows and rewards object per
solve.  Each is held to its Fraction referee in conftest (ref_*), results,
messages and refusal texts included, outside a solve and inside one, on
every instance the solvers read a view for.  Block bounds off the view's
scale go through verify_modular and solve_reward_indexed, whose DP units
(modular.dp_units) then leave the view's.  Once a view is built, none of
these readers compares Fractions: verify_modular cross-multiplies a
block's bounds as integer pairs.
"""

from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction as F

import pytest

import orientw.algorithms as algorithms
import orientw.instance as instance
import orientw.memo as memo
import orientw.modular as modular
from orientw import (ContainmentError, EXACT_DEADLINE, EXACT_ORACLE, ModularBlock,
                     ModularPartition, PreconditionError, TimeWindow, TwInstance, brute_force_opt,
                     drop_vertices, five_split, restrict, scale_times, solve_auto, time_reversed,
                     window_stats)
from orientw.algorithms import _length_split, _reach, _with_sink
from orientw.generate import generate_instance
from orientw.instance import ANCHORED, FREE, START_ONLY, _view
from orientw.modular import (_release_group_solve, _release_groups, blocks_from_identical_windows,
                             dp_units, solve_reward_indexed, verify_modular)

from conftest import (line4_instance, line_metric, ref_blocks_from_identical_windows,
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
    # a block's bounds are its members' own window Fractions
    assert all(any(x.windows[v].release is b.release and x.windows[v].deadline is b.deadline
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


def _off_scale_outcomes(x, parts) -> dict:
    out = {}
    for name, part in parts.items():
        problems = verify_modular(x, part)
        assert problems == ref_verify_modular(x, part), name
        bounds = [t for b in part.blocks for t in (b.release, b.deadline)]
        out[name] = (problems, dp_units(x, times=bounds).tscale)
        if not problems:
            res = solve_reward_indexed(x, part, EXACT_ORACLE)
            restricted = restrict(x, {v: TimeWindow(b.release, b.deadline)
                                      for b in part.blocks for v in b.members})
            assert res.claimed == res.walk.reward == brute_force_opt(restricted).reward, name
            out[name] += (res.claimed,)
    return out


def test_block_bounds_off_the_view_scale():
    x, parts = _thirds_and_sevenths()
    assert _view(x)[0].tscale == 1
    expected = {"both": ([], 3, 2), "one": ([], 21, 1), "meets": ([], 1, 2),
                "misses": (["vertex 1 window does not contain block 0 interval",
                            "vertex 2 window does not contain block 1 interval"], 21)}
    assert _off_scale_outcomes(x, parts) == expected
    with memo._one_solve():
        for _ in range(2):
            assert _off_scale_outcomes(x, parts) == expected


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

def _full(view) -> tuple:
    units, span = view
    return units.tscale, units.rscale, [tuple(row) for row in units.table], span


def _kept_view(y):
    """y's view as the solve's memo holds it, or None."""
    hit = memo._MEMO.get().get(("view", id(y.metric), id(y.windows), id(y.rewards)))
    return None if hit is None else hit[2]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("integral", [True, False])
@pytest.mark.parametrize("mode", [ANCHORED, START_ONLY, FREE])
def test_every_view_a_solve_reads_equals_a_fresh_one(monkeypatch, mode, integral, shape):
    # derived from a parent's view (instance._derived) or built when read,
    # every view solve_auto reads has _scoring's scales, table and span
    x = generate_instance("random-metric", seed=1, mode=mode, integral=integral, **SHAPES[shape])
    real_view, real_scoring = instance._view, instance._scoring
    checked, built = {}, []

    def recording(y):
        view = real_view(y)
        if id(y) not in checked:
            checked[id(y)] = y
            assert _full(view) == _full(real_scoring(y, [])), (mode, integral, shape)
        return view

    def counting(y, times):
        built.append(y)
        return real_scoring(y, times)

    with monkeypatch.context() as patched:
        patched.setattr(instance, "_scoring", counting)
        for module in (instance, modular, algorithms):
            patched.setattr(module, "_view", recording)
        report = solve_auto(x)
    assert report == solve_auto(x)
    distinct = {(id(y.metric), id(y.windows), id(y.rewards)) for y in checked.values()}
    # only x's own view and those off their parent's scale are built: the
    # anchored splits cut on the integers of their scaled base, the free
    # split (shifted_five_split) on its half-grid
    if mode == FREE:
        assert 1 <= len(built) < len(distinct)
    else:
        assert built == [x] and len(distinct) > 5


def _halves_instance():
    """A free instance on integral windows of lengths 1 and 2, which
    five_split cuts on the half-grid without scaling."""
    return line4_instance(s=None, t=None, rewards=(F(0), F(1), F(1), F(0)),
                          windows=(window(0, 5), window(1, 2), window(2, 4), window(0, 5)))


def test_views_off_the_parent_scale_are_built_when_read():
    x = _halves_instance()
    with memo._one_solve():
        assert _view(x)[0].tscale == 1
        halves = [ver for (_label, ver) in five_split(x).versions]
        seventh = restrict(x, {1: TimeWindow(F(8, 7), F(2))})
        whole = restrict(x, {2: window(3, 4)})
        # off x's scale no view is derived, and the one built when read is fresh
        for y in halves + [seventh]:
            assert _kept_view(y) is None
            assert _full(_view(y)) == _full(instance._scoring(y, []))
        assert [_view(y)[0].tscale for y in halves] == [2] * len(halves)
        assert _view(seventh)[0].tscale == 7
        # on it, the derived view is kept before anyone reads it
        assert _full(_kept_view(whole)) == _full(instance._scoring(whole, []))


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
        for (x, v, r, d) in contained:
            assert restrict(x, {v: TimeWindow(r, d)}).windows[v] == TimeWindow(r, d)


def _mixed_instance():
    """line4 with windows in thirds and quarters and rewards in halves and
    thirds, so the transforms can both keep and cut each scale."""
    return line4_instance(budget=F(6), rewards=(F(0), F(1, 2), F(2, 3), F(1)),
                          windows=(window(0, 6), TimeWindow(F(1, 3), F(8, 3)),
                                   TimeWindow(F(3, 4), F(5)), window(1, 6)))


def test_each_transform_derives_the_view_it_builds():
    x = _mixed_instance()
    start_only = line4_instance(budget=F(6), t=None, windows=x.windows, rewards=x.rewards)
    with memo._one_solve():
        assert _full(_view(x))[:2] == (12, 6)
        derived = {
            "restrict": restrict(x, {1: TimeWindow(F(2, 3), F(7, 3)), 2: None}),
            # the only thirds become whole, the only thirds in rewards go
            "restrict, cut": restrict(x, {1: window(1, 2), 2: None}),
            "drop": drop_vertices(x, {1, 3}),
            "drop, cut": drop_vertices(x, {3}),
            "scale 3/7": scale_times(x, F(3, 7)),
            "scale 4": scale_times(x, F(4)),
            "scale 1/12": scale_times(x, F(1, 12)),
            "reversed": time_reversed(x),
            "sink": _with_sink(start_only),
        }
        scales = {}
        for name, y in derived.items():
            view = _kept_view(y)
            assert view is not None, name
            assert _full(view) == _full(instance._scoring(y, [])), name
            scales[name] = view[0].tscale, view[0].rscale
    assert scales == {"restrict": (12, 2), "restrict, cut": (4, 2), "drop": (12, 2),
                      "drop, cut": (12, 1), "scale 3/7": (28, 6), "scale 4": (3, 6),
                      "scale 1/12": (144, 6), "reversed": (12, 6), "sink": (12, 6)}


def test_no_view_is_derived_outside_a_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("a view derived outside a solve")

    monkeypatch.setattr(instance, "_least", refuse)
    x = _mixed_instance()
    restrict(x, {1: window(1, 2), 2: None})
    drop_vertices(x, {3})
    scale_times(x, F(3, 7))
    time_reversed(x)
    _with_sink(line4_instance(t=None))
    five_split(_halves_instance())
    assert memo._MEMO.get() is None
