"""The Fraction fields that a derived instance and a derived metric build on
first read.

An instance built by instance._derived (restrict, drop_vertices,
scale_times, time_reversed, the sink instance, the decompose versions)
leaves its windows unset, and a metric built from ints (metric._from_ints:
the closure, scaled, a directed transposed) leaves d unset; each is built
from the ints on its first read (TwInstance.__getattr__,
Metric.__getattr__).  Read, they must equal an eager build by value and
type, and the instance must behave as one built whole by TwInstance(...):
equality, hash, repr, pickle, deepcopy, frozen fields and unknown
attributes.  A solve reads neither, so solve_auto builds none.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from fractions import Fraction as F

import pytest

from orientw import (EXACT_DEADLINE, EXACT_ORACLE, GREEDY_ORACLE, INF, Metric, TimeWindow,
                     TwInstance, drop_vertices, layered_deadline_oracle, restrict, scale_times,
                     serialize, solve_auto, time_reversed)
from orientw.algorithms import _with_sink
from orientw.decompose import three_split_ceil
from orientw.generate import generate_instance

from conftest import line_metric, ref_three_split_ceil


def _is_set(obj, name) -> bool:
    """Whether obj's slot name holds a value, read without __getattr__."""
    try:
        type(obj).__dict__[name].__get__(obj)
    except AttributeError:
        return False
    return True


def _eager_metric(m: Metric, table) -> Metric:
    """A metric built whole from a table of Fractions and INF."""
    return Metric(m.directed, m.n, tuple(tuple(row) for row in table))


def _whole(x, windows=None, rewards=None, table=None, metric=None, **changed):
    """TwInstance(...) built whole from x's public fields, with the given
    windows, rewards and metric (or distance table) in their place."""
    fields = dict(s=x.s, t=x.t, budget=x.budget, wait_policy=x.wait_policy)
    fields.update(changed)
    if metric is None:
        metric = _eager_metric(x.metric, x.metric.d if table is None else table)
    return TwInstance(metric, tuple(x.windows if windows is None else windows),
                      tuple(x.rewards if rewards is None else rewards), **fields)


def _cases():
    """(name, build, eager) per derivation: build() derives a fresh instance
    from a seeded one, eager is the instance TwInstance(...) builds whole
    from the same public fields, computed in Fractions."""
    for family in ("random-metric", "directed-random"):
        for integral in (True, False):
            x = generate_instance(family, 7, 3, integral=integral)
            d, w, n, budget = x.metric.d, x.windows, x.n, x.budget
            c = F(3, 7)
            yield ("scale", lambda x=x, c=c: scale_times(x, c),
                   _whole(x, [TimeWindow(v.release * c, v.deadline * c) for v in w],
                          table=[[e if e is INF else e * c for e in row] for row in d],
                          budget=budget * c))
            yield ("reverse", lambda x=x: time_reversed(x),
                   _whole(x, [TimeWindow(budget - v.deadline, budget - v.release) for v in w],
                          table=[[d[v][u] for v in range(n)] for u in range(n)],
                          s=x.t, t=x.s))
            half = {2: TimeWindow(w[2].release, (w[2].release + w[2].deadline) / 2), 3: None}
            yield ("restrict", lambda x=x, half=half: restrict(x, half),
                   _whole(x, [half[v] if half.get(v) else w[v] for v in range(n)],
                          [F(0) if v == 3 else x.rewards[v] for v in range(n)]))
            yield ("drop", lambda x=x: drop_vertices(x, {1, 2}),
                   _whole(x, rewards=[x.rewards[v] if v in (1, 2) else F(0) for v in range(n)]))
            scale, ((_label, windows, rewards), *_rest) = ref_three_split_ceil(x)
            yield ("ceil-B1", lambda x=x: three_split_ceil(x).versions[0][1],
                   _whole(x, windows, rewards, [[e if e is INF else e * scale for e in row]
                                                for row in d], budget=budget * scale))
            y = generate_instance(family, 7, 3, mode="start-only", integral=integral)
            sink = ((INF,) * n + (F(0),),)
            yield ("sink", lambda y=y: _with_sink(y),
                   _whole(y, y.windows + (TimeWindow(F(0), y.budget),), y.rewards + (F(0),),
                          metric=Metric(True, n + 1, tuple(tuple(row) + (F(0),)
                                                           for row in y.metric.d) + sink),
                          t=n))


CASES = list(_cases())


def _fresh_reads(eager):
    """Each way a caller reads a derived instance, applied to a fresh one."""
    return {
        "==": lambda y: y == eager,
        "hash": lambda y: hash(y) == hash(eager),
        "repr": lambda y: repr(y) == repr(eager),
        "pickle": lambda y: pickle.loads(pickle.dumps(y)) == eager,
        "deepcopy": lambda y: copy.deepcopy(y) == eager,
        "fields": lambda y: (y.windows, y.metric.d) == (eager.windows, eager.metric.d),
    }


@pytest.mark.parametrize("k", range(len(CASES)), ids=["%s-%d" % (c[0], i) for i, c in
                                                       enumerate(CASES)])
def test_a_derived_instance_reads_as_one_built_whole(k):
    name, build, eager = CASES[k]
    assert not _is_set(build(), "windows")
    for read, check in _fresh_reads(eager).items():
        assert check(build()), (name, read)
    y = build()
    assert all(type(w.release) is type(w.deadline) is F for w in y.windows)
    assert all(e is INF or type(e) is F for row in y.metric.d for e in row)
    # built once: a second read returns the same objects
    assert y.windows is y.windows and y.metric.d is y.metric.d
    with pytest.raises(dataclasses.FrozenInstanceError):
        build().windows = eager.windows
    with pytest.raises(dataclasses.FrozenInstanceError):
        y.metric.d = eager.metric.d
    for obj in (build(), build().metric):
        with pytest.raises(AttributeError, match="object has no attribute 'nowhere'"):
            obj.nowhere
        assert getattr(obj, "nowhere", 7) == 7


def test_a_closure_builds_its_fractions_when_read():
    m = line_metric(5)
    assert not _is_set(m, "d")
    assert m.d == tuple(tuple(F(abs(u - v)) for v in range(5)) for u in range(5))
    assert all(type(e) is F for row in m.d for e in row)
    assert m == _eager_metric(m, m.d) and hash(line_metric(5)) == hash(_eager_metric(m, m.d))
    assert pickle.loads(pickle.dumps(line_metric(5))) == m == copy.deepcopy(line_metric(5))


MODES = ("anchored", "start-only", "free")
PAIRS = {"exact": (EXACT_ORACLE, EXACT_DEADLINE),
         "greedy": (GREEDY_ORACLE, layered_deadline_oracle(GREEDY_ORACLE))}


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("mode", MODES)
def test_solve_auto_builds_no_lazy_field(monkeypatch, mode, pair):
    builds = []
    for cls in (TwInstance, Metric):
        def counting(self, name, real=cls.__getattr__):
            if name in ("windows", "d"):
                builds.append((type(self).__name__, name))
            return real(self, name)

        monkeypatch.setattr(cls, "__getattr__", counting)
    dense = dict(horizon=F(20), l_low=F(8), l_high=F(16))
    solved = 0
    for seed in range(3):
        for family in ("random-metric", "directed-random"):
            for integral in (True, False):
                for shape in ({}, dense):
                    x = generate_instance(family, 12 if shape else 16, seed, mode=mode,
                                          integral=integral, **shape)
                    # loaded as a caller loads it: the metric's d is not built
                    x = serialize.loads(serialize.dumps(x))
                    assert not _is_set(x.metric, "d")
                    builds.clear()
                    solve_auto(x, *PAIRS[pair])
                    assert builds == [], (seed, family, integral, bool(shape))
                    solved += 1
    assert solved == 24
