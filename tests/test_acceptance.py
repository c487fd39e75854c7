"""Acceptance suite: one test per published guarantee, checked exactly.

Each test sweeps seeded random instances, compares solver output against the
exhaustive optimum with rational arithmetic (no float tolerance anywhere),
and enforces the stated wall-clock budget.  Run with -v to get the one
pass/fail line per criterion.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction as F

import pytest

from orientw import (ALGORITHMS, EXACT_DEADLINE, EXACT_ORACLE,
                     PreconditionError, TwInstance, brute_force_opt,
                     dyadic_family, dyadic_partition, evaluate_walk,
                     five_split, reduce_deadline_to_tw, run_algorithm,
                     solve_free_l_le_2, solve_general,
                     solve_integer_endpoints, solve_l_le_2,
                     solve_reward_indexed, three_split_ceil,
                     three_split_floor, window_stats, zero_window_dp)
from orientw.bench import bench_rows, rows_to_csv
from orientw.generate import (gen_deadline_instance, gen_general_instance,
                              gen_integer_instance, gen_modular_instance,
                              gen_ratio2_instance, gen_zero_window_instance)

from conftest import solve_time_indexed


def ceil_log2(x: F) -> int:
    """Smallest j >= 0 with 2**j >= x; the dyadic depth in the stated bounds."""
    j = 0
    while 2 ** j < x:
        j += 1
    return j


def _stopwatch(limit_s):
    start = time.monotonic()
    def check():
        took = time.monotonic() - start
        assert took < limit_s, "exceeded the %ds budget (%.1fs)" % (limit_s, took)
        return took
    return check


def test_criterion_01_dyadic_partition_suite():
    done = _stopwatch(5)
    for a in range(0, 256):
        for b in range(a + 1, 257):
            parts = dyadic_partition(a, b)
            assert parts[0].lo == a and parts[-1].hi == b
            per_length = {}
            prev_hi = a
            for p in parts:
                assert p.lo == prev_hi
                prev_hi = p.hi
                size = p.hi - p.lo
                assert size == 2 ** p.level
                assert p.lo % size == 0
                per_length[size] = per_length.get(size, 0) + 1
            assert all(c <= 2 for c in per_length.values())
            if b - a >= 2:
                assert len(parts) <= 2 * math.ceil(math.log2(b - a))
    done()


def test_criterion_02_restriction_pigeonhole_suite():
    done = _stopwatch(600)
    builders = [
        (dyadic_family, lambda s: gen_integer_instance(s, l_max=8)),
        (three_split_floor, gen_ratio2_instance),
        (three_split_ceil, lambda s: gen_general_instance(s, l_cap=6)),
        (five_split, lambda s: gen_ratio2_instance(s, mode="free")),
    ]
    for build, make in builders:
        for seed in range(100):
            x = make(seed)
            fam = build(x)
            beta = len(fam.versions)
            assert beta >= 1, (build.__name__, seed)
            opt = brute_force_opt(fam.base).reward
            best = max(brute_force_opt(ver).reward for _l, ver in fam.versions)
            assert best * beta >= opt, (build.__name__, seed, best, beta, opt)
    done()


def test_criterion_03_modular_dp_exactness_suite():
    done = _stopwatch(600)
    for seed in range(100):
        x, part = gen_modular_instance(seed)
        opt = brute_force_opt(x).reward
        for solver in (solve_time_indexed, solve_reward_indexed):
            res = solver(x, part, EXACT_ORACLE)
            assert res.claimed == opt, (seed, solver.__name__, res.claimed, opt)
            assert res.walk.feasible and res.walk.reward == opt
    done()


def test_criterion_04_integer_endpoint_bound_suite():
    done = _stopwatch(900)
    for seed in range(100):
        x = gen_integer_instance(seed, l_max=16)
        opt = brute_force_opt(x).reward
        rep = solve_integer_endpoints(x)
        st = window_stats(x)
        assert rep.walk.feasible
        if st.l_max is None or st.l_max <= 1:
            assert rep.walk.reward >= opt, (seed, rep.walk.reward, opt)
        else:
            divisor = 2 * ceil_log2(st.l_max)
            assert rep.walk.reward * divisor >= opt, (seed, rep.walk.reward, opt)
    done()


def test_criterion_05_ratio_two_bound_suite():
    done = _stopwatch(900)
    for seed in range(100):
        x = gen_ratio2_instance(seed)
        opt = brute_force_opt(x).reward
        rep = solve_l_le_2(x)
        floor_third = F(math.ceil(opt / 3))
        assert rep.walk.reward >= floor_third, (seed, rep.walk.reward, opt)
    done()


def test_criterion_06_general_bound_suite():
    done = _stopwatch(900)
    for seed in range(100):
        x = gen_general_instance(seed, l_cap=8)
        opt = brute_force_opt(x).reward
        rep = solve_general(x)
        st = window_stats(x)
        ratio = st.l_ratio if st.l_ratio is not None else F(1)
        divisor = 3 * 2 * max(1, ceil_log2(ratio))
        assert rep.walk.reward * divisor >= opt, (seed, rep.walk.reward, opt, divisor)
    done()


def test_criterion_07_free_endpoint_bound_suite():
    done = _stopwatch(900)
    for seed in range(100):
        x = gen_ratio2_instance(seed, mode="free")
        opt = brute_force_opt(x).reward
        rep = solve_free_l_le_2(x)
        floor_fifth = F(math.ceil(opt / 5))
        assert rep.walk.reward >= floor_fifth, (seed, rep.walk.reward, opt)
    done()


def test_criterion_08_deadline_reduction_suite():
    done = _stopwatch(600)
    for seed in range(100):
        x = gen_deadline_instance(seed)
        y = reduce_deadline_to_tw(x)
        st = window_stats(y)
        assert st.l_ratio is None or st.l_ratio <= 2, (seed, st.l_ratio)
        assert brute_force_opt(y).reward == brute_force_opt(x).reward, seed
    done()


def test_criterion_09_fixed_instant_dp_suite():
    done = _stopwatch(120)
    for seed in range(100):
        x = gen_zero_window_instance(seed)
        rep = zero_window_dp(x)
        opt = brute_force_opt(x).reward
        assert rep.walk.reward == opt, (seed, rep.walk.reward, opt)
        assert rep.bound == 1
    done()


def test_criterion_10_walk_integrity_and_determinism():
    # every emitted walk must replay on the instance it was solved for
    pool = ([("int%d" % s, gen_integer_instance(s, l_max=8)) for s in range(8)] +
            [("r2%d" % s, gen_ratio2_instance(s)) for s in range(8)] +
            [("fr%d" % s, gen_ratio2_instance(s, mode="free")) for s in range(8)] +
            [("zw%d" % s, gen_zero_window_instance(s)) for s in range(8)])
    for _name, x in pool:
        for algo in sorted(ALGORITHMS):
            try:
                rep = run_algorithm(algo, x, EXACT_ORACLE, EXACT_DEADLINE)
            except PreconditionError:
                continue
            order = [(v, c) for (v, _t, c) in rep.walk.schedule]
            again = evaluate_walk(x, order)
            assert again.feasible, (algo, _name)
            assert again.reward == rep.walk.reward, (algo, _name)
    # and the benchmark output is stable byte for byte
    csv1 = rows_to_csv(bench_rows(pool[:6]))
    csv2 = rows_to_csv(bench_rows(pool[:6]))
    assert csv1 == csv2
    lines = csv1.splitlines()
    assert lines[0].startswith("instance_id,")
    assert len(lines) > 1
