"""Regression pin for the restricted-version constructions and the exact
modular DP.

The first digest is the sha256 of every version (label, scale, windows and
rewards), or the refusal text, that the four constructions build from
seeded instances: integral, ratio-two and general windows, free ratio-two
windows, integral windows with some fixed instants mixed in, and fixed
instants only.  The second is the sha256 of the exact modular DP's
(claimed, reward, schedule, segments), solve_reward_indexed on
EXACT_ORACLE, on the seeded modular instances.  A change that is meant to
move either digest must say why and record the new value.
"""

from __future__ import annotations

import hashlib

from orientw import (EXACT_ORACLE, FREE, PreconditionError, TimeWindow, dyadic_family,
                     five_split, restrict, solve_reward_indexed, three_split_ceil,
                     three_split_floor)
from orientw.generate import (gen_general_instance, gen_integer_instance,
                              gen_modular_instance, gen_ratio2_instance,
                              gen_zero_window_instance)

FAMILY_PIN = "003f79bb9bcf74b3a886a880a244376ecfd8c504c43ec7f702c1e50edbb12b24"
PARETO_PIN = "2b449ee17a2c44d4f5fa3c4510bde711c9aed4ec69e0d3f0b841e649905592da"

CONSTRUCTIONS = (dyadic_family, three_split_floor, three_split_ceil, five_split)


def _with_fixed_instants(x):
    # every third positive-reward vertex is narrowed to its release instant
    picked = x.positive_vertices()[::3]
    return restrict(x, {v: TimeWindow(x.windows[v].release, x.windows[v].release)
                        for v in picked})


SOURCES = (
    gen_integer_instance,
    gen_ratio2_instance,
    lambda seed: gen_ratio2_instance(seed, mode=FREE),
    gen_general_instance,
    lambda seed: _with_fixed_instants(gen_integer_instance(seed)),
    gen_zero_window_instance,
)


def _family_record(construct, x) -> str:
    try:
        fam = construct(x)
    except PreconditionError as exc:
        return "refused: %s" % exc
    parts = ["%s" % fam.scale]
    for (label, ver) in fam.versions:
        windows = ",".join("%s-%s" % (w.release, w.deadline) for w in ver.windows)
        rewards = ",".join("%s" % r for r in ver.rewards)
        parts.append("%s[%s][%s]" % (label, windows, rewards))
    return "|".join(parts)


def test_constructions_match_the_pinned_digest():
    h = hashlib.sha256()
    for source in SOURCES:
        for seed in range(40):
            x = source(seed)
            for construct in CONSTRUCTIONS:
                h.update(("%s:%s\n" % (construct.__name__,
                                       _family_record(construct, x))).encode("utf-8"))
    assert h.hexdigest() == FAMILY_PIN


def test_exact_pareto_dp_matches_the_pinned_digest():
    h = hashlib.sha256()
    for seed in range(60):
        x, part = gen_modular_instance(seed)
        res = solve_reward_indexed(x, part, EXACT_ORACLE)
        schedule = ";".join("%d@%s%s" % (v, t, "+" if c else "")
                            for (v, t, c) in res.walk.schedule)
        h.update(("%s|%s|%s|%s\n" % (res.claimed, res.walk.reward, schedule,
                                     res.segments)).encode("utf-8"))
    assert h.hexdigest() == PARETO_PIN
