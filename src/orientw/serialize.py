"""JSON instance files.

Times (edge weights, window endpoints, budget) are exact rationals.  Files
either write them as decimals with at most six fractional digits, or set
"time_scale": k and write every time as an integer count of 1/k units.
Rewards are written as decimals and must fit six fractional digits.

Keys: n, edges [[u, v, w], ...], windows [[release, deadline], ...],
budget; optional directed, rewards, s, t, wait_policy, time_scale.
Omitted rewards default to 1 everywhere; omitted s/t leave that endpoint
free.  Edges are closed into a metric on load, so a file may list any
connected set of edges; files written here list the whole closure, which
makes load(dump(x)) == x.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm
from typing import List

from .errors import ParseError, PreconditionError
from .instance import NO_WAIT, WAIT, TimeWindow, TwInstance
from .metric import Graph, metric_closure
from .rational import ONE, is_finite

_DECIMAL = re.compile(r"^-?\d+(\.\d{1,6})?$")

_KEYS = {"n", "edges", "windows", "budget", "directed", "rewards", "s", "t",
         "wait_policy", "time_scale"}


def _number(tok: str) -> Fraction:
    if not _DECIMAL.match(tok):
        raise ParseError(
            "number %r must be a decimal with at most 6 fractional digits; "
            "use time_scale for finer times" % tok)
    return Fraction(tok)



def _as_frac(val, what: str) -> Fraction:
    if isinstance(val, bool) or not isinstance(val, (int, Fraction)):
        raise ParseError("%s must be a number" % what)
    return Fraction(val)

def loads(text: str) -> TwInstance:
    try:
        raw = json.loads(text, parse_float=_number)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from None
    if not isinstance(raw, dict):
        raise ParseError("top level must be an object")
    unknown = sorted(set(raw) - _KEYS)
    if unknown:
        raise ParseError("unknown key %r" % unknown[0])
    for key in ("n", "edges", "windows", "budget"):
        if key not in raw:
            raise ParseError("missing key %r" % key)

    n = raw["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("n must be a positive integer")
    scale = raw.get("time_scale", 1)
    if not isinstance(scale, int) or isinstance(scale, bool) or scale < 1:
        raise ParseError("time_scale must be a positive integer")
    directed = raw.get("directed", False)
    if not isinstance(directed, bool):
        raise ParseError("directed must be true or false")

    if not isinstance(raw["edges"], list):
        raise ParseError("edges must be a list")
    edges = []
    for i, e in enumerate(raw["edges"]):
        if not (isinstance(e, list) and len(e) == 3):
            raise ParseError("edge %d must be [u, v, weight]" % i)
        u, v, w = e
        if not all(isinstance(p, int) and not isinstance(p, bool) for p in (u, v)):
            raise ParseError("edge %d endpoints must be integers" % i)
        edges.append((u, v, _as_frac(w, "edge %d weight" % i) / scale))

    if not isinstance(raw["windows"], list) or len(raw["windows"]) != n:
        raise ParseError("windows must list exactly n pairs")
    windows = []
    for v, pair in enumerate(raw["windows"]):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError("window %d must be [release, deadline]" % v)
        r = _as_frac(pair[0], "window %d release" % v) / scale
        d = _as_frac(pair[1], "window %d deadline" % v) / scale
        if r > d:
            raise ParseError("window %d has release after deadline" % v)
        windows.append(TimeWindow(r, d))

    rewards: List[Fraction]
    if "rewards" in raw:
        if not isinstance(raw["rewards"], list) or len(raw["rewards"]) != n:
            raise ParseError("rewards must list exactly n values")
        rewards = [_as_frac(r, "reward") for r in raw["rewards"]]
    else:
        rewards = [ONE] * n

    s = raw.get("s")
    t = raw.get("t")
    for name, val in (("s", s), ("t", t)):
        if val is not None and (not isinstance(val, int) or isinstance(val, bool)):
            raise ParseError("%s must be an integer vertex id or null" % name)
    policy = raw.get("wait_policy", WAIT)
    if policy not in (WAIT, NO_WAIT):
        raise ParseError("wait_policy must be %r or %r" % (WAIT, NO_WAIT))

    budget = _as_frac(raw["budget"], "budget") / scale
    try:
        metric = metric_closure(Graph.build(directed, n, edges))
        return TwInstance(metric, tuple(windows), tuple(rewards), s, t, budget, policy)
    except ParseError:
        raise
    except PreconditionError as exc:
        raise ParseError(str(exc)) from None
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def load(path: str) -> TwInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _decimal_str(value: Fraction) -> str:
    """Exact decimal for a fraction whose denominator divides 10**6."""
    if (10 ** 6) % value.denominator != 0:
        raise PreconditionError(
            "value %s needs more than 6 decimal places; rescale it" % value)
    scaled = value * 10 ** 6
    text = "%07d" % abs(int(scaled))
    whole, frac = text[:-6], text[-6:].rstrip("0")
    sign = "-" if value < 0 else ""
    return sign + whole + ("." + frac if frac else "")


def dumps(x: TwInstance) -> str:
    """Deterministic JSON for an instance; inverse of loads."""
    times: List[Fraction] = [x.budget]
    for w in x.windows:
        times += [w.release, w.deadline]
    pairs = []
    for u in range(x.n):
        for v in range(x.n):
            if u == v or (not x.metric.directed and u > v):
                continue
            w = x.metric.d[u][v]
            if is_finite(w):
                pairs.append((u, v, w))
                times.append(w)
    scale = lcm(*[t.denominator for t in times]) if times else 1

    def tval(t: Fraction) -> str:
        scaled = t * scale
        return str(int(scaled))

    out = ["{"]
    items = []
    items.append('"budget": %s' % tval(x.budget))
    items.append('"directed": %s' % ("true" if x.metric.directed else "false"))
    edge_text = ", ".join("[%d, %d, %s]" % (u, v, tval(w)) for (u, v, w) in pairs)
    items.append('"edges": [%s]' % edge_text)
    items.append('"n": %d' % x.n)
    items.append('"rewards": [%s]' % ", ".join(_decimal_str(r) for r in x.rewards))
    items.append('"s": %s' % ("null" if x.s is None else str(x.s)))
    items.append('"t": %s' % ("null" if x.t is None else str(x.t)))
    if scale != 1:
        items.append('"time_scale": %d' % scale)
    items.append('"wait_policy": "%s"' % x.wait_policy)
    win_text = ", ".join("[%s, %s]" % (tval(w.release), tval(w.deadline))
                         for w in x.windows)
    items.append('"windows": [%s]' % win_text)
    out.append("\n".join("  " + it + ("," if i < len(items) - 1 else "")
                         for i, it in enumerate(items)))
    out.append("}")
    return "\n".join(out) + "\n"


def dump(x: TwInstance, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(x))
