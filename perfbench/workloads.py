"""Seeded workload definitions and the input gate.

A workload's instance set is a pure function of (workload, seed): instance
i comes from orientw.generate.generate_instance with generator seed
seed * 1000 + i, its shape taken from the workload's shape cycle, and its
time grid alternating between integral and quarter-grid on every pass
through that cycle.  The set is serialized once; the solver only ever sees
the JSON text.

Running this file records the sha256 of every workload's serialized set
for seeds 0-99, and of the first CANARY_SIZE instances of seed 0, into
digests.json:

    python3 perfbench/workloads.py
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
RECORDED_SEEDS = range(100)
CANARY_SEED = 0
CANARY_SIZE = 12  # instances of the canary seed that gate an unrecorded seed


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # instances in the set
    shapes: Tuple[Tuple[int, str], ...]  # (n, mode), cycled by instance index
    dense: bool  # horizon 20 and window lengths 8..16; else generator defaults
    greedy: bool  # greedy orienteering and layered deadline oracles
    referee: bool  # also check reward * bound >= brute-force optimum


WORKLOADS = {w.name: w for w in (
    # dense blocks: the exact deadline oracle dominates the solve
    Workload("dense-exact", 384, ((6, "anchored"),), dense=True, greedy=False,
             referee=True),
    # the same dense shape on the heuristic oracles, where exact enumeration
    # (pareto_profiles, release-group exit candidates) shows instead; every
    # vertex of a free instance carries reward, so free n=5 has about as many
    # rewarded vertices (5) as anchored n=6 (4)
    Workload("dense-greedy", 480, ((6, "anchored"), (5, "free")), dense=True,
             greedy=True, referee=False),
    # many small blocks: label loops, push_label and monotone-cache hits;
    # set-up (metric closure on Fractions) costs about as much as solving an
    # n=20 instance; one shape in six is start-only, which fans out to one
    # anchored solve per end vertex
    Workload("sparse-wide", 120, ((20, "anchored"), (20, "free"), (20, "anchored"),
                                  (20, "free"), (20, "anchored"), (16, "start-only")),
             dense=False, greedy=False, referee=False),
)}


def instance_texts(w: Workload, seed: int, size: Optional[int] = None) -> List[str]:
    """The first `size` instances (default: all) of the workload's set for
    `seed`, as serialized JSON texts.  The caller has put the program's
    source tree on sys.path."""
    from orientw.generate import generate_instance
    from orientw.serialize import dumps
    texts = []
    for i in range(w.size if size is None else size):
        n, mode = w.shapes[i % len(w.shapes)]
        integral = (i // len(w.shapes)) % 2 == 0
        extra = {}
        if w.dense:
            extra = dict(horizon=Fraction(20), l_low=Fraction(8), l_high=Fraction(16))
        x = generate_instance("random-metric", n, seed * 1000 + i, mode=mode,
                              integral=integral, **extra)
        texts.append(dumps(x))
    return texts


def digest(texts: List[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def gate(w: Workload, seed: int, texts: List[str]) -> Optional[str]:
    """None when the generated inputs match the recorded digest, else the
    reason.  A seed outside the recorded range is gated through the first
    CANARY_SIZE instances of the canary seed's set, so a change to generate
    or serialize still shows."""
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        recorded = json.load(fh).get(w.name, {})
    expected = recorded.get(str(seed))
    got = digest(texts)
    if expected is None:
        expected = recorded.get("canary")
        got = digest(instance_texts(w, CANARY_SEED, CANARY_SIZE))
        seed = CANARY_SEED
    if expected is None:
        return "no digest recorded for workload %s" % w.name
    if got != expected:
        return ("workload %s seed %d: generated inputs have digest %s, recorded %s"
                % (w.name, seed, got, expected))
    return None


def _record():
    import sys
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    table = {}
    for name, w in WORKLOADS.items():
        table[name] = {str(s): digest(instance_texts(w, s)) for s in RECORDED_SEEDS}
        table[name]["canary"] = digest(instance_texts(w, CANARY_SEED, CANARY_SIZE))
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _record()
