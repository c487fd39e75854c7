"""Benchmark harness: run solvers against the exact optimum and emit CSV.

Output is byte-deterministic for a fixed input set: rows are sorted, all
numbers are exact rationals rendered as strings, and the elapsed column is
"0" unless timing is explicitly requested.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .algorithms import ALGORITHMS, run_algorithm
from .errors import InfeasibleInstanceError, PreconditionError
from .instance import TwInstance, brute_force_opt, window_stats
from .oracles import ORIENTEERING_ORACLES, deadline_oracle_by_name

# brute_reward is filled up to this n; raising it would change the bench CSV.
BRUTE_LIMIT = 12

HEADER = ("instance_id,n,l_min,l_max,l_ratio,algorithm,oracle,"
          "alg_reward,brute_reward,empirical_ratio,theoretical_bound,elapsed")


@dataclass(frozen=True)
class BenchRow:
    instance_id: str
    n: int
    l_min: Optional[Fraction]
    l_max: Optional[Fraction]
    l_ratio: Optional[Fraction]
    algorithm: str
    oracle: str
    alg_reward: Fraction
    brute_reward: Optional[Fraction]   # None when the instance is too big
    empirical_ratio: Optional[str]
    theoretical_bound: Fraction
    elapsed: float


def _cell(value) -> str:
    if value is None:
        return ""
    return str(value)


def _ratio_cell(brute: Optional[Fraction], alg: Fraction) -> Optional[str]:
    if brute is None:
        return None
    if brute == 0:
        return "1"
    if alg == 0:
        return "inf"
    return str(brute / alg)


def bench_rows(instances: Sequence[Tuple[str, TwInstance]],
               algorithms: Optional[Sequence[str]] = None,
               oracle_name: str = "exact",
               deadline_oracle_name: str = "exact",
               measure_time: bool = False) -> List[BenchRow]:
    """Run each named algorithm on each instance.

    Algorithms whose preconditions an instance does not meet are skipped
    silently, and brute_reward is left empty where brute_force_opt's are
    not met, as above BRUTE_LIMIT; that is data, not an error.  So is an
    instance that admits no walk (an end anchor out of reach within the
    budget): every algorithm refuses it, and it adds no row.
    """
    if algorithms is None:
        algorithms = sorted(ALGORITHMS)
    for name in algorithms:
        if name not in ALGORITHMS:
            raise PreconditionError("unknown algorithm %r" % name)
    if oracle_name not in ORIENTEERING_ORACLES:
        raise PreconditionError("unknown oracle %r" % oracle_name)
    oracle = ORIENTEERING_ORACLES[oracle_name]
    dl = deadline_oracle_by_name(deadline_oracle_name, oracle)
    rows: List[BenchRow] = []
    for instance_id, x in instances:
        stats = window_stats(x)
        brute: Optional[Fraction] = None
        if x.n <= BRUTE_LIMIT:
            try:
                brute = brute_force_opt(x).reward
            except (PreconditionError, InfeasibleInstanceError):
                pass
        for name in algorithms:
            started = time.perf_counter()
            try:
                report = run_algorithm(name, x, oracle, dl)
            except (PreconditionError, InfeasibleInstanceError):
                continue
            took = time.perf_counter() - started if measure_time else 0.0
            rows.append(BenchRow(
                instance_id=instance_id,
                n=x.n,
                l_min=stats.l_min,
                l_max=stats.l_max,
                l_ratio=stats.l_ratio,
                algorithm=name,
                oracle=oracle_name,
                alg_reward=report.walk.reward,
                brute_reward=brute,
                empirical_ratio=_ratio_cell(brute, report.walk.reward),
                theoretical_bound=report.bound,
                elapsed=took,
            ))
    rows.sort(key=lambda r: (r.instance_id, r.algorithm))
    return rows


def rows_to_csv(rows: Iterable[BenchRow]) -> str:
    lines = [HEADER]
    for r in rows:
        elapsed = ("%.6f" % r.elapsed) if r.elapsed else "0"
        lines.append(",".join([
            r.instance_id,
            str(r.n),
            _cell(r.l_min),
            _cell(r.l_max),
            _cell(r.l_ratio),
            r.algorithm,
            r.oracle,
            _cell(r.alg_reward),
            _cell(r.brute_reward),
            r.empirical_ratio if r.empirical_ratio is not None else "",
            _cell(r.theoretical_bound),
            elapsed,
        ]))
    return "\n".join(lines) + "\n"


def summarize(rows: Sequence[BenchRow]) -> str:
    """Worst observed optimum/answer ratio per algorithm, for a quick read."""
    worst: Dict[str, Tuple[Fraction, str]] = {}
    for r in rows:
        if r.empirical_ratio in (None, "inf"):
            continue
        ratio = Fraction(r.empirical_ratio)
        if r.algorithm not in worst or ratio > worst[r.algorithm][0]:
            worst[r.algorithm] = (ratio, r.instance_id)
    lines = []
    for name in sorted(worst):
        ratio, inst = worst[name]
        lines.append("%s: worst ratio %s (%.3f) on %s" % (name, ratio, float(ratio), inst))
    return "\n".join(lines)
