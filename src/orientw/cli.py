"""Command-line front end.

Exit codes: 0 on success, 1 for bad input (parse or precondition failures,
usage errors), 2 when the instance itself is infeasible.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence

from . import serialize
from .algorithms import ALGORITHMS, run_algorithm
from .bench import bench_rows, rows_to_csv, summarize
from .decompose import dyadic_family, five_split, three_split_ceil, three_split_floor
from .errors import (GraphError, InfeasibleInstanceError, ParseError,
                     PreconditionError)
from .generate import FAMILIES, generate_instance
from .instance import ANCHORED, FREE, START_ONLY, WalkSolution, brute_force_opt
from .oracles import DEADLINE_ORACLES, ORIENTEERING_ORACLES, deadline_oracle_by_name

_CONSTRUCTIONS = {
    "dyadic": dyadic_family,
    "floor": three_split_floor,
    "ceil": three_split_ceil,
    "five": five_split,
}


class _Parser(argparse.ArgumentParser):
    # usage problems are caller errors, same exit code as parse failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not an exact number: %r" % text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="orientw",
                     description="Approximate orienteering with time windows.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an approximation algorithm")
    solve.add_argument("instance", help="instance JSON file")
    solve.add_argument("--algorithm", default="auto", choices=sorted(ALGORITHMS))
    solve.add_argument("--oracle", default="exact", choices=sorted(ORIENTEERING_ORACLES))
    solve.add_argument("--deadline-oracle", default="exact", choices=sorted(DEADLINE_ORACLES))
    solve.add_argument("--out", default=None, help="write the report here instead of stdout")

    exact = sub.add_parser("exact", help="exact optimum by a subset DP (exponential in n)")
    exact.add_argument("instance")
    exact.add_argument("--out", default=None)

    dec = sub.add_parser("decompose", help="show the restricted versions of an instance")
    dec.add_argument("instance")
    dec.add_argument("--construction", required=True, choices=sorted(_CONSTRUCTIONS))
    dec.add_argument("--out", default=None)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--family", default="random-metric", choices=sorted(FAMILIES))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--mode", default=ANCHORED, choices=[ANCHORED, START_ONLY, FREE])
    gen.add_argument("--horizon", type=_frac, default=None)
    gen.add_argument("--integral", action="store_true",
                     help="integer weights and window endpoints")
    gen.add_argument("--l-low", type=_frac, default=Fraction(1))
    gen.add_argument("--l-high", type=_frac, default=Fraction(2))
    gen.add_argument("--out", default=None)

    bench = sub.add_parser("bench", help="compare algorithms against the optimum")
    bench.add_argument("instances", nargs="+", help="instance JSON files")
    bench.add_argument("--algorithms", default=None,
                       help="comma-separated subset of: %s" % ",".join(sorted(ALGORITHMS)))
    bench.add_argument("--oracle", default="exact", choices=sorted(ORIENTEERING_ORACLES))
    bench.add_argument("--deadline-oracle", default="exact", choices=sorted(DEADLINE_ORACLES))
    bench.add_argument("--measure-time", action="store_true")
    bench.add_argument("--summary", action="store_true",
                       help="append worst-ratio lines after the CSV")
    bench.add_argument("--out", default=None)
    return parser


# ----- output helpers -------------------------------------------------------

def _emit(text: str, out: Optional[str]):
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _walk_lines(sol: WalkSolution) -> List[str]:
    lines = ["walk:"]
    for v, at, collected in sol.schedule:
        lines.append("%d %s %d" % (v, at, 1 if collected else 0))
    return lines


# ----- subcommands ----------------------------------------------------------

def _cmd_solve(args) -> int:
    x = serialize.load(args.instance)
    oracle = ORIENTEERING_ORACLES[args.oracle]
    dl = deadline_oracle_by_name(args.deadline_oracle, oracle)
    report = run_algorithm(args.algorithm, x, oracle, dl)
    lines = [
        "algorithm: %s" % report.algorithm,
        "reward: %s" % report.walk.reward,
        "bound: %s" % report.bound,
        "beta: %d" % report.beta,
    ]
    if report.version_rewards:
        parts = ["%s=%s" % (label, "skipped" if reward is None else reward)
                 for label, reward in report.version_rewards]
        lines.append("versions: %s" % ",".join(parts))
    # only solve_auto checks the reward against the reachability bound
    lines.append("optimal: %s" % ("yes" if report.optimal else "unknown"))
    lines.append("bound from: %s" % report.bound_from)
    # the bound is a proof only when every oracle honors its declared ratio
    unproven = [o.spec.name for o in (oracle, dl) if not o.spec.guaranteed]
    lines.append("proven: %s" % ("no (%s not guaranteed)" % ", ".join(unproven)
                                 if unproven else "yes"))
    lines.extend(_walk_lines(report.walk))
    # last, so that the lines above keep their places
    lines.append("repair: +%s" % report.repair_gain)
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_exact(args) -> int:
    x = serialize.load(args.instance)
    sol = brute_force_opt(x)
    lines = ["reward: %s" % sol.reward]
    lines.extend(_walk_lines(sol))
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_decompose(args) -> int:
    x = serialize.load(args.instance)
    fam = _CONSTRUCTIONS[args.construction](x)
    lines = [
        "construction: %s" % args.construction,
        "scale: %s" % fam.scale,
        "versions: %d" % len(fam.versions),
    ]
    for label, ver in fam.versions:
        carried = sorted(ver.positive_vertices())
        lines.append("version %s: %d vertices" % (label, len(carried)))
        for v in carried:
            w = ver.windows[v]
            lines.append("  %d [%s, %s]" % (v, w.release, w.deadline))
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_gen(args) -> int:
    x = generate_instance(args.family, args.n, args.seed, horizon=args.horizon,
                          mode=args.mode, integral=args.integral,
                          l_low=args.l_low, l_high=args.l_high)
    _emit(serialize.dumps(x), args.out)
    return 0


def _cmd_bench(args) -> int:
    instances = []
    for path in args.instances:
        instances.append((Path(path).stem, serialize.load(path)))
    names = args.algorithms.split(",") if args.algorithms else None
    rows = bench_rows(instances, algorithms=names, oracle_name=args.oracle,
                      deadline_oracle_name=args.deadline_oracle,
                      measure_time=args.measure_time)
    text = rows_to_csv(rows)
    if args.summary:
        extra = summarize(rows)
        if extra:
            text += extra + "\n"
    _emit(text, args.out)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "exact": _cmd_exact,
    "decompose": _cmd_decompose,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, PreconditionError, GraphError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except InfeasibleInstanceError as exc:
        print("infeasible: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
