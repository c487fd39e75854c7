"""Orienteering with per-vertex time windows.

The package splits into layers: exact metric and instance types at the
bottom, window-splitting constructions and block DPs in the middle, and the
composed approximation algorithms plus CLI on top.  Everything computes in
exact rationals; no floats touch a feasibility decision.
"""

from .errors import (ContainmentError, GraphError, InfeasibleInstanceError,
                     ParseError, PreconditionError)
from .rational import INF, is_finite
from .metric import Graph, Metric, metric_closure, validate_graph
from .instance import (ANCHORED, FREE, NO_WAIT, START_ONLY, WAIT, TimeWindow,
                       TwInstance, WalkSolution, WindowStats, brute_force_opt,
                       drop_vertices, evaluate_walk, restrict, scale_times,
                       time_reversed, walk_from_claims, window_stats)
from .decompose import (DyadicPiece, RestrictedFamily, dyadic_family,
                        dyadic_partition, five_split, three_split_ceil,
                        three_split_floor)
from .oracles import (EXACT_DEADLINE, EXACT_ORACLE, GREEDY_ORACLE,
                      ORIENTEERING_ORACLES, DeadlineOracle, DeadlineQuery,
                      OracleSpec, OrienteeringOracle, OrienteeringQuery,
                      WalkResult, best_deadline_walk, best_orienteering_walk,
                      deadline_oracle_by_name, layered_deadline_oracle)
from .modular import (ModularBlock, ModularPartition,
                      blocks_from_identical_windows, solve_reward_indexed,
                      verify_modular)
from .algorithms import (ALGORITHMS, SolveReport, reduce_deadline_to_tw,
                         run_algorithm, solve_auto, solve_free_general,
                         solve_free_l_le_2, solve_general,
                         solve_integer_endpoints, solve_l_le_2,
                         zero_window_dp)
from . import serialize

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "ANCHORED", "ContainmentError", "DeadlineOracle",
    "DeadlineQuery", "DyadicPiece", "EXACT_DEADLINE", "EXACT_ORACLE", "FREE",
    "GREEDY_ORACLE", "Graph", "GraphError", "INF", "InfeasibleInstanceError",
    "Metric", "ModularBlock", "ModularPartition", "NO_WAIT",
    "ORIENTEERING_ORACLES", "OracleSpec", "OrienteeringOracle",
    "OrienteeringQuery", "ParseError", "PreconditionError", "RestrictedFamily",
    "START_ONLY", "SolveReport", "TimeWindow", "TwInstance", "WAIT",
    "WalkResult", "WalkSolution", "WindowStats", "best_deadline_walk",
    "best_orienteering_walk", "blocks_from_identical_windows",
    "brute_force_opt", "deadline_oracle_by_name", "drop_vertices",
    "dyadic_family", "dyadic_partition", "evaluate_walk", "five_split",
    "is_finite", "layered_deadline_oracle", "metric_closure",
    "reduce_deadline_to_tw", "restrict", "run_algorithm", "scale_times",
    "serialize", "solve_auto", "solve_free_general", "solve_free_l_le_2",
    "solve_general", "solve_integer_endpoints", "solve_l_le_2",
    "solve_reward_indexed", "time_reversed",
    "three_split_ceil", "three_split_floor", "validate_graph",
    "verify_modular", "walk_from_claims", "window_stats", "zero_window_dp",
]
