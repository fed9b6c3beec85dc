"""permopt: choose the order in which to realize a fixed set of elements so
the cumulative optimal subproblem value over the steps is maximized.

Exact solving goes through a master linear program over the chain columns
of the realized sets, whose positions range over the permutahedron, and
per-step subproblem blocks; greedy baselines and a brute-force oracle are
included for comparison and certification.
"""

from .baselines import (
    SetFunctionSpec,
    brute_force,
    brute_force_set_function,
    greedy_marginal,
    greedy_optimal_first,
    ratio_bound,
    submodular_greedy,
)
from .instance_io import (
    bundled_instance,
    build_d1,
    build_d2,
    build_d3,
    build_g1,
    build_g2,
    parse_instance,
    serialize_instance,
)
from .lp import LinearConstraint, LinearProgram, LpBuilder, LpSolution, solve, verify
from .perms import (
    ChainMatrix,
    Permutation,
    birkhoff_extension,
    chain_from_permutation,
    chain_transform_constraints,
    permutation_from_point,
    rado_bound,
    separate_permutahedron,
)
from .scheduler import (
    Schedule,
    build_master_lp,
    evaluate_schedule,
    master_lp_value,
    solve_schedule,
)
from .subproblems import (
    FlowInstance,
    Instance,
    MatchingInstance,
    emit_step,
    make_instance,
    step_value,
)

__version__ = "0.1.0"
