"""Master LP assembly and exact schedule solving.

The master program couples three blocks: the position-sum equality, the
chain transformation tying positions to per-step availability columns,
and one subproblem block per step. The chain system's covering rows and
the position-sum row already confine the positions to the permutahedron,
so no doubly-stochastic extension is added; prefix-sum separation only
confirms this on each solve. Its optimum bounds the best cumulative
schedule value; the ordering is read off the position variables and
re-certified against the combinatorial oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import lp as lpmod
from .lp import EQ, LinearConstraint, LpBuilder, solve as lp_solve
from .perms import (
    Permutation,
    chain_transform_constraints,
    permutation_from_point,
    separate_permutahedron,
)
from .subproblems import Instance, emit_step, step_value, subset_values

# Two names for the one master program, kept so existing callers still work.
EXTENDED = "extended"
CUTTING_PLANE = "cutting-plane"
MODES = (EXTENDED, CUTTING_PLANE)

VALUE_TOL = 1e-6
MAX_CUT_ROUNDS = 1000


class SolveError(Exception):
    """Master LP or repair failure."""


@dataclass
class Schedule:
    permutation: Permutation
    step_values: tuple
    total: float
    method: str  # lp | greedy-marginal | greedy-first | brute | evaluated
    order: tuple = ()  # element ids in realization order
    lp_bound: float | None = None
    certified: bool | None = None
    repaired: bool = False

    def __post_init__(self):
        if abs(self.total - sum(self.step_values)) > 1e-9 * max(1.0, abs(self.total)):
            raise ValueError(f"total {self.total} is not the sum of the step values")
        for a, b in zip(self.step_values, self.step_values[1:]):
            if b < a - 1e-9:
                raise ValueError("per-step values must be nondecreasing")
        if self.lp_bound is not None and self.total > self.lp_bound + VALUE_TOL:
            raise ValueError(f"total {self.total} exceeds the LP bound {self.lp_bound}")


@dataclass
class MasterVars:
    y: list
    h: list  # h[i][j], 0-indexed columns
    steps: list  # per-step dict element id -> var


def evaluate_schedule(instance: Instance, p: Permutation, method="evaluated") -> Schedule:
    """Cumulative value of a fixed ordering, straight from the oracles."""
    order = [instance.orderable[i] for i in p.order()]
    values = []
    realized = set()
    for e in order:
        realized.add(e)
        values.append(step_value(instance, realized))
    return Schedule(p, tuple(values), sum(values), method, order=tuple(order))


def build_master_lp(instance: Instance, mode: str = EXTENDED):
    """Assemble the master LP; returns (builder, MasterVars).

    Both mode names build the same program. The builder is returned rather
    than a frozen program so the solve loop can append violated prefix-sum
    cuts, should separation ever find one.
    """
    if mode not in MODES:
        raise SolveError(f"unknown mode {mode!r}")
    m = instance.m
    if m < 1:
        raise SolveError("instance has no orderable elements")
    b = LpBuilder()
    y = [b.add_var(f"y[{i}]", 1.0, float(m)) for i in range(m)]
    h = [[b.add_var(f"h[{i},{j}]", 0.0, 1.0) for j in range(m)] for i in range(m)]
    b.add(LinearConstraint({v: 1.0 for v in y}, EQ, float(math.comb(m + 1, 2)),
                           name="position-sum"))
    b.add_all(chain_transform_constraints(m, y, h))
    steps = []
    for j in range(1, m + 1):
        h_col = {e: h[i][j - 1] for i, e in enumerate(instance.orderable)}
        steps.append(emit_step(instance, j, h_col, b))
    return b, MasterVars(y, h, steps)


def _solve_with_cuts(builder, y_vars, m, tol=1e-7):
    """Re-solve loop adding one most-violated prefix-sum cut per round."""
    for _ in range(MAX_CUT_ROUNDS):
        sol = lp_solve(builder.build("max"))
        if sol.status != lpmod.OPTIMAL:
            return sol
        y = [sol.x[v] for v in y_vars]
        cut = separate_permutahedron(m, y, tol)
        if cut is None:
            return sol
        builder.add(LinearConstraint({y_vars[i]: c for i, c in cut.coefficients.items()},
                                     cut.relation, cut.rhs, name=cut.name))
    raise SolveError("cut generation did not converge")


def _solve_master(instance: Instance, mode: str):
    """Optimal master LP solution and its variables, or SolveError."""
    builder, mv = build_master_lp(instance, mode)
    sol = _solve_with_cuts(builder, mv.y, instance.m)
    if sol.status != lpmod.OPTIMAL:
        raise SolveError(f"master LP status: {sol.status}")
    return sol, mv


def solve_schedule(instance: Instance, mode: str = EXTENDED, tol: float = VALUE_TOL) -> Schedule:
    """Solve the master LP, extract the ordering, and certify it.

    The relaxation can sit strictly above the best schedule (per-step LP
    values are concave in the availability columns, so fractional positions
    overestimate), in which case the extracted ordering fails certification
    and integrality is repaired exactly by dynamic programming over
    realized subsets.
    """
    sol, mv = _solve_master(instance, mode)
    bound = sol.objective
    perm = permutation_from_point([sol.x[v] for v in mv.y])
    sched = evaluate_schedule(instance, perm, method="lp")
    if sched.total >= bound - tol:
        return Schedule(sched.permutation, sched.step_values, sched.total, "lp",
                        order=sched.order, lp_bound=bound, certified=True)
    best = _repair_subset_dp(instance)
    if best.total < sched.total:
        best = sched
    return Schedule(best.permutation, best.step_values, best.total, "lp",
                    order=best.order, lp_bound=bound, certified=True, repaired=True)


def _repair_subset_dp(instance: Instance) -> Schedule:
    """Exact optimum by dynamic programming over realized subsets.

    On the bitmask table of subset values, best[S] = value(S) + max over
    e in S of best[S minus e], with best[empty set] = 0 (fixed elements give
    the empty set a value, but no step realizes it). Bits are scanned in
    ascending order and a later bit must win by more than 1e-12, so ties go
    to the smallest last element and the reconstructed order is
    deterministic. Costs one oracle value per subset.
    """
    m = instance.m
    best = subset_values(instance)
    best[0] = 0.0
    last = [0] * len(best)
    for mask in range(1, len(best)):
        pick, pick_val = 0, -math.inf
        for i in range(m):
            if mask >> i & 1:
                cand = best[mask ^ 1 << i]
                if cand > pick_val + 1e-12:
                    pick, pick_val = i, cand
        best[mask] += pick_val
        last[mask] = pick
    order = []
    mask = len(best) - 1
    while mask:
        order.append(last[mask])
        mask ^= 1 << last[mask]
    order.reverse()
    return evaluate_schedule(instance, Permutation.from_order(order))


def master_lp_value(instance: Instance, mode: str = EXTENDED) -> float:
    """Objective of the master LP relaxation (no extraction)."""
    return _solve_master(instance, mode)[0].objective


def master_lp_value_fixed_y(instance: Instance, p: Permutation) -> float:
    """Master LP objective with the position variables pinned to a
    permutation; used to check the per-step blocks decouple."""
    builder, mv = build_master_lp(instance)
    for i, v in enumerate(mv.y):
        builder.lower[v] = float(p.positions[i])
        builder.upper[v] = float(p.positions[i])
    sol = lp_solve(builder.build("max"))
    if sol.status != lpmod.OPTIMAL:
        raise SolveError(f"fixed-y master LP status: {sol.status}")
    return sol.objective
