"""Master LP assembly and exact schedule solving.

The master program has the chain columns h (one 0/1-relaxed column per
step, held to the chain rows of `perms.chain_constraints`) and one
subproblem block per step reading its column as availability. The chain
rows with [0, 1] bounds already confine the positions
y_i = m + 1 - sum_j h[i][j] to the permutahedron, so the program carries
no position variables. Its optimum bounds the best cumulative schedule
value; the ordering is read off the positions and re-certified against
the combinatorial oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import lp as lpmod
from .lp import LpBuilder, solve as lp_solve
from .perms import (
    Permutation,
    chain_constraints,
    chain_from_permutation,
    permutation_from_point,
    separate_permutahedron,
)
from .subproblems import Instance, emit_step, step_value, subset_values

# Two names for the one master program, kept so existing callers still work.
EXTENDED = "extended"
CUTTING_PLANE = "cutting-plane"
MODES = (EXTENDED, CUTTING_PLANE)

VALUE_TOL = 1e-6


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
    """Assemble the master LP; returns (builder, h).

    h[i][j] is the variable of orderable element i in chain column j
    (0-indexed). Both mode names build the same program.
    """
    if mode not in MODES:
        raise SolveError(f"unknown mode {mode!r}")
    m = instance.m
    if m < 1:
        raise SolveError("instance has no orderable elements")
    b = LpBuilder()
    h = [[b.add_var(f"h[{i},{j}]", 0.0, 1.0) for j in range(m)] for i in range(m)]
    b.add_all(chain_constraints(m, h))
    for j in range(1, m + 1):
        emit_step(instance, j, {e: h[i][j - 1] for i, e in enumerate(instance.orderable)}, b)
    return b, h


def chain_positions(h, x) -> list:
    """Position of each element at the point x: m + 1 - sum_j x[h[i][j]]."""
    return [len(h) + 1 - sum(x[v] for v in row) for row in h]


def _solve_with_cuts(builder, h):
    """Optimal master LP solution, or SolveError. Its positions must lie in
    the permutahedron, as the chain rows guarantee; a violated prefix-sum
    row is a numerical fault. The name is kept for the benchmark tracer
    until ROADMAP item 4."""
    sol = lp_solve(builder.build("max"))
    if sol.status != lpmod.OPTIMAL:
        raise SolveError(f"master LP status: {sol.status}")
    cut = separate_permutahedron(len(h), chain_positions(h, sol.x))
    if cut is not None:
        raise SolveError(f"master LP positions violate {cut.name}")
    return sol


def _solve_master(instance: Instance, mode: str):
    """Optimal master LP solution and its chain variables, or SolveError."""
    builder, h = build_master_lp(instance, mode)
    return _solve_with_cuts(builder, h), h


def solve_schedule(instance: Instance, mode: str = EXTENDED) -> Schedule:
    """Solve the master LP, extract the ordering, and certify it.

    The relaxation can sit strictly above the best schedule (per-step LP
    values are concave in the availability columns, so fractional positions
    overestimate), in which case the extracted ordering fails certification
    and integrality is repaired exactly by dynamic programming over
    realized subsets.
    """
    sol, h = _solve_master(instance, mode)
    bound = sol.objective
    perm = permutation_from_point(chain_positions(h, sol.x))
    sched = evaluate_schedule(instance, perm, method="lp")
    if sched.total >= bound - VALUE_TOL:
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
    """Master LP objective with the chain columns pinned to a permutation's
    chain; used to check the per-step blocks decouple."""
    builder, h = build_master_lp(instance)
    for row, bits in zip(h, chain_from_permutation(p).h):
        for v, bit in zip(row, bits):
            builder.lower[v] = builder.upper[v] = float(bit)
    return _solve_with_cuts(builder, h).objective
