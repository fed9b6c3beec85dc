"""Master LP assembly and exact schedule solving.

The master program has the chain columns h (one 0/1-relaxed column per
step, held to the chain rows of `perms.chain_constraints`) and one
subproblem block per step reading its column as availability. The chain
rows with [0, 1] bounds already confine the positions
y_i = m + 1 - sum_j h[i][j] to the permutahedron, so the program carries
no position variables. Its optimum bounds the best cumulative schedule
value; the ordering is read off the positions and re-certified against
the combinatorial oracles.

The simplex works to absolute tolerances, so the master is solved on a
copy of the instance in units of the power of two nearest its largest
finite weight or capacity, and its bound is multiplied back. Dividing by a
power of two is exact, and certification compares in the same units, so
an instance's magnitude does not change its answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import lp as lpmod
from .lp import LpBuilder, solve as lp_solve
from .perms import (
    Permutation,
    chain_constraints,
    chain_from_permutation,
    permutation_from_point,
    separate_permutahedron,
)
from .subproblems import Instance, InstanceError, emit_step, step_value, subset_values

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
        if abs(self.total - sum(self.step_values)) > 1e-9 * abs(self.total):
            raise ValueError(f"total {self.total} is not the sum of the step values")
        for a, b in zip(self.step_values, self.step_values[1:]):
            if b < a - 1e-9 * abs(a):
                raise ValueError("per-step values must be nondecreasing")
        bound = self.lp_bound
        if bound is not None and self.total > bound + VALUE_TOL * abs(bound):
            raise ValueError(f"total {self.total} exceeds the LP bound {self.lp_bound}")


def evaluate_schedule(instance: Instance, p: Permutation, method="evaluated") -> Schedule:
    """Cumulative value of a fixed ordering, straight from the oracles;
    InstanceError if the total overflows a float."""
    order = [instance.orderable[i] for i in p.order()]
    values = []
    realized = set()
    for e in order:
        realized.add(e)
        values.append(step_value(instance, realized))
    total = sum(values)
    if not math.isfinite(total):
        raise InstanceError(f"the cumulative value overflows a float (total {total})")
    return Schedule(p, tuple(values), total, method, order=tuple(order))


def build_master_lp(instance: Instance, mode: str = EXTENDED):
    """Assemble the master LP; returns (builder, h).

    h[i][j] is the variable of orderable element i in chain column j
    (0-indexed). Both mode names build the same program.
    """
    if mode not in MODES:
        raise SolveError(f"unknown mode {mode!r}")
    m = instance.m
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


def _unit_scaled(instance: Instance):
    """(copy of the instance with every finite weight or capacity divided by
    scale, scale), where scale is the power of two nearest the largest one."""
    values = instance.data.values.values()
    top = max((v for v in values if math.isfinite(v)), default=0.0)
    if top == 0.0:
        return instance, 1.0
    scale = 2.0 ** min(round(math.log2(top)), 1023)  # 2.0 ** 1024 overflows
    return replace(instance, data=instance.data.scaled(scale)), scale


def _solve_master(instance: Instance, mode: str):
    """(master LP bound, positions at its optimum, unit scale), or
    SolveError; the program is built on the unit-scaled instance."""
    scaled, scale = _unit_scaled(instance)
    builder, h = build_master_lp(scaled, mode)
    sol = _solve_with_cuts(builder, h)
    return sol.objective * scale, chain_positions(h, sol.x), scale


def solve_schedule(instance: Instance, mode: str = EXTENDED) -> Schedule:
    """Solve the master LP, extract the ordering, and certify it.

    The relaxation can sit strictly above the best schedule (per-step LP
    values are concave in the availability columns, so fractional positions
    overestimate), in which case the extracted ordering fails certification
    and integrality is repaired exactly by dynamic programming over
    realized subsets.
    """
    bound, positions, scale = _solve_master(instance, mode)
    chosen = evaluate_schedule(instance, permutation_from_point(positions))
    repaired = chosen.total < bound - VALUE_TOL * scale
    if repaired:
        best = _repair_subset_dp(instance)
        if best.total >= chosen.total:
            chosen = best
    return replace(chosen, method="lp", lp_bound=bound, certified=True, repaired=repaired)


def _repair_subset_dp(instance: Instance) -> Schedule:
    """Exact optimum by dynamic programming over realized subsets.

    On the bitmask table of subset values, best[S] = value(S) + max over
    e in S of best[S minus e], with best[empty set] = 0 (fixed elements give
    the empty set a value, but no step realizes it). Bits are scanned in
    ascending order and a later bit must win by more than 1e-12 of the
    best so far, so ties go to the smallest last element at any magnitude.
    Costs one oracle value per subset.
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
                if cand > pick_val * (1.0 + 1e-12):
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
    return _solve_master(instance, mode)[0]


def master_lp_value_fixed_y(instance: Instance, p: Permutation) -> float:
    """Master LP objective with the chain columns pinned to a permutation's
    chain; used to check the per-step blocks decouple."""
    builder, h = build_master_lp(instance)
    for row, bits in zip(h, chain_from_permutation(p).h):
        for v, bit in zip(row, bits):
            builder.lower[v] = builder.upper[v] = float(bit)
    return _solve_with_cuts(builder, h).objective
