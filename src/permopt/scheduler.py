"""Master LP assembly and exact schedule solving.

The master program has the chain columns h (one 0/1-relaxed column per
step, held to the chain rows of `perms.chain_constraints`) and one
subproblem block per step reading its column as availability. The chain
rows with [0, 1] bounds already confine the positions
y_i = m + 1 - sum_j h[i][j] to the permutahedron, so the program carries
no position variables. Its optimum bounds the best cumulative schedule
value; the ordering is read off the positions and re-certified against
the combinatorial oracles. An ordering that falls short of the bound is
repaired by the one subset DP, `_best_order`, which brute force runs too:
ties go to the lexicographically first best order.

The simplex works to absolute tolerances, so the master is solved on a
copy of the instance in units of the power of two nearest f(all), the value
of the last step, and its bound is multiplied back. In those units every
step value lies in [0, about 1], so the reduced costs that matter stay well
above the simplex's tolerances however large an arc that carries little
flow may be. Dividing by a power of two is exact, and certification
compares the total with the bound relative to the bound, so an instance's
magnitude does not change its answer. The simplex starts at the identity
permutation's chain, a vertex of the chain rows, so it needs no phase 1.
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
    """Optimal master LP solution, or SolveError. The simplex starts at
    the identity permutation's chain, h[i][j] = 1 for i <= j: every chain
    row holds there and every block variable sits at 0, so it needs no
    phase 1. The positions must lie in the permutahedron, as the chain rows
    guarantee; a violated prefix-sum row is a numerical fault. The name is
    kept for the benchmark tracer until ROADMAP item 4."""
    m = len(h)
    sol = lp_solve(builder.build("max", start=(h[i][j] for i in range(m) for j in range(i, m))))
    if sol.status != lpmod.OPTIMAL:
        raise SolveError(f"master LP status: {sol.status}")
    cut = separate_permutahedron(m, chain_positions(h, sol.x))
    if cut is not None:
        raise SolveError(f"master LP positions violate {cut.name}")
    return sol


def _unit_scaled(instance: Instance):
    """(copy of the instance with every finite weight or capacity divided by
    scale, scale), where scale is the power of two nearest f(all), the
    value of the last step; InstanceError if f(all) overflows a float."""
    top = instance.data.value(instance.data.elements)
    if not math.isfinite(top):
        raise InstanceError(f"the value of all elements overflows a float ({top})")
    if top == 0.0:
        return instance, 1.0
    scale = 2.0 ** min(round(math.log2(top)), 1023)  # 2.0 ** 1024 overflows
    return replace(instance, data=instance.data.scaled(scale)), scale


def _solve_master(instance: Instance, mode: str):
    """(master LP bound, positions at its optimum), or SolveError; the
    program is built on the unit-scaled instance."""
    scaled, scale = _unit_scaled(instance)
    builder, h = build_master_lp(scaled, mode)
    sol = _solve_with_cuts(builder, h)
    return sol.objective * scale, chain_positions(h, sol.x)


def solve_schedule(instance: Instance, mode: str = EXTENDED) -> Schedule:
    """Solve the master LP, extract the ordering, and certify it.

    The relaxation can sit strictly above the best schedule (per-step LP
    values are concave in the availability columns, so fractional positions
    overestimate), in which case the extracted ordering fails certification
    and integrality is repaired exactly by dynamic programming over
    realized subsets. The gap is judged against the bound itself, so an
    arc or edge far larger than the optimum cannot hide it.
    """
    bound, positions = _solve_master(instance, mode)
    chosen = evaluate_schedule(instance, permutation_from_point(positions))
    repaired = chosen.total < bound - VALUE_TOL * abs(bound)
    if repaired:
        chosen = _repair_subset_dp(instance)
    return replace(chosen, method="lp", lp_bound=bound, certified=True, repaired=repaired)


def _repair_subset_dp(instance: Instance) -> Schedule:
    """Exact optimum: the order `_best_order` picks on the subset table,
    at one oracle value per subset."""
    order = _best_order(subset_values(instance), instance.m)[1]
    return evaluate_schedule(instance, Permutation.from_order(order))


def _best_order(table, m: int):
    """(total, order) of the best ordering of range(m), where realizing the
    bitmask S adds table[S]: the lexicographically first best order, by a
    subset DP in O(m·2^m) table lookups.

    tail[S] is the best value still to come once S is realized; bits are
    scanned in ascending order and a later bit must win by more than 1e-12
    of the best so far. The order then takes, from the empty set on, the
    smallest element whose continuation falls short of tail[S] by at most
    1e-12 of it (totals are nonnegative), so near-ties resolve alike at
    any magnitude. The total is summed forward along that order, as the
    order's own step values would be; table[0] is never read.
    """
    full = (1 << m) - 1
    tail = [0.0] * (full + 1)
    for mask in range(full - 1, -1, -1):
        best = -math.inf
        for i in range(m):
            if not mask >> i & 1:
                nxt = mask | 1 << i
                cand = table[nxt] + tail[nxt]
                if cand > best * (1.0 + 1e-12):
                    best = cand
        tail[mask] = best
    total, mask, order = 0.0, 0, []
    while mask != full:
        for i in range(m):
            if not mask >> i & 1:
                nxt = mask | 1 << i
                step = table[nxt]
                if not tail[mask] > (step + tail[nxt]) * (1.0 + 1e-12):
                    break
        order.append(i)
        total += step
        mask = nxt
    return total, tuple(order)


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
