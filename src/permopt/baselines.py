"""Greedy baselines, the brute-force ordering oracle, and the unconstrained
monotone-submodular greedy with its approximation-ratio lower bound.

All greedies run one marginal-gain loop (`_greedy`) that grows each
candidate from the realized set's state with a `grow` they pass in: the
family's for instances, one over tuples for set functions. Brute force is
the repair, `scheduler._repair_subset_dp`: the instance's exact order,
certified by the family's duals (`subproblems.exact_order`). Both brute
forces take the lexicographically first best order of
`subproblems._best_order`, a subset DP over the 2^m bitmasks in numpy, for
m <= SUBSET_GUARD; for a set function it reads the table of every subset's
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .perms import Permutation
from .scheduler import Schedule, _repair_subset_dp, evaluate_schedule
from .subproblems import SUBSET_GUARD, Instance, _best_order, step_value  # step_value: tracer only


def _greedy(grow, root, pools) -> list:
    """Realize, pool after pool, the element of the current pool with the best
    marginal gain, growing each candidate from the realized set's (value,
    state), first `root`, by `grow`; ties broken by smallest element id."""
    chosen = []
    base, state = root
    for pool in pools:
        pool = list(pool)
        while pool:
            grown = {e: grow(state, (e,)) for e in pool}
            pick = max(pool, key=lambda e: (grown[e][0] - base, -e))
            chosen.append(pick)
            pool.remove(pick)
            base, state = grown[pick]
    return chosen


def greedy_marginal(instance: Instance) -> Schedule:
    """At each step realize the element with the best marginal gain,
    ties broken by smallest element id."""
    grow = instance.data.grow
    order = _greedy(grow, grow(None, instance.fixed), [instance.orderable])
    return _from_order(instance, order, "greedy-marginal")


def greedy_optimal_first(instance: Instance) -> Schedule:
    """Realize the orderable part of one optimal full-availability solution
    (`support` of the family) first, ordered by marginal gain, then the rest
    by marginal gain."""
    support = instance.data.support(instance.data.elements) & set(instance.orderable)
    rest = [e for e in instance.orderable if e not in support]
    grow = instance.data.grow
    order = _greedy(grow, grow(None, instance.fixed), [sorted(support), rest])
    return _from_order(instance, order, "greedy-first")


def brute_force(instance: Instance) -> Schedule:
    """Exact optimum, the lexicographically first best realization order:
    the repair's, the instance's one exact order (m <= SUBSET_GUARD)."""
    return replace(_repair_subset_dp(instance), method="brute")


def _from_order(instance: Instance, order, method) -> Schedule:
    index = {e: i for i, e in enumerate(instance.orderable)}
    return evaluate_schedule(instance, Permutation.from_order([index[e] for e in order]), method)


# ---------------------------------------------------------------------------
# unconstrained monotone-submodular greedy (§ set-function setting)


@dataclass(frozen=True)
class SetFunctionSpec:
    """Additive (modular) or coverage (monotone submodular) set function."""

    kind: str  # 'additive' | 'coverage'
    weights: tuple = ()  # additive: weight per element
    covers: tuple = ()  # coverage: per element, a frozenset of universe points

    def __post_init__(self):
        if self.kind not in ("additive", "coverage"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "additive" and not all(math.isfinite(w) and w >= 0 for w in self.weights):
            raise ValueError("additive weights must be finite and nonnegative for monotonicity")

    @property
    def m(self) -> int:
        return len(self.weights) if self.kind == "additive" else len(self.covers)

    def value(self, subset) -> float:
        if self.kind == "additive":
            return float(sum(self.weights[i] for i in subset))
        covered = set()
        for i in subset:
            covered |= self.covers[i]
        return float(len(covered))


def submodular_greedy(f: SetFunctionSpec) -> Schedule:
    """Greedy ordering by marginal gain; with no feasibility constraint the
    step-j value is simply f of the first j elements."""
    def grow(chosen, added):
        return f.value(chosen + added), chosen + added
    chosen = _greedy(grow, grow((), ()), [range(f.m)])
    values = [f.value(chosen[:j]) for j in range(1, f.m + 1)]
    p = Permutation.from_order(chosen)
    return Schedule(p, tuple(values), sum(values), "greedy-marginal", order=tuple(chosen))


def brute_force_set_function(f: SetFunctionSpec) -> float:
    """Exact optimum of the cumulative value over all orderings, by the
    subset DP of `brute_force`: the total of the lexicographically first
    best order; ValueError past m = SUBSET_GUARD or on an overflowing total."""
    m = f.m
    if m > SUBSET_GUARD:
        raise ValueError(f"m={m} exceeds subset-table guard {SUBSET_GUARD}")
    table = [f.value([i for i in range(m) if mask >> i & 1]) for mask in range(1 << m)]
    total = _best_order(table, m)[0]
    if not math.isfinite(total):
        raise ValueError(f"the cumulative value is not finite (total {total})")
    return total


def ratio_bound(m: int) -> float:
    """Greedy guarantee for the unconstrained monotone-submodular case:
    (1/m) * sum_{j=1..m} (1 - (1 - 1/m)^j); decreases to 1/e from above.

    Evaluated via the geometric-series closed form 1 - q*(1 - q^m) with
    q = 1 - 1/m, which equals the sum and stays O(1) for large m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    q = 1.0 - 1.0 / m
    return 1.0 - q * (1.0 - q**m)
