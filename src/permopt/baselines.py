"""Greedy baselines, the brute-force ordering oracle, and the approximation
ratio that marginal greedy is guaranteed on monotone submodular functions.

All greedies run one marginal-gain loop (`_greedy`) that grows each
candidate from the realized set's state with the family's `grow`. Brute
force is the repair, `scheduler._repair_subset_dp`: the instance's exact
order, certified by the family's duals (`subproblems.exact_order`), the
lexicographically first best order, for m <= SUBSET_GUARD. A set function
is an instance of the coverage family (an additive one covers one point per
element), so these methods serve it as they serve flows and matchings.
"""

from __future__ import annotations

from dataclasses import replace

from .perms import Permutation
from .scheduler import Schedule, _repair_subset_dp, evaluate_schedule
from .subproblems import Instance, step_value  # step_value: tracer only


def _greedy(instance: Instance, pools) -> list:
    """Realize, pool after pool, the element of the current pool with the best
    marginal gain, growing each candidate from the realized set's (value,
    state), first the fixed elements', by the family's `grow`; ties broken
    by smallest element id."""
    grow, chosen = instance.data.grow, []
    base, state = grow(None, instance.fixed)
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
    order = _greedy(instance, [instance.orderable])
    return _from_order(instance, order, "greedy-marginal")


def greedy_optimal_first(instance: Instance) -> Schedule:
    """Realize the orderable part of one optimal full-availability solution
    (`support` of the family) first, ordered by marginal gain, then the rest
    by marginal gain."""
    support = instance.data.support(instance.data.elements) & set(instance.orderable)
    rest = [e for e in instance.orderable if e not in support]
    order = _greedy(instance, [sorted(support), rest])
    return _from_order(instance, order, "greedy-first")


def brute_force(instance: Instance) -> Schedule:
    """Exact optimum, the lexicographically first best realization order:
    the repair's, the instance's one exact order (m <= SUBSET_GUARD)."""
    return replace(_repair_subset_dp(instance), method="brute")


def _from_order(instance: Instance, order, method) -> Schedule:
    index = {e: i for i, e in enumerate(instance.orderable)}
    return evaluate_schedule(instance, Permutation.from_order([index[e] for e in order]), method)


def ratio_bound(m: int) -> float:
    """Marginal greedy's guarantee on a monotone submodular set function,
    such as a coverage instance:
    (1/m) * sum_{j=1..m} (1 - (1 - 1/m)^j); decreases to 1/e from above.

    Evaluated via the geometric-series closed form 1 - q*(1 - q^m) with
    q = 1 - 1/m, which equals the sum and stays O(1) for large m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    q = 1.0 - 1.0 / m
    return 1.0 - q * (1.0 - q**m)
