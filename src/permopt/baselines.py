"""Greedy baselines, the brute-force ordering oracle, and the unconstrained
monotone-submodular greedy with its approximation-ratio lower bound.

All greedies run one marginal-gain loop (`_greedy`) over a value function
they pass in. Both brute forces enumerate every ordering with one loop
(`_best_order`) over a bitmask-indexed table of subset values; for
instances that table is `subproblems.subset_values`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .perms import Permutation
from .scheduler import Schedule, evaluate_schedule
from .subproblems import (
    MATCHING,
    Instance,
    best_matching,
    max_flow,
    step_value,
    subset_values,
)

BRUTE_FORCE_GUARD = 9


class GuardError(Exception):
    """Problem size exceeds an enumeration guard."""


def _greedy(value, pools) -> list:
    """Realize, pool after pool, the element of the current pool with the
    best marginal gain under `value`; ties broken by smallest element id."""
    chosen = []
    base = value(chosen)
    for pool in pools:
        pool = list(pool)
        while pool:
            gains = {e: value(chosen + [e]) for e in pool}
            pick = max(pool, key=lambda e: (gains[e] - base, -e))
            chosen.append(pick)
            pool.remove(pick)
            base = gains[pick]
    return chosen


def greedy_marginal(instance: Instance) -> Schedule:
    """At each step realize the element with the best marginal gain,
    ties broken by smallest element id."""
    order = _greedy(lambda s: step_value(instance, s), [instance.orderable])
    return _from_order(instance, order, "greedy-marginal")


def greedy_optimal_first(instance: Instance) -> Schedule:
    """Realize the support of one optimal subproblem solution first (ordered
    by marginal gain), then the rest by marginal gain."""
    support = _optimal_support(instance)
    rest = [e for e in instance.orderable if e not in support]
    order = _greedy(lambda s: step_value(instance, s), [sorted(support), rest])
    return _from_order(instance, order, "greedy-first")


def _optimal_support(instance: Instance) -> set:
    """Orderable elements used by one optimal full-availability solution.

    Matchings: enumerated optimum, lexicographically smallest edge set among
    ties. Flows: arcs carrying positive flow in the deterministic
    augmenting-path run.
    """
    everything = set(instance.orderable) | set(instance.fixed)
    if instance.family == MATCHING:
        _, edges = best_matching(instance.matching, everything)
        support = set(edges)
    else:
        _, flow = max_flow(instance.flow, everything)
        support = {a for a, f in flow.items() if f > 1e-9}
    return support & set(instance.orderable)


def brute_force(instance: Instance) -> Schedule:
    """Evaluate every ordering; ties resolved by the lexicographically
    smallest realization order."""
    if instance.m > BRUTE_FORCE_GUARD:
        raise GuardError(f"m={instance.m} exceeds brute-force guard {BRUTE_FORCE_GUARD}")
    order = _best_order(subset_values(instance), instance.m)[1]
    return evaluate_schedule(instance, Permutation.from_order(order), "brute")


def _best_order(table, m: int):
    """(total, order) of the best ordering of range(m), where realizing the
    bitmask S adds table[S]; the first best order in lexicographic order
    wins unless a later one beats it by more than 1e-12."""
    best_total, best_order = -math.inf, None
    for order in itertools.permutations(range(m)):
        total = 0.0
        mask = 0
        for i in order:
            mask |= 1 << i
            total += table[mask]
        if total > best_total + 1e-12:
            best_total, best_order = total, order
    return best_total, best_order


def _from_order(instance: Instance, order, method) -> Schedule:
    index = {e: i for i, e in enumerate(instance.orderable)}
    p = Permutation.from_order([index[e] for e in order])
    return evaluate_schedule(instance, p, method)


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
        if self.kind == "additive" and any(w < 0 for w in self.weights):
            raise ValueError("additive weights must be nonnegative for monotonicity")

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
    m = f.m
    chosen = _greedy(f.value, [range(m)])
    values = [f.value(chosen[:j]) for j in range(1, m + 1)]
    p = Permutation.from_order(chosen)
    return Schedule(p, tuple(values), sum(values), "greedy-marginal", order=tuple(chosen))


def brute_force_set_function(f: SetFunctionSpec) -> float:
    """Exhaustive optimum of the cumulative value over all orderings."""
    m = f.m
    if m > BRUTE_FORCE_GUARD:
        raise GuardError(f"m={m} exceeds brute-force guard {BRUTE_FORCE_GUARD}")
    table = [f.value([i for i in range(m) if mask >> i & 1]) for mask in range(1 << m)]
    return _best_order(table, m)[0]


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
