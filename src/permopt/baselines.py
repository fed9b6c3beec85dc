"""Greedy baselines, the brute-force ordering oracle, and the unconstrained
monotone-submodular greedy with its approximation-ratio lower bound.

All greedies run one marginal-gain loop (`_greedy`) over a value function
they pass in. Both brute forces find the lexicographically first best
order with `scheduler._best_order`, the subset DP that also repairs the
master LP's order, over a bitmask-indexed table of subset values, in
O(m·2^m) steps instead of walking all m! orders; for instances that table
is `subproblems.subset_values`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perms import Permutation
from .scheduler import Schedule, _best_order, evaluate_schedule
from .subproblems import Instance, step_value, subset_values

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
    """Realize the orderable part of one optimal full-availability solution
    (`support` of the family) first, ordered by marginal gain, then the rest
    by marginal gain."""
    support = instance.data.support(instance.data.elements) & set(instance.orderable)
    rest = [e for e in instance.orderable if e not in support]
    order = _greedy(lambda s: step_value(instance, s), [sorted(support), rest])
    return _from_order(instance, order, "greedy-first")


def brute_force(instance: Instance) -> Schedule:
    """Exact optimum by a subset DP over every realized subset; ties
    resolved by the lexicographically first best realization order."""
    if instance.m > BRUTE_FORCE_GUARD:
        raise GuardError(f"m={instance.m} exceeds brute-force guard {BRUTE_FORCE_GUARD}")
    order = _best_order(subset_values(instance), instance.m)[1]
    return evaluate_schedule(instance, Permutation.from_order(order), "brute")


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
    """Exact optimum of the cumulative value over all orderings, by the
    subset DP of `brute_force`: the total of the lexicographically first
    best order."""
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
