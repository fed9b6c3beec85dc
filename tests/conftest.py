import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from permopt.lp import EQ, GE, LE
from permopt.scheduler import build_master_lp
from permopt.subproblems import (
    CoverageInstance,
    FlowInstance,
    InstanceError,
    MatchingInstance,
    make_instance,
    step_value,
)


def random_matching_instance(rng: random.Random, m: int):
    """Random bipartite instance with m orderable edges, weights in 1..10."""
    left = [0, 1, 2, 3]
    right = [4, 5, 6, 7]
    edges, weights = {}, {}
    for e in range(m):
        edges[e] = (rng.choice(left), rng.choice(right))
        weights[e] = float(rng.randint(1, 10))
    data = MatchingInstance(edges, weights, frozenset(left))
    return make_instance(data, [])


def random_flow_instance(rng: random.Random, m: int, n_fixed: int = 1):
    """Random s-t network with m orderable arcs, capacities in 1..10.

    Node 0 is the source, node 1 the sink, nodes 2..4 interior. A fixed
    s-outgoing arc keeps some instances nontrivial at early steps.
    """
    nodes = [0, 1, 2, 3, 4]
    arcs, caps = {}, {}
    eid = 0
    for _ in range(n_fixed):
        arcs[eid] = (0, rng.choice([2, 3, 4]))
        caps[eid] = float(rng.randint(1, 10))
        eid += 1
    fixed_ids = list(range(n_fixed))
    while eid < m + n_fixed:
        tail = rng.choice([n for n in nodes if n != 1])
        head = rng.choice([n for n in nodes if n != 0 and n != tail])
        arcs[eid] = (tail, head)
        caps[eid] = float(rng.randint(1, 10))
        eid += 1
    data = FlowInstance(arcs, caps, 0, 1)
    return make_instance(data, fixed_ids)


def random_network_instance(rng: random.Random, m: int, n_fixed: int):
    """Random s-t network with m orderable arcs and n_fixed fixed ones (the
    first ids), between any two of nodes 0..4 (source 0, sink 1), so arcs
    may enter the source or leave the sink. Capacities are 0, inf or 1..10,
    and every third arc repeats the ends of an earlier one. A draw whose
    uncapacitated arcs join the source to the sink is drawn again."""
    while True:
        arcs, caps = {}, {}
        for a in range(m + n_fixed):
            if a % 3 == 2:
                arcs[a] = arcs[rng.randrange(a)]
            else:
                arcs[a] = tuple(rng.sample(range(5), 2))
            caps[a] = rng.choice([0.0, math.inf] + [float(c) for c in range(1, 11)])
        try:
            return make_instance(FlowInstance(arcs, caps, 0, 1), range(n_fixed))
        except InstanceError:
            continue


def spiked(instance, factor, rng):
    """The instance with one weight or capacity, drawn by rng, multiplied
    by factor."""
    data = instance.data
    field = "capacities" if instance.family == "flow" else "weights"
    values = getattr(data, field)
    e = rng.choice(sorted(values))
    values = {**values, e: values[e] * factor}
    return dataclasses.replace(instance, data=dataclasses.replace(data, **{field: values}))


def subset_values(instance) -> list:
    """step_value of every subset of the orderable elements, indexed by
    bitmask: bit i of the index stands for instance.orderable[i]. The
    exact order's reference table.

    The subsets are walked depth-first, each child its parent plus one
    higher element, and the family's `grow` takes each child from its
    parent's state, so only the m states on the current path are held.
    """
    m = instance.m
    elems, data = instance.orderable, instance.data
    table = [0.0] * (1 << m)

    def visit(mask, low, state):
        for i in range(low, m):
            table[mask | 1 << i], child = data.grow(state, (elems[i],))
            visit(mask | 1 << i, i + 1, child)

    table[0], root = data.grow(None, instance.fixed)
    visit(0, 0, root)
    return table


def scalar_best_order(table, m: int):
    """(total, order) of the best ordering of range(m), where realizing the
    bitmask S adds table[S], by a scalar subset DP in O(m·2^m) table
    lookups: the reference for the numpy `subproblems._best_order`.

    tail[S] is the best value still to come once S is realized; bits are
    scanned in ascending order and a later bit must win by more than 1e-12
    of the best so far. The order then takes, from the empty set on, the
    smallest element whose continuation falls short of tail[S] by at most
    1e-12 of it. The total is summed forward along that order.
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


def table_order(instance) -> tuple:
    """The exact order, as positions in `orderable`, that the scalar DP
    takes on the full subset table."""
    return scalar_best_order(subset_values(instance), instance.m)[1]


def per_set_values(instance):
    """step_value of every subset of the orderable elements, one oracle
    call per set, indexed by bitmask: the reference for `subset_values`."""
    elems = instance.orderable
    return [step_value(instance, [e for i, e in enumerate(elems) if mask >> i & 1])
            for mask in range(2 ** instance.m)]


def cold_greedy(instance, pools) -> list:
    """Realize, pool after pool, the element of the current pool with the
    best marginal gain, reading each set's value by one cold `step_value`
    call; ties broken by smallest element id. The reference for the
    greedies, which grow each candidate from the realized set's state."""
    chosen = []
    base = step_value(instance, chosen)
    for pool in pools:
        pool = list(pool)
        while pool:
            gains = {e: step_value(instance, chosen + [e]) for e in pool}
            pick = max(pool, key=lambda e: (gains[e] - base, -e))
            chosen.append(pick)
            pool.remove(pick)
            base = gains[pick]
    return chosen


def prefix_values(instance, order) -> tuple:
    """step_value of each prefix of an order of element ids, one cold oracle
    call per prefix: the reference for a schedule's step values."""
    return tuple(step_value(instance, order[:j]) for j in range(1, len(order) + 1))


def highs_best_total(instance) -> float:
    """Best cumulative value of the instance by HiGHS (scipy): the master
    program of `build_master_lp` with every chain variable h binary, so each
    step's block reads one prefix of one order. An independent reference for
    the exact order; the calling test is skipped where scipy is missing."""
    optimize = pytest.importorskip("scipy.optimize")
    builder, h = build_master_lp(instance)
    lp = builder.build("max")
    rows = np.zeros((len(lp.constraints), lp.n))
    lower, upper = [], []
    for r, con in enumerate(lp.constraints):
        for var, coef in con.coefficients.items():
            rows[r, var] = coef
        lower.append(-math.inf if con.relation == LE else con.rhs)
        upper.append(math.inf if con.relation == GE else con.rhs)
    integrality = np.zeros(lp.n)
    integrality[[v for row in h for v in row]] = 1
    res = optimize.milp(-np.array(lp.objective), integrality=integrality,
                        bounds=optimize.Bounds(lp.lower, lp.upper),
                        constraints=optimize.LinearConstraint(rows, lower, upper),
                        options={"mip_rel_gap": 0.0})
    assert res.status == 0, res.message
    return -res.fun


def highs_optimum(lp):
    """Optimum of a `LinearProgram` by HiGHS (scipy), the tests' independent
    reference; the calling test is skipped where scipy is missing."""
    optimize = pytest.importorskip("scipy.optimize")
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in lp.constraints:
        sign = -1.0 if con.relation == GE else 1.0
        row = np.zeros(lp.n)
        for var, coef in con.coefficients.items():
            row[var] = sign * coef
        a, b = (a_eq, b_eq) if con.relation == EQ else (a_ub, b_ub)
        a.append(row)
        b.append(sign * con.rhs)
    sense = -1.0 if lp.sense == "max" else 1.0
    bounds = [(None if math.isinf(lo) else lo, None if math.isinf(hi) else hi)
              for lo, hi in zip(lp.lower, lp.upper)]
    res = optimize.linprog(sense * np.array(lp.objective),
                           A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
                           A_eq=np.array(a_eq) if a_eq else None, b_eq=b_eq or None,
                           bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return sense * res.fun


def random_coverage_function(rng: random.Random, m: int, universe: int = 12):
    """Unit-weight coverage instance: elements 0..m-1, each covering each of
    the points 0..universe-1 with probability 0.35."""
    covers = {e: frozenset(u for u in range(universe) if rng.random() < 0.35)
              for e in range(m)}
    return make_instance(CoverageInstance(covers, dict.fromkeys(range(universe), 1.0)), [])


def random_weighted_coverage(rng: random.Random, m: int, n_fixed: int = 0, universe: int = 8):
    """Coverage instance with m orderable elements and n_fixed fixed ones
    (the first ids), each covering 0-3 of the points 0..universe-1, whose
    weights are 0..10."""
    covers = {e: frozenset(rng.sample(range(universe), rng.randint(0, 3)))
              for e in range(m + n_fixed)}
    weights = {u: float(rng.randint(0, 10)) for u in range(universe)}
    return make_instance(CoverageInstance(covers, weights), range(n_fixed))


def additive_function(weights):
    """Additive set function as a coverage instance: element e covers the
    one point e, of weight weights[e]."""
    return make_instance(CoverageInstance({e: frozenset({e}) for e in range(len(weights))},
                                          dict(enumerate(weights))), [])


def enumerated_best_order(table, m: int):
    """(total, order) of the best ordering of range(m), where realizing the
    bitmask S adds table[S], by walking all m! orders; the first best order
    in lexicographic order wins unless a later one beats it by more than
    1e-12 of the best total. The reference for both subset DPs."""
    best_total, best_order = -math.inf, None
    for order in itertools.permutations(range(m)):
        total = 0.0
        mask = 0
        for i in order:
            mask |= 1 << i
            total += table[mask]
        if total > best_total * (1.0 + 1e-12):
            best_total, best_order = total, order
    return best_total, best_order


def walked(instance):
    """(total, order of element ids) that walking all m! orders picks on
    the instance's subset table."""
    total, order = enumerated_best_order(subset_values(instance), instance.m)
    return total, tuple(instance.orderable[i] for i in order)


@pytest.fixture
def rng():
    return random.Random(20240817)
