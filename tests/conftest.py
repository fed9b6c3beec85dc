import itertools
import math
import random

import numpy as np
import pytest

from permopt.lp import EQ, GE
from permopt.subproblems import (
    FlowInstance,
    InstanceError,
    MatchingInstance,
    make_instance,
    step_value,
    subset_values,
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


def per_set_values(instance):
    """step_value of every subset of the orderable elements, one oracle
    call per set, indexed by bitmask: the reference for `subset_values`."""
    elems = instance.orderable
    return [step_value(instance, [e for i, e in enumerate(elems) if mask >> i & 1])
            for mask in range(2 ** instance.m)]


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
    from permopt.baselines import SetFunctionSpec

    covers = tuple(
        frozenset(u for u in range(universe) if rng.random() < 0.35) for _ in range(m)
    )
    return SetFunctionSpec("coverage", covers=covers)


def enumerated_best_order(table, m: int):
    """(total, order) of the best ordering of range(m), where realizing the
    bitmask S adds table[S], by walking all m! orders; the first best order
    in lexicographic order wins unless a later one beats it by more than
    1e-12 of the best total. The reference for `baselines._best_order`."""
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


def set_function_table(f):
    """Bitmask table of a `SetFunctionSpec`: entry mask is f of its bits."""
    return [f.value([i for i in range(f.m) if mask >> i & 1]) for mask in range(1 << f.m)]


@pytest.fixture
def rng():
    return random.Random(20240817)
