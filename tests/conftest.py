import itertools
import math
import random

import pytest

from permopt.subproblems import FlowInstance, MatchingInstance, make_instance, subset_values


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
