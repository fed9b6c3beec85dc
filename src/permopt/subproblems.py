"""Subproblem families: bipartite max-weight matching and s-t max flow.

Each family shows up twice, deliberately: as an emitter of per-step LP
variables/constraints coupled to a chain column, and as an independent
combinatorial value oracle (matching by enumeration, flow by augmenting
paths) used to cross-check every LP value.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .lp import GE, LE, EQ, LinearConstraint

MATCHING = "matching"
FLOW = "flow"

ENUMERATION_GUARD = 25
SUBSET_GUARD = 20  # largest m whose 2^m subset-value table is built


class InstanceError(Exception):
    """Instance data violates a structural invariant."""


@dataclass(frozen=True)
class MatchingInstance:
    edges: dict  # element id -> (u, v)
    weights: dict  # element id -> weight >= 0
    left: frozenset  # one side of the bipartition

    def __post_init__(self):
        for e, w in self.weights.items():
            if not (math.isfinite(w) and w >= 0):
                raise InstanceError(f"edge {e} has weight {w}, expected a finite number >= 0")
        for e, (u, v) in self.edges.items():
            if (u in self.left) == (v in self.left):
                raise InstanceError(f"edge {e}=({u},{v}) does not cross the bipartition")


@dataclass(frozen=True)
class FlowInstance:
    arcs: dict  # element id -> (tail, head)
    capacities: dict  # element id -> capacity >= 0, math.inf = uncapacitated
    source: int
    sink: int

    def __post_init__(self):
        if self.source == self.sink:
            raise InstanceError("source equals sink")
        for a, c in self.capacities.items():
            if not c >= 0:  # also rejects NaN; inf stays allowed
                raise InstanceError(f"arc {a} has capacity {c}, expected a number >= 0")
        # Every arc is built by step m, so fixed and orderable arcs both
        # count: an s-t path of uncapacitated arcs makes the last steps'
        # max flow unbounded, which no finite stand-in capacity represents.
        uncapacitated = {}
        for a, (tail, head) in self.arcs.items():
            if math.isinf(self.capacities[a]):
                uncapacitated.setdefault(tail, []).append(head)
        reached, frontier = {self.source}, [self.source]
        while frontier:
            for head in uncapacitated.get(frontier.pop(), ()):
                if head == self.sink:
                    raise InstanceError(
                        "the sink is reachable from the source through uncapacitated "
                        "arcs alone, so the max flow is unbounded"
                    )
                if head not in reached:
                    reached.add(head)
                    frontier.append(head)

    @property
    def nodes(self):
        ns = {self.source, self.sink}
        for t, h in self.arcs.values():
            ns.add(t)
            ns.add(h)
        return ns

    def finite_cap(self, a) -> float:
        """Capacity with 'uncapacitated' replaced by a safe finite bound
        (sum of all finite capacities): with no s-t path of uncapacitated
        arcs, the finite arcs hold an s-t cut, so no max flow exceeds it."""
        c = self.capacities[a]
        if math.isinf(c):
            return sum(v for v in self.capacities.values() if not math.isinf(v))
        return c


@dataclass(frozen=True)
class Instance:
    family: str
    matching: MatchingInstance | None
    flow: FlowInstance | None
    orderable: tuple  # sorted element ids, the ground set; |orderable| = m
    fixed: tuple  # element ids always available

    def __post_init__(self):
        if self.family not in (MATCHING, FLOW):
            raise InstanceError(f"unknown family {self.family!r}")
        if set(self.orderable) & set(self.fixed):
            raise InstanceError("orderable and fixed element sets overlap")
        referenced = set(self.element_ids())
        declared = set(self.orderable) | set(self.fixed)
        if declared != referenced:
            raise InstanceError(
                f"declared elements {sorted(declared)} != referenced {sorted(referenced)}"
            )

    def element_ids(self):
        data = self.matching if self.family == MATCHING else self.flow
        keys = data.edges if self.family == MATCHING else data.arcs
        return sorted(keys)

    @property
    def m(self) -> int:
        return len(self.orderable)


def make_instance(family, data, fixed_ids) -> Instance:
    ids = sorted(data.edges if family == MATCHING else data.arcs)
    fixed = tuple(sorted(fixed_ids))
    orderable = tuple(i for i in ids if i not in fixed)
    if family == MATCHING:
        return Instance(family, data, None, orderable, fixed)
    return Instance(family, None, data, orderable, fixed)


# ---------------------------------------------------------------------------
# combinatorial value oracles


def max_matching_value(inst: MatchingInstance, available) -> float:
    """Max-weight matching over the available edges, by exhaustive search."""
    avail = sorted(set(available))
    if len(avail) > ENUMERATION_GUARD:
        raise InstanceError(f"{len(avail)} edges exceeds enumeration guard {ENUMERATION_GUARD}")
    best = 0.0
    for subset, weight in _matchings(inst, avail):
        if weight > best:
            best = weight
    return best


def best_matching(inst: MatchingInstance, available):
    """(weight, edge-id tuple) of a max-weight matching; ties resolved by
    lexicographically smallest edge set."""
    avail = sorted(set(available))
    if len(avail) > ENUMERATION_GUARD:
        raise InstanceError(f"{len(avail)} edges exceeds enumeration guard {ENUMERATION_GUARD}")
    best_w = 0.0
    best_set = None
    for subset, weight in _matchings(inst, avail):
        if best_set is None or weight > best_w + 1e-12:
            best_w, best_set = weight, subset
        elif abs(weight - best_w) <= 1e-12 and subset < best_set:
            best_set = subset
    return best_w, best_set


def _matchings(inst: MatchingInstance, avail):
    """Yield (edge-id tuple, weight) for every matching among avail,
    enumerated in lexicographic order of the edge-id tuple."""

    def rec(start, used, chosen, weight):
        yield tuple(chosen), weight
        for k in range(start, len(avail)):
            e = avail[k]
            u, v = inst.edges[e]
            if u in used or v in used:
                continue
            chosen.append(e)
            yield from rec(k + 1, used | {u, v}, chosen, weight + inst.weights[e])
            chosen.pop()

    yield from rec(0, frozenset(), [], 0.0)


def max_flow(inst: FlowInstance, available):
    """Edmonds-Karp over the available arcs.

    Adjacency is scanned in ascending arc id and residual (reverse) arcs
    after all forward arcs, so the run, and the support of the returned
    flow, are deterministic. Returns (value, flow dict arc id -> flow).
    """
    avail = sorted(set(available))
    residual = {a: inst.finite_cap(a) for a in avail}
    flow = {a: 0.0 for a in avail}
    out_arcs = {}
    in_arcs = {}
    for a in avail:
        t, h = inst.arcs[a]
        out_arcs.setdefault(t, []).append(a)
        in_arcs.setdefault(h, []).append(a)

    value = 0.0
    while True:
        # BFS for a shortest augmenting path; parent[node] = (arc, forward?)
        parent = {inst.source: None}
        queue = deque([inst.source])
        while queue and inst.sink not in parent:
            u = queue.popleft()
            for a in out_arcs.get(u, ()):
                h = inst.arcs[a][1]
                if h not in parent and residual[a] > 1e-12:
                    parent[h] = (a, True)
                    queue.append(h)
            for a in in_arcs.get(u, ()):
                t = inst.arcs[a][0]
                if t not in parent and flow[a] > 1e-12:
                    parent[t] = (a, False)
                    queue.append(t)
        if inst.sink not in parent:
            return value, flow
        path = []
        node = inst.sink
        bottleneck = math.inf
        while parent[node] is not None:
            a, fwd = parent[node]
            path.append((a, fwd))
            bottleneck = min(bottleneck, residual[a] if fwd else flow[a])
            node = inst.arcs[a][0] if fwd else inst.arcs[a][1]
        for a, fwd in path:
            if fwd:
                residual[a] -= bottleneck
                flow[a] += bottleneck
            else:
                residual[a] += bottleneck
                flow[a] -= bottleneck
        value += bottleneck


def max_flow_value(inst: FlowInstance, available) -> float:
    return max_flow(inst, available)[0]


def step_value(instance: Instance, available) -> float:
    """Optimal subproblem value when `available` orderable elements plus all
    fixed elements may be used."""
    if not set(available) <= set(instance.orderable):
        raise InstanceError("available set contains non-orderable elements")
    usable = set(available) | set(instance.fixed)
    if instance.family == MATCHING:
        return max_matching_value(instance.matching, usable)
    return max_flow_value(instance.flow, usable)


def subset_values(instance: Instance) -> list:
    """step_value of every subset of the orderable elements, indexed by
    bitmask: bit i of the index stands for instance.orderable[i]."""
    m = instance.m
    if m > SUBSET_GUARD:
        raise InstanceError(f"m={m} exceeds subset-table guard {SUBSET_GUARD}")
    elems = instance.orderable
    return [step_value(instance, [elems[i] for i in range(m) if mask >> i & 1])
            for mask in range(1 << m)]


# ---------------------------------------------------------------------------
# LP step-block emitters


def emit_step(instance: Instance, j: int, h_vars, builder):
    """Add the step-j subproblem block to `builder`.

    h_vars maps orderable element id -> the chain variable for column j.
    Returns the new variable ids, a dict element id -> var. The block's
    constraints and objective terms are installed on the builder.
    """
    if not (1 <= j <= instance.m):
        raise InstanceError(f"step {j} out of range")
    if instance.family == MATCHING:
        return _emit_matching_step(instance, j, h_vars, builder)
    return _emit_flow_step(instance, j, h_vars, builder)


def _emit_matching_step(instance, j, h_vars, builder):
    data = instance.matching
    x = {}
    for e in sorted(data.edges):
        x[e] = builder.add_var(f"x{j}[{e}]", 0.0, 1.0)
        builder.set_objective(x[e], data.weights[e])
        if e in h_vars:
            builder.add(LinearConstraint({x[e]: 1.0, h_vars[e]: -1.0}, LE, 0.0,
                                         name=f"avail{j}[{e}]"))
    by_vertex = {}
    for e, (u, v) in data.edges.items():
        by_vertex.setdefault(u, []).append(e)
        by_vertex.setdefault(v, []).append(e)
    for v in sorted(by_vertex):
        builder.add(LinearConstraint({x[e]: 1.0 for e in by_vertex[v]}, LE, 1.0,
                                     name=f"deg{j}[{v}]"))
    return x


def _emit_flow_step(instance, j, h_vars, builder):
    data = instance.flow
    f = {}
    for a in sorted(data.arcs):
        cap = data.finite_cap(a)
        f[a] = builder.add_var(f"f{j}[{a}]", 0.0, cap)
        # a zero-capacity arc is already held at zero by its [0, 0] bound
        if a in h_vars and cap > 0:
            builder.add(LinearConstraint({f[a]: 1.0, h_vars[a]: -cap}, LE, 0.0,
                                         name=f"avail{j}[{a}]"))
    for node in sorted(data.nodes):
        if node in (data.source, data.sink):
            continue
        coefs = {}
        for a, (t, h) in data.arcs.items():
            if t == node:
                coefs[f[a]] = coefs.get(f[a], 0.0) + 1.0
            if h == node:
                coefs[f[a]] = coefs.get(f[a], 0.0) - 1.0
        coefs = {var: c for var, c in coefs.items() if c != 0.0}
        if coefs:
            builder.add(LinearConstraint(coefs, EQ, 0.0, name=f"conserve{j}[{node}]"))
    # net outflow of the source, the value max_flow counts
    for a, (t, h) in sorted(data.arcs.items()):
        if t == data.source:
            builder.set_objective(f[a], 1.0)
        if h == data.source:
            builder.set_objective(f[a], -1.0)
    return f
