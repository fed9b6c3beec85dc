"""Subproblem families: bipartite max-weight matching and s-t max flow.

A family is one data class, `MatchingInstance` or `FlowInstance`, and each
class carries both faces of its subproblem: `value`, an independent
combinatorial oracle (matching by enumeration, flow by augmenting paths),
and `emit`, the per-step LP block coupled to a chain column, whose values
the oracle cross-checks. Alongside them sit `elements` (id -> endpoints),
`values` (id -> weight or capacity), `support` (the elements of one optimal
solution), `grow` (the value once more elements become usable, from the
state of a previous call, which `subset_values` walks the subsets with)
and `scaled` (a copy in other units). `Instance` holds exactly one family
object, so the solvers never ask which family they run on.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property

from .lp import EQ, LE, LinearConstraint

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

    family = MATCHING  # class attribute, not a field

    def __post_init__(self):
        for e, w in self.weights.items():
            if not (math.isfinite(w) and w >= 0):
                raise InstanceError(f"edge {e} has weight {w}, expected a finite number >= 0")
        for e, (u, v) in self.edges.items():
            if (u in self.left) == (v in self.left):
                raise InstanceError(f"edge {e}=({u},{v}) does not cross the bipartition")

    @property
    def elements(self) -> dict:
        return self.edges

    @property
    def values(self) -> dict:
        return self.weights

    def value(self, usable) -> float:
        """Weight of a max-weight matching over the usable edges."""
        return best_matching(self, usable)[0]

    def support(self, usable) -> set:
        """Edges of the max-weight matching that `best_matching` picks."""
        return set(best_matching(self, usable)[1])

    def grow(self, state, added):
        """(value, state) once the edges `added` become usable too; a state
        is the usable edge set (None: no edge yet), and each value is a
        fresh enumeration."""
        usable = (state or frozenset()) | frozenset(added)
        return self.value(usable), usable

    def scaled(self, scale: float) -> MatchingInstance:
        return replace(self, weights={e: w / scale for e, w in self.weights.items()})

    def emit(self, j, h_vars, builder) -> dict:
        """Step-j matching block: x[e] in [0, 1] at weight w_e, x[e] <= h[e]
        for orderable edges, and one degree row per vertex."""
        x = {}
        for e in sorted(self.edges):
            x[e] = builder.add_var(f"x{j}[{e}]", 0.0, 1.0)
            builder.set_objective(x[e], self.weights[e])
            if e in h_vars:
                builder.add(LinearConstraint({x[e]: 1.0, h_vars[e]: -1.0}, LE, 0.0,
                                             name=f"avail{j}[{e}]"))
        by_vertex = {}
        for e, (u, v) in self.edges.items():
            by_vertex.setdefault(u, []).append(e)
            by_vertex.setdefault(v, []).append(e)
        for v in sorted(by_vertex):
            builder.add(LinearConstraint({x[e]: 1.0 for e in by_vertex[v]}, LE, 1.0,
                                         name=f"deg{j}[{v}]"))
        return x


@dataclass(frozen=True)
class FlowInstance:
    arcs: dict  # element id -> (tail, head)
    capacities: dict  # element id -> capacity >= 0, math.inf = uncapacitated
    source: int
    sink: int

    family = FLOW  # class attribute, not a field

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

    @property
    def elements(self) -> dict:
        return self.arcs

    @property
    def values(self) -> dict:
        return self.capacities

    def value(self, usable) -> float:
        """Max s-t flow value over the usable arcs."""
        return max_flow(self, usable)[0]

    def support(self, usable) -> set:
        """Arcs carrying flow in the `max_flow` run, by its per-arc zero test."""
        return {a for a, f in max_flow(self, usable)[1].items() if f > 1e-12 * self.finite_cap(a)}

    def grow(self, state, added):
        """(value, state) once the arcs `added` become usable too. A state
        is (value, residual, flow), indexed like `network.arcs`, and holds a
        max flow over the usable arcs (None: the zero flow, no arc usable);
        that flow stays feasible with more arcs, so `_augment` starts from
        it. The state passed in is not changed."""
        net = self.network
        if state is None:
            value, residual, flow = 0.0, [0.0] * len(net.arcs), [0.0] * len(net.arcs)
        else:
            value, residual, flow = state[0], list(state[1]), list(state[2])
        for a in added:
            k = net.index[a]
            residual[k] = net.caps[k] - flow[k]
        value = _augment(net, residual, flow, value)
        return value, (value, residual, flow)

    @cached_property
    def network(self) -> FlowNetwork:
        """Adjacency of every arc, built once per instance."""
        return FlowNetwork(self)

    def scaled(self, scale: float) -> FlowInstance:
        return replace(self, capacities={a: c / scale for a, c in self.capacities.items()})

    def emit(self, j, h_vars, builder) -> dict:
        """Step-j flow block: f[a] in [0, cap_a], f[a] <= cap_a * h[a] for
        orderable arcs, conservation at every inner node, and the source's
        net outflow as the objective."""
        f = {}
        for a in sorted(self.arcs):
            cap = self.finite_cap(a)
            f[a] = builder.add_var(f"f{j}[{a}]", 0.0, cap)
            # a zero-capacity arc is already held at zero by its [0, 0] bound
            if a in h_vars and cap > 0:
                builder.add(LinearConstraint({f[a]: 1.0, h_vars[a]: -cap}, LE, 0.0,
                                             name=f"avail{j}[{a}]"))
        for node in sorted(self.nodes):
            if node in (self.source, self.sink):
                continue
            coefs = {}
            for a, (t, h) in self.arcs.items():
                if t == node:
                    coefs[f[a]] = coefs.get(f[a], 0.0) + 1.0
                if h == node:
                    coefs[f[a]] = coefs.get(f[a], 0.0) - 1.0
            coefs = {var: c for var, c in coefs.items() if c != 0.0}
            if coefs:
                builder.add(LinearConstraint(coefs, EQ, 0.0, name=f"conserve{j}[{node}]"))
        # net outflow of the source, the value max_flow counts
        for a, (t, h) in sorted(self.arcs.items()):
            if t == self.source:
                builder.set_objective(f[a], 1.0)
            if h == self.source:
                builder.set_objective(f[a], -1.0)
        return f


@dataclass(frozen=True)
class Instance:
    data: MatchingInstance | FlowInstance  # the one subproblem family
    orderable: tuple  # sorted element ids, the ground set; |orderable| = m
    fixed: tuple  # element ids always available

    def __post_init__(self):
        if not isinstance(self.data, (MatchingInstance, FlowInstance)):
            raise InstanceError(f"data is a {type(self.data).__name__}, "
                                "expected a MatchingInstance or FlowInstance")
        if set(self.orderable) & set(self.fixed):
            raise InstanceError("orderable and fixed element sets overlap")
        referenced = set(self.data.elements)
        declared = set(self.orderable) | set(self.fixed)
        if declared != referenced:
            raise InstanceError(
                f"declared elements {sorted(declared)} != referenced {sorted(referenced)}"
            )

    @property
    def family(self) -> str:
        return self.data.family

    @property
    def m(self) -> int:
        return len(self.orderable)


def make_instance(data, fixed_ids) -> Instance:
    fixed = tuple(sorted(fixed_ids))
    return Instance(data, tuple(i for i in sorted(data.elements) if i not in fixed), fixed)


# ---------------------------------------------------------------------------
# combinatorial value oracles


def best_matching(inst: MatchingInstance, available):
    """(weight, edge-id tuple) of a max-weight matching; ties resolved by
    lexicographically smallest edge set.

    Matchings are enumerated in lexicographic order, so a later one must
    win by more than a relative 1e-12; the tolerance scales with the
    weights, so tiny weights are never all taken for ties of the empty set.
    """
    avail = sorted(set(available))
    if len(avail) > ENUMERATION_GUARD:
        raise InstanceError(f"{len(avail)} edges exceeds enumeration guard {ENUMERATION_GUARD}")
    best_w, best_set = 0.0, None
    for subset, weight in _matchings(inst, avail):
        if best_set is None or weight > best_w * (1.0 + 1e-12):
            best_w, best_set = weight, subset
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


class FlowNetwork:
    """Adjacency of a `FlowInstance` with arcs at positions 0.. in ascending
    id: `arcs` (ids), `index` (id -> position), `caps` (finite capacities),
    `ends` ((tail, head) per position), and per node the arcs leaving it
    (`out`) and entering it (`into`) as (position, other end, zero), where
    zero = 1e-12 of the arc's capacity is the largest residual or flow
    that counts as none."""

    def __init__(self, inst: FlowInstance):
        self.source, self.sink = inst.source, inst.sink
        self.arcs = tuple(sorted(inst.arcs))
        self.index = {a: k for k, a in enumerate(self.arcs)}
        self.caps = [inst.finite_cap(a) for a in self.arcs]
        self.ends = [inst.arcs[a] for a in self.arcs]
        self.out, self.into = {}, {}
        for k, (t, h) in enumerate(self.ends):
            zero = 1e-12 * self.caps[k]
            self.out.setdefault(t, []).append((k, h, zero))
            self.into.setdefault(h, []).append((k, t, zero))


def max_flow(inst: FlowInstance, available):
    """Edmonds-Karp over the available arcs, from the zero flow.

    Returns (value, flow dict arc id -> flow over the available arcs); the
    run is `_augment`'s, so its support is deterministic and scale-free.
    """
    avail = sorted(set(available))
    value, (_, _, flow) = inst.grow(None, avail)
    index = inst.network.index
    return value, {a: flow[index[a]] for a in avail}


def _augment(net: FlowNetwork, residual, flow, value) -> float:
    """Edmonds-Karp from a feasible flow of value `value`: augment along
    shortest paths until none is left, updating `residual` and `flow` (by
    arc position) in place, and return the max flow value.

    Adjacency is scanned in ascending arc id and residual (reverse) arcs
    after all forward arcs, so the run is deterministic. A residual or flow
    at or below 1e-12 of its arc's capacity counts as zero, so the run is
    scale-free; an arc that is not usable has residual 0 and flow 0.
    """
    source, sink = net.source, net.sink
    while True:
        # BFS for a shortest augmenting path; parent[node] = (arc, forward?)
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for k, h, zero in net.out.get(u, ()):
                if h not in parent and residual[k] > zero:
                    parent[h] = (k, True)
                    queue.append(h)
            for k, t, zero in net.into.get(u, ()):
                if t not in parent and flow[k] > zero:
                    parent[t] = (k, False)
                    queue.append(t)
        if sink not in parent:
            return value
        path = []
        node = sink
        bottleneck = math.inf
        while parent[node] is not None:
            k, fwd = parent[node]
            path.append((k, fwd))
            bottleneck = min(bottleneck, residual[k] if fwd else flow[k])
            node = net.ends[k][0] if fwd else net.ends[k][1]
        for k, fwd in path:
            if fwd:
                residual[k] -= bottleneck
                flow[k] += bottleneck
            else:
                residual[k] += bottleneck
                flow[k] -= bottleneck
        value += bottleneck


def step_value(instance: Instance, available) -> float:
    """Optimal subproblem value when `available` orderable elements plus all
    fixed elements may be used."""
    if not set(available) <= set(instance.orderable):
        raise InstanceError("available set contains non-orderable elements")
    return instance.data.value(set(available) | set(instance.fixed))


def subset_values(instance: Instance) -> list:
    """step_value of every subset of the orderable elements, indexed by
    bitmask: bit i of the index stands for instance.orderable[i].

    The subsets are walked depth-first, each child its parent plus one
    higher element, and the family's `grow` takes each child from its
    parent's state, so only the m states on the current path are held.
    """
    m = instance.m
    if m > SUBSET_GUARD:
        raise InstanceError(f"m={m} exceeds subset-table guard {SUBSET_GUARD}")
    elems, data = instance.orderable, instance.data
    table = [0.0] * (1 << m)

    def visit(mask, low, state):
        for i in range(low, m):
            table[mask | 1 << i], child = data.grow(state, (elems[i],))
            visit(mask | 1 << i, i + 1, child)

    table[0], root = data.grow(None, instance.fixed)
    visit(0, 0, root)
    return table


def emit_step(instance: Instance, j: int, h_vars, builder):
    """Add the step-j subproblem block to `builder`.

    h_vars maps orderable element id -> the chain variable for column j.
    Returns the new variable ids, a dict element id -> var. The block's
    constraints and objective terms are installed on the builder.
    """
    if not (1 <= j <= instance.m):
        raise InstanceError(f"step {j} out of range")
    return instance.data.emit(j, h_vars, builder)
