"""Subproblem families: bipartite max-weight matching, s-t max flow and
weighted coverage (set functions; an additive one covers a point apiece).

A family is one data class, `MatchingInstance`, `FlowInstance` or
`CoverageInstance`, and each class carries both faces of its subproblem:
`grow(state, added)`, an independent combinatorial oracle (matching by
enumeration, flow by augmenting paths, coverage by a union of point sets)
that gives the value once `added` become usable too and the state to grow
on from, and `block`, the per-step LP block stated once as data (ids,
bounds, objective coefficients, rows), whose values the oracle cross-checks.
`emit_step` alone lays any block out against a chain column. Every solver
reads values by walking `grow` along its own chain of sets: `exact_order`,
`scheduler.evaluate_schedule` and the greedies. `dual(value, state)` reads a
modular upper bound on every set's value off a state of `grow`, tight at the
state's own set: the min cut of flows, the marginal bound of the others.
Every oracle counts in exact ints (`_dyadic`), with no zero or tie rule.
`value` and `support` (one cold run's value and optimal elements),
`elements` and `scaled` (a copy in other units) sit alongside.
`Instance` holds exactly one family object, so the solvers never ask which
family they run on. Its exact order (m <= SUBSET_GUARD) is certified by
those duals: `exact_order` runs the numpy subset DP `_best_order` on the
least of a few bounds instead of on all 2^m values, is built at most once
per instance and shared by every exact method.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .lp import EQ, LE, LinearConstraint

MATCHING = "matching"
FLOW = "flow"
COVERAGE = "coverage"

ENUMERATION_GUARD = 25
SUBSET_GUARD = 20  # largest m whose exact order is computed, over 2^m bitmasks
_TIE = 1.0 + 1e-12  # a value must exceed another's _TIE multiple to beat it
_CELLS = 1 << 15  # candidates per block of `_best_order`'s backward pass


class InstanceError(Exception):
    """Instance data violates a structural invariant."""


class SolveError(Exception):
    """Master LP or repair failure."""


@dataclass(frozen=True)
class MatchingInstance:
    edges: dict  # element id -> (u, v)
    weights: dict  # element id -> weight >= 0
    left: frozenset  # one side of the bipartition

    family = MATCHING  # class attribute, not a field

    def __post_init__(self):
        if self.weights.keys() != self.edges.keys():
            raise InstanceError(f"weights {sorted(self.weights)} != edges {sorted(self.edges)}")
        for e, w in self.weights.items():
            if not (math.isfinite(w) and w >= 0):
                raise InstanceError(f"edge {e} has weight {w}, expected a finite number >= 0")
        for e, (u, v) in self.edges.items():
            if (u in self.left) == (v in self.left):
                raise InstanceError(f"edge {e}=({u},{v}) does not cross the bipartition")
        n = len(self.edges)  # every method reads f(all), so fixed edges count too
        if n > ENUMERATION_GUARD:
            raise InstanceError(f"{n} edges exceeds enumeration guard {ENUMERATION_GUARD}")

    @property
    def elements(self) -> dict:
        return self.edges

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

    def dual(self, value, state):
        """(constant, {edge id: weight}): the marginal bound read at a
        (value, state) of `grow`. f(U) <= value + the weights of U's edges
        outside the state for every usable set U, as f is monotone and an
        added edge raises a max-weight matching by at most its weight; it is
        tight at the state's own set."""
        return value, {e: w for e, w in self.weights.items() if e not in state}

    def scaled(self, scale: float) -> MatchingInstance:
        return replace(self, weights={e: w / scale for e, w in self.weights.items()})

    @cached_property
    def block(self) -> tuple:
        """Step block, built once: edges in ascending id, each in [0, 1] at
        its weight, and one `<= 1` degree row per vertex in sorted order."""
        ids = tuple(sorted(self.edges))
        at = {e: k for k, e in enumerate(ids)}
        by_vertex = {}
        for e, (u, v) in self.edges.items():
            by_vertex.setdefault(u, {})[at[e]] = 1.0
            by_vertex.setdefault(v, {})[at[e]] = 1.0
        rows = [(by_vertex[v], LE, 1.0) for v in sorted(by_vertex)]
        return ids, [1.0] * len(ids), [self.weights[e] for e in ids], rows


@dataclass(frozen=True)
class FlowInstance:
    """An s-t network; `network` gives an uncapacitated (math.inf) arc a finite
    stand-in, safe as validation rejects an s-t path of such arcs (see FlowNetwork)."""

    arcs: dict  # element id -> (tail, head)
    capacities: dict  # element id -> capacity >= 0, math.inf = uncapacitated
    source: int
    sink: int

    family = FLOW  # class attribute, not a field

    def __post_init__(self):
        if self.source == self.sink:
            raise InstanceError("source equals sink")
        if self.capacities.keys() != self.arcs.keys():
            raise InstanceError(
                f"capacities {sorted(self.capacities)} != arcs {sorted(self.arcs)}")
        for a, c in self.capacities.items():
            if not c >= 0:  # also rejects NaN; inf stays allowed
                raise InstanceError(f"arc {a} has capacity {c}, expected a number >= 0")
        # Every arc is built by step m, so fixed and orderable arcs both
        # count: an s-t path of uncapacitated arcs makes the last steps'
        # max flow unbounded, which no finite stand-in capacity represents.
        reached, frontier = {self.source}, [self.source]
        while frontier:
            for k, head in self.network.out.get(frontier.pop(), ()):
                if head in reached or not math.isinf(self.capacities[self.network.arcs[k]]):
                    continue
                if head == self.sink:
                    raise InstanceError(
                        "the sink is reachable from the source through uncapacitated "
                        "arcs alone, so the max flow is unbounded"
                    )
                reached.add(head)
                frontier.append(head)

    @property
    def elements(self) -> dict:
        return self.arcs

    def value(self, usable) -> float:
        """Max s-t flow value over the usable arcs."""
        return self.grow(None, usable)[0]

    def support(self, usable) -> set:
        """Arcs with flow > 0 in `grow`'s run."""
        net, flow = self.network, self.grow(None, usable)[1][2]
        return {a for a, f in zip(net.arcs, flow) if f}

    def grow(self, state, added):
        """(value, state) once the arcs `added` become usable too. A state is
        (units, residual, flow, side) in `network.units`, indexed like
        `network.arcs`: a max flow over the usable arcs and its min cut's
        source side (None: the zero flow, no arc usable). `_augment` starts
        from that flow, feasible with more arcs too; the state is not changed."""
        net = self.network
        if state is None:
            units, residual, flow = 0, [0] * len(net.arcs), [0] * len(net.arcs)
        else:
            units, residual, flow = state[0], list(state[1]), list(state[2])
        for a in added:
            k = net.index[a]
            residual[k] = net.units[k] - flow[k]
        units, side = _augment(net, residual, flow, units)
        return _to_float(units, net.d), (units, residual, flow, side)

    def dual(self, value, state):
        """(constant, {arc id: weight}) of the min cut at a (value, state)
        of `grow`: each arc leaving the state's source side weighs its
        `network.caps`. f(U) is at most the weight of U's arcs in the cut
        for every usable set U, with equality at the state's own set, whose
        flow saturates the cut."""
        net, side = self.network, state[3]
        return 0.0, {net.arcs[k]: cap for k, ((t, h), cap) in enumerate(zip(net.ends, net.caps))
                     if t in side and h not in side}

    @cached_property
    def network(self) -> FlowNetwork:
        """Adjacency of every arc, built once per instance."""
        return FlowNetwork(self)

    def scaled(self, scale: float) -> FlowInstance:
        return replace(self, capacities={a: c / scale for a, c in self.capacities.items()})

    @cached_property
    def block(self) -> tuple:
        """Step block read off `network`, built once: arcs in ascending id,
        each in [0, cap], the source's net outflow as the objective (the
        value `grow` counts), and one `= 0` conservation row per inner node
        in sorted order; zero sums are dropped, so a self-loop cancels."""
        net, objective, rows = self.network, [0.0] * len(self.network.arcs), []
        for node in sorted(net.out.keys() | net.into.keys()):
            coefs = {k: 1.0 for k, _ in net.out.get(node, ())}
            for k, _ in net.into.get(node, ()):
                coefs[k] = coefs.get(k, 0.0) - 1.0
            coefs = {k: c for k, c in coefs.items() if c != 0.0}
            if node == self.source:
                for k, c in coefs.items():
                    objective[k] = c
            elif node != self.sink and coefs:
                rows.append((coefs, EQ, 0.0))
        return net.arcs, net.caps, objective, rows


@dataclass(frozen=True)
class CoverageInstance:
    """A weighted coverage function: f(U) is the weight of the points that
    U's elements cover. An additive function covers one point per element."""

    covers: dict  # element id -> frozenset of points
    weights: dict  # point -> weight >= 0

    family = COVERAGE  # class attribute, not a field

    def __post_init__(self):
        for u, w in self.weights.items():
            if not (math.isfinite(w) and w >= 0):
                raise InstanceError(f"point {u} has weight {w}, expected a finite number >= 0")
        for e, points in self.covers.items():
            if missing := set(points).difference(self.weights):
                raise InstanceError(f"element {e} covers points {sorted(missing)} with no weight")

    @property
    def elements(self) -> dict:
        return self.covers

    def value(self, usable) -> float:
        """Weight of the points the usable elements cover."""
        return self.grow(None, usable)[0]

    def support(self, usable) -> set:
        """Every usable element: together they cover every point they can."""
        return set(usable)

    def grow(self, state, added):
        """(value, state) once the elements `added` become usable too; a
        state is the covered point set (None: no point yet), and the value
        is its weight summed in exact ints (`_dyadic`), rounded once."""
        covered = (state or frozenset()).union(*(self.covers[e] for e in added))
        units, d = self._units
        return _to_float(sum(units[u] for u in covered), d), covered

    def dual(self, value, state):
        """(constant, {element id: weight}) of the marginal bound at a (value,
        state) of `grow`: each element weighs the points it covers outside
        the state. Coverage is monotone and submodular, so f(U) is at most
        value plus U's weights for every usable U, with equality at the state."""
        units, d = self._units
        return value, {e: _to_float(sum(units[u] for u in points - state), d)
                       for e, points in self.covers.items()}

    def scaled(self, scale: float) -> CoverageInstance:
        return replace(self, weights={u: w / scale for u, w in self.weights.items()})

    @cached_property
    def _units(self) -> tuple:
        """({point: weight as an exact int over d}, d), built once."""
        units, d = _dyadic(list(self.weights.values()))
        return dict(zip(self.weights, units)), d

    @cached_property
    def block(self) -> tuple:
        """Step block, built once: elements in ascending id, each in [0, 1]
        at 0, then points in sorted order, keyed ("point", u) so that none
        meets an element id, each in [0, 1] at its weight, and one row per
        point, y_u - (the x_e of the elements covering u) <= 0."""
        elems, points = sorted(self.covers), sorted(self.weights)
        at = {u: len(elems) + k for k, u in enumerate(points)}
        rows = {u: {at[u]: 1.0} for u in points}
        for k, e in enumerate(elems):
            for u in self.covers[e]:
                rows[u][k] = -1.0
        ids = (*elems, *(("point", u) for u in points))
        objective = [0.0] * len(elems) + [self.weights[u] for u in points]
        return ids, [1.0] * len(ids), objective, [(rows[u], LE, 0.0) for u in points]


@dataclass(frozen=True)
class Instance:
    data: MatchingInstance | FlowInstance | CoverageInstance  # the one subproblem family
    orderable: tuple  # sorted element ids, the ground set; |orderable| = m
    fixed: tuple  # element ids always available

    def __post_init__(self):
        if not isinstance(self.data, (MatchingInstance, FlowInstance, CoverageInstance)):
            raise InstanceError(f"data is a {type(self.data).__name__}, "
                                "expected a CoverageInstance, MatchingInstance or FlowInstance")
        if any(a >= b for ids in (self.orderable, self.fixed) for a, b in zip(ids, ids[1:])):
            raise InstanceError("orderable and fixed element ids must each be strictly increasing")
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

    @cached_property
    def _exact_order(self) -> tuple:
        """The best order, as positions in `orderable`, from `exact_order`."""
        return exact_order(self)


def make_instance(data, fixed_ids) -> Instance:
    fixed = tuple(sorted(fixed_ids))
    return Instance(data, tuple(i for i in sorted(data.elements) if i not in fixed), fixed)


# ---------------------------------------------------------------------------
# combinatorial value oracles


def best_matching(inst: MatchingInstance, available):
    """(weight, edge-id tuple) of a max-weight matching, the lexicographically
    smallest edge set on ties: matchings come in lexicographic order and
    their exact int weights (`_dyadic`) must grow strictly to replace one."""
    avail = sorted(set(available))
    units, d = _dyadic([inst.weights[e] for e in avail])
    best_w, best_set = -1, None
    for subset, weight in _matchings(inst, avail, units):
        if weight > best_w:
            best_w, best_set = weight, subset
    return _to_float(best_w, d), best_set


def _matchings(inst: MatchingInstance, avail, units):
    """Yield (edge-id tuple, weight from `units`, by position in avail) for
    every matching among avail, in lexicographic order of the edge-id tuple."""

    def rec(start, used, chosen, weight):
        yield tuple(chosen), weight
        for k in range(start, len(avail)):
            e = avail[k]
            u, v = inst.edges[e]
            if u in used or v in used:
                continue
            chosen.append(e)
            yield from rec(k + 1, used | {u, v}, chosen, weight + units[k])
            chosen.pop()

    yield from rec(0, frozenset(), [], 0)


def _dyadic(values):
    """(ints, d): every float is dyadic, so each is an exact int over d = 2^k."""
    ratios = [v.as_integer_ratio() for v in values]
    d = max((q for _, q in ratios), default=1)
    return [p * (d // q) for p, q in ratios], d


def _to_float(units, d) -> float:
    """units / d, correctly rounded; inf where it overflows a float."""
    try:
        return units / d
    except OverflowError:
        return math.inf


class FlowNetwork:
    """Adjacency of a `FlowInstance`, the flow family's one structure, with arcs at
    positions 0.. in ascending id: `arcs` (ids), `index` (id -> position),
    `units` (capacities as exact ints over the power of two `d`), `caps`
    (units / d as floats), `ends` ((tail, head) per position), and per node
    the arcs leaving it (`out`) and entering it (`into`) as (position, other
    end). An uncapacitated arc's units are the sum of all finite ones: with
    no s-t path of uncapacitated arcs, the finite arcs hold an s-t cut, so
    no max flow exceeds it."""

    def __init__(self, inst: FlowInstance):
        self.source, self.sink = inst.source, inst.sink
        self.arcs = tuple(sorted(inst.arcs))
        self.index = {a: k for k, a in enumerate(self.arcs)}
        caps = [inst.capacities[a] for a in self.arcs]
        units, self.d = _dyadic([0.0 if math.isinf(c) else c for c in caps])
        stand_in = sum(units)
        self.units = [stand_in if math.isinf(c) else u for c, u in zip(caps, units)]
        self.caps = [_to_float(u, self.d) for u in self.units]
        self.ends = [inst.arcs[a] for a in self.arcs]
        self.out, self.into = {}, {}
        for k, (t, h) in enumerate(self.ends):
            self.out.setdefault(t, []).append((k, h))
            self.into.setdefault(h, []).append((k, t))


def _augment(net: FlowNetwork, residual, flow, value):
    """Edmonds-Karp on exact ints from a feasible flow of value `value`:
    augment along shortest paths until none is left, updating `residual`
    and `flow` (by arc position) in place. Returns the max flow value and
    the nodes the last, failing search reached: the source side of a min
    cut. Adjacency is scanned in ascending arc id and residual (reverse)
    arcs after all forward arcs, so the run is deterministic; an arc that
    is not usable has residual 0 and flow 0."""
    source, sink = net.source, net.sink
    while True:
        # BFS for a shortest augmenting path; parent[node] = (arc, forward?)
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for k, h in net.out.get(u, ()):
                if h not in parent and residual[k]:
                    parent[h] = (k, True)
                    queue.append(h)
            for k, t in net.into.get(u, ()):
                if t not in parent and flow[k]:
                    parent[t] = (k, False)
                    queue.append(t)
        if sink not in parent:
            return value, parent.keys()
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


def exact_order(instance: Instance) -> tuple:
    """The best order, as positions in `orderable`, certified by the family's
    duals instead of a table of all 2^m step values (m <= SUBSET_GUARD).

    `bound` holds T(S), the least of a few modular upper bounds on the step
    value over every bitmask S, each read off the family's `dual` with the
    fixed elements folded into its constant; the first is the dual at f(all).
    Each round takes `_best_order` on T and walks `grow` along that order.
    Where T overshoots the walked value by more than 1e-12 of it, that
    prefix's dual, tight there, joins the bounds. Once no prefix overshoots,
    the order's total equals its T total, which no order's total exceeds, so
    it is the best order; and as T >= f everywhere, an order the tie rule
    prefers on f it prefers on T too, so ties resolve as on the full table.
    A round that lowers no overshooting prefix raises SolveError.
    """
    m, data, elems = instance.m, instance.data, instance.orderable
    if m > SUBSET_GUARD:
        raise InstanceError(f"m={m} exceeds subset-table guard {SUBSET_GUARD}")
    root = data.grow(None, instance.fixed)[1]
    with np.errstate(over="ignore"):  # a sum past the float range is inf, still a bound
        bound = _modular(instance, *data.grow(root, elems))
        while True:
            order = _best_order(bound, m)[1]
            state, mask, over = root, 0, []
            for i in order:
                value, state = data.grow(state, (elems[i],))
                mask |= 1 << i
                if bound[mask] > value * _TIE:
                    over.append((mask, value, state))
            if not over:
                return order
            lowered = False
            for mask, value, state in over:
                cut = _modular(instance, value, state)
                lowered |= bool(cut[mask] < bound[mask])
                np.minimum(bound, cut, out=bound)
            if not lowered:
                raise SolveError(f"the {data.family} duals lower none of the {len(over)} "
                                 "prefixes whose bound overshoots the walked value")


def _modular(instance: Instance, value, state):
    """The family's dual at (value, state) as an upper bound on the step
    value of every bitmask of the orderable elements: its constant plus the
    fixed elements' weights, in ascending id, plus the weights of the set's
    orderable elements, in ascending position."""
    constant, weights = instance.data.dual(value, state)
    for e in instance.fixed:
        constant += weights.get(e, 0.0)
    out = np.empty(1 << instance.m)
    out[0] = constant
    for i, e in enumerate(instance.orderable):
        np.add(out[:1 << i], weights.get(e, 0.0), out=out[1 << i:2 << i])
    return out


def _best_order(table, m: int):
    """(total, order) of the best ordering of range(m), where realizing the
    bitmask S adds table[S]: the lexicographically first best order, by a
    subset DP over the 2^m masks in numpy.

    tail[S] is the best value still to come once S is realized, and the
    scalar rule scans S's bits in ascending order: a later bit must win by
    more than 1e-12 of the best so far. The sets are taken one popcount
    layer at a time from the full set down, so every superset's tail is
    known, in blocks of at most _CELLS candidates. A set whose candidates
    all equal their maximum or fall short of it by more than that margin
    gets the maximum, which is what the scan keeps; the few others are
    scanned. The order then takes, from the empty set on, the smallest
    element whose continuation falls short of tail[S] by at most 1e-12 of
    it (totals are nonnegative), so near-ties resolve alike at any
    magnitude. The total is summed forward along that order, as the order's
    own step values would be; table[0] is never read.
    """
    table = np.asarray(table, dtype=float)
    full = (1 << m) - 1
    size = np.zeros(full + 1, dtype=np.uint8)  # popcount of each mask
    for i in range(m):
        np.add(size[:1 << i], 1, out=size[1 << i:2 << i])
    by_size = np.argsort(size, kind="stable")
    counts = np.bincount(size, minlength=m + 1)
    ends = np.cumsum(counts)
    bits, width = (1 << np.arange(m))[:, None], _CELLS // max(m, 1)
    tail = np.zeros(full + 1)
    ahead = np.full(full + 1, -math.inf)  # table[S] + tail[S] once tail[S] is known
    ahead[full] = table[full] + tail[full]
    for k in range(m - 1, -1, -1):
        layer = by_size[ends[k] - counts[k]:ends[k]]
        for lo in range(0, len(layer), width):
            sets = layer[lo:lo + width]
            cand = ahead[bits | sets]  # bit by set; -inf where the bit is already in
            best = cand.max(axis=0)
            near = ~((cand == best) | (cand * _TIE < best)).all(axis=0)
            if near.any():
                best[near] = _scan(cand[:, near])
            tail[sets] = best
            ahead[sets] = table[sets] + best
    total, mask, order = 0.0, 0, []
    while mask != full:
        for i in range(m):
            if not mask >> i & 1:
                nxt = mask | 1 << i
                if not tail[mask] > ahead[nxt] * _TIE:
                    break
        order.append(i)
        total += float(table[nxt])
        mask = nxt
    return total, tuple(order)


def _scan(cand):
    """Each column's best candidate by the scalar rule: rows (bits) in
    order, a later one kept only if it beats the best so far by more than
    1e-12 of it."""
    best = np.full(cand.shape[1], -math.inf)
    for row in cand:
        np.copyto(best, row, where=row > best * _TIE)
    return best


def emit_step(instance: Instance, j: int, h_vars, builder) -> dict:
    """Add the step-j subproblem block to `builder`: one variable per
    element of the family's `block` in [0, bound] at its objective
    coefficient, x_e - bound_e * h_e <= 0 for each orderable element whose
    bound is positive (a zero bound already holds x_e at zero), then the
    block's rows. h_vars maps orderable element id -> the chain variable for
    column j. Returns the new variables, a dict element id -> var."""
    if not (1 <= j <= instance.m):
        raise InstanceError(f"step {j} out of range")
    ids, bounds, objective, rows = instance.data.block
    x = [builder.add_var(0.0, bound, c) for bound, c in zip(bounds, objective)]
    for e, var, bound in zip(ids, x, bounds):
        if e in h_vars and bound > 0:
            builder.add(LinearConstraint({var: 1.0, h_vars[e]: -bound}, LE, 0.0))
    for coefs, rel, rhs in rows:
        builder.add(LinearConstraint({x[k]: c for k, c in coefs.items()}, rel, rhs))
    return dict(zip(ids, x))
